#include "hdl/codegen.hpp"

#include <dlfcn.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <vector>

#include "common/fault_inject.hpp"
#include "common/fnv1a.hpp"
#include "common/log.hpp"

namespace usys::hdl::codegen {

namespace fs = std::filesystem;

namespace {

/// Bumping this invalidates every cached object (it is hashed with the
/// source), so emission changes can never collide with stale binaries.
constexpr const char* kVersionTag = "usys-hdl-codegen v1";

std::string i2s(long v) { return std::to_string(v); }

/// Register-value and gradient-component local names.
std::string rv(int r) {
  std::string s("v");
  s += std::to_string(r);
  return s;
}
std::string rg(int r, int s) {
  std::string n("g");
  n += std::to_string(r);
  n += '_';
  n += std::to_string(s);
  return n;
}

/// Exact double literal (hexfloat round-trips bit for bit).
std::string dlit(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// Emits one translation unit's worth of a BytecodeProgram.
class Emitter {
 public:
  explicit Emitter(const BytecodeProgram& p) : p_(p), S_(p.n_seeds) {}

  std::string run() {
    out_.reserve(1 << 14);
    add("// ", kVersionTag, " — machine-generated, do not edit\n");
    add("// entity: ", p_.entity_name, "\n");
    add("// seeds=", i2s(S_), " frame=", i2s(p_.n_frame), " regs=", i2s(p_.n_regs),
        " ddt=", i2s(p_.ddt_sites), " integ=", i2s(p_.integ_sites),
        " asserts=", i2s(static_cast<long>(p_.assert_lines.size())), "\n");
    add("#include <cmath>\n\n");
    add("extern \"C\" {\n\n");
    // Textual twin of codegen::CgIo — keep the field order in sync.
    add("typedef struct {\n"
        "  const double* xs;\n"
        "  const double* frame;\n"
        "  double c0;\n"
        "  double c1;\n"
        "  double* ddt;\n"
        "  double* integ;\n"
        "  double* f_out;\n"
        "  double* j_out;\n"
        "  int* fired_sites;\n"
        "  double* fired_vals;\n"
        "  int* n_fired;\n"
        "} usys_cg_io;\n\n");
    function("usys_cg_dc", p_.dc_code, HdlPass::dc, /*stamps=*/true);
    function("usys_cg_dcddt", p_.dc_code, HdlPass::dc_ddt, /*stamps=*/true);
    function("usys_cg_tran", p_.tran_code, HdlPass::transient, /*stamps=*/true);
    function("usys_cg_commit", p_.commit_code, HdlPass::commit, /*stamps=*/false);
    add("}  // extern \"C\"\n");
    return std::move(out_);
  }

 private:
  template <typename... Parts>
  void add(Parts&&... parts) {
    (out_.append(parts), ...);
  }

  /// `gline(dst, expr-of-s)` emits one unrolled gradient assignment per seed.
  template <typename ExprFn>
  void gline(int dst, ExprFn&& expr) {
    for (int s = 0; s < S_; ++s) add("  ", rg(dst, s), " = ", expr(s), ";\n");
  }

  void function(const char* name, const std::vector<Insn>& code, HdlPass pass,
                bool stamps) {
    add("void ", name, "(usys_cg_io* io) {\n");
    add("  const double* xs = io->xs; (void)xs;\n");
    add("  const double* fr = io->frame; (void)fr;\n");
    add("  double* F = io->f_out; (void)F;\n");
    add("  double* J = io->j_out; (void)J;\n");
    add("  const double c0 = io->c0; (void)c0;\n");
    add("  const double c1 = io->c1; (void)c1;\n");
    add("  double* dd = io->ddt; (void)dd;\n");
    add("  double* ii = io->integ; (void)ii;\n");
    if (pass == HdlPass::commit) {
      add("  int* fs = io->fired_sites; (void)fs;\n");
      add("  double* fv = io->fired_vals; (void)fv;\n");
      add("  int* nf = io->n_fired; (void)nf;\n");
    }
    // Frame registers start from the instance's elaborated init values (the
    // VM copies frame_init the same way); temporaries are always written
    // before being read, the zero init just keeps the TU warning-free.
    for (int r = 0; r < p_.n_regs; ++r) {
      if (r < p_.n_frame) {
        add("  double ", rv(r), " = fr[", i2s(r), "];");
      } else {
        add("  double ", rv(r), " = 0.0;");
      }
      for (int s = 0; s < S_; ++s) add(" double ", rg(r, s), " = 0.0;");
      add("\n");
    }
    for (const Insn& in : code) insn(in, pass, stamps);
    add("}\n\n");
  }

  void insn(const Insn& in, HdlPass pass, bool stamps) {
    const int S = S_;
    switch (in.op) {
      case Op::kconst: {
        add("  ", rv(in.dst), " = ", dlit(p_.constants[static_cast<std::size_t>(in.a)]),
            ";\n");
        gline(in.dst, [](int) { return std::string("0.0"); });
        break;
      }
      case Op::copy: {
        add("  ", rv(in.dst), " = ", rv(in.a), ";\n");
        gline(in.dst, [&](int s) { return rg(in.a, s); });
        break;
      }
      case Op::read_across: {
        // Mirrors the VM: v = 0; if (a) v += x[a]; if (c) v -= x[c]. The
        // value reads go through the seed-gathered xs block (in.a >= 0 iff
        // in.b >= 0: every non-ground node is seeded).
        std::string expr("0.0");
        if (in.b >= 0 && in.d >= 0) {
          expr = "xs[" + i2s(in.b) + "] - xs[" + i2s(in.d) + "]";
        } else if (in.b >= 0) {
          expr = "xs[" + i2s(in.b) + "]";
        } else if (in.d >= 0) {
          expr = "0.0 - xs[" + i2s(in.d) + "]";
        }
        add("  ", rv(in.dst), " = ", expr, ";\n");
        gline(in.dst, [&](int s) {
          double g = 0.0;
          if (s == in.b) g += 1.0;
          if (s == in.d) g -= 1.0;
          return dlit(g);
        });
        break;
      }
      case Op::read_branch: {
        const char* sgn = in.c > 0 ? "" : "-";
        add("  ", rv(in.dst), " = ", sgn, "xs[", i2s(in.b), "];\n");
        gline(in.dst,
              [&](int s) { return s == in.b ? dlit(static_cast<double>(in.c)) : "0.0"; });
        break;
      }
      case Op::neg: {
        add("  { const double a = ", rv(in.a), ";\n");
        gline(in.dst, [&](int s) { return "-" + rg(in.a, s); });
        add("  ", rv(in.dst), " = -a; }\n");
        break;
      }
      case Op::add:
      case Op::sub: {
        const char* op = in.op == Op::add ? " + " : " - ";
        add("  { const double a = ", rv(in.a), ", b = ", rv(in.b), ";\n");
        gline(in.dst, [&](int s) { return rg(in.a, s) + op + rg(in.b, s); });
        add("  ", rv(in.dst), " = a", op, "b; }\n");
        break;
      }
      case Op::mul: {
        add("  { const double a = ", rv(in.a), ", b = ", rv(in.b), ";\n");
        gline(in.dst, [&](int s) { return rg(in.a, s) + " * b + a * " + rg(in.b, s); });
        add("  ", rv(in.dst), " = a * b; }\n");
        break;
      }
      case Op::div: {
        // Same formulas as sym::Dual::operator/ (and the VM) for bit parity.
        add("  { const double a = ", rv(in.a), ", b = ", rv(in.b), ";\n");
        add("  const double inv = 1.0 / b; const double rvv = a * inv;\n");
        gline(in.dst, [&](int s) { return "(" + rg(in.a, s) + " - rvv * " + rg(in.b, s) + ") * inv"; });
        add("  ", rv(in.dst), " = rvv; }\n");
        break;
      }
      case Op::pow: {
        add("  { const double a = ", rv(in.a), ", b = ", rv(in.b), ";\n");
        add("  const double f = std::pow(a, b);\n");
        add("  const double dfa = b * std::pow(a, b - 1.0);\n");
        add("  const double dfb = (a > 0.0) ? f * std::log(a) : 0.0;\n");
        gline(in.dst, [&](int s) { return "dfa * " + rg(in.a, s) + " + dfb * " + rg(in.b, s); });
        add("  ", rv(in.dst), " = f; }\n");
        break;
      }
      case Op::sin:
        unary("std::sin(a)", "std::cos(a)", in);
        break;
      case Op::cos:
        unary("std::cos(a)", "-std::sin(a)", in);
        break;
      case Op::tan:
        add("  { const double a = ", rv(in.a), ";\n");
        add("  const double cc = std::cos(a);\n");
        add("  const double f = std::tan(a); const double df = 1.0 / (cc * cc);\n");
        gline(in.dst, [&](int s) { return "df * " + rg(in.a, s); });
        add("  ", rv(in.dst), " = f; }\n");
        break;
      case Op::exp:
        unary("std::exp(a)", "f", in);
        break;
      case Op::log:
        unary("std::log(a)", "1.0 / a", in);
        break;
      case Op::sqrt:
        unary("std::sqrt(a)", "0.5 / f", in);
        break;
      case Op::abs:
        add("  { const double a = ", rv(in.a), ";\n");
        add("  const double df = a >= 0.0 ? 1.0 : -1.0;\n");
        gline(in.dst, [&](int s) { return "df * " + rg(in.a, s); });
        add("  ", rv(in.dst), " = std::abs(a); }\n");
        break;
      case Op::min:
      case Op::max: {
        // Piecewise selection: value and gradient follow the active branch.
        const char* cmp = in.op == Op::min ? " <= " : " >= ";
        add("  if (", rv(in.a), cmp, rv(in.b), ") {\n");
        add("  ", rv(in.dst), " = ", rv(in.a), ";\n");
        gline(in.dst, [&](int s) { return rg(in.a, s); });
        add("  } else {\n");
        add("  ", rv(in.dst), " = ", rv(in.b), ";\n");
        gline(in.dst, [&](int s) { return rg(in.b, s); });
        add("  }\n");
        break;
      }
      case Op::limit: {
        add("  if (", rv(in.a), " < ", rv(in.b), ") {\n");
        add("  ", rv(in.dst), " = ", rv(in.b), ";\n");
        gline(in.dst, [&](int s) { return rg(in.b, s); });
        add("  } else if (", rv(in.a), " > ", rv(in.c), ") {\n");
        add("  ", rv(in.dst), " = ", rv(in.c), ";\n");
        gline(in.dst, [&](int s) { return rg(in.c, s); });
        add("  } else {\n");
        add("  ", rv(in.dst), " = ", rv(in.a), ";\n");
        gline(in.dst, [&](int s) { return rg(in.a, s); });
        add("  }\n");
        break;
      }
      case Op::ddt: {
        const std::string st0 = "dd[" + i2s(2 * in.b) + "]";        // u_prev
        const std::string st1 = "dd[" + i2s(2 * in.b + 1) + "]";    // udot_prev
        switch (pass) {
          case HdlPass::dc:
            add("  ", rv(in.dst), " = 0.0;\n");
            gline(in.dst, [](int) { return std::string("0.0"); });
            break;
          case HdlPass::dc_ddt:
            // jq extraction: value 0 (u - u, NaN-preserving like the VM),
            // argument gradient passes with unit gain.
            add("  { const double u = ", rv(in.a), ";\n");
            gline(in.dst, [&](int s) { return rg(in.a, s); });
            add("  ", rv(in.dst), " = u - u; }\n");
            break;
          case HdlPass::transient:
          case HdlPass::commit:
            add("  { const double u = ", rv(in.a), ";\n");
            add("  const double a0 = 1.0 / c1;\n");
            add("  const double hist = (c0 > 0.0) ? (-a0 * ", st0, " - ", st1,
                ") : (-a0 * ", st0, ");\n");
            add("  const double r = u * a0 + hist;\n");
            gline(in.dst, [&](int s) { return rg(in.a, s) + " * a0"; });
            add("  ", rv(in.dst), " = r;\n");
            if (pass == HdlPass::commit) add("  ", st1, " = r; ", st0, " = u;\n");
            add("  }\n");
            break;
        }
        break;
      }
      case Op::integ: {
        const std::string s0 = "ii[" + i2s(3 * in.b) + "]";         // s0
        const std::string sp = "ii[" + i2s(3 * in.b + 1) + "]";     // s_prev
        const std::string ep = "ii[" + i2s(3 * in.b + 2) + "]";     // e_prev
        switch (pass) {
          case HdlPass::dc:
          case HdlPass::dc_ddt:
            add("  ", rv(in.dst), " = ", s0, ";\n");
            gline(in.dst, [](int) { return std::string("0.0"); });
            break;
          case HdlPass::transient:
          case HdlPass::commit:
            add("  { const double u = ", rv(in.a), ";\n");
            add("  const double r = u * c1 + (", sp, " + c0 * ", ep, ");\n");
            gline(in.dst, [&](int s) { return rg(in.a, s) + " * c1"; });
            add("  ", rv(in.dst), " = r;\n");
            if (pass == HdlPass::commit) add("  ", sp, " = r; ", ep, " = u;\n");
            add("  }\n");
            break;
        }
        break;
      }
      case Op::stamp_flow: {
        if (!stamps) break;  // commit pass evaluates, never stamps
        // Fused stamp: the freshly computed value/gradient row accumulates
        // straight into the seed-indexed residual / Jacobian block.
        if (in.b >= 0) {
          add("  F[", i2s(in.b), "] += ", rv(in.dst), ";\n");
          for (int s = 0; s < S; ++s)
            add("  J[", i2s(in.b * S + s), "] += ", rg(in.dst, s), ";\n");
        }
        if (in.d >= 0) {
          add("  F[", i2s(in.d), "] -= ", rv(in.dst), ";\n");
          for (int s = 0; s < S; ++s)
            add("  J[", i2s(in.d * S + s), "] -= ", rg(in.dst, s), ";\n");
        }
        break;
      }
      case Op::stamp_effort: {
        if (!stamps) break;
        const bool plus = in.c > 0;
        add("  F[", i2s(in.b), "] ", plus ? "+=" : "-=", " ", rv(in.dst), ";\n");
        for (int s = 0; s < S; ++s)
          add("  J[", i2s(in.b * S + s), "] ", plus ? "+=" : "-=", " ",
              rg(in.dst, s), ";\n");
        break;
      }
      case Op::assert_check: {
        if (pass != HdlPass::commit) break;
        add("  if (", rv(in.a), " <= 0.0) { const int k = *nf; fs[k] = ",
            i2s(in.b), "; fv[k] = ", rv(in.a), "; *nf = k + 1; }\n");
        break;
      }
    }
  }

  /// Common f/df unary shape: df may reference `a` and `f`.
  void unary(const char* fexpr, const char* dfexpr, const Insn& in) {
    add("  { const double a = ", rv(in.a), "; (void)a;\n");
    add("  const double f = ", fexpr, ";\n");
    add("  const double df = ", dfexpr, ";\n");
    gline(in.dst, [&](int s) { return "df * " + rg(in.a, s); });
    add("  ", rv(in.dst), " = f; }\n");
  }

  const BytecodeProgram& p_;
  const int S_;
  std::string out_;
};

// --- registry / cache --------------------------------------------------------

struct LoadedModel {
  CompiledModel fns;
  void* handle = nullptr;  // never dlclosed: entry points live process-long
};

struct Registry {
  std::mutex mu;
  std::map<std::uint64_t, std::unique_ptr<LoadedModel>> loaded;
  /// reset_for_test moves entries here instead of freeing them: devices
  /// created before a reset may still hold CompiledModel pointers.
  std::vector<std::unique_ptr<LoadedModel>> retired;
  std::set<std::uint64_t> failed;  ///< shapes that warned already
  std::string compiler_override;
  std::string cache_override;
  int probe = -1;  ///< -1 unknown, 0 unavailable, 1 ok (for current compiler)
  Stats stats;
};

Registry& reg() {
  static Registry r;
  return r;
}

std::string compiler_unlocked(const Registry& r) {
  if (!r.compiler_override.empty()) return r.compiler_override;
  if (const char* env = std::getenv("USYS_CODEGEN_CXX"); env != nullptr && *env != '\0')
    return env;
  return "c++";
}

std::string cache_dir_unlocked(const Registry& r) {
  if (!r.cache_override.empty()) return r.cache_override;
  if (const char* env = std::getenv("USYS_CODEGEN_CACHE"); env != nullptr && *env != '\0')
    return env;
  return "usys-codegen-cache";
}

/// Unique temp-file suffix: pid alone is not enough — two threads of one
/// process may race on the same shape (acquire() builds outside the
/// registry lock) and must not share temp paths.
std::string temp_suffix() {
  static std::atomic<unsigned> seq{0};
  std::string s(".tmp.");
  s += std::to_string(static_cast<long>(::getpid()));
  s += '.';
  s += std::to_string(seq.fetch_add(1, std::memory_order_relaxed));
  return s;
}

/// Writes `text` to `path` atomically (tmp + rename), so concurrent
/// writers sharing a cache dir never observe torn files.
bool write_file_atomic(const fs::path& path, const std::string& text) {
  std::error_code ec;
  fs::path tmp = path;
  tmp += temp_suffix();
  {
    std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
    if (!os) return false;
    os << text;
    if (!os.flush()) return false;
  }
  fs::rename(tmp, path, ec);
  if (ec) fs::remove(tmp, ec);
  return !ec;
}

std::string first_log_line(const fs::path& log) {
  std::ifstream is(log);
  std::string line;
  if (is && std::getline(is, line)) return line;
  return "(no compiler output captured)";
}

/// The compiler command and the cache paths are interpolated into a
/// std::system() line; refuse anything that the shell would interpret
/// (quotes, expansions, separators) instead of trying to quote it.
bool shell_safe(const std::string& s) {
  for (const char c : s) {
    const bool ok = (std::isalnum(static_cast<unsigned char>(c)) != 0) ||
                    c == ' ' || c == '.' || c == '_' || c == '/' || c == '+' ||
                    c == '-' || c == '=' || c == '~' || c == ',';
    if (!ok) return false;
  }
  return true;
}

/// Runs the host compiler on `cpp` producing `so` (via a temp + rename).
/// Returns an empty string on success, a diagnostic otherwise.
std::string compile_object(const std::string& cxx, const fs::path& cpp,
                           const fs::path& so) {
  if (!shell_safe(cxx) || !shell_safe(cpp.string()) || !shell_safe(so.string()))
    return "compiler command or cache path contains shell metacharacters";
  fs::path tmp_so = so;
  tmp_so += temp_suffix();
  fs::path log = so;
  log += ".log";
  // -ffp-contract=off: no FMA contraction, so the generated arithmetic stays
  // bit-identical to the VM's. -w: the TU is machine-generated; its warnings
  // land in the .log, never on the user's terminal.
  std::string cmd = cxx;
  cmd += " -O2 -fPIC -shared -ffp-contract=off -w -o \"";
  cmd += tmp_so.string();
  cmd += "\" \"";
  cmd += cpp.string();
  cmd += "\" > \"";
  cmd += log.string();
  cmd += "\" 2>&1";
  const int rc = std::system(cmd.c_str());
  std::error_code ec;
  if (rc != 0) {
    fs::remove(tmp_so, ec);
    std::string msg("compile failed (");
    msg += cxx;
    msg += "): ";
    msg += first_log_line(log);
    return msg;
  }
  fs::rename(tmp_so, so, ec);
  if (ec) {
    fs::remove(tmp_so, ec);
    return "could not move compiled object into the cache";
  }
  return {};
}

/// dlopens `so` and resolves the four entry points. Empty diagnostic on
/// success.
std::string load_object(const fs::path& so, LoadedModel& out) {
  void* h = ::dlopen(so.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (h == nullptr) {
    const char* err = ::dlerror();
    std::string msg("dlopen failed: ");
    msg += err != nullptr ? err : "(unknown)";
    return msg;
  }
  auto sym = [&](const char* name) {
    return reinterpret_cast<CompiledModel::Fn>(::dlsym(h, name));
  };
  out.fns.dc = sym("usys_cg_dc");
  out.fns.dc_ddt = sym("usys_cg_dcddt");
  out.fns.tran = sym("usys_cg_tran");
  out.fns.commit = sym("usys_cg_commit");
  if (out.fns.dc == nullptr || out.fns.dc_ddt == nullptr || out.fns.tran == nullptr ||
      out.fns.commit == nullptr) {
    ::dlclose(h);
    return "cached object is missing codegen entry points";
  }
  out.handle = h;
  return {};
}

}  // namespace

std::string generate_source(const BytecodeProgram& p) { return Emitter(p).run(); }

namespace {

void fnv_i64(std::uint64_t& h, std::int64_t v) { h = fnv1a_bytes(&v, sizeof v, h); }
void fnv_str(std::uint64_t& h, const std::string& s) {
  fnv_i64(h, static_cast<std::int64_t>(s.size()));
  h = fnv1a(s, h);
}

}  // namespace

/// Zeroes the instruction fields the emitter never reads: the value-read and
/// stamp ops carry pre-resolved *global* unknown indices (in.a/in.c) that
/// are instance data — emission goes through the seed-slot fields only, so
/// two instances of one model on different nodes must hash identically
/// (CodegenCache.InstancesShareOneCompilation pins this).
Insn canonical_for_hash(Insn in) {
  switch (in.op) {
    case Op::read_across:
    case Op::stamp_flow:
      in.a = 0;
      in.c = 0;
      break;
    case Op::read_branch:
    case Op::stamp_effort:
      in.a = 0;  // branch unknown; the sign (in.c) stays — it is emitted
      break;
    default:
      break;
  }
  return in;
}

std::uint64_t shape_hash(const BytecodeProgram& p) {
  // Mirrors the inputs of Emitter exactly — extend this whenever emission
  // starts reading a new program field (shape_hash equality must keep
  // implying generate_source equality).
  std::uint64_t h = kFnv1aKeyOffset;
  fnv_str(h, std::string(kVersionTag));
  fnv_str(h, p.entity_name);
  fnv_i64(h, p.n_seeds);
  fnv_i64(h, p.n_frame);
  fnv_i64(h, p.n_regs);
  fnv_i64(h, p.ddt_sites);
  fnv_i64(h, p.integ_sites);
  fnv_i64(h, static_cast<std::int64_t>(p.assert_lines.size()));
  fnv_i64(h, static_cast<std::int64_t>(p.constants.size()));
  h = fnv1a_bytes(p.constants.data(), p.constants.size() * sizeof(double), h);
  for (const std::vector<Insn>* seg : {&p.dc_code, &p.tran_code, &p.commit_code}) {
    fnv_i64(h, static_cast<std::int64_t>(seg->size()));
    for (const Insn& raw : *seg) {
      const Insn in = canonical_for_hash(raw);
      fnv_i64(h, static_cast<std::int64_t>(in.op));
      fnv_i64(h, in.dst);
      fnv_i64(h, in.a);
      fnv_i64(h, in.b);
      fnv_i64(h, in.c);
      fnv_i64(h, in.d);
    }
  }
  return h;
}

std::uint64_t source_hash(const std::string& source) {
  return fnv1a(source, kFnv1aKeyOffset);
}

const CompiledModel* acquire(const BytecodeProgram& p) {
  // Injected compile failure: forces the VM fallback without poisoning the
  // registry's failed set, so the same shape compiles normally once the
  // site is disarmed.
  if (USYS_FAULT_POINT("codegen.compile")) {
    std::string msg("HDL codegen: entity '");
    msg += p.entity_name;
    msg += "': injected compile failure; falling back to the bytecode VM";
    log_warn(msg);
    return nullptr;
  }

  // Hash the program structure directly — the per-instance fast path must
  // not emit kilobytes of source just to look up the registry (arrays bind
  // thousands of instances of one shape).
  const std::uint64_t h = shape_hash(p);

  Registry& r = reg();
  std::string cxx;
  fs::path dir;
  {
    // Fast path + config snapshot under the lock; the slow build below runs
    // unlocked so two *different* shapes can compile concurrently. (Two
    // threads racing on the SAME shape both build — redundant but safe: the
    // on-disk protocol is tmp+rename, and the loser's handle is closed.)
    std::lock_guard<std::mutex> lock(r.mu);
    if (const auto it = r.loaded.find(h); it != r.loaded.end()) {
      ++r.stats.memory_hits;
      return &it->second->fns;
    }
    // No compiler probe: a cached object proves the toolchain once worked,
    // and a missing or broken compiler fails the compile below instead.
    if (r.failed.count(h) != 0) return nullptr;  // warned once already
    cxx = compiler_unlocked(r);
    dir = cache_dir_unlocked(r);
  }

  // --- unlocked build: load from the disk cache or compile ---
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  std::string stem("usys_cg_");
  stem += hex;
  const fs::path cpp = dir / (stem + ".cpp");
  const fs::path so = dir / (stem + ".so");

  LoadedModel lm;
  lm.fns.hash = h;
  std::string err;
  bool from_disk = false;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    err = "cannot create cache dir '";
    err += dir.string();
    err += '\'';
  } else if (fs::exists(so, ec) && !ec &&
             (err = load_object(so, lm)).empty()) {
    // Disk-cache hit: the filename is the content hash, so a stale model
    // source can never alias a current one.
    from_disk = true;
  } else {
    if (!err.empty()) {
      // The cached object exists but is corrupt (interrupted writer,
      // toolchain change); rebuild it instead of crashing or falling back.
      std::string msg("HDL codegen: entity '");
      msg += p.entity_name;
      msg += "': cached object ";
      msg += so.string();
      msg += " unusable (";
      msg += err;
      msg += "); recompiling";
      log_warn(msg);
      fs::remove(so, ec);
      err.clear();
    }
    if (!write_file_atomic(cpp, generate_source(p))) {
      err = "cannot write generated source to '";
      err += cpp.string();
      err += '\'';
    } else if ((err = compile_object(cxx, cpp, so)).empty()) {
      err = load_object(so, lm);
    }
  }

  std::lock_guard<std::mutex> lock(r.mu);
  if (const auto it = r.loaded.find(h); it != r.loaded.end()) {
    // Another thread registered this shape while we were building.
    if (lm.handle != nullptr) ::dlclose(lm.handle);  // dlopen refcount drop
    ++r.stats.memory_hits;
    return &it->second->fns;
  }
  if (!err.empty()) {
    if (r.failed.insert(h).second) {
      ++r.stats.failures;
      std::string msg("HDL codegen: entity '");
      msg += p.entity_name;
      msg += "': ";
      msg += err;
      msg += "; falling back to the bytecode VM";
      log_warn(msg);
    }
    return nullptr;
  }
  if (from_disk) {
    ++r.stats.disk_hits;
  } else {
    ++r.stats.compiles;
  }
  auto [it, inserted] = r.loaded.emplace(h, std::make_unique<LoadedModel>(lm));
  (void)inserted;
  return &it->second->fns;
}

bool compiler_available() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  if (r.probe < 0) {
    const fs::path dir = cache_dir_unlocked(r);
    std::error_code ec;
    fs::create_directories(dir, ec);
    const fs::path cpp = dir / "usys_cg_probe.cpp";
    const fs::path so = dir / "usys_cg_probe.so";
    const bool ok =
        !ec && write_file_atomic(cpp, "extern \"C\" int usys_cg_probe(void) { return 0; }\n") &&
        compile_object(compiler_unlocked(r), cpp, so).empty();
    r.probe = ok ? 1 : 0;
  }
  return r.probe == 1;
}

void set_compiler(std::string cmd) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  r.compiler_override = std::move(cmd);
  r.probe = -1;
  r.failed.clear();  // a fixed compiler deserves a fresh attempt (and warning)
}

std::string compiler() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  return compiler_unlocked(r);
}

void set_cache_dir(std::string dir) {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  r.cache_override = std::move(dir);
  r.probe = -1;
  r.failed.clear();  // a usable cache dir deserves a fresh attempt
}

std::string cache_dir() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  return cache_dir_unlocked(r);
}

Stats stats() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  return r.stats;
}

void reset_for_test() {
  Registry& r = reg();
  std::lock_guard<std::mutex> lock(r.mu);
  // Handles stay open and loaded entries are retired, not freed: HdlDevices
  // created before the reset may still hold entry pointers.
  for (auto& [h, lm] : r.loaded) r.retired.push_back(std::move(lm));
  r.loaded.clear();
  r.failed.clear();
  r.stats = Stats{};
  r.probe = -1;
}

}  // namespace usys::hdl::codegen
