#include "hdl/verify.hpp"

#include <algorithm>
#include <map>

#include "common/strings.hpp"

namespace usys::hdl {

bool VerifyReport::has_errors() const noexcept { return error_count() > 0; }

int VerifyReport::error_count() const noexcept {
  int n = 0;
  for (const auto& is : issues) {
    if (is.severity == VerifySeverity::error) ++n;
  }
  return n;
}

std::string VerifyReport::error_summary() const {
  std::string out;
  for (const auto& is : issues) {
    if (is.severity != VerifySeverity::error) continue;
    if (!out.empty()) out += "; ";
    out += "[" + is.rule + "] " + is.message;
  }
  return out;
}

namespace {

/// Shared state of one verification run. All checks funnel through add() so
/// every message carries the entity name and (when known) stream/insn site.
class Verifier {
 public:
  Verifier(const BytecodeProgram& p, int unknown_count, VerifyReport& rep)
      : p_(p), nu_(unknown_count), rep_(rep) {}

  void run() {
    check_layout();
    // Register/constant bounds below degrade gracefully when the layout is
    // broken (every access is checked against the declared sizes), so the
    // per-stream passes still produce useful findings.
    check_stream("dc", p_.dc_code);
    check_stream("tran", p_.tran_code);
    check_stream("commit", p_.commit_code);
    check_site_consistency();
  }

 private:
  void add(VerifySeverity sev, const char* rule, std::string msg,
           const std::string& stream = std::string(), int insn = -1) {
    VerifyIssue is;
    is.severity = sev;
    is.rule = rule;
    is.message = "entity '" + p_.entity_name + "': " + std::move(msg);
    is.stream = stream;
    is.insn = insn;
    rep_.issues.push_back(std::move(is));
  }

  void check_layout() {
    if (p_.n_regs < 0 || p_.n_frame < 0 || p_.n_frame > p_.n_regs) {
      add(VerifySeverity::error, "hdl-layout",
          str_format("register file layout invalid (n_regs=%d, n_frame=%d)", p_.n_regs,
                     p_.n_frame));
    }
    if (static_cast<int>(p_.frame_init.size()) != p_.n_frame) {
      add(VerifySeverity::error, "hdl-layout",
          str_format("frame_init holds %zu values for %d frame registers",
                     p_.frame_init.size(), p_.n_frame));
    }
    if (p_.n_seeds < 0 || static_cast<int>(p_.seed_unknowns.size()) != p_.n_seeds) {
      add(VerifySeverity::error, "hdl-layout",
          str_format("seed table holds %zu unknowns for n_seeds=%d",
                     p_.seed_unknowns.size(), p_.n_seeds));
    }
    for (std::size_t i = 0; i < p_.seed_unknowns.size(); ++i) {
      const int u = p_.seed_unknowns[i];
      if (u < 0 || u >= nu_) {
        add(VerifySeverity::error, "hdl-layout",
            str_format("seed slot %zu maps to unknown %d outside [0, %d)", i, u, nu_));
      }
    }
    for (std::size_t i = 0; i < p_.pairs.size(); ++i) {
      const auto& pl = p_.pairs[i];
      if (pl.na < -1 || pl.na >= nu_ || pl.nb < -1 || pl.nb >= nu_ || pl.br < 0 ||
          pl.br >= nu_) {
        add(VerifySeverity::error, "hdl-layout",
            str_format("effort pair %zu rows (na=%d, nb=%d, br=%d) outside the unknown "
                       "vector [0, %d)",
                       i, pl.na, pl.nb, pl.br, nu_));
      }
    }
    if (p_.ddt_sites < 0 || p_.integ_sites < 0) {
      add(VerifySeverity::error, "hdl-layout",
          str_format("negative integrator site counts (ddt=%d, integ=%d)", p_.ddt_sites,
                     p_.integ_sites));
    }
  }

  bool reg_ok(int r) const { return r >= 0 && r < p_.n_regs; }
  bool unknown_ok(int u) const { return u >= -1 && u < nu_; }
  bool seed_ok(int s) const { return s >= -1 && s < p_.n_seeds; }

  void check_stream(const char* stream, const std::vector<Insn>& code) {
    const std::string sname = stream;
    const bool commit = sname == "commit";
    const int n_regs = std::max(p_.n_regs, 0);
    const int n_seeds = std::max(p_.n_seeds, 0);

    // defined[r]: r has been written (frame registers start defined — the VM
    // copies frame_init in before executing).
    std::vector<char> defined(static_cast<std::size_t>(n_regs), 0);
    for (int r = 0; r < std::min(p_.n_frame, n_regs); ++r) defined[static_cast<std::size_t>(r)] = 1;
    // mask[r*S + s]: seed s may reach r's gradient (structural, may-analysis).
    std::vector<char> mask(static_cast<std::size_t>(n_regs) * static_cast<std::size_t>(n_seeds), 0);
    // The def/use table (insn_shape), cut to in-bounds registers.
    std::vector<InsnShape> shapes(code.size());

    const auto mrow = [&](int r) { return mask.begin() + static_cast<std::ptrdiff_t>(r) * n_seeds; };
    const auto mask_empty = [&](int r) {
      return std::all_of(mrow(r), mrow(r) + n_seeds, [](char c) { return c == 0; });
    };

    for (std::size_t i = 0; i < code.size(); ++i) {
      const Insn& in = code[i];
      const int ii = static_cast<int>(i);
      InsnShape& sh = shapes[i];
      sh = insn_shape(in, commit);
      bool bounds_ok = true;
      const auto bad = [&](std::string msg) {
        add(VerifySeverity::error, "hdl-operand-bounds",
            str_format("%s[%d] op %d: ", stream, ii, static_cast<int>(in.op)) + std::move(msg),
            sname, ii);
        bounds_ok = false;
      };
      const auto need_reg = [&](int r, const char* what) {
        if (!reg_ok(r)) bad(str_format("%s register %d outside [0, %d)", what, r, p_.n_regs));
      };

      switch (in.op) {
        case Op::kconst:
          need_reg(in.dst, "destination");
          if (in.a < 0 || in.a >= static_cast<int>(p_.constants.size()))
            bad(str_format("constant index %d outside [0, %zu)", in.a, p_.constants.size()));
          break;
        case Op::copy:
        case Op::neg:
        case Op::sin:
        case Op::cos:
        case Op::tan:
        case Op::exp:
        case Op::log:
        case Op::sqrt:
        case Op::abs:
          need_reg(in.dst, "destination");
          need_reg(in.a, "source");
          break;
        case Op::add:
        case Op::sub:
        case Op::mul:
        case Op::div:
        case Op::pow:
        case Op::min:
        case Op::max:
          need_reg(in.dst, "destination");
          need_reg(in.a, "lhs");
          need_reg(in.b, "rhs");
          break;
        case Op::limit:
          need_reg(in.dst, "destination");
          need_reg(in.a, "value");
          need_reg(in.b, "lower");
          need_reg(in.c, "upper");
          break;
        case Op::read_across:
          need_reg(in.dst, "destination");
          if (!unknown_ok(in.a) || !unknown_ok(in.c))
            bad(str_format("unknown indices (%d, %d) outside [-1, %d)", in.a, in.c, nu_));
          if (!seed_ok(in.b) || !seed_ok(in.d))
            bad(str_format("seed slots (%d, %d) outside [-1, %d)", in.b, in.d, p_.n_seeds));
          if (bounds_ok && ((in.a >= 0 && in.b < 0) || (in.c >= 0 && in.d < 0)))
            add(VerifySeverity::error, "hdl-grad-dropped",
                str_format("%s[%d]: across read of unknown %d has no AD seed slot — its "
                           "Jacobian column is silently dropped",
                           stream, ii, in.b < 0 ? in.a : in.c),
                sname, ii);
          break;
        case Op::read_branch:
          need_reg(in.dst, "destination");
          if (in.a < 0 || in.a >= nu_)
            bad(str_format("branch unknown %d outside [0, %d)", in.a, nu_));
          if (in.b < 0 || in.b >= p_.n_seeds)
            bad(str_format("branch seed slot %d outside [0, %d)", in.b, p_.n_seeds));
          if (in.c != 1 && in.c != -1) bad(str_format("branch sign %d is not +/-1", in.c));
          break;
        case Op::ddt:
        case Op::integ: {
          need_reg(in.dst, "destination");
          need_reg(in.a, "operand");
          const int limit = in.op == Op::ddt ? p_.ddt_sites : p_.integ_sites;
          if (in.b < 0 || in.b >= limit)
            bad(str_format("%s site %d outside [0, %d)", in.op == Op::ddt ? "ddt" : "integ",
                           in.b, limit));
          break;
        }
        case Op::stamp_flow:
          need_reg(in.dst, "value");
          if (!unknown_ok(in.a) || !unknown_ok(in.c))
            bad(str_format("stamp rows (%d, %d) outside [-1, %d)", in.a, in.c, nu_));
          if (!seed_ok(in.b) || !seed_ok(in.d))
            bad(str_format("stamp seed slots (%d, %d) outside [-1, %d)", in.b, in.d,
                           p_.n_seeds));
          if (bounds_ok && ((in.a >= 0 && in.b < 0) || (in.c >= 0 && in.d < 0)))
            add(VerifySeverity::error, "hdl-grad-dropped",
                str_format("%s[%d]: flow stamp row %d has no AD seed slot — capture-mode "
                           "execution would index out of bounds",
                           stream, ii, in.b < 0 ? in.a : in.c),
                sname, ii);
          break;
        case Op::stamp_effort:
          need_reg(in.dst, "value");
          if (in.a < 0 || in.a >= nu_)
            bad(str_format("effort branch row %d outside [0, %d)", in.a, nu_));
          if (in.b < 0 || in.b >= p_.n_seeds)
            bad(str_format("effort seed slot %d outside [0, %d)", in.b, p_.n_seeds));
          if (in.c != 1 && in.c != -1) bad(str_format("effort sign %d is not +/-1", in.c));
          break;
        case Op::assert_check:
          need_reg(in.a, "condition");
          if (in.b < 0 || in.b >= static_cast<int>(p_.assert_lines.size()))
            bad(str_format("assert site %d outside [0, %zu)", in.b, p_.assert_lines.size()));
          break;
        default:
          bad(str_format("unknown opcode %d", static_cast<int>(in.op)));
          break;
      }
      int kept = 0;
      for (int k = 0; k < sh.n_reads; ++k) {
        if (reg_ok(sh.reads[k])) sh.reads[kept++] = sh.reads[k];
      }
      sh.n_reads = kept;
      if (!reg_ok(sh.def)) sh.def = -1;

      // Def-before-use over the flat stream: the VM never clears temporary
      // registers between runs, so a read before the first write observes a
      // stale value from an unrelated earlier run.
      for (int k = 0; k < sh.n_reads; ++k) {
        const int r = sh.reads[k];
        if (r >= p_.n_frame && !defined[static_cast<std::size_t>(r)]) {
          add(VerifySeverity::error, "hdl-def-use",
              str_format("%s[%d]: register r%d read before any write", stream, ii, r),
              sname, ii);
        }
      }

      // Structural gradient propagation (may-analysis).
      if (n_seeds > 0 && bounds_ok) {
        switch (in.op) {
          case Op::kconst:
            std::fill(mrow(in.dst), mrow(in.dst) + n_seeds, 0);
            break;
          case Op::read_across:
            std::fill(mrow(in.dst), mrow(in.dst) + n_seeds, 0);
            if (in.b >= 0) *(mrow(in.dst) + in.b) = 1;
            if (in.d >= 0) *(mrow(in.dst) + in.d) = 1;
            break;
          case Op::read_branch:
            std::fill(mrow(in.dst), mrow(in.dst) + n_seeds, 0);
            *(mrow(in.dst) + in.b) = 1;
            break;
          case Op::stamp_flow:
          case Op::stamp_effort:
            // Checked below, via the value register's accumulated mask.
            if (!commit && mask_empty(in.dst)) {
              add(VerifySeverity::warning, "hdl-const-stamp",
                  str_format("%s[%d]: stamped value in r%d has a structurally zero "
                             "gradient — this contribution never produces a Jacobian "
                             "entry",
                             stream, ii, in.dst),
                  sname, ii);
            }
            break;
          case Op::assert_check:
            break;
          default:
            // Destination mask = union of the register reads (covers copy,
            // arithmetic, branch-selected min/max/limit, and ddt/integ —
            // whose dc_ddt pass forwards the operand gradient).
            if (sh.def >= 0) {
              std::vector<char> acc(static_cast<std::size_t>(n_seeds), 0);
              for (int k = 0; k < sh.n_reads; ++k) {
                for (int s = 0; s < n_seeds; ++s) {
                  if (*(mrow(sh.reads[k]) + s) != 0) acc[static_cast<std::size_t>(s)] = 1;
                }
              }
              std::copy(acc.begin(), acc.end(), mrow(sh.def));
            }
            break;
        }
      }

      if (sh.def >= 0) defined[static_cast<std::size_t>(sh.def)] = 1;
    }

    // Dead-code detection: backward liveness over the straight-line stream.
    // An instruction that only defines a register nothing later consumes is
    // unreachable work (the flat-IR analog of unreachable code). Reported
    // last instruction first.
    const std::vector<char> live = live_insns(shapes, n_regs);
    for (std::size_t ri = code.size(); ri-- > 0;) {
      if (live[ri]) continue;
      add(VerifySeverity::warning, "hdl-dead-code",
          str_format("%s[%zu] op %d: result in r%d is never used", stream, ri,
                     static_cast<int>(code[ri].op), shapes[ri].def),
          sname, static_cast<int>(ri));
    }
  }

  /// tran_code and commit_code are compiled from the same statement list, so
  /// their integrator site references must agree exactly; and the commit pass
  /// advances each site's state, so a site committed twice per step
  /// double-integrates.
  void check_site_consistency() {
    const auto sites_of = [](const std::vector<Insn>& code, Op op) {
      std::map<int, int> uses;
      for (const auto& in : code) {
        if (in.op == op) ++uses[in.b];
      }
      return uses;
    };
    for (const Op op : {Op::ddt, Op::integ}) {
      const char* what = op == Op::ddt ? "ddt" : "integ";
      const auto tran = sites_of(p_.tran_code, op);
      const auto commit = sites_of(p_.commit_code, op);
      for (const auto& [site, n] : commit) {
        if (n > 1) {
          add(VerifySeverity::error, "hdl-site-mismatch",
              str_format("%s site %d committed %d times per accepted step", what, site, n));
        }
      }
      for (const auto& [site, n] : tran) {
        (void)n;
        if (commit.find(site) == commit.end()) {
          add(VerifySeverity::error, "hdl-site-mismatch",
              str_format("%s site %d is read in tran_code but never committed — its state "
                         "would go stale",
                         what, site));
        }
      }
      for (const auto& [site, n] : commit) {
        (void)n;
        if (tran.find(site) == tran.end()) {
          add(VerifySeverity::error, "hdl-site-mismatch",
              str_format("%s site %d is committed but never read in tran_code", what, site));
        }
      }
    }
  }

  const BytecodeProgram& p_;
  const int nu_;
  VerifyReport& rep_;
};

}  // namespace

VerifyReport verify_program(const BytecodeProgram& prog, int unknown_count) {
  VerifyReport rep;
  Verifier(prog, unknown_count, rep).run();
  return rep;
}

}  // namespace usys::hdl
