#include "hdl/bytecode.hpp"

#include <algorithm>
#include <cmath>

namespace usys::hdl {

namespace {

/// One-shot flattening of an elaborated model for a bound instance.
class Compiler {
 public:
  Compiler(const ElaboratedModel& m, const std::vector<int>& nodes,
           const std::vector<int>& branch_of_pair, BytecodeProgram& p)
      : m_(m), nodes_(nodes), branch_of_pair_(branch_of_pair), p_(p) {}

  void compile_all() {
    p_.n_frame = static_cast<int>(m_.init_frame.size());
    p_.frame_init = m_.init_frame;
    p_.ddt_sites = m_.ddt_site_count;
    p_.integ_sites = m_.integ_site_count;
    p_.assert_lines.assign(static_cast<std::size_t>(m_.assert_site_count), 0);
    high_water_ = p_.n_frame;

    for (std::size_t k = 0; k < m_.effort_pairs.size(); ++k) {
      const auto& [pa, pb] = m_.effort_pairs[k];
      BytecodeProgram::PairPlumb pl;
      pl.na = nodes_[static_cast<std::size_t>(pa)];
      pl.nb = nodes_[static_cast<std::size_t>(pb)];
      pl.br = branch_of_pair_[k];
      p_.pairs.push_back(pl);
    }

    compile_domain("dc", /*include_asserts=*/false, p_.dc_code);
    compile_domain("transient", /*include_asserts=*/false, p_.tran_code);
    compile_domain("transient", /*include_asserts=*/true, p_.commit_code);
    p_.n_regs = high_water_;
  }

 private:
  int seed_slot(int global) const {
    if (global < 0) return -1;
    for (std::size_t i = 0; i < p_.seed_unknowns.size(); ++i) {
      if (p_.seed_unknowns[i] == global) return static_cast<int>(i);
    }
    return -1;
  }

  int add_const(double v) {
    p_.constants.push_back(v);
    return static_cast<int>(p_.constants.size()) - 1;
  }

  int alloc_temp() {
    const int r = next_temp_++;
    high_water_ = std::max(high_water_, next_temp_);
    return r;
  }

  int dst_or_temp(int dst) { return dst >= 0 ? dst : alloc_temp(); }

  /// Emits code evaluating `e`; returns the register holding the result.
  /// With `dst >= 0` the result is guaranteed to land in `dst`.
  int compile_expr(const ExprNode& e, std::vector<Insn>& code, int dst = -1) {
    switch (e.kind) {
      case ExprKind::number: {
        const int r = dst_or_temp(dst);
        code.push_back({Op::kconst, r, add_const(e.number), -1, -1, -1});
        return r;
      }
      case ExprKind::name: {
        const int src = e.site_id;
        if (dst < 0 || dst == src) return src;
        code.push_back({Op::copy, dst, src, -1, -1, -1});
        return dst;
      }
      case ExprKind::port_read: {
        const int p1 = e.site_id / 256;
        const int p2 = e.site_id % 256;
        const int r = dst_or_temp(dst);
        if (e.name == "i" || e.name == "f") {
          bool forward = false;
          const int k = m_.effort_pair_index(p1, p2, &forward);
          if (k < 0)
            throw ElabError("entity '" + m_.entity_name + "' line " +
                            std::to_string(e.line) +
                            ": flow read on a pin pair without a '.v %=' "
                            "contribution (missed at elaboration)");
          const int br = branch_of_pair_[static_cast<std::size_t>(k)];
          code.push_back({Op::read_branch, r, br, seed_slot(br), forward ? 1 : -1, -1});
          return r;
        }
        const int n1 = nodes_[static_cast<std::size_t>(p1)];
        const int n2 = nodes_[static_cast<std::size_t>(p2)];
        code.push_back({Op::read_across, r, n1, seed_slot(n1), n2, seed_slot(n2)});
        return r;
      }
      case ExprKind::unary_neg: {
        const int ra = compile_expr(*e.args[0], code);
        const int r = dst_or_temp(dst);
        code.push_back({Op::neg, r, ra, -1, -1, -1});
        return r;
      }
      case ExprKind::binary: {
        const int ra = compile_expr(*e.args[0], code);
        const int rb = compile_expr(*e.args[1], code);
        Op op;
        switch (e.name.empty() ? '\0' : e.name[0]) {
          case '+': op = Op::add; break;
          case '-': op = Op::sub; break;
          case '*': op = Op::mul; break;
          case '/': op = Op::div; break;
          case '^': op = Op::pow; break;
          default:
            throw ElabError("entity '" + m_.entity_name + "' line " +
                            std::to_string(e.line) + ": unknown binary operator '" +
                            e.name + "' (missed at elaboration)");
        }
        const int r = dst_or_temp(dst);
        code.push_back({op, r, ra, rb, -1, -1});
        return r;
      }
      case ExprKind::call: {
        if (e.name == "ddt" || e.name == "integ") {
          const int ra = compile_expr(*e.args[0], code);
          const int r = dst_or_temp(dst);
          code.push_back({e.name == "ddt" ? Op::ddt : Op::integ, r, ra, e.site_id,
                          -1, -1});
          return r;
        }
        if (e.name == "pow" || e.name == "min" || e.name == "max") {
          const int ra = compile_expr(*e.args[0], code);
          const int rb = compile_expr(*e.args[1], code);
          const Op op = e.name == "pow" ? Op::pow : (e.name == "min" ? Op::min : Op::max);
          const int r = dst_or_temp(dst);
          code.push_back({op, r, ra, rb, -1, -1});
          return r;
        }
        if (e.name == "limit") {
          const int rx = compile_expr(*e.args[0], code);
          const int rlo = compile_expr(*e.args[1], code);
          const int rhi = compile_expr(*e.args[2], code);
          const int r = dst_or_temp(dst);
          code.push_back({Op::limit, r, rx, rlo, rhi, -1});
          return r;
        }
        Op op;
        if (e.name == "sin") op = Op::sin;
        else if (e.name == "cos") op = Op::cos;
        else if (e.name == "tan") op = Op::tan;
        else if (e.name == "exp") op = Op::exp;
        else if (e.name == "log") op = Op::log;
        else if (e.name == "sqrt") op = Op::sqrt;
        else if (e.name == "abs") op = Op::abs;
        else
          throw ElabError("entity '" + m_.entity_name + "' line " +
                          std::to_string(e.line) + ": unknown function '" + e.name +
                          "' (missed at elaboration)");
        const int ra = compile_expr(*e.args[0], code);
        const int r = dst_or_temp(dst);
        code.push_back({op, r, ra, -1, -1, -1});
        return r;
      }
    }
    throw ElabError("unreachable expression kind in bytecode compiler");
  }

  void compile_stmt(const Stmt& s, bool include_asserts, std::vector<Insn>& code) {
    next_temp_ = p_.n_frame;  // statement results live in frame registers;
                              // expression temporaries are reusable between statements
    if (s.kind == StmtKind::assign) {
      compile_expr(*s.expr, code, s.slot);
      return;
    }
    if (s.kind == StmtKind::assertion) {
      if (!include_asserts) return;
      const int ra = compile_expr(*s.expr, code);
      p_.assert_lines[static_cast<std::size_t>(s.slot)] = s.line;
      code.push_back({Op::assert_check, -1, ra, s.slot, -1, -1});
      return;
    }
    // Contribution: evaluate, then stamp with pre-resolved rows and signs.
    const int ra = compile_expr(*s.expr, code);
    if (s.field == "v") {
      bool forward = false;
      const int k = m_.effort_pair_index(s.p1, s.p2, &forward);
      if (k < 0)
        throw ElabError("entity '" + m_.entity_name + "' line " + std::to_string(s.line) +
                        ": effort contribution without a registered pair");
      const int br = branch_of_pair_[static_cast<std::size_t>(k)];
      code.push_back({Op::stamp_effort, ra, br, seed_slot(br), forward ? -1 : 1, -1});
      return;
    }
    const int n1 = nodes_[static_cast<std::size_t>(s.p1)];
    const int n2 = nodes_[static_cast<std::size_t>(s.p2)];
    code.push_back({Op::stamp_flow, ra, n1, seed_slot(n1), n2, seed_slot(n2)});
  }

  /// Mirrors HdlDevice::run's block selection: blocks tagged with `domain`
  /// run; if none carry it, the transient/ac blocks are the fallback.
  void compile_domain(const char* domain, bool include_asserts, std::vector<Insn>& code) {
    bool have_domain = false;
    for (const auto& b : m_.blocks) {
      if (b.has_domain(domain)) have_domain = true;
    }
    for (const auto& b : m_.blocks) {
      const bool selected = have_domain
                                ? b.has_domain(domain)
                                : (b.has_domain("transient") || b.has_domain("ac"));
      if (!selected) continue;
      for (const auto& s : b.stmts) compile_stmt(s, include_asserts, code);
    }
  }

  const ElaboratedModel& m_;
  const std::vector<int>& nodes_;
  const std::vector<int>& branch_of_pair_;
  BytecodeProgram& p_;
  int next_temp_ = 0;
  int high_water_ = 0;
};

}  // namespace

BytecodeProgram compile(const ElaboratedModel& model, const std::vector<int>& nodes,
                        const std::vector<int>& branch_of_pair,
                        const std::vector<int>& seed_unknowns, bool slice) {
  BytecodeProgram p;
  p.entity_name = model.entity_name;
  p.seed_unknowns = seed_unknowns;
  p.n_seeds = static_cast<int>(seed_unknowns.size());
  Compiler(model, nodes, branch_of_pair, p).compile_all();
  if (slice) p.commit_code = commit_slice(p.commit_code, p.n_regs);
  return p;
}

InsnShape insn_shape(const Insn& in, bool commit) noexcept {
  InsnShape sh;
  const auto read = [&sh](std::int32_t r) { sh.reads[sh.n_reads++] = r; };
  switch (in.op) {
    case Op::kconst:
    case Op::read_across:
    case Op::read_branch:
      sh.def = in.dst;
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
      sh.def = in.dst;
      read(in.a);
      break;
    case Op::add:
    case Op::sub:
    case Op::mul:
    case Op::div:
    case Op::pow:
    case Op::min:
    case Op::max:
      sh.def = in.dst;
      read(in.a);
      read(in.b);
      break;
    case Op::limit:
      sh.def = in.dst;
      read(in.a);
      read(in.b);
      read(in.c);
      break;
    case Op::ddt:
    case Op::integ:
      sh.def = in.dst;
      read(in.a);
      sh.side_effect = commit;  // the commit pass updates the site state
      break;
    case Op::stamp_flow:
    case Op::stamp_effort:
      read(in.dst);  // the stamped value
      sh.side_effect = true;
      break;
    case Op::assert_check:
      read(in.a);
      sh.side_effect = true;
      break;
  }
  return sh;
}

std::vector<char> live_insns(const std::vector<InsnShape>& shapes, int n_regs) {
  std::vector<char> live_reg(static_cast<std::size_t>(std::max(n_regs, 0)), 0);
  std::vector<char> live(shapes.size(), 1);
  for (std::size_t i = shapes.size(); i-- > 0;) {
    const InsnShape& sh = shapes[i];
    if (sh.def >= 0) {
      if (!live_reg[static_cast<std::size_t>(sh.def)] && !sh.side_effect) {
        live[i] = 0;
        continue;  // a dead instruction's operands generate no demand
      }
      live_reg[static_cast<std::size_t>(sh.def)] = 0;
    }
    for (int k = 0; k < sh.n_reads; ++k) live_reg[static_cast<std::size_t>(sh.reads[k])] = 1;
  }
  return live;
}

std::vector<Insn> commit_slice(const std::vector<Insn>& code, int n_regs) {
  std::vector<Insn> kept;
  std::vector<InsnShape> shapes;
  kept.reserve(code.size());
  shapes.reserve(code.size());
  for (const Insn& in : code) {
    if (in.op == Op::stamp_flow || in.op == Op::stamp_effort) continue;
    kept.push_back(in);
    shapes.push_back(insn_shape(in, /*commit=*/true));
  }
  const std::vector<char> live = live_insns(shapes, n_regs);
  std::vector<Insn> slice;
  for (std::size_t i = 0; i < kept.size(); ++i) {
    if (live[i]) slice.push_back(kept[i]);
  }
  return slice;
}

void BytecodeVm::reset(const BytecodeProgram* prog) {
  prog_ = prog;
  val_.assign(static_cast<std::size_t>(prog->n_regs), 0.0);
  grad_.assign(static_cast<std::size_t>(prog->n_regs) *
                   static_cast<std::size_t>(prog->n_seeds),
               0.0);
}

bool BytecodeVm::wants_gradients(const RunIo& io) noexcept {
  return io.jf_capture != nullptr ||
         (io.ctx != nullptr && io.pass != HdlPass::commit && io.ctx->wants_jacobian());
}

void BytecodeVm::run(const RunIo& io) {
  if (wants_gradients(io)) {
    run_pass<true>(io);
  } else {
    run_pass<false>(io);
  }
}

template <bool kGrad>
void BytecodeVm::run_pass(const RunIo& io) {
  const BytecodeProgram& p = *prog_;
  const std::size_t S = static_cast<std::size_t>(p.n_seeds);
  const DVector& x = *io.x;
  double* val = val_.data();
  double* grad = grad_.data();
  const auto G = [&](std::int32_t r) { return grad + static_cast<std::size_t>(r) * S; };

  // Frame registers restart from the elaborated init values each run (the
  // AST walker rebuilds its Dual frame the same way); temporaries are always
  // fully written before being read, so they need no clearing.
  std::copy(p.frame_init.begin(), p.frame_init.end(), val);
  if constexpr (kGrad) std::fill(grad, grad + static_cast<std::size_t>(p.n_frame) * S, 0.0);

  spice::EvalCtx* ctx = io.ctx;
  const bool capture = io.jf_capture != nullptr;
  const bool stamping = !capture && ctx != nullptr && io.pass != HdlPass::commit;
  const int* seeds = p.seed_unknowns.data();

  // Effort-pair plumbing: KCL for the branch flow and the across part of the
  // branch equation (identical to the AST walker's preamble). The plumbing
  // is pass-independent, so the capture difference cancels it — skip.
  if (stamping) {
    for (const auto& pl : p.pairs) {
      ctx->f_add(pl.na, ctx->v(pl.br));
      ctx->f_add(pl.nb, -ctx->v(pl.br));
      ctx->f_add(pl.br, ctx->v(pl.na) - ctx->v(pl.nb));
      if constexpr (kGrad) {
        ctx->jf_add(pl.na, pl.br, 1.0);
        ctx->jf_add(pl.nb, pl.br, -1.0);
        ctx->jf_add(pl.br, pl.na, 1.0);
        ctx->jf_add(pl.br, pl.nb, -1.0);
      }
    }
  }

  const std::vector<Insn>& code = (io.pass == HdlPass::commit)     ? p.commit_code
                                  : (io.pass == HdlPass::transient) ? p.tran_code
                                                                    : p.dc_code;

  // Gradient kernels, used only when kGrad: d(dst) = df * d(a), a zeroed
  // row, and a row copy.
  const auto chain = [&](const Insn& in, double df) {
    const double* ga = G(in.a);
    double* gd = G(in.dst);
    for (std::size_t i = 0; i < S; ++i) gd[i] = df * ga[i];
  };
  const auto zero = [&](std::int32_t r) { std::fill(G(r), G(r) + S, 0.0); };
  const auto copy_grad = [&](std::int32_t src, std::int32_t dst) {
    if (src != dst) std::copy(G(src), G(src) + S, G(dst));
  };

  for (const Insn& in : code) {
    switch (in.op) {
      case Op::kconst: {
        val[in.dst] = p.constants[static_cast<std::size_t>(in.a)];
        if constexpr (kGrad) zero(in.dst);
        break;
      }
      case Op::copy: {
        if (in.dst != in.a) {
          val[in.dst] = val[in.a];
          if constexpr (kGrad) copy_grad(in.a, in.dst);
        }
        break;
      }
      case Op::read_across: {
        double v = 0.0;
        if (in.a >= 0) v += x[static_cast<std::size_t>(in.a)];
        if (in.c >= 0) v -= x[static_cast<std::size_t>(in.c)];
        if constexpr (kGrad) {
          double* g = G(in.dst);
          std::fill(g, g + S, 0.0);
          if (in.b >= 0) g[in.b] += 1.0;
          if (in.d >= 0) g[in.d] -= 1.0;
        }
        val[in.dst] = v;
        break;
      }
      case Op::read_branch: {
        const double sgn = static_cast<double>(in.c);
        if constexpr (kGrad) {
          double* g = G(in.dst);
          std::fill(g, g + S, 0.0);
          g[in.b] = sgn;
        }
        val[in.dst] = sgn * x[static_cast<std::size_t>(in.a)];
        break;
      }
      case Op::neg: {
        const double a = val[in.a];
        if constexpr (kGrad) {
          const double* ga = G(in.a);
          double* gd = G(in.dst);
          for (std::size_t i = 0; i < S; ++i) gd[i] = -ga[i];
        }
        val[in.dst] = -a;
        break;
      }
      case Op::add: {
        const double a = val[in.a], b = val[in.b];
        if constexpr (kGrad) {
          const double *ga = G(in.a), *gb = G(in.b);
          double* gd = G(in.dst);
          for (std::size_t i = 0; i < S; ++i) gd[i] = ga[i] + gb[i];
        }
        val[in.dst] = a + b;
        break;
      }
      case Op::sub: {
        const double a = val[in.a], b = val[in.b];
        if constexpr (kGrad) {
          const double *ga = G(in.a), *gb = G(in.b);
          double* gd = G(in.dst);
          for (std::size_t i = 0; i < S; ++i) gd[i] = ga[i] - gb[i];
        }
        val[in.dst] = a - b;
        break;
      }
      case Op::mul: {
        const double a = val[in.a], b = val[in.b];
        if constexpr (kGrad) {
          const double *ga = G(in.a), *gb = G(in.b);
          double* gd = G(in.dst);
          for (std::size_t i = 0; i < S; ++i) gd[i] = ga[i] * b + a * gb[i];
        }
        val[in.dst] = a * b;
        break;
      }
      case Op::div: {
        // Same formulas as sym::Dual::operator/ for bit parity with the AST.
        const double a = val[in.a], b = val[in.b];
        const double inv = 1.0 / b;
        const double rv = a * inv;
        if constexpr (kGrad) {
          const double *ga = G(in.a), *gb = G(in.b);
          double* gd = G(in.dst);
          for (std::size_t i = 0; i < S; ++i) gd[i] = (ga[i] - rv * gb[i]) * inv;
        }
        val[in.dst] = rv;
        break;
      }
      case Op::pow: {
        const double a = val[in.a], b = val[in.b];
        const double f = std::pow(a, b);
        if constexpr (kGrad) {
          const double dfa = b * std::pow(a, b - 1.0);
          const double dfb = (a > 0.0) ? f * std::log(a) : 0.0;
          const double *ga = G(in.a), *gb = G(in.b);
          double* gd = G(in.dst);
          for (std::size_t i = 0; i < S; ++i) gd[i] = dfa * ga[i] + dfb * gb[i];
        }
        val[in.dst] = f;
        break;
      }
      case Op::sin: {
        const double a = val[in.a];
        if constexpr (kGrad) chain(in, std::cos(a));
        val[in.dst] = std::sin(a);
        break;
      }
      case Op::cos: {
        const double a = val[in.a];
        if constexpr (kGrad) chain(in, -std::sin(a));
        val[in.dst] = std::cos(a);
        break;
      }
      case Op::tan: {
        const double a = val[in.a];
        if constexpr (kGrad) {
          const double c = std::cos(a);
          chain(in, 1.0 / (c * c));
        }
        val[in.dst] = std::tan(a);
        break;
      }
      case Op::exp: {
        const double f = std::exp(val[in.a]);
        if constexpr (kGrad) chain(in, f);
        val[in.dst] = f;
        break;
      }
      case Op::log: {
        const double a = val[in.a];
        if constexpr (kGrad) chain(in, 1.0 / a);
        val[in.dst] = std::log(a);
        break;
      }
      case Op::sqrt: {
        const double f = std::sqrt(val[in.a]);
        if constexpr (kGrad) chain(in, 0.5 / f);
        val[in.dst] = f;
        break;
      }
      case Op::abs: {
        const double a = val[in.a];
        if constexpr (kGrad) chain(in, a >= 0.0 ? 1.0 : -1.0);
        val[in.dst] = std::abs(a);
        break;
      }
      case Op::min:
      case Op::max: {
        // Piecewise selection: value and gradient follow the active branch.
        const bool pick_a = (in.op == Op::min) ? (val[in.a] <= val[in.b])
                                               : (val[in.a] >= val[in.b]);
        const std::int32_t src = pick_a ? in.a : in.b;
        if (src != in.dst) {
          val[in.dst] = val[src];
          if constexpr (kGrad) copy_grad(src, in.dst);
        }
        break;
      }
      case Op::limit: {
        std::int32_t src = in.a;
        if (val[in.a] < val[in.b]) src = in.b;
        else if (val[in.a] > val[in.c]) src = in.c;
        if (src != in.dst) {
          val[in.dst] = val[src];
          if constexpr (kGrad) copy_grad(src, in.dst);
        }
        break;
      }
      case Op::ddt: {
        DdtSiteState& site = (*io.ddt)[static_cast<std::size_t>(in.b)];
        const double u = val[in.a];
        switch (io.pass) {
          case HdlPass::dc:
            if constexpr (kGrad) zero(in.dst);
            val[in.dst] = 0.0;
            break;
          case HdlPass::dc_ddt: {
            // jq-extraction: value 0 (u - u, NaN-preserving like the AST),
            // argument gradient passes with unit gain.
            if constexpr (kGrad) copy_grad(in.a, in.dst);
            val[in.dst] = u - u;
            break;
          }
          case HdlPass::transient:
          case HdlPass::commit: {
            const double a0 = 1.0 / io.c1;
            const double hist = (io.c0 > 0.0) ? (-a0 * site.u_prev - site.udot_prev)
                                              : (-a0 * site.u_prev);
            const double r = u * a0 + hist;
            if constexpr (kGrad) chain(in, a0);
            val[in.dst] = r;
            if (io.pass == HdlPass::commit) {
              site.udot_prev = r;
              site.u_prev = u;
            }
            break;
          }
        }
        break;
      }
      case Op::integ: {
        IntegSiteState& site = (*io.integ)[static_cast<std::size_t>(in.b)];
        const double u = val[in.a];
        switch (io.pass) {
          case HdlPass::dc:
          case HdlPass::dc_ddt:
            if constexpr (kGrad) zero(in.dst);
            val[in.dst] = site.s0;
            break;
          case HdlPass::transient:
          case HdlPass::commit: {
            const double r = u * io.c1 + (site.s_prev + io.c0 * site.e_prev);
            if constexpr (kGrad) chain(in, io.c1);
            val[in.dst] = r;
            if (io.pass == HdlPass::commit) {
              site.s_prev = r;
              site.e_prev = u;
            }
            break;
          }
        }
        break;
      }
      case Op::stamp_flow: {
        const double v = val[in.dst];
        if (capture) {
          if constexpr (kGrad) {
            const double* g = G(in.dst);
            if (in.a >= 0) {
              double* row = io.jf_capture + static_cast<std::size_t>(in.b) * S;
              for (std::size_t i = 0; i < S; ++i) row[i] += g[i];
            }
            if (in.c >= 0) {
              double* row = io.jf_capture + static_cast<std::size_t>(in.d) * S;
              for (std::size_t i = 0; i < S; ++i) row[i] -= g[i];
            }
          }
        } else if (stamping) {
          if (in.a >= 0) {
            ctx->f_add(in.a, v);
            if constexpr (kGrad) {
              const double* g = G(in.dst);
              for (std::size_t i = 0; i < S; ++i) {
                if (g[i] != 0.0) ctx->jf_add(in.a, seeds[i], g[i]);
              }
            }
          }
          if (in.c >= 0) {
            ctx->f_add(in.c, -v);
            if constexpr (kGrad) {
              const double* g = G(in.dst);
              for (std::size_t i = 0; i < S; ++i) {
                if (g[i] != 0.0) ctx->jf_add(in.c, seeds[i], -g[i]);
              }
            }
          }
        }
        break;
      }
      case Op::stamp_effort: {
        const double sgn = static_cast<double>(in.c);
        const double v = val[in.dst];
        if (capture) {
          if constexpr (kGrad) {
            const double* g = G(in.dst);
            double* row = io.jf_capture + static_cast<std::size_t>(in.b) * S;
            for (std::size_t i = 0; i < S; ++i) row[i] += sgn * g[i];
          }
        } else if (stamping) {
          ctx->f_add(in.a, sgn * v);
          if constexpr (kGrad) {
            const double* g = G(in.dst);
            for (std::size_t i = 0; i < S; ++i) {
              if (g[i] != 0.0) ctx->jf_add(in.a, seeds[i], sgn * g[i]);
            }
          }
        }
        break;
      }
      case Op::assert_check: {
        if (io.pass == HdlPass::commit && io.fired_asserts != nullptr &&
            val[in.a] <= 0.0) {
          io.fired_asserts->emplace_back(in.b, val[in.a]);
        }
        break;
      }
    }
  }
}

template void BytecodeVm::run_pass<true>(const RunIo& io);
template void BytecodeVm::run_pass<false>(const RunIo& io);

}  // namespace usys::hdl
