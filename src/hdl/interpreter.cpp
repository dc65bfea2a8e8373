#include "hdl/interpreter.hpp"

#include <cmath>

#include "common/log.hpp"
#include "hdl/codegen.hpp"
#include "hdl/parser.hpp"
#include "spice/lint.hpp"

namespace usys::hdl {

using sym::Dual;

bool parse_exec_mode(const std::string& text, HdlExecMode& out) {
  if (text == "ast") {
    out = HdlExecMode::ast;
  } else if (text == "bytecode") {
    out = HdlExecMode::bytecode;
  } else if (text == "codegen") {
    out = HdlExecMode::codegen;
  } else {
    return false;
  }
  return true;
}

struct HdlDevice::Frame {
  std::vector<Dual> slots;
  spice::EvalCtx* ctx = nullptr;   ///< null during commit (no stamping)
  const DVector* x = nullptr;
  Pass pass = Pass::dc;
  std::size_t seeds = 0;
  double c0 = 0.0;                 ///< integrator coefficients for this run
  double c1 = 0.0;
};

HdlDevice::HdlDevice(std::string name, ElaboratedModel model,
                     std::vector<int> node_per_pin, HdlExecMode exec_mode)
    : Device(std::move(name)), model_(std::move(model)), nodes_(std::move(node_per_pin)),
      exec_mode_(exec_mode) {
  if (nodes_.size() != model_.pins.size())
    throw spice::CircuitError("HdlDevice '" + this->name() + "': pin count mismatch (" +
                              std::to_string(nodes_.size()) + " nodes for " +
                              std::to_string(model_.pins.size()) + " pins)");
  ddt_.resize(static_cast<std::size_t>(model_.ddt_site_count));
  integ_.resize(static_cast<std::size_t>(model_.integ_site_count));
}

double HdlDevice::integ_state(int site) const {
  return integ_.at(static_cast<std::size_t>(site)).s_prev;
}

int HdlDevice::seed_of(int global) const {
  for (std::size_t i = 0; i < seed_unknowns_.size(); ++i) {
    if (seed_unknowns_[i] == global) return static_cast<int>(i);
  }
  return -1;
}

void HdlDevice::bind(spice::Binder& binder) {
  for (std::size_t p = 0; p < model_.pins.size(); ++p) {
    binder.require_nature(nodes_[p], model_.pins[p].nature, name());
  }
  branch_of_pair_.clear();
  for (const auto& [p1, p2] : model_.effort_pairs) {
    (void)p2;
    branch_of_pair_.push_back(
        binder.alloc_branch(model_.pins[static_cast<std::size_t>(p1)].nature));
  }
  seed_unknowns_.clear();
  for (int n : nodes_) {
    if (n >= 0 && seed_of(n) < 0) seed_unknowns_.push_back(n);
  }
  for (int b : branch_of_pair_) seed_unknowns_.push_back(b);

  // Compile the instance-bound bytecode program (the AST walker stays
  // available as the oracle regardless of the active exec mode).
  program_ = compile(model_, nodes_, branch_of_pair_, seed_unknowns_);

  // Static verification gates BOTH executors: the VM and the codegen backend
  // translate this same program, and neither bounds-checks at runtime.
  // Binding is sequential, so every index the program references is below
  // the binder's current unknown watermark.
  verify_report_ = verify_program(program_, binder.unknown_watermark());
  if (verify_report_.has_errors()) {
    throw spice::CircuitError("HDL model '" + name() + "': bytecode verification failed: " +
                              verify_report_.error_summary());
  }

  vm_.reset(&program_);
  const std::size_t k = seed_unknowns_.size();
  cap_a_.reserve(k * k);
  cap_b_.reserve(k * k);

  // Codegen mode acquires its native object eagerly at bind, so the compile
  // (or the one-time fallback warning) never lands inside a hot evaluation
  // loop. acquire() is a no-op beyond a map
  // lookup for every instance after the first of a given shape.
  cg_ = nullptr;
  cg_attempted_ = false;
  if (exec_mode_ == HdlExecMode::codegen) {
    cg_attempted_ = true;
    cg_ = codegen::acquire(program_);
  }
}

void HdlDevice::lint(spice::LintSink& sink) const {
  // Conservative topology: an HDL multiport may couple any pin pair, so the
  // default conductive clique (which can mask a missing DC path but never
  // invent a false defect) is the right call.
  spice::Device::lint(sink);
  if (!sink.wants_hdl()) return;
  for (const auto& is : verify_report_.issues) {
    sink.report(is.severity == VerifySeverity::error ? spice::LintSeverity::error
                                                     : spice::LintSeverity::warning,
                is.rule, is.message);
  }
}

void HdlDevice::report_assert(int site, int line, double value) {
  if (!asserted_.insert(site).second) return;
  log_warn("HDL model '" + name() + "' (entity " + model_.entity_name +
           "): ASSERT at line " + std::to_string(line) + " violated (value " +
           std::to_string(value) + ")");
}

sym::Dual HdlDevice::eval_expr(const ExprNode& e, Frame& fr) {
  switch (e.kind) {
    case ExprKind::number:
      return Dual(e.number, fr.seeds);
    case ExprKind::name:
      return fr.slots[static_cast<std::size_t>(e.site_id)];
    case ExprKind::port_read: {
      const int p1 = e.site_id / 256;
      const int p2 = e.site_id % 256;
      if (e.name == "i" || e.name == "f") {
        bool forward = false;
        const int k = model_.effort_pair_index(p1, p2, &forward);
        if (k >= 0) {
          const int br = branch_of_pair_[static_cast<std::size_t>(k)];
          Dual d = Dual::seed((*fr.x)[static_cast<std::size_t>(br)],
                              static_cast<std::size_t>(seed_of(br)), fr.seeds);
          return forward ? d : -d;
        }
        throw spice::CircuitError(
            "HDL model '" + name() + "' (entity " + model_.entity_name + "), line " +
            std::to_string(e.line) +
            ": flow read on a pin pair without a '.v %=' contribution "
            "(missed at elaboration)");
      }
      const int n1 = nodes_[static_cast<std::size_t>(p1)];
      const int n2 = nodes_[static_cast<std::size_t>(p2)];
      Dual d(0.0, fr.seeds);
      if (n1 >= 0)
        d += Dual::seed((*fr.x)[static_cast<std::size_t>(n1)],
                        static_cast<std::size_t>(seed_of(n1)), fr.seeds);
      if (n2 >= 0)
        d -= Dual::seed((*fr.x)[static_cast<std::size_t>(n2)],
                        static_cast<std::size_t>(seed_of(n2)), fr.seeds);
      return d;
    }
    case ExprKind::unary_neg:
      return -eval_expr(*e.args[0], fr);
    case ExprKind::binary: {
      const Dual a = eval_expr(*e.args[0], fr);
      const Dual b = eval_expr(*e.args[1], fr);
      switch (e.name.empty() ? '\0' : e.name[0]) {
        case '+': return a + b;
        case '-': return a - b;
        case '*': return a * b;
        case '/': return a / b;
        case '^': return pow(a, b);
        default:
          // Elaboration rejects unknown operators; never evaluate to 0.
          throw spice::CircuitError("HDL model '" + name() + "' (entity " +
                                    model_.entity_name + "), line " +
                                    std::to_string(e.line) +
                                    ": unknown binary operator '" + e.name +
                                    "' (missed at elaboration)");
      }
    }
    case ExprKind::call: {
      if (e.name == "ddt") {
        const Dual u = eval_expr(*e.args[0], fr);
        DdtSiteState& site = ddt_[static_cast<std::size_t>(e.site_id)];
        switch (fr.pass) {
          case Pass::dc:
            return Dual(0.0, fr.seeds);
          case Pass::dc_ddt: {
            // jq-extraction: value 0 (steady state), argument gradient passes
            // with unit gain; the caller differences against the dc pass.
            Dual r = u;
            return r - Dual(u.value(), fr.seeds);
          }
          case Pass::transient:
          case Pass::commit: {
            const double a0 = 1.0 / fr.c1;
            const double hist = (fr.c0 > 0.0) ? (-a0 * site.u_prev - site.udot_prev)
                                              : (-a0 * site.u_prev);
            Dual r = u * a0 + hist;
            if (fr.pass == Pass::commit) {
              site.udot_prev = r.value();
              site.u_prev = u.value();
            }
            return r;
          }
        }
        return Dual(0.0, fr.seeds);
      }
      if (e.name == "integ") {
        const Dual u = eval_expr(*e.args[0], fr);
        IntegSiteState& site = integ_[static_cast<std::size_t>(e.site_id)];
        switch (fr.pass) {
          case Pass::dc:
          case Pass::dc_ddt:
            return Dual(site.s0, fr.seeds);
          case Pass::transient:
          case Pass::commit: {
            Dual r = u * fr.c1 + (site.s_prev + fr.c0 * site.e_prev);
            if (fr.pass == Pass::commit) {
              site.s_prev = r.value();
              site.e_prev = u.value();
            }
            return r;
          }
        }
        return Dual(0.0, fr.seeds);
      }
      if (e.name == "pow")
        return pow(eval_expr(*e.args[0], fr), eval_expr(*e.args[1], fr));
      if (e.name == "min" || e.name == "max") {
        // Piecewise selection: value and gradient follow the active branch
        // (standard AHDL semantics; the kink is handled by Newton damping).
        const Dual a2 = eval_expr(*e.args[0], fr);
        const Dual b2 = eval_expr(*e.args[1], fr);
        const bool pick_a = (e.name == "min") ? (a2.value() <= b2.value())
                                              : (a2.value() >= b2.value());
        return pick_a ? a2 : b2;
      }
      if (e.name == "limit") {
        const Dual x2 = eval_expr(*e.args[0], fr);
        const Dual lo = eval_expr(*e.args[1], fr);
        const Dual hi = eval_expr(*e.args[2], fr);
        if (x2.value() < lo.value()) return lo;
        if (x2.value() > hi.value()) return hi;
        return x2;
      }
      const Dual a = eval_expr(*e.args[0], fr);
      if (e.name == "sin") return sin(a);
      if (e.name == "cos") return cos(a);
      if (e.name == "tan") return tan(a);
      if (e.name == "exp") return exp(a);
      if (e.name == "log") return log(a);
      if (e.name == "sqrt") return sqrt(a);
      if (e.name == "abs") return abs(a);
      throw spice::CircuitError("HDL model '" + name() + "' (entity " +
                                model_.entity_name + "), line " +
                                std::to_string(e.line) + ": unknown function '" +
                                e.name + "' (missed at elaboration)");
    }
  }
  throw spice::CircuitError("HDL model '" + name() +
                            "': unreachable expression kind");
}

void HdlDevice::run(spice::EvalCtx* ctx, Pass pass, const DVector& x,
                    double* jf_capture) {
  if (exec_mode_ == HdlExecMode::codegen) {
    if (!cg_attempted_) {  // mode switched on after bind
      cg_attempted_ = true;
      cg_ = codegen::acquire(program_);
    }
    if (cg_ != nullptr) {
      run_codegen(ctx, pass, x, jf_capture);
      return;
    }
    // acquire() warned once for this shape; execute as the bytecode VM.
  }
  if (exec_mode_ != HdlExecMode::ast) {
    BytecodeVm::RunIo io;
    io.ctx = ctx;
    io.x = &x;
    io.pass = pass;
    if (pass == Pass::transient || pass == Pass::commit) {
      io.c0 = ctx != nullptr ? ctx->integ_c0 : 0.0;
      io.c1 = ctx != nullptr ? ctx->integ_c1 : 1.0;
    }
    io.ddt = &ddt_;
    io.integ = &integ_;
    io.jf_capture = jf_capture;
    if (pass == Pass::commit && model_.assert_site_count > 0) {
      fired_asserts_.clear();
      io.fired_asserts = &fired_asserts_;
      vm_.run(io);
      for (const auto& [site, value] : fired_asserts_)
        report_assert(site, program_.assert_lines[static_cast<std::size_t>(site)],
                      value);
      return;
    }
    vm_.run(io);
    return;
  }
  run_ast(ctx, pass, x, jf_capture);
}

void HdlDevice::run_codegen(spice::EvalCtx* ctx, Pass pass, const DVector& x,
                            double* jf_capture) {
  const BytecodeProgram& p = program_;
  const std::size_t S = seed_unknowns_.size();

  // Gather: the generated code reads unknowns per AD seed slot, never by
  // global index — that is what makes one object serve every instance.
  cg_xs_.resize(S);
  for (std::size_t i = 0; i < S; ++i)
    cg_xs_[i] = x[static_cast<std::size_t>(seed_unknowns_[i])];

  codegen::CgIo io;
  io.xs = cg_xs_.data();
  io.frame = p.frame_init.data();
  if (pass == Pass::transient || pass == Pass::commit) {
    io.c0 = ctx != nullptr ? ctx->integ_c0 : 0.0;
    io.c1 = ctx != nullptr ? ctx->integ_c1 : 1.0;
  }
  io.ddt = reinterpret_cast<double*>(ddt_.data());
  io.integ = reinterpret_cast<double*>(integ_.data());

  if (pass == Pass::commit) {
    // State commits happen inside the generated function; stamps are
    // compiled out of the commit segment and ASSERT hits come back as
    // (site, value) pairs, mirroring the VM's fired_asserts protocol.
    const std::size_t sites = p.assert_lines.size();
    cg_sites_.resize(sites);
    cg_vals_.resize(sites);
    int n_fired = 0;
    io.fired_sites = cg_sites_.data();
    io.fired_vals = cg_vals_.data();
    io.n_fired = &n_fired;
    cg_->commit(&io);
    for (int k = 0; k < n_fired; ++k) {
      const int site = cg_sites_[static_cast<std::size_t>(k)];
      report_assert(site, p.assert_lines[static_cast<std::size_t>(site)],
                    cg_vals_[static_cast<std::size_t>(k)]);
    }
    return;
  }

  const bool capture = jf_capture != nullptr;
  const bool stamping = !capture && ctx != nullptr;
  cg_f_.assign(S, 0.0);
  double* j = jf_capture;  // capture accumulates straight into the caller's block
  if (!capture) {
    cg_j_.assign(S * S, 0.0);
    j = cg_j_.data();
  }
  io.f_out = cg_f_.data();
  io.j_out = j;

  // Effort-pair plumbing: identical to the VM/AST preamble (pass-independent,
  // so the jq capture difference cancels it — skipped there).
  if (stamping) {
    for (const auto& pl : p.pairs) {
      ctx->f_add(pl.na, ctx->v(pl.br));
      ctx->f_add(pl.nb, -ctx->v(pl.br));
      ctx->jf_add(pl.na, pl.br, 1.0);
      ctx->jf_add(pl.nb, pl.br, -1.0);
      ctx->f_add(pl.br, ctx->v(pl.na) - ctx->v(pl.nb));
      ctx->jf_add(pl.br, pl.na, 1.0);
      ctx->jf_add(pl.br, pl.nb, -1.0);
    }
  }

  (pass == Pass::dc ? cg_->dc : pass == Pass::dc_ddt ? cg_->dc_ddt : cg_->tran)(&io);

  // Scatter the seed-indexed block through the generic sink (dense, sparse
  // slot-table, or block-capture — all reachable via ctx). Zero Jacobian
  // entries are skipped exactly like the VM's per-stamp zero check.
  if (stamping) {
    const int* seeds = seed_unknowns_.data();
    for (std::size_t r = 0; r < S; ++r) {
      ctx->f_add(seeds[r], cg_f_[r]);
      const double* row = j + r * S;
      for (std::size_t c = 0; c < S; ++c) {
        if (row[c] != 0.0) ctx->jf_add(seeds[r], seeds[c], row[c]);
      }
    }
  }
}

void HdlDevice::run_ast(spice::EvalCtx* ctx, Pass pass, const DVector& x,
                        double* jf_capture) {
  Frame fr;
  fr.ctx = ctx;
  fr.x = &x;
  fr.pass = pass;
  fr.seeds = seed_unknowns_.size();
  if (pass == Pass::transient || pass == Pass::commit) {
    // During commit ctx carries only the integrator coefficients.
    fr.c0 = ctx != nullptr ? ctx->integ_c0 : 0.0;
    fr.c1 = ctx != nullptr ? ctx->integ_c1 : 1.0;
  }
  fr.slots.reserve(model_.init_frame.size());
  for (double v : model_.init_frame) fr.slots.emplace_back(v, fr.seeds);

  const bool capture = jf_capture != nullptr;
  const bool stamping = !capture && (ctx != nullptr) && (pass != Pass::commit);

  // Effort-pair plumbing: KCL for the branch flow and the across part of the
  // branch equation, stamped once per pair; contributions subtract below.
  // (Pass-independent, so the capture difference cancels it — skipped there.)
  if (stamping) {
    for (std::size_t k = 0; k < model_.effort_pairs.size(); ++k) {
      const auto& [pa, pb] = model_.effort_pairs[k];
      const int br = branch_of_pair_[k];
      const int na = nodes_[static_cast<std::size_t>(pa)];
      const int nb = nodes_[static_cast<std::size_t>(pb)];
      ctx->f_add(na, ctx->v(br));
      ctx->f_add(nb, -ctx->v(br));
      ctx->jf_add(na, br, 1.0);
      ctx->jf_add(nb, br, -1.0);
      ctx->f_add(br, ctx->v(na) - ctx->v(nb));
      ctx->jf_add(br, na, 1.0);
      ctx->jf_add(br, nb, -1.0);
    }
  }

  const bool want_transient = (pass == Pass::transient || pass == Pass::commit);
  const char* domain = want_transient ? "transient" : "dc";
  bool have_domain = false;
  for (const auto& b : model_.blocks) {
    if (b.has_domain(domain)) have_domain = true;
  }

  for (const auto& b : model_.blocks) {
    const bool selected = have_domain
                              ? b.has_domain(domain)
                              : (b.has_domain("transient") || b.has_domain("ac"));
    if (!selected) continue;
    for (const auto& s : b.stmts) {
      if (s.kind == StmtKind::assign) {
        fr.slots[static_cast<std::size_t>(s.slot)] = eval_expr(*s.expr, fr);
        continue;
      }
      if (s.kind == StmtKind::assertion) {
        // Boundary-condition verification: checked on *accepted* solutions
        // only (commit pass) so Newton excursions don't trip it.
        if (pass == Pass::commit) {
          const Dual cond = eval_expr(*s.expr, fr);
          if (cond.value() <= 0.0) report_assert(s.slot, s.line, cond.value());
        }
        continue;
      }
      const Dual val = eval_expr(*s.expr, fr);
      if (!stamping && !capture) continue;
      auto stamp_row = [&](int row, double sign) {
        if (row < 0) return;
        if (capture) {
          double* out =
              jf_capture + static_cast<std::size_t>(seed_of(row)) * fr.seeds;
          for (std::size_t sidx = 0; sidx < fr.seeds; ++sidx)
            out[sidx] += sign * val.grad(sidx);
          return;
        }
        ctx->f_add(row, sign * val.value());
        for (std::size_t sidx = 0; sidx < fr.seeds; ++sidx) {
          const double g = val.grad(sidx);
          if (g != 0.0) ctx->jf_add(row, seed_unknowns_[sidx], sign * g);
        }
      };
      if (s.field == "v") {
        bool forward = false;
        const int k = model_.effort_pair_index(s.p1, s.p2, &forward);
        if (k >= 0)
          stamp_row(branch_of_pair_[static_cast<std::size_t>(k)], forward ? -1.0 : +1.0);
        continue;
      }
      // Flow contribution: absorbed at p1, released at p2.
      stamp_row(nodes_[static_cast<std::size_t>(s.p1)], +1.0);
      stamp_row(nodes_[static_cast<std::size_t>(s.p2)], -1.0);
    }
  }
}

void HdlDevice::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), nodes_.begin(), nodes_.end());
  out.insert(out.end(), branch_of_pair_.begin(), branch_of_pair_.end());
  out.insert(out.end(), seed_unknowns_.begin(), seed_unknowns_.end());
}

void HdlDevice::evaluate(spice::EvalCtx& ctx) {
  if (ctx.mode == spice::AnalysisMode::transient) {
    run(&ctx, Pass::transient, *ctx.x);
    return;
  }
  run(&ctx, Pass::dc, *ctx.x);
  // jq extraction (for AC sweeps): difference the dc_ddt and dc passes.
  // Every stamp row and gradient column is one of the device's seed
  // unknowns, so a seeds x seeds capture block suffices — no n x n scratch.
  if (!ctx.wants_jq() || model_.ddt_site_count == 0) return;
  const std::size_t k = seed_unknowns_.size();
  cap_a_.assign(k * k, 0.0);
  cap_b_.assign(k * k, 0.0);
  run(nullptr, Pass::dc, *ctx.x, cap_a_.data());
  run(nullptr, Pass::dc_ddt, *ctx.x, cap_b_.data());
  for (std::size_t r = 0; r < k; ++r) {
    for (std::size_t c = 0; c < k; ++c) {
      const double d = cap_b_[r * k + c] - cap_a_[r * k + c];
      if (d != 0.0) ctx.jq_add(seed_unknowns_[r], seed_unknowns_[c], d);
    }
  }
}

bool HdlDevice::set_param(std::string_view key, double value) {
  const int g = model_.generic_index(key);
  if (g < 0) return false;
  model_.set_generic(g, value);
  // The compiled program (after bind) carries its own copy of the frame.
  if (!program_.frame_init.empty()) program_.frame_init = model_.init_frame;
  return true;
}

bool HdlDevice::get_param(std::string_view key, double& out) const {
  const int g = model_.generic_index(key);
  if (g < 0) return false;
  out = model_.generic_values[static_cast<std::size_t>(g)];
  return true;
}

void HdlDevice::start_transient(const DVector& x_dc) {
  // A reused circuit (warm session, server delta job) must not carry an
  // earlier transient's ASSERT firings into this one's fail_on_assert check.
  asserted_.clear();
  // Arm every site, then record each ddt/integ argument's DC value via a
  // commit pass (c0 = 0, c1 = 1 placeholders make the formulas benign), and
  // finally reset the histories the pass is not supposed to disturb.
  for (auto& s : integ_) {
    s.s_prev = s.s0;
    s.e_prev = 0.0;
  }
  for (auto& s : ddt_) {
    s.u_prev = 0.0;
    s.udot_prev = 0.0;
  }
  run(nullptr, Pass::commit, x_dc);
  for (auto& s : ddt_) s.udot_prev = 0.0;
  for (auto& s : integ_) s.s_prev = s.s0;
}

void HdlDevice::accept(const spice::AcceptCtx& ctx) {
  spice::EvalCtx ec;
  ec.mode = spice::AnalysisMode::transient;
  ec.integ_c0 = ctx.integ_c0;
  ec.integ_c1 = ctx.integ_c1;
  run(&ec, Pass::commit, *ctx.x);
}

std::unique_ptr<HdlDevice> instantiate(const std::string& device_name,
                                       const std::string& source,
                                       const std::string& entity,
                                       const std::map<std::string, double>& generics,
                                       const std::vector<int>& node_per_pin,
                                       HdlExecMode exec_mode) {
  DesignUnit unit = parse(source);
  ElaboratedModel model = elaborate(std::move(unit), entity, generics);
  return std::make_unique<HdlDevice>(device_name, std::move(model), node_per_pin,
                                     exec_mode);
}

}  // namespace usys::hdl
