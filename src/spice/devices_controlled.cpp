#include "spice/devices_controlled.hpp"

#include "spice/lint.hpp"

#include "spice/devices_source.hpp"

namespace usys::spice {

Vcvs::Vcvs(std::string name, int out_p, int out_n, int ctl_p, int ctl_n, double gain)
    : Device(std::move(name)), a_(out_p), b_(out_n), c_(ctl_p), d_(ctl_n), gain_(gain) {}

void Vcvs::bind(Binder& binder) { br_ = binder.alloc_branch(binder.node_nature(a_)); }

void Vcvs::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, c_, d_, br_});
}

// Output ports of voltage-defined controlled sources are vsource edges
// (loop-forming, current-carrying); current-output ports impose flow and
// provide no DC return path; pure voltage-sense pins contribute nothing.
void Vcvs::lint(LintSink& sink) const { sink.edge(a_, b_, LintEdgeKind::vsource); }

void Vcvs::evaluate(EvalCtx& ctx) {
  const double i = ctx.v(br_);
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, br_, 1.0);
  ctx.jf_add(b_, br_, -1.0);
  ctx.f_add(br_, (ctx.v(a_) - ctx.v(b_)) - gain_ * (ctx.v(c_) - ctx.v(d_)));
  ctx.jf_add(br_, a_, 1.0);
  ctx.jf_add(br_, b_, -1.0);
  ctx.jf_add(br_, c_, -gain_);
  ctx.jf_add(br_, d_, gain_);
}

Vccs::Vccs(std::string name, int out_p, int out_n, int ctl_p, int ctl_n, double gm)
    : Device(std::move(name)), a_(out_p), b_(out_n), c_(ctl_p), d_(ctl_n), gm_(gm) {}

void Vccs::bind(Binder&) {}

void Vccs::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, c_, d_});
}

void Vccs::lint(LintSink& sink) const { sink.edge(a_, b_, LintEdgeKind::isource); }

void Vccs::evaluate(EvalCtx& ctx) {
  const double i = gm_ * (ctx.v(c_) - ctx.v(d_));
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, c_, gm_);
  ctx.jf_add(a_, d_, -gm_);
  ctx.jf_add(b_, c_, -gm_);
  ctx.jf_add(b_, d_, gm_);
}

Cccs::Cccs(std::string name, int out_p, int out_n, std::string sensed_vsource, double gain,
           Circuit& circuit)
    : Device(std::move(name)),
      a_(out_p),
      b_(out_n),
      sensed_(std::move(sensed_vsource)),
      gain_(gain),
      circuit_(circuit) {}

void Cccs::bind(Binder&) {
  auto* dev = circuit_.find_device(sensed_);
  auto* vs = dynamic_cast<VSource*>(dev);
  if (vs == nullptr)
    throw CircuitError("Cccs '" + name() + "': sensed device '" + sensed_ +
                       "' is not a VSource");
  sense_branch_ = vs->branch();
  if (sense_branch_ < 0)
    throw CircuitError("Cccs '" + name() + "': sensed source not bound yet; add '" +
                       sensed_ + "' before this device");
}

void Cccs::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, sense_branch_});
}

void Cccs::lint(LintSink& sink) const { sink.edge(a_, b_, LintEdgeKind::isource); }

void Cccs::evaluate(EvalCtx& ctx) {
  const double i = gain_ * ctx.v(sense_branch_);
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, sense_branch_, gain_);
  ctx.jf_add(b_, sense_branch_, -gain_);
}

Ccvs::Ccvs(std::string name, int out_p, int out_n, std::string sensed_vsource, double r,
           Circuit& circuit)
    : Device(std::move(name)),
      a_(out_p),
      b_(out_n),
      sensed_(std::move(sensed_vsource)),
      r_(r),
      circuit_(circuit) {}

void Ccvs::bind(Binder& binder) {
  auto* vs = dynamic_cast<VSource*>(circuit_.find_device(sensed_));
  if (vs == nullptr)
    throw CircuitError("Ccvs '" + name() + "': sensed device '" + sensed_ +
                       "' is not a VSource");
  sense_branch_ = vs->branch();
  if (sense_branch_ < 0)
    throw CircuitError("Ccvs '" + name() + "': sensed source not bound yet; add '" +
                       sensed_ + "' before this device");
  br_ = binder.alloc_branch(binder.node_nature(a_));
}

void Ccvs::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, sense_branch_, br_});
}

void Ccvs::lint(LintSink& sink) const { sink.edge(a_, b_, LintEdgeKind::vsource); }

void Ccvs::evaluate(EvalCtx& ctx) {
  const double i = ctx.v(br_);
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, br_, 1.0);
  ctx.jf_add(b_, br_, -1.0);
  ctx.f_add(br_, (ctx.v(a_) - ctx.v(b_)) - r_ * ctx.v(sense_branch_));
  ctx.jf_add(br_, a_, 1.0);
  ctx.jf_add(br_, b_, -1.0);
  ctx.jf_add(br_, sense_branch_, -r_);
}

IdealTransformer::IdealTransformer(std::string name, int a, int b, int c, int d,
                                   double ratio)
    : Device(std::move(name)), a_(a), b_(b), c_(c), d_(d), n_(ratio) {}

void IdealTransformer::bind(Binder& binder) {
  br_ = binder.alloc_branch(binder.node_nature(a_));
}

void IdealTransformer::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, c_, d_, br_});
}

// Each winding is a galvanic current path between its own two pins, but the
// two ports share no conductive node — the default footprint clique would
// invent one.
void IdealTransformer::lint(LintSink& sink) const {
  sink.edge(a_, b_, LintEdgeKind::conductive);
  sink.edge(c_, d_, LintEdgeKind::conductive);
}

void IdealTransformer::evaluate(EvalCtx& ctx) {
  // Branch unknown: i1 (flows a -> b inside port 1).
  const double i1 = ctx.v(br_);
  ctx.f_add(a_, i1);
  ctx.f_add(b_, -i1);
  ctx.jf_add(a_, br_, 1.0);
  ctx.jf_add(b_, br_, -1.0);
  // Port 2 current: i2 = -n*i1 flowing c -> d means n*i1 enters c.
  ctx.f_add(c_, -n_ * i1);
  ctx.f_add(d_, n_ * i1);
  ctx.jf_add(c_, br_, -n_);
  ctx.jf_add(d_, br_, n_);
  // Constraint: (va - vb) - n (vc - vd) = 0.
  ctx.f_add(br_, (ctx.v(a_) - ctx.v(b_)) - n_ * (ctx.v(c_) - ctx.v(d_)));
  ctx.jf_add(br_, a_, 1.0);
  ctx.jf_add(br_, b_, -1.0);
  ctx.jf_add(br_, c_, -n_);
  ctx.jf_add(br_, d_, n_);
}

Gyrator::Gyrator(std::string name, int a, int b, int c, int d, double g)
    : Device(std::move(name)), a_(a), b_(b), c_(c), d_(d), g_(g) {}

void Gyrator::bind(Binder&) {}

void Gyrator::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, c_, d_});
}

void Gyrator::evaluate(EvalCtx& ctx) {
  // i1 = g*v2 into port 1; i2 = -g*v1 into port 2 (power conserving).
  const double v1 = ctx.v(a_) - ctx.v(b_);
  const double v2 = ctx.v(c_) - ctx.v(d_);
  const double i1 = g_ * v2;
  const double i2 = -g_ * v1;
  ctx.f_add(a_, i1);
  ctx.f_add(b_, -i1);
  ctx.jf_add(a_, c_, g_);
  ctx.jf_add(a_, d_, -g_);
  ctx.jf_add(b_, c_, -g_);
  ctx.jf_add(b_, d_, g_);
  ctx.f_add(c_, i2);
  ctx.f_add(d_, -i2);
  ctx.jf_add(c_, a_, -g_);
  ctx.jf_add(c_, b_, g_);
  ctx.jf_add(d_, a_, g_);
  ctx.jf_add(d_, b_, -g_);
}

StateIntegrator::StateIntegrator(std::string name, int out, int in, double initial)
    : Device(std::move(name)), out_(out), in_(in), initial_(initial) {}

void StateIntegrator::bind(Binder& binder) {
  if (out_ < 0) throw CircuitError("StateIntegrator '" + name() + "': output at ground");
  br_ = binder.alloc_branch(binder.node_nature(out_));
}

void StateIntegrator::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {out_, in_, br_});
}

void StateIntegrator::evaluate(EvalCtx& ctx) {
  // Driver current into the output node (value determined by the constraint).
  ctx.f_add(out_, ctx.v(br_));
  ctx.jf_add(out_, br_, 1.0);
  if (ctx.mode == AnalysisMode::dc) {
    // The integral's value is its initial condition at DC.
    ctx.f_add(br_, ctx.v(out_) - initial_);
    ctx.jf_add(br_, out_, 1.0);
  } else {
    // d(v_out)/dt - v_in = 0  =>  q = v_out, f = -v_in.
    ctx.q_add(br_, ctx.v(out_));
    ctx.jq_add(br_, out_, 1.0);
    ctx.f_add(br_, -ctx.v(in_));
    ctx.jf_add(br_, in_, -1.0);
  }
}

}  // namespace usys::spice
