#include "spice/devices_passive.hpp"

#include <stdexcept>

#include "spice/lint.hpp"

namespace usys::spice {

Resistor::Resistor(std::string name, int a, int b, double resistance, Nature nature)
    : Device(std::move(name)), a_(a), b_(b), r_(resistance), nature_(nature) {
  if (!valid(r_)) throw std::invalid_argument("Resistor '" + this->name() + "': R must be > 0");
}

void Resistor::bind(Binder& binder) {
  binder.require_nature(a_, nature_, name());
  binder.require_nature(b_, nature_, name());
}

void Resistor::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_});
}

void Resistor::lint(LintSink& sink) const {
  sink.edge(a_, b_, LintEdgeKind::conductive);
  lint_values(sink);
}

void Resistor::lint_values(LintSink& sink) const {
  sink.check_value("resistance", r_, LintSeverity::error);
  if (nature_ == Nature::electrical) sink.check_magnitude("resistance", r_, 1e-3, 1e12);
}

void Resistor::evaluate(EvalCtx& ctx) {
  const double g = 1.0 / r_;
  const double i = g * (ctx.v(a_) - ctx.v(b_));
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, a_, g);
  ctx.jf_add(a_, b_, -g);
  ctx.jf_add(b_, a_, -g);
  ctx.jf_add(b_, b_, g);
}

Capacitor::Capacitor(std::string name, int a, int b, double capacitance, Nature nature)
    : Device(std::move(name)), a_(a), b_(b), c_(capacitance), nature_(nature) {
  if (!valid(c_))
    throw std::invalid_argument("Capacitor '" + this->name() + "': C must be > 0");
}

void Capacitor::bind(Binder& binder) {
  binder.require_nature(a_, nature_, name());
  binder.require_nature(b_, nature_, name());
}

void Capacitor::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_});
}

void Capacitor::lint(LintSink& sink) const {
  sink.edge(a_, b_, LintEdgeKind::reactive);
  lint_values(sink);
}

void Capacitor::lint_values(LintSink& sink) const {
  sink.check_value("capacitance", c_);
  if (nature_ == Nature::electrical) sink.check_magnitude("capacitance", c_, 1e-18, 1.0);
}

void Capacitor::evaluate(EvalCtx& ctx) {
  const double q = c_ * (ctx.v(a_) - ctx.v(b_));
  ctx.q_add(a_, q);
  ctx.q_add(b_, -q);
  ctx.jq_add(a_, a_, c_);
  ctx.jq_add(a_, b_, -c_);
  ctx.jq_add(b_, a_, -c_);
  ctx.jq_add(b_, b_, c_);
}

Inductor::Inductor(std::string name, int a, int b, double inductance, Nature nature)
    : Device(std::move(name)), a_(a), b_(b), l_(inductance), nature_(nature) {
  if (!valid(l_))
    throw std::invalid_argument("Inductor '" + this->name() + "': L must be > 0");
}

void Inductor::bind(Binder& binder) {
  binder.require_nature(a_, nature_, name());
  binder.require_nature(b_, nature_, name());
  br_ = binder.alloc_branch(nature_);
}

void Inductor::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, br_});
}

void Inductor::lint(LintSink& sink) const {
  // At DC the flux term vanishes and the branch equation shorts a to b — a
  // voltage-defined edge that exists only at DC.
  sink.edge(a_, b_, LintEdgeKind::vsource_dc);
  lint_values(sink);
}

void Inductor::lint_values(LintSink& sink) const {
  sink.check_value("inductance", l_);
  if (nature_ == Nature::electrical) sink.check_magnitude("inductance", l_, 1e-12, 1e3);
}

// The mechanical twins re-label the checks in their own quantities: the
// electrical value is derived (C = m, L = 1/k, R = 1/alpha), so reporting it
// directly would point the user at a number the netlist never contained.
void Mass::lint_values(LintSink& sink) const { sink.check_value("mass", mass()); }

void Spring::lint_values(LintSink& sink) const {
  sink.check_value("stiffness", k_, LintSeverity::error);
}

void Damper::lint_values(LintSink& sink) const {
  sink.check_value("damping coefficient", alpha_);
}

void Inductor::evaluate(EvalCtx& ctx) {
  // KCL: branch current leaves a, enters b.
  const double i = ctx.v(br_);
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, br_, 1.0);
  ctx.jf_add(b_, br_, -1.0);
  // Branch equation: d(L i)/dt - (va - vb) = 0.
  ctx.f_add(br_, -(ctx.v(a_) - ctx.v(b_)));
  ctx.jf_add(br_, a_, -1.0);
  ctx.jf_add(br_, b_, 1.0);
  ctx.q_add(br_, l_ * i);
  ctx.jq_add(br_, br_, l_);
}

}  // namespace usys::spice
