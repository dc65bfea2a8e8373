#include "spice/devices_source.hpp"

#include "spice/lint.hpp"

#include "common/constants.hpp"

#include <cmath>

namespace usys::spice {

VSource::VSource(std::string name, int a, int b, std::unique_ptr<Waveform> wave,
                 Nature nature, double ac_mag, double ac_phase_deg)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      wave_(std::move(wave)),
      nature_(nature),
      ac_mag_(ac_mag),
      ac_phase_deg_(ac_phase_deg) {}

VSource::VSource(std::string name, int a, int b, double dc_value, Nature nature)
    : VSource(std::move(name), a, b, std::make_unique<DcWave>(dc_value), nature) {}

void VSource::bind(Binder& binder) {
  binder.require_nature(a_, nature_, name());
  binder.require_nature(b_, nature_, name());
  br_ = binder.alloc_branch(nature_);
}

void VSource::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_, br_});
}

void VSource::lint(LintSink& sink) const { sink.edge(a_, b_, LintEdgeKind::vsource); }

void VSource::evaluate(EvalCtx& ctx) {
  const double i = ctx.v(br_);
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
  ctx.jf_add(a_, br_, 1.0);
  ctx.jf_add(b_, br_, -1.0);
  // Branch equation: (va - vb) - V(t) = 0; DC uses t = 0 and source_scale
  // supports the source-stepping continuation.
  const double v = ctx.source_scale * wave_->value(ctx.time);
  ctx.f_add(br_, ctx.v(a_) - ctx.v(b_) - v);
  ctx.jf_add(br_, a_, 1.0);
  ctx.jf_add(br_, b_, -1.0);
}

void VSource::ac_rhs(ZVector& rhs) const {
  if (ac_mag_ == 0.0 || br_ < 0) return;
  const double ph = ac_phase_deg_ * kPi / 180.0;
  rhs[static_cast<std::size_t>(br_)] +=
      std::complex<double>(ac_mag_ * std::cos(ph), ac_mag_ * std::sin(ph));
}

void VSource::breakpoints(std::vector<double>& out) const { wave_->breakpoints(out); }

ISource::ISource(std::string name, int a, int b, std::unique_ptr<Waveform> wave,
                 Nature nature, double ac_mag, double ac_phase_deg)
    : Device(std::move(name)),
      a_(a),
      b_(b),
      wave_(std::move(wave)),
      nature_(nature),
      ac_mag_(ac_mag),
      ac_phase_deg_(ac_phase_deg) {}

ISource::ISource(std::string name, int a, int b, double dc_value, Nature nature)
    : ISource(std::move(name), a, b, std::make_unique<DcWave>(dc_value), nature) {}

void ISource::bind(Binder& binder) {
  binder.require_nature(a_, nature_, name());
  binder.require_nature(b_, nature_, name());
}

void ISource::stamp_footprint(std::vector<int>& out) const {
  out.insert(out.end(), {a_, b_});
}

void ISource::lint(LintSink& sink) const { sink.edge(a_, b_, LintEdgeKind::isource); }

void ISource::evaluate(EvalCtx& ctx) {
  const double i = ctx.source_scale * wave_->value(ctx.time);
  // Current i leaves node a, enters node b (SPICE convention).
  ctx.f_add(a_, i);
  ctx.f_add(b_, -i);
}

void ISource::ac_rhs(ZVector& rhs) const {
  if (ac_mag_ == 0.0) return;
  const double ph = ac_phase_deg_ * kPi / 180.0;
  const std::complex<double> i(ac_mag_ * std::cos(ph), ac_mag_ * std::sin(ph));
  // Residual form f(a) += i  =>  RHS contribution is -i at a, +i at b.
  if (a_ >= 0) rhs[static_cast<std::size_t>(a_)] -= i;
  if (b_ >= 0) rhs[static_cast<std::size_t>(b_)] += i;
}

void ISource::breakpoints(std::vector<double>& out) const { wave_->breakpoints(out); }

namespace {

// Any value the constructor takes is settable (it takes every double); a
// non-finite drive is the solver's to fail on, exactly as when built cold.
bool set_dc_param(std::unique_ptr<Waveform>& wave, std::string_view key, double value) {
  if (key != "dc") return false;
  if (dynamic_cast<const DcWave*>(wave.get()) == nullptr) return false;
  wave = std::make_unique<DcWave>(value);
  return true;
}

bool get_dc_param(const Waveform& wave, std::string_view key, double& out) {
  if (key != "dc") return false;
  const auto* dc = dynamic_cast<const DcWave*>(&wave);
  if (dc == nullptr) return false;
  out = dc->value(0.0);
  return true;
}

}  // namespace

bool VSource::set_param(std::string_view key, double value) {
  return set_dc_param(wave_, key, value);
}

bool VSource::get_param(std::string_view key, double& out) const {
  return get_dc_param(*wave_, key, out);
}

bool ISource::set_param(std::string_view key, double value) {
  return set_dc_param(wave_, key, value);
}

bool ISource::get_param(std::string_view key, double& out) const {
  return get_dc_param(*wave_, key, out);
}

}  // namespace usys::spice
