// Independent sources (electrical and mechanical).
#pragma once

#include <memory>

#include "spice/circuit.hpp"
#include "spice/waveform.hpp"

namespace usys::spice {

/// Independent voltage source (effort source). Positive terminal a.
/// Carries a branch current unknown; supports an AC magnitude/phase for
/// small-signal sweeps.
class VSource : public Device {
 public:
  VSource(std::string name, int a, int b, std::unique_ptr<Waveform> wave,
          Nature nature = Nature::electrical, double ac_mag = 0.0, double ac_phase_deg = 0.0);
  /// Convenience: DC source.
  VSource(std::string name, int a, int b, double dc_value,
          Nature nature = Nature::electrical);

  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;
  void ac_rhs(ZVector& rhs) const override;
  void breakpoints(std::vector<double>& out) const override;

  /// Branch unknown carrying the source current (valid after bind).
  int branch() const noexcept { return br_; }
  const Waveform& waveform() const noexcept { return *wave_; }

  /// "dc" is overridable only while the source IS a DC source (swapping a
  /// PULSE/SIN drive for a constant would not round-trip through
  /// get_param, so warm-reuse baselines could not be restored).
  bool set_param(std::string_view key, double value) override;
  bool get_param(std::string_view key, double& out) const override;

 private:
  int a_, b_;
  std::unique_ptr<Waveform> wave_;
  Nature nature_;
  double ac_mag_, ac_phase_deg_;
  int br_ = -1;
};

/// Independent current source: current flows from a through the source to b
/// (SPICE convention).
class ISource : public Device {
 public:
  ISource(std::string name, int a, int b, std::unique_ptr<Waveform> wave,
          Nature nature = Nature::electrical, double ac_mag = 0.0, double ac_phase_deg = 0.0);
  ISource(std::string name, int a, int b, double dc_value,
          Nature nature = Nature::electrical);

  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;
  void ac_rhs(ZVector& rhs) const override;
  void breakpoints(std::vector<double>& out) const override;

  /// Same contract as VSource: "dc", DC-waveform sources only.
  bool set_param(std::string_view key, double value) override;
  bool get_param(std::string_view key, double& out) const override;

 private:
  int a_, b_;
  std::unique_ptr<Waveform> wave_;
  Nature nature_;
  double ac_mag_, ac_phase_deg_;
};

/// External force applied to a mechanical node (flow source into the node):
/// positive value pushes the node toward positive velocity.
class ForceSource : public ISource {
 public:
  ForceSource(std::string name, int node, std::unique_ptr<Waveform> wave)
      : ISource(std::move(name), Circuit::kGround, node, std::move(wave),
                Nature::mechanical_translation) {}
  ForceSource(std::string name, int node, double f0)
      : ISource(std::move(name), Circuit::kGround, node, f0,
                Nature::mechanical_translation) {}
};

/// Imposed velocity on a mechanical node (effort source), e.g. a shaker.
class VelocitySource : public VSource {
 public:
  VelocitySource(std::string name, int node, std::unique_ptr<Waveform> wave)
      : VSource(std::move(name), node, Circuit::kGround, std::move(wave),
                Nature::mechanical_translation) {}
};

}  // namespace usys::spice
