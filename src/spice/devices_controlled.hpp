// Controlled sources and ideal coupling two-ports.
//
// These are the building blocks of the *linearized equivalent circuit*
// method the paper compares against: a transformer (or gyrator, depending on
// analogy) with a constant transduction factor couples the electrical and
// mechanical halves. They are also the SPICE primitives ("controlled source
// I = const.V1.V2") the paper mentions as the escape hatch of the
// equivalent-circuit approach.
#pragma once

#include "spice/circuit.hpp"

namespace usys::spice {

/// Voltage-controlled voltage source: (va - vb) = gain * (vc - vd).
class Vcvs : public Device {
 public:
  Vcvs(std::string name, int out_p, int out_n, int ctl_p, int ctl_n, double gain);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;
  int branch() const noexcept { return br_; }

 private:
  int a_, b_, c_, d_;
  double gain_;
  int br_ = -1;
};

/// Voltage-controlled current source: i(a->b) = gm * (vc - vd).
/// Nature-agnostic on both ports — this is the elementary transduction stamp.
class Vccs : public Device {
 public:
  Vccs(std::string name, int out_p, int out_n, int ctl_p, int ctl_n, double gm);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;
  double gm() const noexcept { return gm_; }

 private:
  int a_, b_, c_, d_;
  double gm_;
};

/// Current-controlled current source: i_out = gain * i(sensed branch).
/// The sensed branch is a named VSource's current.
class Cccs : public Device {
 public:
  Cccs(std::string name, int out_p, int out_n, std::string sensed_vsource, double gain,
       Circuit& circuit);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;

 private:
  int a_, b_;
  std::string sensed_;
  double gain_;
  Circuit& circuit_;
  int sense_branch_ = -1;
};

/// Current-controlled voltage source: (va - vb) = r * i(sensed branch).
class Ccvs : public Device {
 public:
  Ccvs(std::string name, int out_p, int out_n, std::string sensed_vsource, double r,
       Circuit& circuit);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;

 private:
  int a_, b_;
  std::string sensed_;
  double r_;
  Circuit& circuit_;
  int sense_branch_ = -1;
  int br_ = -1;
};

/// Ideal transformer: v1 = n * v2, i2 = -n * i1 (power conserving).
/// Port 1 = (a,b), port 2 = (c,d). One branch unknown (i1).
class IdealTransformer : public Device {
 public:
  IdealTransformer(std::string name, int a, int b, int c, int d, double ratio);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  void lint(LintSink& sink) const override;

 private:
  int a_, b_, c_, d_;
  double n_;
  int br_ = -1;
};

/// Ideal gyrator: i1 = g * v2, i2 = -g * v1 (power conserving; converts
/// an effort on one side into a flow on the other — the natural coupling
/// element between FI-analogy domains).
class Gyrator : public Device {
 public:
  Gyrator(std::string name, int a, int b, int c, int d, double g);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;

 private:
  int a_, b_, c_, d_;
  double g_;
};

/// Exposes the integral of a node effort as a new node's effort:
///   d(v_out)/dt = v_in,  v_out(0) = initial.
/// Used to plot displacement = integral(velocity), exactly as the paper's
/// Fig. 5 displays displacements "represented by voltages D and DT".
class StateIntegrator : public Device {
 public:
  StateIntegrator(std::string name, int out, int in, double initial = 0.0);
  void bind(Binder& binder) override;
  void evaluate(EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;

 private:
  int out_, in_;
  double initial_;
  int br_ = -1;
};

}  // namespace usys::spice
