// The HDL-AT execution engine: wraps an ElaboratedModel as a spice::Device.
//
// Each Newton iteration re-executes the model's procedural blocks with
// forward-mode AD duals seeded on the instance's unknowns (pin node efforts
// and effort-branch flows), so flow/effort contributions land in the MNA
// residual together with exact Jacobian entries.
//
// Dynamic operators use direct integrator substitution:
//  * ddt(e): value = a0*e + hist with a0 = 1/c1 from the step coefficients
//    (backward-Euler or trapezoidal history kept per call site);
//  * integ(e): value = s_prev + c0*e_prev + c1*e per call site.
// During DC, ddt() evaluates to 0 and integ() to its initial value — the
// HDL-A semantics the paper's models rely on (`x := integ(S)` pins the
// displacement at 0 in the operating point).
//
// AC: the device is linearized with internal integ() states frozen (the
// same convention the native transducers use — see DESIGN.md); ddt() terms
// are separated into the jq matrix by a two-pass gradient extraction whose
// scratch is seed-local (seeds x seeds), never n x n.
//
// Three executors share the pass semantics and the per-site state:
//  * HdlExecMode::bytecode (default) — the model is compiled once at bind
//    into a flat register-slot program run by BytecodeVm (hdl/bytecode.hpp).
//    This closes most of the ~10x interpreted-model penalty the paper
//    reports; bench_perf_hdl_overhead tracks the remaining gap.
//  * HdlExecMode::codegen — the bytecode program is translated to flat C++
//    (hdl/codegen.hpp), compiled once per model *shape* by the host compiler
//    into a dlopen'd shared object with the Dual arithmetic unrolled over
//    the seed count and the stamps fused into a seed-indexed block. Falls
//    back to the bytecode VM (with one warning) when no compiler is
//    available or compilation fails — codegen never gates correctness.
//  * HdlExecMode::ast — the original recursive tree walk over the
//    ElaboratedModel, kept as the reproduction of the paper's interpreted
//    path and as the oracle the other executors are tested against
//    (tests/hdl/test_bytecode.cpp, tests/hdl/test_codegen.cpp assert parity
//    at 1e-12).
#pragma once

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "hdl/bytecode.hpp"
#include "hdl/elaborate.hpp"
#include "hdl/verify.hpp"
#include "spice/circuit.hpp"
#include "sym/dual.hpp"

namespace usys::hdl {

namespace codegen {
struct CompiledModel;
}

/// Which executor HdlDevice::evaluate runs. Switchable at any time; all
/// executors share the ddt/integ site state, so results stay consistent.
enum class HdlExecMode {
  bytecode,  ///< compiled register-slot program (fast path, default)
  ast,       ///< recursive tree walk (paper-faithful oracle)
  codegen,   ///< native-compiled model (fastest; VM fallback when unavailable)
};

/// Parses "ast" / "bytecode" / "codegen" (case-sensitive); false on anything
/// else. Shared by the netlist `.options hdl=` card and `usim --hdl-mode=`.
bool parse_exec_mode(const std::string& text, HdlExecMode& out);

class HdlDevice final : public spice::Device {
 public:
  /// `node_per_pin` maps each model pin (declaration order) to a circuit
  /// node id (ground = -1 allowed).
  HdlDevice(std::string name, ElaboratedModel model, std::vector<int> node_per_pin,
            HdlExecMode exec_mode = HdlExecMode::bytecode);

  void bind(spice::Binder& binder) override;
  void evaluate(spice::EvalCtx& ctx) override;
  void stamp_footprint(std::vector<int>& out) const override;
  /// ddt() and integ() are integrated inside the device (per-site state),
  /// so no executor stamps q.
  bool stores_charge() const noexcept override { return false; }
  void start_transient(const DVector& x_dc) override;
  void accept(const spice::AcceptCtx& ctx) override;
  /// Default topology plus the bytecode verifier's warnings (hdl-* rules).
  void lint(spice::LintSink& sink) const override;

  const ElaboratedModel& model() const noexcept { return model_; }

  HdlExecMode exec_mode() const noexcept { return exec_mode_; }
  void set_exec_mode(HdlExecMode mode) noexcept {
    // Re-arm the lazy codegen acquisition when (re)entering codegen mode, so
    // a post-bind switch still picks up the native object.
    if (mode == HdlExecMode::codegen && exec_mode_ != mode) cg_attempted_ = false;
    exec_mode_ = mode;
  }

  /// True when this device currently runs a native-compiled model (codegen
  /// mode, acquisition succeeded). False before bind, in other modes, and
  /// after a fallback.
  bool codegen_active() const noexcept { return exec_mode_ == HdlExecMode::codegen && cg_ != nullptr; }

  /// The compiled program (valid after bind; for tests and benchmarks).
  const BytecodeProgram& program() const noexcept { return program_; }

  /// The bind-time static verification of program_ (hdl/verify.hpp).
  /// Errors throw inside bind(), so a bound device's report holds only
  /// warnings; lint() re-surfaces them.
  const VerifyReport& verify_report() const noexcept { return verify_report_; }

  /// Committed value of an integ() call site (e.g. the displacement state
  /// of the paper's Listing 1), indexed in source order.
  double integ_state(int site) const;

  /// Generic parameters by name, matched case-insensitively, so the stdlib
  /// card keys ("a", "d", "er") address the generics ("A", "d", "er").
  /// set_param takes any value (elaboration does) and recomputes the init
  /// frame, which every executor reads on its next pass.
  bool set_param(std::string_view key, double value) override;
  bool get_param(std::string_view key, double& out) const override;

  /// Distinct ASSERT sites that have fired in the current transient (each
  /// site warns once per transient; start_transient clears the record).
  int assert_violations() const noexcept override {
    return static_cast<int>(asserted_.size());
  }

 private:
  using Pass = HdlPass;

  struct Frame;
  sym::Dual eval_expr(const ExprNode& e, Frame& fr);

  /// One pass over the model. `jf_capture` (seeds x seeds, row-major by seed
  /// slot) switches both executors into gradient-capture mode for the jq
  /// extraction; `ctx` must then be null.
  void run(spice::EvalCtx* ctx, Pass pass, const DVector& x,
           double* jf_capture = nullptr);
  void run_ast(spice::EvalCtx* ctx, Pass pass, const DVector& x, double* jf_capture);
  void run_codegen(spice::EvalCtx* ctx, Pass pass, const DVector& x,
                   double* jf_capture);
  void report_assert(int site, int line, double value);

  ElaboratedModel model_;
  std::vector<int> nodes_;           ///< node id per pin
  std::vector<int> branch_of_pair_;  ///< branch unknown per effort pair
  std::vector<int> seed_unknowns_;   ///< global unknown per AD seed slot
  std::vector<DdtSiteState> ddt_;
  std::vector<IntegSiteState> integ_;
  std::set<int> asserted_;           ///< ASSERT sites already reported
  HdlExecMode exec_mode_;

  BytecodeProgram program_;          ///< compiled at bind
  VerifyReport verify_report_;       ///< bind-time verification (warnings only)
  BytecodeVm vm_;
  std::vector<std::pair<int, double>> fired_asserts_;  ///< VM scratch
  std::vector<double> cap_a_, cap_b_;                  ///< jq capture scratch

  // Codegen execution state (hdl/codegen.hpp): the process-wide registry
  // owns the compiled object; the device only keeps the entry points plus
  // per-run gather/scatter scratch.
  const codegen::CompiledModel* cg_ = nullptr;
  bool cg_attempted_ = false;
  std::vector<double> cg_xs_;        ///< gathered unknown values per seed slot
  std::vector<double> cg_f_;         ///< residual block by seed row
  std::vector<double> cg_j_;         ///< Jacobian block, seeds x seeds
  std::vector<int> cg_sites_;        ///< commit-pass ASSERT scratch
  std::vector<double> cg_vals_;

  int seed_of(int global) const;     ///< -1 if not seeded (ground)
};

/// Convenience: parse + elaborate + instantiate in one call.
/// `source` may contain several entities; `entity` picks one.
std::unique_ptr<HdlDevice> instantiate(const std::string& device_name,
                                       const std::string& source,
                                       const std::string& entity,
                                       const std::map<std::string, double>& generics,
                                       const std::vector<int>& node_per_pin,
                                       HdlExecMode exec_mode = HdlExecMode::bytecode);

}  // namespace usys::hdl
