// Bytecode compilation of elaborated HDL-AT models.
//
// The AST interpreter (hdl/interpreter.cpp) re-walks the statement trees of a
// model on every Newton iteration: recursive eval_expr calls, string dispatch
// on operator/function names, integer parsing of encoded pin fields, a linear
// seed_of() scan inside every port read, and a freshly allocated Dual frame
// per run. The paper attributes its ~10x interpreted-model penalty to exactly
// this kind of overhead. This module removes it:
//
//   * compile() runs once per device instance (at bind, when node / branch /
//     seed indices are known) and flattens the selected procedural blocks
//     into a linear register-slot program: numeric opcodes, operands fully
//     pre-resolved — port reads carry their unknown-vector indices and AD
//     seed slots, stamp ops carry their MNA rows and signs, ddt/integ ops
//     carry their state-site ids.
//   * BytecodeVm executes a program with a flat persistent register file
//     (values + a dense regs x seeds gradient block) — no recursion, no
//     allocation, no name lookups on the hot path. One VM serves all four
//     interpreter passes (dc, dc_ddt, transient, commit). Passes whose
//     gradients nobody reads (the commit pass, and any stamp pass whose
//     context keeps no Jacobian) run a value-only instantiation.
//   * The commit pass runs a slice: compile() cuts commit_code down to the
//     instructions that feed a ddt/integ state update or an ASSERT check
//     (commit_slice), so an accepted step commits its integrator states
//     without re-evaluating the model's contributions.
//   * Capture mode redirects stamp gradients into a seeds x seeds scratch
//     block instead of the MNA sink, which is what the jq extraction needs:
//     every stamp row and every gradient column of a device is one of its
//     seed unknowns, so the full n x n scratch matrices the AST path used
//     are never materialized.
//
// Arithmetic mirrors sym::Dual operation for operation (same formulas, same
// evaluation order), so bytecode and AST execution agree bit-for-bit — the
// parity tests in tests/hdl/test_bytecode.cpp hold at 1e-12 and usually
// exactly.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/matrix.hpp"
#include "hdl/elaborate.hpp"
#include "spice/types.hpp"

namespace usys::hdl {

/// Interpreter pass, shared by both executors (see interpreter.hpp header
/// comment for the integrator-substitution semantics of each pass).
enum class HdlPass {
  dc,          ///< ddt = 0, integ = initial
  dc_ddt,      ///< like dc but ddt passes gradients through (jq extraction)
  transient,   ///< full integrator substitution
  commit,      ///< transient formulas + state commit (post-acceptance)
};

/// Per-call-site dynamic state, owned by the device and shared by both
/// executors so switching HdlExecMode mid-simulation stays consistent.
struct DdtSiteState {
  double u_prev = 0.0;
  double udot_prev = 0.0;
};
struct IntegSiteState {
  double s0 = 0.0;
  double s_prev = 0.0;
  double e_prev = 0.0;
};

enum class Op : std::uint8_t {
  kconst,       ///< r[dst] = constants[a], zero gradient
  copy,         ///< r[dst] = r[a]
  read_across,  ///< r[dst] = x[a] - x[c]; seeds b, d (any index may be -1)
  read_branch,  ///< r[dst] = c * x[a]; seed b scaled by sign c (+1/-1)
  neg,          ///< r[dst] = -r[a]
  add,          ///< r[dst] = r[a] + r[b]
  sub,          ///< r[dst] = r[a] - r[b]
  mul,          ///< r[dst] = r[a] * r[b]
  div,          ///< r[dst] = r[a] / r[b]
  pow,          ///< r[dst] = r[a] ^ r[b]
  sin,          ///< r[dst] = sin(r[a])   (likewise for the rest)
  cos,
  tan,
  exp,
  log,
  sqrt,
  abs,
  min,          ///< r[dst] = value-selected copy of r[a] or r[b]
  max,
  limit,        ///< r[dst] = r[a] clamped to [r[b], r[c]] (branch-selected)
  ddt,          ///< r[dst] = ddt site b applied to r[a]
  integ,        ///< r[dst] = integ site b applied to r[a]
  stamp_flow,   ///< stamp r[dst]: +row a (seed b), -row c (seed d)
  stamp_effort, ///< stamp r[dst]: sign c on branch row a (seed b)
  assert_check, ///< commit pass: record site b if r[a].value <= 0
};

struct Insn {
  Op op;
  std::int32_t dst = -1;
  std::int32_t a = -1, b = -1, c = -1, d = -1;
};

/// A compiled, instance-bound model: three linear programs sharing one
/// register file layout. `dc_code` serves the dc and dc_ddt passes,
/// `tran_code` the transient pass, `commit_code` the commit pass: the
/// transient statements plus the ASSERT checks, cut to their commit slice
/// (no stamps, only what reaches a ddt, integ or assert_check).
struct BytecodeProgram {
  std::string entity_name;

  int n_regs = 0;                  ///< register-file size
  int n_frame = 0;                 ///< leading registers = model frame slots
  std::vector<double> frame_init;  ///< initial values of the frame registers
  std::vector<double> constants;
  int n_seeds = 0;
  std::vector<int> seed_unknowns;  ///< AD seed slot -> global unknown

  /// Effort-pair plumbing (KCL branch rows), stamped before the program.
  /// Capture mode skips it: the plumbing Jf is pass-independent, so the jq
  /// difference cancels it exactly.
  struct PairPlumb {
    int na = -1, nb = -1;          ///< node rows (may be -1 = ground)
    int br = -1;                   ///< branch row
  };
  std::vector<PairPlumb> pairs;

  std::vector<int> assert_lines;   ///< source line per ASSERT site

  std::vector<Insn> dc_code, tran_code, commit_code;

  int ddt_sites = 0;
  int integ_sites = 0;
};

/// Flattens `model` for one instance. `nodes` maps pin index -> circuit node,
/// `branch_of_pair` maps effort-pair index -> branch unknown, and
/// `seed_unknowns` lists the instance's AD seed slots (interpreter bind()
/// order). `slice` false keeps the full commit stream (stamps included),
/// which the tests run against the slice. Throws ElabError on malformed
/// programs (which elaboration should have rejected — this is the backstop
/// for the old silent-zero paths).
BytecodeProgram compile(const ElaboratedModel& model, const std::vector<int>& nodes,
                        const std::vector<int>& branch_of_pair,
                        const std::vector<int>& seed_unknowns, bool slice = true);

/// One instruction's def/use shape: the registers it reads, the register it
/// defines (-1: none), and whether it acts beyond its destination (stamps,
/// ASSERT records and, in the commit pass, ddt/integ state updates).
/// Operands are reported as they stand; verify_program bounds-checks them.
struct InsnShape {
  std::int32_t reads[3] = {-1, -1, -1};
  int n_reads = 0;
  std::int32_t def = -1;
  bool side_effect = false;
};
InsnShape insn_shape(const Insn& in, bool commit) noexcept;

/// Backward liveness over one straight-line stream: false marks an
/// instruction that defines a register no later instruction reads and has
/// no side effect. Nothing is live after the stream, since every pass
/// restarts the frame registers from frame_init. Every register in `shapes`
/// must lie in [0, n_regs).
std::vector<char> live_insns(const std::vector<InsnShape>& shapes, int n_regs);

/// The part of a commit stream the commit pass needs: the stamps go (commit
/// never stamps), then every instruction whose result cannot reach a ddt,
/// integ or assert_check. Site states and ASSERT firings are those of the
/// full stream, bit for bit.
std::vector<Insn> commit_slice(const std::vector<Insn>& code, int n_regs);

/// Executes a BytecodeProgram. Stateless between runs apart from the
/// persistent register storage (reinitialized from frame_init each run).
class BytecodeVm {
 public:
  BytecodeVm() = default;
  explicit BytecodeVm(const BytecodeProgram* prog) { reset(prog); }

  /// (Re)binds the VM to a program and sizes the register file.
  void reset(const BytecodeProgram* prog);

  struct RunIo {
    spice::EvalCtx* ctx = nullptr;  ///< null during commit and capture runs
    const DVector* x = nullptr;
    HdlPass pass = HdlPass::dc;
    double c0 = 0.0, c1 = 1.0;      ///< integrator coefficients
    std::vector<DdtSiteState>* ddt = nullptr;
    std::vector<IntegSiteState>* integ = nullptr;
    /// Capture mode: stamp gradients accumulate into this seeds x seeds
    /// row-major block (row = seed slot of the stamp row) and the MNA sink
    /// plus the effort-pair plumbing are bypassed. Null = normal stamping.
    double* jf_capture = nullptr;
    /// Commit pass: ASSERT sites whose condition evaluated <= 0 are appended
    /// as (site, value). Null = checks skipped.
    std::vector<std::pair<int, double>>* fired_asserts = nullptr;
  };

  /// Runs the pass. Gradients are computed only when something consumes
  /// them (wants_gradients); otherwise the value-only instantiation runs,
  /// whose values, stamps, site states and ASSERT firings are bit-identical.
  void run(const RunIo& io);

  /// True when `io` consumes gradients: a capture block, or a stamping pass
  /// whose context keeps Jacobian stamps. Commit passes never do.
  static bool wants_gradients(const RunIo& io) noexcept;

  /// run() with the instantiation fixed: kGrad = false skips all gradient
  /// arithmetic (and drops Jacobian stamps). run() picks it from the
  /// context; the parity tests call both on the same pass.
  template <bool kGrad>
  void run_pass(const RunIo& io);

 private:
  const BytecodeProgram* prog_ = nullptr;
  std::vector<double> val_;   ///< register values
  std::vector<double> grad_;  ///< register gradients, n_regs x n_seeds
};

}  // namespace usys::hdl
