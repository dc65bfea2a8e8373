// Native code generation for compiled HDL-AT models (HdlExecMode::codegen).
//
// The bytecode VM (hdl/bytecode.hpp) closed most of the paper's ~10x
// interpreted-model penalty, but it still pays per-instruction dispatch and a
// seeds-wide gradient loop whose trip count is only known at run time. This
// module removes both: each BytecodeProgram is translated into flat C++
// source where
//
//   * registers become plain double locals (value + one local per gradient
//     component — the Dual value/gradient-row arithmetic is fully unrolled
//     over the model's fixed seed count, so the host compiler keeps the whole
//     working set in machine registers),
//   * every stamp_flow / stamp_effort is fused with the arithmetic op that
//     feeds it: results accumulate straight into a seed-indexed residual /
//     Jacobian block with no dispatch, no zero checks, and no sink calls in
//     between,
//   * the four interpreter passes (dc, dc_ddt, transient, commit) are emitted
//     as four separate branch-minimal functions with the pass semantics baked
//     in — no per-op switch on the pass remains.
//
// The emitted translation unit is *instance-independent*: unknown values are
// gathered per AD seed slot by the host before the call, frame initial values
// (generic bindings) arrive as a runtime array, and the stamp targets are the
// seed-slot block the MNA scatter in HdlDevice already understands (every
// stamp row and gradient column of an HDL device is one of its seed
// unknowns). Two instances therefore share one shared object whenever their
// *shape* matches (same entity structure, same grounding/sharing pattern of
// the pins) — a thousand-element array compiles exactly once.
//
// Compilation pipeline: generate_source() -> content hash -> in-process
// registry -> on-disk cache (<cache_dir>/usys_cg_<hash>.so) -> host compiler
// (`c++`, overridable) -> dlopen. Every failure path (no compiler, compile
// error, corrupt cache object) logs one warning per shape and returns null,
// and HdlDevice falls back to the bytecode VM — codegen is a pure
// accelerator, never a correctness dependency.
//
// Arithmetic mirrors the bytecode VM operation for operation (which itself
// mirrors sym::Dual), and the generated objects are built with
// -ffp-contract=off, so all three executors agree at 1e-12 — in practice bit
// for bit (tests/hdl/test_codegen.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>

#include "hdl/bytecode.hpp"

namespace usys::hdl::codegen {

/// C-ABI I/O block shared with the generated code. The emitted source
/// re-declares this struct textually (see generate_source); both sides are
/// standard-layout structs of pointers and doubles, so the declarations are
/// layout-identical by construction. Field order must not change without
/// bumping the codegen version tag.
struct CgIo {
  const double* xs = nullptr;     ///< unknown values per AD seed slot [S]
  const double* frame = nullptr;  ///< frame register init values [n_frame]
  double c0 = 0.0;                ///< integrator coefficients (transient/commit)
  double c1 = 1.0;
  double* ddt = nullptr;          ///< DdtSiteState array viewed as 2 doubles/site
  double* integ = nullptr;        ///< IntegSiteState array viewed as 3 doubles/site
  double* f_out = nullptr;        ///< residual by seed row [S] (zeroed by host)
  double* j_out = nullptr;        ///< Jacobian by (seed row, seed col) [S*S]
  int* fired_sites = nullptr;     ///< commit pass: ASSERT sites that fired
  double* fired_vals = nullptr;   ///< commit pass: the violating values
  int* n_fired = nullptr;         ///< commit pass: fire count (host sets 0)
};

// The generated commit function writes ddt/integ site state through plain
// double pointers; pin the host-side layouts it assumes.
static_assert(sizeof(DdtSiteState) == 2 * sizeof(double) &&
                  std::is_standard_layout_v<DdtSiteState>,
              "codegen views DdtSiteState as 2 packed doubles");
static_assert(sizeof(IntegSiteState) == 3 * sizeof(double) &&
                  std::is_standard_layout_v<IntegSiteState>,
              "codegen views IntegSiteState as 3 packed doubles");

/// Entry points of one loaded shared object. Valid for the process lifetime
/// (objects are never unloaded; the registry owns the dlopen handles).
struct CompiledModel {
  using Fn = void (*)(CgIo*);
  Fn dc = nullptr;      ///< dc pass over dc_code
  Fn dc_ddt = nullptr;  ///< jq-extraction pass over dc_code
  Fn tran = nullptr;    ///< transient pass over tran_code
  Fn commit = nullptr;  ///< commit pass over commit_code (states + ASSERTs)
  std::uint64_t hash = 0;
};

/// Emits the full C++ translation unit for `p`. Deterministic: the text
/// depends only on the program's structure, the codegen version tag, and the
/// entity name — not on instance bindings or generic values.
std::string generate_source(const BytecodeProgram& p);

/// Structural hash of a program: covers exactly the inputs generate_source
/// reads (version tag, entity name, layout scalars, constants, instruction
/// streams), so equal hashes imply byte-identical emitted sources *without*
/// generating them. This is the registry and disk-cache key — acquire()'s
/// per-instance fast path hashes the program directly instead of emitting
/// kilobytes of source per bind.
std::uint64_t shape_hash(const BytecodeProgram& p);

/// FNV-1a hash of arbitrary text (exposed for tests).
std::uint64_t source_hash(const std::string& source);

/// Returns the compiled entry points for `p`, building or loading them as
/// needed, or null when native compilation is unavailable/failed (one warning
/// per shape; callers fall back to the bytecode VM). Thread-safe; the first
/// caller for a shape compiles, everyone else reuses.
const CompiledModel* acquire(const BytecodeProgram& p);

/// Probes the configured host compiler with a trivial translation unit
/// (result cached until set_compiler / reset_for_test). acquire() never
/// probes: a cached object loads without a compiler, and a missing compiler
/// fails the shape's compile. Tests use this to skip.
bool compiler_available();

/// Overrides the host compiler command ("" restores the default: the
/// USYS_CODEGEN_CXX environment variable, else "c++"). Clears the probe
/// cache and the per-shape failure memo (a fixed toolchain deserves a fresh
/// attempt); intended for tests and embedders. The command and the cache
/// paths are run through the shell, so they must be free of shell
/// metacharacters — anything else fails the compile with a diagnostic.
void set_compiler(std::string cmd);
std::string compiler();

/// Overrides the cache directory ("" restores the default: USYS_CODEGEN_CACHE,
/// else "usys-codegen-cache" under the current working directory — the build
/// tree, for the in-repo test/bench binaries).
void set_cache_dir(std::string dir);
std::string cache_dir();

/// Counters for tests and diagnostics (process-wide, monotonic apart from
/// reset_for_test).
struct Stats {
  long compiles = 0;      ///< source actually handed to the host compiler
  long disk_hits = 0;     ///< loaded an existing cached object
  long memory_hits = 0;   ///< served from the in-process registry
  long failures = 0;      ///< acquire() returned null
};
Stats stats();

/// Clears the in-process registry, the stats, and the compiler probe cache.
/// The on-disk cache is left alone (delete files to test invalidation).
void reset_for_test();

}  // namespace usys::hdl::codegen
