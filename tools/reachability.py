#!/usr/bin/env python3
"""Reachability report: which libusys functions does no program keep?

Configures a Debug tree at -O0 with -ffunction-sections -fdata-sections,
links every program (usim, the examples, the benches) with --gc-sections
and the tests off, then lists the `usys::` functions that libusys.a defines
(nm types T, t and W) and that no program's binary still contains.
Destructors, `[clone ...]` copies and `operator=` are dropped: the compiler
emits those whether or not a program names them. -O0 keeps every callee out
of line; at -O2 a function inlined into all its callers leaves an unused
out-of-line copy and shows up here as a false positive.

What is left is either in KEPT below, with the one-word reason it stays
although no program calls it, or is printed as unexplained. An unexplained
entry is code that only tests reach: delete it, or add it to KEPT with its
reason.

  oracle         a reference formula the tests check the simulator against
  seam           a hook a test drives to reach a state no program does
  vocabulary     public API a library user writes models in
  instantiation  emitted by an explicit template instantiation

Report only: the exit status is 0 whatever the report says, and 2 when the
tree cannot be configured or built.

Usage:  tools/reachability.py [--build build-reach] [--root .] [-j N]
                              [--cmake-arg=-DCMAKE_CXX_COMPILER_LAUNCHER=ccache]
"""

import argparse
import fnmatch
import pathlib
import subprocess
import sys

# Qualified names (fnmatch patterns, parameter lists stripped) of the
# functions that stay although no program keeps them.
KEPT = {
    # The paper's closed-form pull-in voltage and displacement and its
    # Table 3 force formulas.
    "usys::core::pull_in_*": "oracle",
    "usys::core::force_*": "oracle",
    # Deterministic fault injection (common/fault_inject.hpp): armed by the
    # tests and by USYS_FAULT, which no program run sets.
    "usys::fault::*": "seam",
    # The codegen registry's hooks and probes (hdl/codegen.hpp): the
    # fallback and cache tests point it at a missing compiler or a scratch
    # cache and read its counters.
    "usys::hdl::codegen::set_*": "seam",
    "usys::hdl::codegen::reset_for_test": "seam",
    "usys::hdl::codegen::cache_dir": "seam",
    "usys::hdl::codegen::compiler": "seam",
    "usys::hdl::codegen::compiler_available": "seam",
    "usys::hdl::codegen::source_hash": "seam",
    "usys::hdl::codegen::stats": "seam",
    # Probes of state the programs do not print: a thread's warm sweep
    # template, a deadline's budget left, an HDL integ() site, the FE
    # mesh's tagged nodes, a session over a built circuit and its key.
    "usys::api::sweep_template_warm": "seam",
    "usys::Deadline::remaining_ms": "seam",
    "usys::hdl::HdlDevice::integ_state": "seam",
    "usys::fem::Mesh::nodes_with_tag": "seam",
    "usys::api::Session::Session": "seam",
    "usys::api::Session::hash": "seam",
    # What an EnergyModel user writes W(q, x) in and inspects it with.
    "usys::sym::abs": "vocabulary",
    "usys::sym::exp": "vocabulary",
    "usys::sym::sqrt": "vocabulary",
    "usys::sym::tan": "vocabulary",
    "usys::sym::Expr::constant": "vocabulary",
    "usys::sym::Expr::variables": "vocabulary",
    "usys::sym::(anonymous namespace)::collect_vars": "vocabulary",
    "usys::sym::node_count": "vocabulary",
    # Streams a Nature by name; gtest prints Nature values through it.
    "usys::operator<<": "vocabulary",
    # Accessors that `template class SparseLu<double>` and
    # `SparseLu<std::complex<double>>` (common/sparse_lu.cpp) emit for both
    # scalar types, although each program reads them for one.
    "usys::SparseLu<*>::size": "instantiation",
    "usys::SparseLu<*>::nonzeros": "instantiation",
    "usys::SparseLu<*>::factor_nonzeros": "instantiation",
    "usys::SparseLu<*>::ordering": "instantiation",
    "usys::SparseLu<*>::factored": "instantiation",
    "usys::SparseLu<*>::invalidate_pivot_order": "instantiation",
}

KEEP_TYPES = {"T", "t", "W"}


def run(cmd, **kw):
    print("+ " + " ".join(str(c) for c in cmd), file=sys.stderr, flush=True)
    return subprocess.run(cmd, check=True, **kw)


def programs(root: pathlib.Path):
    """The executables CMakeLists.txt builds besides usys_tests."""
    names = ["usim"]
    names += sorted("example_" + p.stem for p in (root / "examples").glob("*.cpp"))
    names += sorted(p.stem for p in (root / "bench").glob("*.cpp"))
    return names


def defined_functions(path: pathlib.Path):
    """Demangled names of the code symbols `path` defines."""
    out = subprocess.run(["nm", "-C", "--defined-only", str(path)], check=True,
                         capture_output=True, text=True).stdout
    names = set()
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in KEEP_TYPES:
            names.add(parts[2])
    return names


ANON = "(anonymous namespace)"
OPERATOR_CHARS = set("<>=!+-*/%^&|~[],()")


def qualified_name(signature: str) -> str:
    """The function's qualified name without parameters, return type or ABI
    tags: `usys::a::f[abi:cxx11](int) const` -> `usys::a::f`, and
    `usys::X& std::f<usys::X>(usys::X&)` -> `std::f<usys::X>`."""
    s = signature.replace("[abi:cxx11]", "").replace(ANON, "@")
    depth, start, i = 0, 0, 0
    while i < len(s):
        if s.startswith("operator", i) and (i == 0 or not (s[i - 1].isalnum() or s[i - 1] == "_")):
            i += len("operator")
            if s.startswith("()", i):
                i += 2
            while i < len(s) and s[i] in OPERATOR_CHARS and s[i] != "(":
                i += 1
            continue
        c = s[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif c == " " and depth == 0:
            start = i + 1  # what came before was the return type
        elif c == "(" and depth == 0:
            break
        i += 1
    return s[start:i].replace("@", ANON)


def compiler_made(signature: str) -> bool:
    name = qualified_name(signature)
    return "::~" in name or "[clone" in signature or name.endswith("operator=")


def kept_reason(signature: str):
    name = qualified_name(signature)
    for pattern, reason in KEPT.items():
        if fnmatch.fnmatchcase(name, pattern):
            return pattern, reason
    return None, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build", default="build-reach", help="build directory")
    ap.add_argument("--root", default=".", help="repository root")
    ap.add_argument("-j", "--jobs", type=int, default=2, help="parallel build jobs")
    ap.add_argument("--cmake-arg", action="append", default=[],
                    help="extra configure argument (repeatable)")
    args = ap.parse_args()
    root = pathlib.Path(args.root).resolve()
    build = pathlib.Path(args.build).resolve()

    try:
        run(["cmake", "-S", root, "-B", build, "-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_CXX_FLAGS=-O0 -ffunction-sections -fdata-sections",
             "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
             "-DUSYS_BUILD_TESTS=OFF", "-DUSYS_BUILD_BENCHES=ON",
             "-DUSYS_BUILD_EXAMPLES=ON", *args.cmake_arg], stdout=sys.stderr)
        run(["cmake", "--build", build, "-j", str(args.jobs)], stdout=sys.stderr)
    except subprocess.CalledProcessError as e:
        print(f"reachability: configure/build failed ({e})", file=sys.stderr)
        return 2

    progs = programs(root)
    missing = [p for p in progs if not (build / p).is_file()]
    if missing:
        # A missing bench (no libbenchmark) would turn its callees into
        # false entries, so no report at all beats a wrong one.
        print("reachability: not built: " + ", ".join(missing), file=sys.stderr)
        return 2

    library = {s for s in defined_functions(build / "libusys.a")
               if qualified_name(s).startswith("usys::")}
    reached = set()
    for p in progs:
        reached |= defined_functions(build / p)
    unreached = sorted(s for s in library - reached if not compiler_made(s))

    kept, unexplained = [], []
    used_patterns = set()
    for s in unreached:
        pattern, reason = kept_reason(s)
        if reason is None:
            unexplained.append(s)
        else:
            kept.append((reason, s))
            used_patterns.add(pattern)

    print("### libusys reachability (-O0, --gc-sections)")
    print(f"- programs linked: {len(progs)}")
    print(f"- `usys::` functions in libusys.a: {len(library)}")
    print(f"- kept by no program: {len(unreached)}, of which {len(kept)} in the kept table")
    print(f"- unexplained: {len(unexplained)}")
    for s in unexplained:
        print(f"  - `{s}`")
    stale = sorted(set(KEPT) - used_patterns)
    if stale:
        print(f"- kept-table patterns that matched nothing: {len(stale)}")
        for p in stale:
            print(f"  - `{p}`")
    print()
    print("<details><summary>kept table matches</summary>\n")
    for reason, s in sorted(kept):
        print(f"- {reason}: `{s}`")
    print("\n</details>")
    return 0


if __name__ == "__main__":
    sys.exit(main())
