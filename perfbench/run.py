#!/usr/bin/env python3
"""The usys end-to-end benchmark (perfbench/README.md).

Builds the workload program, perfbench_e2e, from the checkout's sources (an optimized
build; any other build type is refused), runs one workload, checks its
outputs, and prints every metric by name, unit and sample count. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with --trace 1 the per-layer metrics of
a traced run. Run from the root of a checkout:

    python3 perfbench/run.py --workload fig3_tran --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, untraced

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the build failed, 3 for a non-Release build, 4 when perfbench_e2e crashed or
overran its time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import benchstats
from benchstats import Metric

WORKLOADS = ("fig3_tran", "array_1k", "mc_sweep", "server_mix")
BENCH_DIR = Path(__file__).resolve().parent
RUN_BUDGET_S = 160.0  # one invocation must end within 180 s of a finished build

# The metrics of the JSON result line (BENCHMARK.json end_to_end): the ones
# that spread least from run to run on a shared machine. There the host
# takes the virtual CPUs away for other guests for much of a run, and for
# more or less of it from run to run, so every wall-time statistic of a job
# also measures the neighbours (README.md has the spreads). CPU time per
# job leaves that time out. The wall-time metrics are printed and recorded.
# failed_frac is 0 on every correct run; the line carries it as
# failed / attempted.
END_TO_END = ("setup_s", "job_cpu_ms", "peak_rss_mb")

# The layer metrics every workload's traced run has (BENCHMARK.json
# per_layer). The layer metrics of one workload only are printed and
# written to the run's record file.
PER_LAYER = ("netlist.parse_ms", "circuit.bind_ms", "lint.preflight_ms", "engine.newton_iters",
             "engine.symbolic_factorizations", "engine.kernel_share")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --- build -------------------------------------------------------------------

def build(build_dir: Path) -> Path:
    cmake_dir = build_dir / "cmake"
    cmake_dir.mkdir(parents=True, exist_ok=True)
    build_log = build_dir / "build.log"
    with open(build_log, "w", encoding="utf-8") as out:
        steps = []
        if not (cmake_dir / "CMakeCache.txt").exists():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(cmake_dir),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(cmake_dir), "-j", "4", "--target", "perfbench_e2e"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                log(build_log.read_text(encoding="utf-8", errors="replace")[-4000:])
                log("perfbench: build failed")
                sys.exit(2)
    cache = (cmake_dir / "CMakeCache.txt").read_text(encoding="utf-8", errors="replace")
    if "CMAKE_BUILD_TYPE:STRING=Release\n" not in cache:
        log("perfbench: refusing to record from a non-Release build")
        sys.exit(3)
    return cmake_dir / "perfbench_e2e"


def source_id() -> str:
    """The git commit when the checkout is a git work tree. A checkout
    exported without git metadata (how benchmark runs usually receive the
    code) is identified by a hash of the library sources instead."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted(Path("src").rglob("*")):
        if path.is_file():
            digest.update(str(path).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


# --- metrics -----------------------------------------------------------------

def end_to_end(raw: dict) -> list[Metric]:
    jobs = raw["job_ms"]
    tail_value, tail_pct, blocks = benchstats.blocked_tail(jobs)
    tail_note = f"p{tail_pct:.1f}" + (f", median of {blocks} blocks" if blocks > 1 else "")
    return [
        Metric("setup_s", benchstats.median(raw["setup_s"]), "s", len(raw["setup_s"])),
        Metric("job_cpu_ms", benchstats.floor(raw["job_cpu_ms"]), "ms", len(raw["job_cpu_ms"])),
        Metric("job_p50_ms", benchstats.median(jobs), "ms", len(jobs)),
        Metric("job_tail_ms", tail_value, "ms", len(jobs), tail_note),
        Metric("jobs_per_s", len(jobs) / raw["wall_s"], "1/s", len(jobs)),
        Metric("peak_rss_mb", raw["peak_rss_mb"], "MiB", 1),
        Metric("failed_frac", raw["failed"] / max(1, raw["attempted"]), "ratio",
               raw["attempted"]),
    ]


def counter_metrics(raw: dict) -> list[Metric]:
    """The workload's own counters over the whole run (server cache tiers)."""
    out = []
    for name, value in raw["values"].items():
        unit = "ms" if name.endswith("_ms") else "count" if name in (
            "server.evictions", "server.busy_rejected") else "ratio"
        out.append(Metric(name, value, unit, 1))
    return out


def per_job_medians(rows: list[dict], key: str) -> float:
    return benchstats.median(r[key] for r in rows)


def job_rows(spans: list) -> list[dict]:
    """One row per api.session_job span: its children's time by layer, the
    engine counts its analyses carried, and the share of it they cover."""
    kids = benchstats.children_of(spans)
    jobs = []
    for s in (s for s in spans if s.name == "api.session_job"):
        row = {"id": s.id, "dur": s.dur, "parse": 0.0, "bind": 0.0, "preflight": 0.0,
               "analysis": 0.0, "iters": 0.0, "tran_points": 0.0, "rejected_steps": 0.0,
               "symbolic": 0.0}
        for k in kids.get(s.id, []):
            if k.name == "netlist.parse":
                row["parse"] += k.dur
            elif k.name == "circuit.bind":
                row["bind"] += k.dur
            elif k.name == "lint.preflight":
                row["preflight"] += k.dur
            elif k.name.startswith("engine."):
                row["analysis"] += k.dur
                row["iters"] += k.args.get("newton_iters", 0)
                row["tran_points"] += k.args.get("tran_points", 0)
                row["rejected_steps"] += k.args.get("rejected_steps", 0)
                row["symbolic"] += k.args.get("symbolic_factorizations", 0)
        clipped = [(max(k.start, s.start), min(k.end, s.end)) for k in kids.get(s.id, [])]
        row["coverage"] = benchstats.union_length(clipped) / s.dur if s.dur > 0 else 1.0
        row["setup_share"] = (row["parse"] + row["bind"] + row["preflight"]) / s.dur
        jobs.append(row)
    if not jobs:
        raise ValueError("the traced run recorded no api.session_job spans")
    return jobs


def layer_metrics(spans: list, raw: dict) -> tuple[list[Metric], dict]:
    """Per-layer metrics of a traced run, the PER_LAYER set first, and the
    trace's own figures (tracing overhead, child-span coverage)."""
    jobs = job_rows(spans)
    by_id = {r["id"]: r for r in jobs}

    # Kernel probes, grouped by the job whose final state they timed.
    probes: dict[int, dict[str, float]] = {}
    per_probe: dict[str, list[float]] = {}
    nnz = {}
    for s in spans:
        if "reps" not in s.args:
            continue
        us = s.dur / s.args["reps"]
        probes.setdefault(int(s.args["job"]), {})[s.name] = us
        per_probe.setdefault(s.name, []).append(us)
        if s.name == "sparse_lu.factor":
            nnz = {"sparse_lu.nnz": s.args["nnz"], "sparse_lu.factor_nnz": s.args["factor_nnz"]}
    shares = []
    for job_id, p in probes.items():
        if "solver.stamp" in p:
            per_iter = p["solver.stamp"] + p["matrix.lu_solve"]
        else:
            per_iter = p["mna.assemble"] + p["sparse_lu.refactor"] + p["sparse_lu.solve"]
        job = by_id[job_id]
        shares.append(job["iters"] * per_iter / job["analysis"])
    if not shares:
        raise ValueError("the traced run recorded no kernel probes")

    n = len(jobs)
    ms = 1e-3
    out = [
        Metric("netlist.parse_ms", per_job_medians(jobs, "parse") * ms, "ms", n),
        Metric("circuit.bind_ms", per_job_medians(jobs, "bind") * ms, "ms", n),
        Metric("lint.preflight_ms", per_job_medians(jobs, "preflight") * ms, "ms", n),
        Metric("engine.newton_iters", per_job_medians(jobs, "iters"), "count", n),
        Metric("engine.symbolic_factorizations", per_job_medians(jobs, "symbolic"), "count", n),
        Metric("engine.kernel_share", benchstats.median(shares), "ratio", len(shares)),
    ]

    def span_durs(name: str) -> list[float]:
        return [s.dur for s in spans if s.name == name]

    for name in ("engine.run_op", "engine.run_tran", "engine.run_ac"):
        durs = span_durs(name)
        if durs:
            out.append(Metric(name.replace("run_", "") + "_ms", benchstats.median(durs) * ms,
                              "ms", len(durs)))
    if span_durs("engine.run_tran"):
        out.append(Metric("engine.tran_points", per_job_medians(jobs, "tran_points"), "count", n))
        out.append(Metric("engine.rejected_steps", per_job_medians(jobs, "rejected_steps"),
                          "count", n))
    for name, values in sorted(per_probe.items()):
        if name == "hdl.evaluate":
            out.append(Metric("hdl.evaluate_ns", benchstats.median(values) * 1000.0, "ns",
                              len(values)))
        else:
            out.append(Metric(name + "_us", benchstats.median(values), "us", len(values)))
    for name, value in nnz.items():
        out.append(Metric(name, value, "count", 1))

    runs = span_durs("sweep.run")
    if runs:
        point_us = per_job_medians(jobs, "dur")
        points = len(span_durs("api.run_sweep_point")) / len(runs)
        threads = raw["provenance"]["threads"]
        out.append(Metric("sweep.point_serial_us", point_us, "us", n))
        out.append(Metric("sweep.setup_share", per_job_medians(jobs, "setup_share"), "ratio", n))
        out.append(Metric("sweep.parallel_efficiency",
                          point_us * points / (benchstats.median(runs) * threads), "ratio",
                          len(runs)))
        for name in ("stats.grid", "stats.distill"):
            durs = span_durs(name)
            out.append(Metric(name + "_ms", benchstats.median(durs) * ms, "ms", len(durs)))
        durs = span_durs("api.substitute")
        out.append(Metric("api.substitute_us", benchstats.median(durs), "us", len(durs)))

    for tier, label in ((0, "server.cold_ms"), (2, "server.delta_ms"), (3, "server.replay_ms")):
        durs = [s.dur for s in spans if s.name == "client.request" and s.args.get("tier") == tier]
        if durs:
            out.append(Metric(label, benchstats.median(durs) * ms, "ms", len(durs)))
    out.extend(m for m in counter_metrics(raw) if not m.name.startswith("server.share_"))

    checks = {
        "overhead_ms": benchstats.median(raw["traced_job_ms"]) - benchstats.median(raw["job_ms"]),
        "child_coverage": min(r["coverage"] for r in jobs),
    }
    return out, checks


# --- one workload ------------------------------------------------------------

def print_table(title: str, metrics: list[Metric]) -> None:
    print(title)
    print(f"  {'metric':32} {'value':>14} {'unit':8} {'n':>8}")
    for m in metrics:
        note = f"  ({m.note})" if m.note else ""
        print(f"  {m.name:32} {m.value:14.6g} {m.unit:8} {m.n:8d}{note}")


def run_workload(exe: Path, out_dir: Path, workload: str, seed: int, seconds: float,
                 trace: bool, source: str, deadline: float) -> tuple[dict, list[Metric]]:
    cmd = [str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out", str(out_dir), "--source", source]
    try:
        proc = subprocess.run(cmd, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {workload} overran its time budget")
        sys.exit(4)
    if proc.returncode != 0:
        log(f"perfbench: {workload}: perfbench_e2e exited with status {proc.returncode}")
        sys.exit(4)
    stem = f"{workload}-s{seed}"
    raw = json.loads((out_dir / f"raw-{stem}-t{int(trace)}.json").read_text(encoding="utf-8"))
    prov = raw["provenance"]
    print(f"perfbench {workload}  seed={seed}  seconds={seconds:g}  trace={int(trace)}")
    print(f"  provenance: source={prov['source']} compiler={prov['compiler']} "
          f"build={prov['build_type']} nproc={prov['nproc']} threads={prov['threads']} "
          f"clients={prov['clients']} seed={prov['seed']}")
    for note in raw["failure_notes"]:
        print(f"  FAILED: {note}")
    if not raw["job_ms"]:
        return raw, []
    e2e = end_to_end(raw)
    counters = counter_metrics(raw)
    print_table("  end to end (tracing off):", e2e)
    if counters:
        print_table("  workload counters (whole run):", counters)
    record = {"provenance": prov, "attempted": raw["attempted"], "failed": raw["failed"],
              "metrics": [m.record() for m in e2e + counters]}
    reported = e2e
    if trace:
        trace_path = out_dir / f"trace-{stem}.json"
        spans, _ = benchstats.load_chrome_trace(str(trace_path))
        layers, checks = layer_metrics(spans, raw)
        print_table("  per layer (traced run):", layers)
        print(f"  tracing overhead: traced job p50 - untraced job p50 = "
              f"{checks['overhead_ms']:.4f} ms")
        print(f"  child spans cover at least {100.0 * checks['child_coverage']:.2f}% "
              f"of every job span")
        print("  self time by span (traced run):")
        for row in benchstats.layer_table(spans)[:16]:
            print(f"    {row['name']:28} calls {row['calls']:8d}  self {row['self_ms']:10.3f} ms"
                  f"  ({100.0 * row['share']:5.1f}%)")
        print(f"  trace: {trace_path}")
        record["metrics"] = [m.record() for m in e2e + layers]
        record["trace"] = checks
        reported = layers
    (out_dir / f"record-{stem}-t{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return raw, reported


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build_dir = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    exe = build(build_dir)
    out_dir = build_dir / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    if out_dir.resolve().is_relative_to(Path.cwd()):
        out_dir = Path(os.path.relpath(out_dir.resolve()))  # short Unix socket paths
    source = source_id()

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = time.monotonic() + RUN_BUDGET_S * len(workloads)
    wanted = PER_LAYER if args.trace else END_TO_END
    correct = True
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for w in workloads:
        raw, reported = run_workload(exe, out_dir, w, args.seed, args.seconds, bool(args.trace),
                                     source, deadline)
        attempted += raw["attempted"]
        failed += raw["failed"]
        correct = correct and raw["failed"] == 0 and raw["attempted"] > 0 and bool(reported)
        by_name = {m.name: m for m in reported}
        prefix = f"{w}." if args.workload == "all" else ""
        for name in wanted:
            if name in by_name:
                metrics[prefix + name] = by_name[name].as_json()
    print(json.dumps({"correct": correct, "attempted": max(1, attempted), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
