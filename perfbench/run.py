"""qflab benchmark: real CLI invocations, one fresh process per operation.

    python3 perfbench/run.py --workload exact-counts --seed 1 --seconds 30 --trace 0

A closed loop with one caller: the next operation starts only after the
previous one returned, and at most one operation process is alive.  The
workload's operation list (see workloads.py) is repeated until --seconds
have passed, and always run at least once in full.  Every output is
checked outside the timed region.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics (end-to-end with
--trace 0, per-layer with --trace 1); the lines before it are a readable
report, also written to perfbench/out/<workload>-s<seed>-t<trace>/result.json.

--trace 1 alternates an untraced and a traced run of every operation;
the traced run wraps qflab's public functions (tracer.py) and gives the
per-layer metrics, and the difference of the two runs' wall_s is the
tracing overhead.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer
from workloads import DEFAULT_SEED, SEED_IGNORED, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # a run, set-up and checks included, ends before this
# Pinned so that one operation uses one core: qflab's sweep workers and
# any BLAS threads numpy might start.
CHILD_ENV = {"QFLAB_THREADS": "1", "OMP_NUM_THREADS": "1",
             "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("wall_s", "s"),        # one pass over the operation list, set-up excluded
    ("setup_s", "s"),       # child start until qflab.cli is imported
    ("peak_rss_mb", "MB"),  # highest child peak RSS
)

PER_LAYER = (
    ("fourier.h_l1_norm.calls", "count"),
    ("fourier.h_l1_norm.distinct", "count"),
    ("fourier.h_l1_norm.useful_ratio", "ratio"),
    ("fourier.h_l1_norm.self_s", "s"),
    ("fourier.h_l1_norm.p50_ms", "ms"),
    ("fourier.h_l1_norm.p99_ms", "ms"),
    ("fourier.eval_h.calls", "count"),
    ("fourier.eval_h.points", "count"),
    ("fourier.eval_h.self_s", "s"),
    ("fourier.greedy_search.evaluations", "count"),
    ("quadrature.quad_segments.calls", "count"),
    ("quadrature.quad_segments.self_s", "s"),
    ("quadrature.quad_segments.integrand_calls", "count"),
    ("quadrature.quad_segments.integrand_points", "count"),
    ("latticesums.congruence_sum_exact.calls", "count"),
    ("latticesums.congruence_sum_exact.rows", "count"),
    ("latticesums.congruence_sum_exact.self_s", "s"),
    ("latticesums.congruence_sum_exact.rows_per_s", "1/s"),
    ("latticesums.poisson_identity_check.calls", "count"),
    ("latticesums.poisson_identity_check.self_s", "s"),
    ("sieve.sieve_upper_bound.moduli", "count"),
    ("sieve.sieve_upper_bound.self_s", "s"),
    ("sieve.represented_mask.rows", "count"),
    ("sieve.represented_mask.self_s", "s"),
    ("sieve.sieved_sum_exact.self_s", "s"),
    ("sieve.prime_gap_scan.records", "count"),
    ("arith.prime_mask.numbers", "count"),
    ("arith.prime_mask.self_s", "s"),
    ("arith.residue_density.calls", "count"),
    ("arith.residue_density.self_s", "s"),
    ("arith.dirichlet_l1.self_s", "s"),
    ("forms.enumerate_reduced_forms.calls", "count"),
    ("forms.enumerate_reduced_forms.self_s", "s"),
    ("cli.parse_invocation.self_s", "s"),
    ("cli.execute_plan.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "B"),
    *((f"verify.{name}.s", "s") for name in tracer.VERIFY_CHECKS),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"),
)
# Per-layer metrics computed from other metrics, not summed per operation.
DERIVED = {"fourier.h_l1_norm.useful_ratio", "fourier.h_l1_norm.p50_ms",
           "fourier.h_l1_norm.p99_ms", "latticesums.congruence_sum_exact.rows_per_s",
           "trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}


@dataclass
class Sample:
    key: str
    traced: bool
    setup_s: float = 0.0
    op_s: float = 0.0
    maxrss_kb: int = 0
    error: str | None = None
    counts: dict = field(default_factory=dict)
    times: dict = field(default_factory=dict)
    durations: list = field(default_factory=list)


def quartiles(values) -> dict:
    vals = sorted(values)
    if not vals:
        return {"median": 0.0, "q1": 0.0, "q3": 0.0, "n": 0}
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
    return {"median": med, "q1": q1, "q3": q3, "n": len(vals)}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def spawn(outdir: Path, argv, traced: bool, stdout_path: Path, deadline: float) -> Sample:
    """Run child.py once, killing it at the deadline (CLOCK_MONOTONIC)."""
    meta_path = outdir / "meta.json"
    spans_path = outdir / "spans.json"
    for p in (meta_path, spans_path):
        p.unlink(missing_ok=True)
    env = dict(os.environ, **CHILD_ENV)
    cmd = [sys.executable, str(CHILD), str(meta_path),
           str(spans_path) if traced else "", "--", *argv]
    sample = Sample(key="", traced=traced)
    with open(stdout_path, "wb") as out, open(outdir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            rc = proc.wait(timeout=max(deadline - time.monotonic(), 0.1))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            sample.error = f"killed after {time.monotonic() - t_spawn:.1f} s at the run's time limit"
            return sample
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        tail = (outdir / "stderr.txt").read_text(errors="replace")[-400:]
        sample.error = f"exit {rc}, no timing record: {tail}"
        return sample
    sample.setup_s = meta["ready"] - t_spawn
    sample.op_s = meta["done"] - meta["ready"]
    sample.maxrss_kb = meta["maxrss_kb"]
    if rc != 0:
        sample.error = f"exit {rc}: {meta['error'] or (outdir / 'stderr.txt').read_text()[-400:]}"
    if traced and sample.error is None:
        spans = json.loads(spans_path.read_text())
        counts, times, durations = tracer.summarize(spans)
        sample.counts, sample.times = dict(counts), dict(times)
        sample.durations = durations.get("fourier.h_l1_norm", [])
    return sample


def run_op(outdir: Path, op, traced: bool, default: bool, deadline: float) -> Sample:
    stdout_path = outdir / f"{op.key}.out"
    sample = spawn(outdir, op.argv, traced, stdout_path, deadline)
    sample.key = op.key
    if sample.error is None:
        sample.counts["cli.output_bytes"] = stdout_path.stat().st_size
        try:
            sample.error = op.check(stdout_path.read_text(), default)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            sample.error = f"unreadable output: {type(exc).__name__}: {exc}"
    stdout_path.unlink(missing_ok=True)
    return sample


def calibration_s() -> float:
    """Fixed pure-Python loop; shows host slowdowns, scales no metric."""
    readings = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(1_000_000):
            acc += i * i
        readings.append(time.perf_counter() - t0)
    return statistics.median(readings)


def provenance(args) -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "qflab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (ROOT / ".git").exists():
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        rev = res.stdout.strip() if res.returncode == 0 else None
    return {
        "git_rev": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "QFLAB_THREADS": CHILD_ENV["QFLAB_THREADS"],
        "workload": args.workload,
        "seed": args.seed,
        "seed_ignored": args.workload in SEED_IGNORED,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "calibration_s": calibration_s(),
    }


def per_key(samples, traced: bool) -> dict[str, list[Sample]]:
    out: dict[str, list[Sample]] = defaultdict(list)
    for s in samples:
        if s.traced == traced and s.error is None:
            out[s.key].append(s)
    return out


def pass_wall(by_key) -> float:
    """Time of one pass over the operation list: sum of per-key medians."""
    return sum(median([s.op_s for s in group]) for group in by_key.values())


def end_to_end(samples, setups) -> dict:
    ok = per_key(samples, traced=False)
    return {
        "wall_s": pass_wall(ok),
        "setup_s": median(setups),
        "peak_rss_mb": max((s.maxrss_kb for s in samples if s.error is None),
                           default=0) / 1024.0,
    }


def per_layer(samples) -> tuple[dict, list[str]]:
    """Per-layer metrics for one pass, and any count that did not repeat.

    Counts come from each key's first traced sample and must match every
    other traced sample of that key; times are per-key medians; both are
    summed over keys.
    """
    traced = per_key(samples, traced=True)
    counts, times = defaultdict(int), defaultdict(float)
    durations: list[float] = []
    mismatches = []
    for key, group in traced.items():
        for s in group[1:]:
            if s.counts != group[0].counts:
                diff = sorted(k for k in set(s.counts) | set(group[0].counts)
                              if s.counts.get(k) != group[0].counts.get(k))
                mismatches.append(f"{key}: counts differ between runs: {diff}")
        for name, value in group[0].counts.items():
            counts[name] += value
        for name in {n for s in group for n in s.times}:
            times[name] += median([s.times.get(name, 0.0) for s in group])
        for s in group:
            durations.extend(s.durations)
    metrics = {}
    for name, unit in PER_LAYER:
        if name in DERIVED:
            continue
        metrics[name] = times[name] if unit == "s" else counts[name]
    h_calls = counts["fourier.h_l1_norm.calls"]
    metrics["fourier.h_l1_norm.useful_ratio"] = (
        counts["fourier.h_l1_norm.distinct"] / h_calls if h_calls else 0.0)
    pct = np.percentile(durations, [50, 99]) * 1e3 if durations else (0.0, 0.0)
    metrics["fourier.h_l1_norm.p50_ms"], metrics["fourier.h_l1_norm.p99_ms"] = map(float, pct)
    cs_self = times["latticesums.congruence_sum_exact.self_s"]
    metrics["latticesums.congruence_sum_exact.rows_per_s"] = (
        counts["latticesums.congruence_sum_exact.rows"] / cs_self if cs_self else 0.0)
    metrics["trace.wall_s"] = pass_wall(traced)
    metrics["trace.untraced_wall_s"] = pass_wall(per_key(samples, traced=False))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return metrics, mismatches


def check_repeat(outdir_root: Path, tag: str, metrics: dict) -> list[str]:
    """Compare this run's count metrics with an earlier run of the same
    workload, seed and source; record them if there was none."""
    path = outdir_root / "counts.json"
    try:
        seen = json.loads(path.read_text())
    except (OSError, ValueError):
        seen = {}
    counts = {n: metrics[n] for n, unit in PER_LAYER if unit in ("count", "B")}
    if tag in seen:
        return [f"{n}: {seen[tag].get(n)} in an earlier run, {v} now"
                for n, v in counts.items() if seen[tag].get(n) != v]
    seen[tag] = counts
    path.write_text(json.dumps(seen, indent=1, sort_keys=True))
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every input (smoke test of the benchmark itself)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "qflab" / "cli.py").is_file():
        print(f"benchmark: no qflab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out_root = HERE / "out"
    outdir = out_root / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    prov = provenance(args)
    ops = WORKLOADS[args.workload](random.Random(args.seed), args.tiny)
    default = args.seed == DEFAULT_SEED and not args.tiny

    setups = []
    for _ in range(SETUP_PROBES):
        probe = spawn(outdir, (), False, outdir / "probe.out", deadline)
        if probe.error is None:
            setups.append(probe.setup_s)
    samples: list[Sample] = []
    start = time.monotonic()
    n = 0
    while n == 0 or ((n < len(ops) or time.monotonic() - start < args.seconds)
                     and time.monotonic() < deadline):
        op = ops[n % len(ops)]
        modes = ((False, True) if n % 2 == 0 else (True, False)) if args.trace else (False,)
        for traced in modes:
            samples.append(run_op(outdir, op, traced, default, deadline))
            print(f"# {op.key}{' traced' if traced else ''}: {samples[-1].op_s:.3f} s"
                  + (f"  FAILED: {samples[-1].error}" if samples[-1].error else ""),
                  flush=True)
        n += 1
    setups += [s.setup_s for s in samples if s.error is None and not s.traced]

    failed = sum(1 for s in samples if s.error is not None)
    errors = [f"{s.key}: {s.error}" for s in samples if s.error is not None]
    untraced = per_key(samples, traced=False)
    mismatches = [f"{op.key}: no successful untraced run" for op in ops
                  if op.key not in untraced]
    if args.trace:
        metrics, repeat_errors = per_layer(samples)
        tag = f"{args.workload}:{args.seed}:{int(args.tiny)}:{prov['src_sha256']}"
        mismatches += repeat_errors + check_repeat(out_root, tag, metrics)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(samples, setups)
        units = dict(END_TO_END)
    report = {
        "provenance": prov,
        "ops": {op.key: list(op.argv) for op in ops},
        "attempted": len(samples),
        "failed": failed,
        "error_rate": failed / len(samples),
        "errors": errors + mismatches,
        "setup_s": quartiles(setups),
        "op_s": {k: quartiles([s.op_s for s in g]) for k, g in untraced.items()},
        "peak_rss_mb": {k: max(s.maxrss_kb for s in g) / 1024.0 for k, g in untraced.items()},
        "metrics": metrics,
    }
    (outdir / "result.json").write_text(json.dumps(report, indent=1))
    print("# provenance: " + json.dumps(prov))
    print(f"# error_rate: {report['error_rate']:g} ({failed}/{len(samples)} ops failed)")
    for line in errors + mismatches:
        print(f"# ERROR {line}")
    print(f"# setup_s: {json.dumps(report['setup_s'])}")
    for key, q in report["op_s"].items():
        print(f"# {key}_s: {json.dumps(q)}")
    result = {
        "correct": failed == 0 and not mismatches,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
