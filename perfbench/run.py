"""Benchmark of the graphonlab CLI: closed-loop `experiment` and `mixing` runs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload experiment_identity --seed 1 \\
        --seconds 15 --trace 0

One client in a fresh interpreter (``worker.py``) issues the workload's
command again and again through ``graphonlab.cli.main``. With ``--trace 0``
the last stdout line reports the end-to-end metrics; with ``--trace 1`` it
reports the per-layer metrics of a traced run. Earlier lines print the
machine and thread environment, the CSV digests, per-call timings and, on
traced runs, a cross-check against the baseline layer timings in ROADMAP.md.
The inherited BLAS thread variables are cleared and GRAPHONLAB_WORKERS is set
per workload. Scratch outputs go to ``perfbench/_work`` and are deleted;
traced runs keep their spans in ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEADLINE_S = 170  # a run must end within 180 s
SETUP_SAMPLES = 5  # fresh interpreters timed to ready, the measuring one included
CLEARED_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Layer timings measured once by hand at the ROADMAP re-anchor, n = 1000 (ms).
ROADMAP_MS = {
    "sampling.sample_coupled.shared": (16, 16),
    "spectral.rw_transition_matrix": (4.8, 4.8),
    "gcn.fast_linear_embedding": (13, 13),
    "spectral.spectral_gap": (107, 130),
    "spectral.mixing_time": (736, 736),
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def worker_env(root: Path, w: workloads.Workload) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_VARS}
    env["GRAPHONLAB_WORKERS"] = str(len(os.sched_getaffinity(0)) if w.pool else 1)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def start_worker(cmd, env, cwd):
    """Start a worker and time it from launch to its ``ready`` line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, cwd=cwd, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, 10)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, timeout):
    """Wait for a worker; kill its whole session if it overruns."""
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("worker overran the run deadline and was killed")
    return out


def run(args, w: workloads.Workload, root: Path) -> dict:
    start = time.perf_counter()
    env = worker_env(root, w)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = HERE / "_work" / f"{tag}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", w.name,
           "--seed", str(args.seed), "--work-dir", str(work)]
    if args.tiny:
        cmd.append("--tiny")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                proc, s = start_worker(cmd + ["--setup-only"], env, root)
                finish(proc, 30)
                setups.append(s)
        run_cmd = cmd + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            results = HERE / "results"
            results.mkdir(exist_ok=True)
            run_cmd += ["--spans-file", str(results / f"spans-{tag}.json")]
        proc, s = start_worker(run_cmd, env, root)
        setups.append(s)
        out = finish(proc, DEADLINE_S - (time.perf_counter() - start))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"worker exited with {proc.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    record["setup_s"] = setups
    src = (root / "src").resolve()
    if not Path(record["graphonlab_file"]).resolve().is_relative_to(src):
        raise BenchError(f"graphonlab was imported from {record['graphonlab_file']}")
    return record


def report(w, record, trace: bool) -> dict:
    """Print the human-readable lines and return the metrics."""
    cmds = record["commands"]
    timed = [c for c in cmds if not c["warmup"]]
    print(f"workload {w.name}: {w.why}")
    print("environment " + json.dumps(record["env"], sort_keys=True))
    print("csv sha256 " + json.dumps(record["digests"], sort_keys=True))
    for kind in ("untraced", "traced"):
        walls = [c["wall_s"] for c in timed if c["traced"] == (kind == "traced")]
        if walls:
            print(f"{len(walls)} {kind} commands after one warm-up, wall s: min "
                  f"{min(walls):.4f} median {statistics.median(walls):.4f} max {max(walls):.4f}")
    for c in cmds:
        if c["problems"]:
            print(f"command {c['index']} failed {c['failed_ops']} of {c['ops']} ops: "
                  + "; ".join(map(str, c["problems"])))
    if not trace:
        untraced = [c for c in timed if not c["traced"]]
        workers = int(record["env"]["vars"]["GRAPHONLAB_WORKERS"])
        rss = record["maxrss_kb"]
        pool_kb = rss["children"] * workers if w.pool else 0
        metrics = {
            "ops_per_ref": (statistics.median(workloads.ref_rate(c) for c in untraced), "1/ref"),
            "setup_s": (statistics.median(record["setup_s"]), "s"),
            "peak_rss_mb": ((rss["self"] + pool_kb) / 1024, "MB"),
        }
        print(f"ops per command {w.ops} ({'trials' if w.command == 'experiment' else 'chains'});"
              f" set-up samples {[round(s, 4) for s in record['setup_s']]} s")
        print(f"wall ops per s median {statistics.median(map(workloads.ops_rate, untraced)):.4f};"
              f" reference block ms {[round(c['ref_s'] * 1e3, 2) for c in untraced]}")
        return metrics
    calls = record["calls"]
    print("per-call timings (ms): name n calls p50 [pNN]")
    for r in calls:
        hi = f" p{r['hi_pct']} {r['hi_ms']:.4f}" if r["hi_pct"] else ""
        print(f"  {r['name']:40s} {r['n'] or '-':>5} {r['calls']:5d} {r['p50_ms']:10.4f}{hi}")
    for r in calls:
        if r["n"] == 1000 and r["name"] in ROADMAP_MS:
            lo, hi = ROADMAP_MS[r["name"]]
            ratio = r["p50_ms"] / min(max(r["p50_ms"], lo), hi)
            flag = "  GAP ABOVE 2x" if not 0.5 <= ratio <= 2 else ""
            print(f"baseline {r['name']} n=1000: traced p50 {r['p50_ms']:.2f} ms, "
                  f"ROADMAP {lo}-{hi} ms, ratio {ratio:.2f}{flag}")
    layers = record["layers"]
    print("layer shares of command wall time: " + ", ".join(
        f"{k.split('.')[0]} {v:.3f}" for k, v in layers.items()
        if k.count(".") == 1 and k.endswith(".share")
    ) + f", cli (not covered by a span) {1 - layers['trace.coverage']:.3f}")
    metrics = {k: (v, unit_of(k)) for k, v in layers.items()}
    print("computed counts, exact from run to run: " + ", ".join(
        f"{k} {v}" for k, (v, u) in metrics.items()
        if u in ("count", "GFLOP") and k != "testing.workers"))
    return metrics


UNITS = (("gflop_per_s", "GFLOP/s"), ("gflop", "GFLOP"), ("ops_per_s", "1/s"),
         ("_ms", "ms"), ("_s", "s"),
         ("share", "frac"), ("coverage", "frac"), ("overhead_frac", "frac"),
         ("cpu_per_wall", "ratio"))


def unit_of(name: str) -> str:
    return next((u for suffix, u in UNITS if name.endswith(suffix)), "count")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="toy sizes, for the benchmark's own tests")
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "graphonlab" / "cli.py").is_file():
        print("perfbench: run from the root of a graphonlab checkout "
              "(src/graphonlab/cli.py not found)", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    if args.tiny:
        w = w.tiny()
    try:
        record = run(args, w, root)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = report(w, record, bool(args.trace))
    cmds = record["commands"]
    attempted = sum(c["ops"] for c in cmds)
    failed = sum(c["failed_ops"] for c in cmds)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
