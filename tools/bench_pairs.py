"""Alternating parent/change pairs of perfbench, written to one BENCH JSON file.

Run from the root of the change's checkout, with the parent commit exported
to a second directory (``git archive <parent> | tar -x -C DIR``):

    python3 tools/bench_pairs.py --parent DIR --out BENCH.json \\
        --pairs mixing_sweep:1001:10 --pairs experiment_tanh:1001:6 \\
        --claim mixing_sweep --claim experiment_tanh:peak_rss_mb \\
        --traced mixing_sweep:1011

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout with the
same seed, for the run length that BENCHMARK.json sets; even-indexed pairs
run the parent first, odd-indexed the change first. Each seed's command
also runs once outside the benchmark in each checkout, and the sha256 of
every output the workload lists (``Workload.outputs``) are compared, since
perfbench hashes only the CSVs: each pair names the outputs whose hashes
differ (``outputs_changed``), and each workload the outputs identical on
every seed (``unchanged_every_seed``). On experiment workloads each pair also
says whether the science moved: ``decisions_changed`` counts the
``trials.csv`` rows whose ``decision`` differs between parent and change, and
``distance_max_rel_change`` is the largest relative change of a row's
``distance``; each workload sums and maxes them over its pairs. A traced
pair (``--trace 1``) records the per-call p50 of every traced span. The
``machine`` block reads both OpenBLAS libraries that the numpy and scipy
wheels bundle: build string, the core kernel picked at run time and the
default thread count, and a two-process probe records whether the host gave
both cores when the runs began.
Every run gets perfbench's own environment (``run.worker_env``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import run  # noqa: E402  perfbench/run.py
import workloads  # noqa: E402

END_TO_END = ("ops_per_ref", "setup_s", "peak_rss_mb")
TIMING_LINE = re.compile(r"^\s+(\S+)\s+(\S+)\s+(\d+)\s+([0-9.]+)")


def perfbench(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    out = {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
    }
    if trace:
        out["p50_ms"] = {
            f"{m[1]}@{m[2]}": float(m[4])
            for m in map(TIMING_LINE.match, lines) if m
        }
    return out


OUTPUT_DIGESTS = """
import csv, json, os, sys, tempfile
sys.path.insert(0, "perfbench")
import workloads
from graphonlab.cli import main
w = workloads.WORKLOADS[sys.argv[1]]
with tempfile.TemporaryDirectory() as work:
    argv = workloads.prepare(w, int(sys.argv[2]), work)
    if main(argv) != 0:
        sys.exit(1)
    out = os.path.join(work, "out")
    rows = []
    if "trials.csv" in w.outputs:
        with open(os.path.join(out, "trials.csv"), newline="") as fh:
            rows = [(r["decision"], float(r["distance"])) for r in csv.DictReader(fh)]
    print(json.dumps({"sha256": {n: workloads.sha256(os.path.join(out, n))
                                 for n in w.outputs},
                      "trials": rows}))
"""


def run_outputs(root: Path, workload: str, seed: int) -> dict:
    """sha256 of each output of one command, and its trials.csv (decision,
    distance) rows (empty on mixing)."""
    env = run.worker_env(root, workloads.WORKLOADS[workload])
    proc = subprocess.run([sys.executable, "-c", OUTPUT_DIGESTS, workload, str(seed)],
                          cwd=root, env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def trials_diff(parent: list, change: list) -> tuple[int, float]:
    """Rows whose decision differs, and the largest relative change of a
    distance, between two trials.csv row lists of the same trials."""
    if len(parent) != len(change):
        raise RuntimeError(f"trials.csv has {len(parent)} rows at the parent, "
                           f"{len(change)} at the change")
    decisions = sum(p[0] != c[0] for p, c in zip(parent, change))
    rel = max((abs(c[1] - p[1]) / p[1] if p[1] else (math.inf if c[1] else 0.0)
               for p, c in zip(parent, change)), default=0.0)
    return decisions, rel


PROBE = """
import ctypes, glob, json, os, numpy, scipy
def site(mod):
    return os.path.dirname(os.path.dirname(mod.__file__))
libs = {"numpy": (site(numpy), "numpy.libs", "libscipy_openblas64_-*.so", "64_"),
        "scipy": (site(scipy), "scipy.libs", "libscipy_openblas-*.so", "")}
out = {}
for owner, (root, sub, pattern, suffix) in libs.items():
    paths = sorted(glob.glob(os.path.join(root, sub, pattern)))
    if not paths:
        out[owner] = None
        continue
    lib = ctypes.CDLL(paths[0])
    text = {}
    for key in ("config", "corename"):
        fn = getattr(lib, f"scipy_openblas_get_{key}{suffix}")
        fn.restype = ctypes.c_char_p
        text[key] = fn().decode()
    threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}")
    threads.restype = ctypes.c_int
    out[owner] = {"file": os.path.basename(paths[0]), "openblas configuration": text["config"],
                  "corename": text["corename"], "default_threads": threads()}
print(json.dumps({"numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numpy_blas_build": numpy.show_config("dicts")["Build Dependencies"]["blas"],
                  "bundled_openblas": out}))
"""


# a fixed single-threaded numpy kernel on a 512 KiB array, which fits in cache
SCALING_KERNEL = """
import time, numpy
a = numpy.random.default_rng(0).random(1 << 16)
start = time.perf_counter()
for _ in range(6000):
    numpy.sqrt(a, out=a)
    a += 1.0
print(time.perf_counter() - start)
"""


def scaling(env: dict) -> dict:
    """Seconds of SCALING_KERNEL alone, then in two processes at once.

    Equal times mean the second core was there when the probe ran; twice the
    time means the two processes shared one core, and no thread-level gain
    can show.
    """
    def kernel(copies: int) -> list:
        procs = [subprocess.Popen([sys.executable, "-c", SCALING_KERNEL], env=env,
                                  stdout=subprocess.PIPE, text=True)
                 for _ in range(copies)]
        return [float(p.communicate(timeout=120)[0]) for p in procs]

    alone, (first, second) = kernel(1)[0], kernel(2)
    return {"alone_s": alone, "concurrent_s": [first, second],
            "concurrent_over_alone": max(first, second) / alone}


def machine(root: Path, workload: str) -> dict:
    env = run.worker_env(root, workloads.WORKLOADS[workload])
    probe = subprocess.run([sys.executable, "-c", PROBE], env=env,
                           capture_output=True, text=True, timeout=120, check=True)
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **json.loads(probe.stdout),
        "vars": {k: os.environ.get(k) for k in run.CLEARED_VARS},
        "two_process_scaling": scaling(env),
        "note": "BLAS thread variables cleared for every run, as perfbench does",
    }


def quartiles(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3}


def summarize(pairs: list, bounds: dict, better: dict) -> dict:
    out = {}
    for name in END_TO_END:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        sign = 1 if better[name] == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        ps, cs = quartiles(parent), quartiles(change)
        rel = (cs["median"] - ps["median"]) / ps["median"]
        out[name] = {
            "better": better[name],
            "parent": ps,
            "change": cs,
            "parent_runs": parent,
            "change_runs": change,
            "change_wins": wins,
            "pairs": len(pairs),
            "median_diff": cs["median"] - ps["median"],
            "parent_iqr": ps["q3"] - ps["q1"],
            "rel_change": rel,
            "bound": bounds[name],
            "within_bound": -sign * rel <= bounds[name],
        }
    return out


def gain_met(summary: dict, metric: str = "ops_per_ref") -> bool:
    """Whether the change wins 9 in 10 pairs on metric, in its ``better``
    direction, and the median moves that way by more than the parent's IQR."""
    s = summary[metric]
    sign = 1 if s["better"] == "higher" else -1
    return (s["change_wins"] >= 0.9 * s["pairs"]
            and sign * s["median_diff"] > s["parent_iqr"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, type=Path,
                        help="root of a checkout of the parent commit")
    parser.add_argument("--pairs", action="append", required=True,
                        metavar="WORKLOAD:FIRST_SEED:COUNT")
    parser.add_argument("--claim", action="append", default=[], metavar="WORKLOAD[:METRIC]",
                        help="workload and end-to-end metric (default ops_per_ref) "
                             "claimed to improve")
    parser.add_argument("--traced", action="append", default=[], metavar="WORKLOAD:SEED")
    parser.add_argument("--out", required=True, type=Path)
    args = parser.parse_args(argv)
    claims = {w: m or "ops_per_ref" for w, _, m in (c.partition(":") for c in args.claim)}
    if not set(claims.values()) <= set(END_TO_END):
        parser.error(f"--claim metric must be one of {', '.join(END_TO_END)}")
    roots = {"parent": args.parent.resolve(), "change": Path.cwd()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}

    doc = {
        "description": (
            f"Alternating parent/change pairs of perfbench (python3 perfbench/run.py "
            f"--workload W --seed S --seconds {seconds:g} --trace 0), made with "
            "tools/bench_pairs.py; even-indexed pairs ran the parent first, odd-indexed "
            "the change first. rel_change is (change median - parent median) / parent "
            "median; bound is BENCHMARK.json's regression bound as a fraction of the "
            "parent median. A gain is met when the change wins at least 9 in 10 pairs "
            "and the median gain exceeds the parent's quartile spread. Quartiles use "
            "the inclusive method of Python's statistics.quantiles."
        ),
        "machine": machine(roots["change"], args.pairs[0].split(":")[0]),
        "seeds": {},
        "workloads": {},
        "traced": {},
    }
    for entry in args.pairs:
        workload, first, count = entry.split(":")
        seeds = list(range(int(first), int(first) + int(count)))
        doc["seeds"][workload] = seeds
        pairs = []
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                r = perfbench(roots[side], workload, seed, seconds, 0)
                pair[side] = {k: r["metrics"][k] for k in END_TO_END}
                pair[f"{side}_correct"] = r["correct"]
                pair[f"{side}_failed"] = r["failed"]
                pair[f"{side}_attempted"] = r["attempted"]
            outputs = {side: run_outputs(roots[side], workload, seed) for side in order}
            digests = {side: outputs[side]["sha256"] for side in order}
            pair["output_sha256"] = digests["change"]
            pair["outputs_identical"] = digests["parent"] == digests["change"]
            pair["outputs_changed"] = sorted(
                name for name in digests["parent"].keys() | digests["change"].keys()
                if digests["parent"].get(name) != digests["change"].get(name)
            )
            if workloads.WORKLOADS[workload].command == "experiment":
                pair["decisions_changed"], pair["distance_max_rel_change"] = trials_diff(
                    outputs["parent"]["trials"], outputs["change"]["trials"])
            print(f"{workload} seed {seed}: " + json.dumps(
                {s: pair[s]["ops_per_ref"] for s in order}), file=sys.stderr, flush=True)
            pairs.append(pair)
        summary = summarize(pairs, bounds, better)
        result = {
            "pairs": len(pairs),
            "attempted": {s: sum(p[f"{s}_attempted"] for p in pairs) for s in roots},
            "failed": {s: sum(p[f"{s}_failed"] for p in pairs) for s in roots},
            "all_runs_correct": all(p[f"{s}_correct"] for p in pairs for s in roots),
            "summary": summary,
            "runs": pairs,
        }
        if workload in claims:
            result["gain_claimed_on"] = claims[workload]
            result["gain_met"] = gain_met(summary, claims[workload])
        result["outputs_identical_every_seed"] = all(p["outputs_identical"] for p in pairs)
        if workloads.WORKLOADS[workload].command == "experiment":
            result["decisions_changed"] = sum(p["decisions_changed"] for p in pairs)
            result["distance_max_rel_change"] = max(
                p["distance_max_rel_change"] for p in pairs)
        result["unchanged_every_seed"] = sorted(
            set(workloads.WORKLOADS[workload].outputs)
            - {name for p in pairs for name in p["outputs_changed"]}
        )
        doc["workloads"][workload] = result
    for entry in args.traced:
        workload, seed = entry.split(":")
        doc["traced"][workload] = {"seed": int(seed)}
        for side in roots:
            r = perfbench(roots[side], workload, int(seed), seconds, 1)
            doc["traced"][workload][side] = {"p50_ms": r["p50_ms"], "metrics": r["metrics"]}
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
