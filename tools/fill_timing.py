"""One graph's edge fill timed against the bare Philox draws it makes.

For each ``--root`` checkout, in a fresh interpreter that imports that
checkout's ``src``, it times one graph's ``sampling._fill_rows(adj, 0, n - 1,
jobs)`` on the README base model (two blocks) at n = 1000 and 2000, and next
to it ``random_raw`` of the same word count, ceil(n(n - 1)/4), from a fresh
Philox of the same key. The two alternate call by call, under
``gcn.one_blas_thread``, after a few untimed warm-up calls, and the table
gives each one's median and interquartile range in ms (the inclusive
quartiles of Python's ``statistics.quantiles``) and the ratio of the
medians:

    python3 tools/fill_timing.py --root PARENT_DIR --root .
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

SIZES = (1000, 2000)
CALLS = 40
WARMUP = 3

CHILD = """
import json, sys, time
import numpy as np
from graphonlab import StepGraphon, derive_seed, make_rng, sampling
from graphonlab.gcn import one_blas_thread

w = StepGraphon([0.5, 0.5], [[0.6, 0.2], [0.2, 0.5]])
calls, warmup = int(sys.argv[1]), int(sys.argv[2])
rows = []
with one_blas_thread():
    for n in map(int, sys.argv[3:]):
        x, blocks = sampling._positions_and_blocks(w, n, 7)
        key = derive_seed(7, sampling._STREAM_EDGES_0)
        jobs = [(key, blocks, w.densities)]
        adj = np.zeros((1, n, n), dtype=np.uint8)
        words = -(-n * (n - 1) // 4)
        fill, draw = [], []
        for i in range(warmup + calls):
            t0 = time.perf_counter()
            sampling._fill_rows(adj, 0, n - 1, jobs)
            t1 = time.perf_counter()
            make_rng(key).bit_generator.random_raw(words)
            t2 = time.perf_counter()
            if i >= warmup:
                fill.append(1e3 * (t1 - t0))
                draw.append(1e3 * (t2 - t1))
        rows.append({"n": n, "fill_ms": fill, "philox_ms": draw})
print(json.dumps(rows))
"""


def measure(root: Path) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(CALLS), str(WARMUP), *map(str, SIZES)],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: exited {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", action="append", type=Path, required=True,
                        help="a checkout to time; give it once per checkout")
    args = parser.parse_args(argv)
    print(f"{CALLS} calls each; median [IQR] in ms")
    print(f"{'root':<32} {'n':>5} {'fill':>18} {'philox':>18} {'fill/philox':>11}")
    for root in args.root:
        for row in measure(root.resolve()):
            f25, f50, f75 = statistics.quantiles(row["fill_ms"], n=4, method="inclusive")
            d25, d50, d75 = statistics.quantiles(row["philox_ms"], n=4, method="inclusive")
            print(f"{str(root):<32} {row['n']:>5} {f50:>8.2f} [{f75 - f25:>6.2f}]"
                  f" {d50:>8.2f} [{d75 - d25:>6.2f}] {f50 / d50:>11.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
