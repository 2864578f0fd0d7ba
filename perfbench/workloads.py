"""Workload table, input generation and output checks.

Each workload is one ``graphonlab`` command that a single client issues again
and again in a closed loop. The benchmark seed goes into the generated config
(``experiment``) or into ``--seed`` (``mixing``); the program sees only those
generated inputs. Sizes are chosen for a 2-core machine, so that one command
takes a few seconds and a run holds several commands.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from dataclasses import dataclass, replace

BASE = {"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2}
SEPARATED = {"k1": 0.5, "p1": 0.55, "p2": 0.45, "q": 0.2}  # the README pair
MATCHED = {"k1": 0.5, "p1": 0.7, "p2": 0.5, "q": 0.1}  # same degree profile
DELTA_SEPARATED = 1 / 14

EXPERIMENT_OUTPUTS = ("distances.csv", "trials.csv", "summary.csv", "report.json")
MIXING_OUTPUTS = ("mixing_runs.csv", "tv_traces.json")

# One-sided exact binomial level for the accuracy check: with the measured 2%
# error rate at n = 1000 a literal "observed accuracy >= 0.95" would fail on a
# sizeable share of seeds at these trial counts, so the check asks instead
# whether the error count is consistent with an error rate of at most 5%.
ACCURACY_ALPHA = 0.01
LECAM_ALPHA = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "experiment" or "mixing"
    n_list: tuple
    pool: bool  # GRAPHONLAB_WORKERS = nproc when True, else 1
    why: str
    models: tuple = (BASE,)
    activation: str = "identity"
    eps: str = ""
    trials: int = 0  # experiment: trials per n and per harness
    seeds: int = 0  # mixing: chains per n
    t_max: int = 300
    expect_delta: float | None = None  # None: delta_zero regime expected
    accuracy_n: int | None = None
    min_accuracy: float = 0.95

    @property
    def ops(self) -> int:
        """Operations per command: coupled-pair trials, or mixing chains."""
        if self.command == "experiment":
            return 2 * self.trials * len(self.n_list)
        return self.seeds * len(self.n_list)

    @property
    def outputs(self) -> tuple:
        return EXPERIMENT_OUTPUTS if self.command == "experiment" else MIXING_OUTPUTS

    def tiny(self) -> "Workload":
        """Same command and checks at toy sizes, for the benchmark's own tests."""
        if self.command == "mixing":
            return replace(self, n_list=(30, 40), seeds=1)
        return replace(self, n_list=(40, 60), trials=2,
                       accuracy_n=None if self.accuracy_n is None else 60,
                       min_accuracy=0.0)


_identity = dict(
    command="experiment",
    models=(BASE, SEPARATED),
    n_list=(500, 1000),
    activation="identity",
    eps="0.0178571/n",  # delta/(4n): the achievability noise of criterion 8
    trials=12,
    expect_delta=DELTA_SEPARATED,
    accuracy_n=1000,
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="experiment_identity", pool=False, **_identity,
            why="the paper's headline run: coupled sampling plus the K-step "
                "vector embedding; no spectral mixing, forward bypassed",
        ),
        Workload(
            name="experiment_tanh", command="experiment", models=(BASE, MATCHED),
            n_list=(250, 500), pool=False, activation="tanh", eps="10/n", trials=3,
            expect_delta=None,
            why="delta = 0 pair through the dense n x n tanh forward (BLAS GEMM); "
                "covers the delta_zero branches",
        ),
        Workload(
            name="mixing_sweep", command="mixing", n_list=(250, 500, 1000),
            pool=False, eps="1/n^2", seeds=2, t_max=300,
            why="dense P^t products plus eigh per chain; spectral dominates and "
                "tv_traces.json is written",
        ),
        Workload(
            name="experiment_fanout", pool=True, **_identity,
            why="identity inputs with GRAPHONLAB_WORKERS = nproc and default BLAS "
                "threads: the only workload that runs the process pool",
        ),
    )
}


def ops_rate(command: dict) -> float:
    """Operations completed without failure per wall second of one command."""
    return (command["ops"] - command["failed_ops"]) / command["wall_s"]


def ref_rate(command: dict) -> float:
    """Operations completed per reference-kernel time (see ``worker.Reference``).

    The command's wall time is counted in reference blocks timed next to it,
    so a host that slows the whole process down moves both alike.
    """
    return ops_rate(command) * command["ref_s"]


def prepare(w: Workload, seed: int, work_dir: str) -> list[str]:
    """Write the generated inputs under work_dir and return the CLI argv."""
    out_dir = os.path.join(work_dir, "out")
    if w.command == "mixing":
        return [
            "mixing", "--model", json.dumps(w.models[0]),
            "--n-list", ",".join(str(n) for n in w.n_list), "--eps", w.eps,
            "--seeds", str(w.seeds), "--seed", str(seed),
            "--t-max", str(w.t_max), "--out-dir", out_dir,
        ]
    config = {
        "schema_version": 1,
        "models": list(w.models),
        "n_list": list(w.n_list),
        "k_rule": "ceil(6*ln(n))",
        "eps_rule": w.eps,
        "activation": w.activation,
        "trials": w.trials,
        "seed": seed,
        "output_dir": out_dir,
        "share_edge_randomness": True,
    }
    path = os.path.join(work_dir, "config.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=2)
    return ["experiment", "--config", path]


def sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        h.update(fh.read())
    return h.hexdigest()


@dataclass
class CheckResult:
    problems: list
    failed_ops: int
    digests: dict  # sha256 of each CSV body
    bytes_written: int
    chain_products: list  # mixing only: (n, trace length - 1) per ok chain

    @property
    def ok(self) -> bool:
        return not self.problems


def check_command(w: Workload, rc, out_dir: str) -> CheckResult:
    """Check one command's exit code and outputs.

    A failed command, a manifest hash mismatch or a failed workload check
    fails every operation of the command; on mixing, each row whose status
    is not ``ok`` fails its chain.
    """
    problems = []
    if rc != 0:
        problems.append(f"exit code {rc}")
        return CheckResult(problems, w.ops, {}, 0, [])
    paths = {name: os.path.join(out_dir, name) for name in w.outputs}
    missing = [name for name, p in paths.items() if not os.path.isfile(p)]
    manifest_path = os.path.join(out_dir, "manifest.json")
    if missing or not os.path.isfile(manifest_path):
        problems.append(f"missing outputs {missing or ['manifest.json']}")
        return CheckResult(problems, w.ops, {}, 0, [])
    with open(manifest_path) as fh:
        listed = json.load(fh).get("outputs", {})
    if set(listed) != set(paths):
        problems.append(f"manifest lists {sorted(listed)}")
    for name, p in paths.items():
        if name in listed and listed[name] != sha256(p):
            problems.append(f"manifest hash mismatch for {name}")
    digests = {name: sha256(p) for name, p in paths.items() if name.endswith(".csv")}
    size = sum(os.path.getsize(p) for p in paths.values())
    size += os.path.getsize(manifest_path)
    if w.command == "mixing":
        bad_rows, products = _check_mixing(w, paths, problems)
    else:
        bad_rows, products = 0, []
        _check_experiment(w, paths["summary.csv"], problems)
    failed = w.ops if problems else bad_rows
    return CheckResult(problems, failed, digests, size, products)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_experiment(w: Workload, summary_path: str, problems: list) -> None:
    from scipy.stats import binom

    rows = {int(r["n"]): r for r in _read_csv(summary_path)}
    if sorted(rows) != sorted(w.n_list):
        problems.append(f"summary rows for n={sorted(rows)}, expected {list(w.n_list)}")
        return
    for n, r in rows.items():
        delta = float(r["delta"])
        errors = round(float(r["error_rate"]) * w.trials)
        if w.expect_delta is None:
            if r["regime"] != "delta_zero" or delta > 1e-9:
                problems.append(f"n={n}: regime {r['regime']} delta {delta}, expected delta_zero")
            floor = min(max(float(r["lecam_floor"]), 0.0), 1.0)
            if floor > 0 and binom.cdf(errors, w.trials, floor) < LECAM_ALPHA:
                problems.append(
                    f"n={n}: {errors}/{w.trials} errors significantly below "
                    f"the Le Cam floor {floor:.4g}"
                )
            continue
        if r["regime"] != "delta_positive" or abs(delta - w.expect_delta) > 1e-9:
            problems.append(f"n={n}: regime {r['regime']} delta {delta!r}, "
                            f"expected delta_positive {w.expect_delta!r}")
        if n == w.accuracy_n:
            # P(at least this many errors | error rate = 1 - min_accuracy)
            p = binom.sf(errors - 1, w.trials, 1.0 - w.min_accuracy)
            if p < ACCURACY_ALPHA:
                problems.append(
                    f"n={n}: accuracy {1 - errors / w.trials:.3f} over {w.trials} "
                    f"trials is significantly below {w.min_accuracy}"
                )


def _check_mixing(w: Workload, paths: dict, problems: list) -> tuple[int, list]:
    rows = _read_csv(paths["mixing_runs.csv"])
    with open(paths["tv_traces.json"]) as fh:
        traces = json.load(fh)
    expected = [n for n in w.n_list for _ in range(w.seeds)]
    if [int(r["n"]) for r in rows] != expected or len(traces) != len(rows):
        problems.append(f"mixing rows for n={[r['n'] for r in rows]}, expected {expected}")
        return 0, []
    bad, products = 0, []
    for r, tr in zip(rows, traces):
        if r["status"] != "ok":
            bad += 1
            continue
        t_mix, pts = int(r["t_mix"]), tr["trace"]
        tvs = [tv for _, tv in pts]
        if (int(r["seed"]) != tr["seed"] or pts[-1][0] != t_mix
                or tvs[-1] > tr["eps"] or any(tv <= tr["eps"] for tv in tvs[:-1])):
            problems.append(f"n={r['n']} seed={r['seed']}: trace disagrees with t_mix={t_mix}")
        products.append((int(r["n"]), len(pts) - 1))
    return bad, products

