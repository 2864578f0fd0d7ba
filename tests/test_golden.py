"""Golden outputs: the sha256 of small CLI runs and the bits of one gap.

These pin the numbers end to end, so a refactor that changes any float
operation or its order shows up here. The hashes were computed with
OpenBLAS 0.3.31 and numpy 2.4.6 on x86-64; another BLAS build or numpy
version may round differently and then fails these tests without any change
in the library.
"""

import csv
import hashlib
import json

import pytest

from graphonlab import GCNConfig, linearization_gap, sample_graph
from graphonlab.cli import main

from helpers import SBM_BASE

BASE = {"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2}
SEPARATED = {"k1": 0.5, "p1": 0.55, "p2": 0.45, "q": 0.2}
# BASE's family point at tau 0.05: the same degree profile, so delta = 0
FAMILY = {"k1": 0.5, "p1": 0.7, "p2": 0.5, "q": 0.1}

EXPERIMENT_SHA256 = {
    "identity": {
        "distances.csv": "fd9d06e5327e274c2e386f42f42bd6cdbfc5eb2e4ed1d6286498f3a63075aff6",
        "trials.csv": "d334d2dfea1f46a5823d18daaa7ae8dd0de932b4d1ac491f58e7197f3f3e5c81",
        "summary.csv": "5c99b4917da91dd016ff8437bd66b4eeaf9b8f1353a299409aecfe084a18700b",
        "report.json": "05f5c682605c6c87753985a18f39056111b4479cebc90f1b688e57667f04e693",
    },
    "tanh": {
        "distances.csv": "96ca34ae13f56ba09adb9951e130ff98f9168f4067cba85927f0a688340d9a3f",
        "trials.csv": "86fbf5f9d1f2992968a45725923f28785f24b11c431826ab16e98194f25451d4",
        "summary.csv": "78abb03d62c969fd8165255d4d92dc80ff70d7ec5850ed738e3a6ae008db03ca",
        "report.json": "314a0f4669e5a11b09f9405b564a4b347ffc9d5464d385c316c051a74b4a7a82",
    },
    "selu": {
        "distances.csv": "1eb0f353ad7de5ed8ef562197e0e8256dc31d461aaa043437712fac3fc75a455",
        "trials.csv": "f840f4340d72e2bd44d1706bb8eeae12dd9352b480b6493c13be3449f0137c47",
        "summary.csv": "f28bec94ed7859fe5a73c50d7a82ef9cc48714f2d8589c3ad24c5e1fbcfb5005",
        "report.json": "668edd4c27c12418d0a37bad8f1173ec6e296a0eb1e8f887dbac39c05fee5fd9",
    },
}

# The selu case takes the branches the other two miss: a single n (so
# fitted_exponent is nan), shared edge randomness, and a delta = 0 pair (the
# delta_zero floor and envelope).
EXPERIMENT_OVERRIDES = {
    "selu": {"models": [BASE, FAMILY], "n_list": [40], "share_edge_randomness": True},
}

MIXING_SHA256 = {
    "mixing_runs.csv": "8885533d6686c1320f6c3ab90540b86bc415c55f2a241ed2bf8697cfaff8ae17",
    "tv_traces.json": "c6153e87e85b59891db40ac5f963948ff2dcf6856de55001fd79f7bc0a2be6ca",
}

# linearization_gap's (gap, envelope) as float.hex
GAP_HEX = ("0x1.a1dfed5a61000p-20", "0x1.cd1e94b6e1353p-19")


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_experiment(tmp_path, activation):
    """Run the golden experiment config for activation; return its out dir."""
    out_dir = tmp_path / "out"
    doc = {
        "schema_version": 1,
        "models": [BASE, SEPARATED],
        "n_list": [40, 60],
        "k_rule": "ceil(6*ln(n))",
        "eps_rule": "10/n",
        "activation": activation,
        "trials": 6,
        "seed": 42,
        "output_dir": str(out_dir),
        **EXPERIMENT_OVERRIDES.get(activation, {}),
    }
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["experiment", "--config", str(config)]) == 0
    return out_dir


@pytest.mark.parametrize("activation", ["identity", "tanh", "selu"])
def test_experiment_outputs(tmp_path, capsys, activation):
    out_dir = run_experiment(tmp_path, activation)
    got = {name: sha256_of(out_dir / name) for name in EXPERIMENT_SHA256[activation]}
    assert got == EXPERIMENT_SHA256[activation]


@pytest.mark.parametrize("activation", ["identity", "tanh", "selu"])
def test_error_trials_read_the_distance_pairs(tmp_path, capsys, activation):
    # one trial loop per n: trials.csv's distance column is distances.csv's,
    # row for row (distances.csv's seed column holds the per-n seed, trials.csv's
    # each trial's)
    out_dir = run_experiment(tmp_path, activation)

    def rows(name):
        with open(out_dir / name, newline="") as fh:
            return [(r["n"], r["trial"], r["distance"]) for r in csv.DictReader(fh)]

    assert rows("trials.csv") == rows("distances.csv")


def test_mixing_outputs(tmp_path, capsys):
    out_dir = tmp_path / "mix"
    code = main(
        [
            "mixing",
            "--model", json.dumps(BASE),
            "--n-list", "40,80",
            "--seeds", "2",
            "--seed", "5",
            "--out-dir", str(out_dir),
        ]
    )
    assert code == 0
    got = {name: sha256_of(out_dir / name) for name in MIXING_SHA256}
    assert got == MIXING_SHA256


def test_linearization_gap_bits():
    g = sample_graph(SBM_BASE.to_step_graphon(), 200, seed=6)
    gap, envelope = linearization_gap(g, GCNConfig(depth=10, activation="tanh"))
    assert (gap.hex(), envelope.hex()) == GAP_HEX
