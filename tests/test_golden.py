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
        "distances.csv": "40e1384b45c4fa2da869abc79e4c5b6727f83d0b2b2205a5e73479a05c4efd70",
        "trials.csv": "47e34e40698f3ccc81f9d287f6384f5fce6a2c203e3615884110e5267d22a292",
        "summary.csv": "ff5d059ed8be57944194156feab8aee4ded02f689cdb99f08875a793cdb77f31",
        "report.json": "19b30a1e515a9675ebd7e9a0c9bd3857f009fe317e6e08c5d32f0da945d288c1",
    },
    "tanh": {
        "distances.csv": "b13d697a220972070db0ab2169299cfa62bd8d018796b69f32a0770a74d73015",
        "trials.csv": "7498e00305de346fd098d3df12316d3810899de04f13dd176b586254bb80e080",
        "summary.csv": "17b37fc3df81e55d49171c570685013bce60570db21e591aa7ee88c9b1b5fc11",
        "report.json": "313a927116b2c782b1d344d3aa3e56df0fed6c9a48e904e2052238710023cb0c",
    },
    "selu": {
        "distances.csv": "45e5a2dc1600d277ae66aa1c0025bdc523d16c714654a6b9075b1134bb7f7f6f",
        "trials.csv": "ca0cf1110ee330f20c24dedaad82ad2a28d05b0bea11fcdea469eeedd0aebf72",
        "summary.csv": "455c750833f654865686fc474580f823766d62f44ecb9be67c300efc22b8ee6f",
        "report.json": "725ccb4dacf2d16545b03a363a384d56818c58d5db8471aec44adb5d8d09c605",
    },
}

# The selu case takes the branches the other two miss: a single n (so
# fitted_exponent is nan), shared edge randomness, and a delta = 0 pair (the
# delta_zero floor and envelope).
EXPERIMENT_OVERRIDES = {
    "selu": {"models": [BASE, FAMILY], "n_list": [40], "share_edge_randomness": True},
}

MIXING_SHA256 = {
    "mixing_runs.csv": "acd40e199ce6f3f44a64d09c0e9453529174c22af0bc378ec29917c46cf08e0b",
    "tv_traces.json": "28c9dbc7f7022900229a58ad451ccf9be554aa641b4a12d7c5993fd25c28d618",
}

# linearization_gap's (gap, envelope) as float.hex
GAP_HEX = ("0x1.66ca6462ee000p-20", "0x1.7f61033ddcb39p-19")


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
