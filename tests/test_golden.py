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
        "distances.csv": "f375c60d26e399377109c3841f3a0806c2749f76ca6f2177ffd56cb4b5f0edc6",
        "trials.csv": "fe70c723a797cc3966dcf452330c5aca5b74ba20cec921d7c4369370802820cf",
        "summary.csv": "64ff9352a9e2dd8a31eb00545a57c44a3006ef49773179849c1b396cf6d02a57",
        "report.json": "416346d1b0bbc389b4e3e81304006f2309b877b0800e21e52cbbe5f5cadfed90",
    },
    "tanh": {
        "distances.csv": "4c416e444d1d3f7e103e45c87785cd049030d036dd4c02d7e28bf5ab5b646a67",
        "trials.csv": "24374afd84858896f8cf7eb074b132433b07a9314babd40970e2c4b09624234a",
        "summary.csv": "a268587f29d196c5c882b9910763fb01c37247ba03abdd52da8f4c7a106fb6c9",
        "report.json": "27e426ae6b4af5e02f7b64cf7560d1b86f01c2b6d8b7719d8cf0af0e32aa2b2f",
    },
    "selu": {
        "distances.csv": "f982ed901cbd35df6a902b2fbe29bbc46a4ca5b8685333a20cda0b3b692fd149",
        "trials.csv": "2386a5f832565af83ee789f37a3248a1d9a74acbe3d15ceeb7b8df24cdfd6d39",
        "summary.csv": "c6e0b1a619f64635bcc8e7fabc7034a599ee26cb112d049c05ae1dde1bd843b8",
        "report.json": "d865af5e396c30139e92b4b6b5a5c569040c79dbeb16585d233693b3f53862c3",
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
