"""Golden outputs: the sha256 of small CLI runs and the bits of one gap.

These pin the numbers end to end, so a refactor that changes any float
operation or its order shows up here. The hashes were computed with
OpenBLAS 0.3.31 and numpy 2.4.6 on x86-64; another BLAS build or numpy
version may round differently and then fails these tests without any change
in the library.
"""

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
        "distances.csv": "b2d2746cc4a675972c1fc69f5f5659eb5bd3cf625e749ea2b7881feb2b417397",
        "trials.csv": "4e8bf040349ab0498615479cb001c942e8a5c81e3c47a5be3817eb1b21c07147",
        "summary.csv": "84252dae441593b90dfb72f5883bc105d640fdf567a38a9c692714bde03e1eb9",
        "report.json": "12d1fe35fd4034cbc32a104b764344f282725daa48686303b06adafc025f425c",
    },
    "tanh": {
        "distances.csv": "96ca34ae13f56ba09adb9951e130ff98f9168f4067cba85927f0a688340d9a3f",
        "trials.csv": "aea0aa2c1bf06c0053bf1f8fbd7a4cd875371cad5e7b2a180a9171f326b141ad",
        "summary.csv": "7016208d599e18612b9c3dab05fa0f7c32e27df8445f9636a7312d58258f9783",
        "report.json": "33062a819be2ee42b01c4a5cabd2f8662acd5adc537983045a28e9cd2620c485",
    },
    "selu": {
        "distances.csv": "1eb0f353ad7de5ed8ef562197e0e8256dc31d461aaa043437712fac3fc75a455",
        "trials.csv": "efe66ee435bee9d84cbe4c5c72273b02c482c47209fa79b6ebac0d8567529237",
        "summary.csv": "35786ba83b7e07d2416399deae2c758a8d8c26ddb9f0c92ebfec1ade7e893fe6",
        "report.json": "da6d1d8b869819b01acf0f2ad939b1ca01f0a1d14c3ca5cbe10466463e67dd6f",
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


@pytest.mark.parametrize("activation", ["identity", "tanh", "selu"])
def test_experiment_outputs(tmp_path, capsys, activation):
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
    got = {name: sha256_of(out_dir / name) for name in EXPERIMENT_SHA256[activation]}
    assert got == EXPERIMENT_SHA256[activation]


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
