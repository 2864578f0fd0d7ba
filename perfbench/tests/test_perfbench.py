"""Tests of the benchmark itself: tiny runs of every workload, failure counting.

Run from the repository root:

    python -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import graphonlab.cli  # noqa: E402
import graphonlab.testing  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(capsys, name, trace):
    rc = run.main(["--workload", name, "--seed", "3", "--seconds", "0.1",
                   "--trace", str(trace), "--tiny"])
    lines = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_each_workload_reports_every_metric(capsys, monkeypatch, name):
    monkeypatch.chdir(ROOT)
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        _, result = bench(capsys, name, trace)
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
        for m in SPEC[section]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_listed_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)


def test_fanout_reproduces_serial_digests(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    digests = []
    for name in ("experiment_identity", "experiment_fanout"):
        lines, _ = bench(capsys, name, 0)
        digests.append(next(line for line in lines if line.startswith("csv sha256")))
    assert digests[0] == digests[1]


def tiny_command(tmp_path, name="experiment_identity"):
    w = workloads.WORKLOADS[name].tiny()
    argv = workloads.prepare(w, 5, str(tmp_path))
    return w, argv, str(tmp_path / "out")


def test_flipped_csv_byte_fails_every_op(tmp_path, capsys):
    w, argv, out = tiny_command(tmp_path)
    assert graphonlab.cli.main(argv) == 0
    assert workloads.check_command(w, 0, out).ok
    path = Path(out) / "distances.csv"
    body = bytearray(path.read_bytes())
    body[-3] ^= 1
    path.write_bytes(bytes(body))
    check = workloads.check_command(w, 0, out)
    assert not check.ok and check.failed_ops == w.ops
    assert any("hash mismatch" in p for p in check.problems)


def test_non_zero_exit_fails_every_op(tmp_path, capsys):
    w, argv, out = tiny_command(tmp_path)
    config = json.loads(Path(argv[2]).read_text())
    del config["trials"]
    Path(argv[2]).write_text(json.dumps(config))
    rc = graphonlab.cli.main(argv)
    assert rc == 2
    check = workloads.check_command(w, rc, out)
    assert not check.ok and check.failed_ops == w.ops


def test_changed_csv_between_repetitions_is_failed(tmp_path, monkeypatch):
    """A CSV that differs from the first command's fails, even with a valid manifest."""
    w, argv, out = tiny_command(tmp_path, "mixing_sweep")
    real = worker.run_command
    calls = []

    def corrupting(argv):
        result = real(argv)
        calls.append(1)
        if len(calls) == 2:
            path = Path(out) / "mixing_runs.csv"
            path.write_bytes(path.read_bytes() + b"\n")
            manifest = Path(out) / "manifest.json"
            doc = json.loads(manifest.read_text())
            doc["outputs"]["mixing_runs.csv"] = workloads.sha256(path)
            manifest.write_text(json.dumps(doc))
        return result

    monkeypatch.setattr(worker, "run_command", corrupting)
    commands, _ = worker.closed_loop(w, argv, out, 0.0, False, tracer.Tracer(),
                                      worker.Reference())
    assert [c["failed_ops"] for c in commands] == [0, w.ops]
    assert "differ" in commands[1]["problems"][0]


def test_tracer_restores_module_attributes():
    before = graphonlab.testing.sample_coupled
    t = tracer.Tracer()
    with t.installed(0):
        assert graphonlab.testing.sample_coupled is not before
    assert graphonlab.testing.sample_coupled is before
    assert graphonlab.spectral.RWChain.__dict__["from_graph"].__class__ is classmethod


def test_exits_non_zero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work", "results"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(SPEC["command"] + ["--workload", SPEC["workloads"][0]["name"],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, env=env, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
