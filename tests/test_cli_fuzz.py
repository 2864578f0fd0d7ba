"""A deterministic fuzzer for the command line, built from ``cli._RANGES``.

Cases: every key or flag that reads a ``_RANGES`` row, one past each end of
the row; then a fixed list of bad values on every config key and every
argument of every command. All cases run in one child process that calls
``cli.main(argv)`` in-process (so an argument may hold a NUL), under address
space and CPU-time limits set on that child only, each case in its own
directory. Every case must exit 0, 2 or 3 without a traceback and start no
more than the trial loop's one worker thread; on exit 2 its message starts
``config error:`` and no file was written.

Run the child alone with ``python tests/test_cli_fuzz.py CASES.json
RESULTS.json ROOT``.
"""

import contextlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import threading
import time
import traceback

import pytest

from graphonlab import cli

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")

BASE = {"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2}
MODEL = json.dumps(BASE)

# small enough that an accepted case runs in milliseconds
CONFIG = {
    "schema_version": 1,
    "models": [BASE, {"k1": 0.5, "p1": 0.55, "p2": 0.45, "q": 0.2}],
    "n_list": [30],
    "k_rule": 3,
    "eps_rule": "1/n",
    "activation": "identity",
    "trials": 2,
    "seed": 1,
    "output_dir": "out",
    "share_edge_randomness": False,
}

# each case runs in a directory holding these files and its config.json
INPUTS = {"adir/a.edges": "0 1\n1 2\n", "adir/b.edges": "0 1\n", "afile": "x\n",
          "labels.csv": "a.edges,x\nb.edges,y\n"}

# each command's arguments as (flag, value); a name without "--" is positional
COMMANDS = {
    "delta": [("model0", MODEL), ("model1", MODEL), ("--threshold", "0.05")],
    "family": [("--base", MODEL), ("--tau", "0.05")],
    "mixing": [("--model", MODEL), ("--n-list", "30"), ("--eps", "1/n^2"),
               ("--seeds", "1"), ("--seed", "0"), ("--t-max", "50"),
               ("--out-dir", "out")],
    "experiment": [("--config", "config.json")],
    "dataset-profile": [("--dir", "adir"), ("--labels", "labels.csv"),
                        ("--grid-length", "10"), ("--out-dir", "out")],
}

# the config keys (command None) and flags that read each _RANGES row
READERS = {
    "size": [(None, "n_list"), ("mixing", "--n-list")],
    "depth": [(None, "k_rule"), ("mixing", "--t-max")],
    "count": [(None, "trials"), ("mixing", "--seeds")],
    "seed": [(None, "seed"), ("mixing", "--seed")],
    "grid": [("dataset-profile", "--grid-length")],
}

# on an argument, None leaves the argument out and any other value is passed
# as its JSON text
BAD_VALUES = {
    "bool": True, "float": 1.5, "numeric-string": "1", "null": None,
    "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "10^70": 10**70,
    "non-ascii": "é", "nul": "a\x00b", "directory": "adir", "file": "afile",
    "list": [], "object": {}, "underflowing-rule": "1e-323/n",
}


def make_inputs(config):
    """Write INPUTS and config.json into the current directory."""
    os.mkdir("adir")
    for name, text in {**INPUTS, "config.json": json.dumps(config)}.items():
        with open(name, "w") as fh:
            fh.write(text)


def argv_of(command, overrides=None):
    overrides = overrides or {}
    argv = [command]
    for name, value in COMMANDS[command]:
        value = overrides.get(name, value)
        if value is None:
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        argv += [name, text] if name.startswith("--") else [text]
    return argv


def config_case(case_id, key, value):
    return {"id": case_id, "argv": argv_of("experiment"), "config": {**CONFIG, key: value}}


def arg_case(case_id, command, name, value):
    return {"id": case_id, "argv": argv_of(command, {name: value}), "config": CONFIG}


def cases():
    out = []
    for kind, readers in READERS.items():
        lo, hi = cli._RANGES[kind]
        for command, name in readers:
            for edge, value in (("lo-1", lo - 1), ("hi+1", hi + 1)):
                case_id = f"{command or 'config'} {name}={edge}"
                if command is None:
                    out.append(config_case(case_id, name, [value] if name == "n_list" else value))
                else:
                    out.append(arg_case(case_id, command, name, str(value)))
    for label, value in BAD_VALUES.items():
        for key in CONFIG:
            out.append(config_case(f"config {key}={label}", key, value))
        for command, arguments in COMMANDS.items():
            for name, _ in arguments:
                out.append(arg_case(f"{command} {name}={label}", command, name, value))
    for argv in ([], ["nope"], ["experiment", "--config"], ["mixing", "--lazy=1"]):
        out.append({"id": f"usage {argv}", "argv": argv, "config": CONFIG})
    out.append({"id": "help", "argv": ["experiment", "--help"], "config": CONFIG})
    return out


def limit_child():
    # runs in the child between fork and exec
    for limit, value in ((resource.RLIMIT_AS, 2 << 30), (resource.RLIMIT_CPU, 60)):
        resource.setrlimit(limit, (value, resource.getrlimit(limit)[1]))


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    every = cases()
    (root / "cases.json").write_text(json.dumps(every))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, __file__, str(root / "cases.json"), str(root / "results.json"),
         str(root)],
        env=env, preexec_fn=limit_child, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    return list(zip(every, json.loads((root / "results.json").read_text())))


def test_every_case_exits_cleanly(results):
    failures = []
    for case, got in results:
        problems = []
        if got["code"] not in (0, 2, 3):
            problems.append(f"exit {got['code']}")
        if "Traceback" in got["err"]:
            problems.append("traceback")
        if got["code"] == 2 and not got["err"].startswith("config error:"):
            problems.append("message does not start 'config error:'")
        if got["code"] == 2 and got["wrote"]:
            problems.append("wrote files on exit 2")
        if got["threads"] > 1:
            problems.append(f"started {got['threads']} threads at once")
        if problems:
            failures.append(f"{case['id']}: {', '.join(problems)}: {got['err'][-300:]!r}")
    assert not failures, f"{len(failures)} of {len(results)} cases failed:\n" + "\n".join(failures)


def test_out_of_range_is_refused(results):
    for case, got in results:
        if case["id"].endswith(("=lo-1", "=hi+1")):
            assert got["code"] == 2, case["id"]


def test_readers_cover_every_range():
    assert set(READERS) == set(cli._RANGES)


# the bounds themselves are accepted; a command at the upper bound of count
# or size would run far too long, so these stop before any work
def test_config_bounds_are_accepted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for kind, readers in READERS.items():
        for command, key in readers:
            if command is not None:
                continue
            for value in cli._RANGES[kind]:
                doc = {**CONFIG, key: [value] if key == "n_list" else value}
                (tmp_path / "config.json").write_text(json.dumps(doc))
                cli._plan_experiment("config.json")
    assert os.listdir(tmp_path) == ["config.json"]


class Sampled(Exception):
    pass


def test_flag_bounds_are_accepted(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def sampled(*args):
        raise Sampled  # every check passed; stop before the run

    monkeypatch.setattr(cli, "sample_graph", sampled)
    make_inputs(CONFIG)
    for kind, readers in READERS.items():
        for command, name in readers:
            if command is None:
                continue
            for value in cli._RANGES[kind]:
                argv = argv_of(command, {name: str(value)})
                if command == "mixing":
                    with pytest.raises(Sampled):
                        cli.main(argv)
                else:
                    assert cli.main(argv) == 0, argv


def run_cases(cases_path, results_path, root):
    """Run each case in its own directory under root; write one result per
    case: exit code, stderr, whether a file was written, and the most
    threads alive at once beyond the caller's."""
    peak = [0]
    start = threading.Thread.start

    def counted_start(thread):
        start(thread)
        peak[0] = max(peak[0], threading.active_count() - 1)

    threading.Thread.start = counted_start
    out = []
    for i, case in enumerate(json.loads(open(cases_path).read())):
        os.chdir(root)
        os.mkdir(f"case{i}")
        os.chdir(f"case{i}")
        make_inputs(case["config"])
        before = sorted(os.walk("."))
        peak[0] = 0
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = cli.main(case["argv"])
            except SystemExit as exc:
                code = exc.code
            except Exception:  # what the interpreter would print as a traceback
                traceback.print_exc()
                code = 1
        out.append({"code": code, "err": err.getvalue(),
                    "wrote": sorted(os.walk(".")) != before, "threads": peak[0]})
    with open(results_path, "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    t0 = time.perf_counter()
    run_cases(*sys.argv[1:4])
    print(f"{time.perf_counter() - t0:.2f} s", file=sys.stderr)
