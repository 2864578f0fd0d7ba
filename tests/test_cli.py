import csv
import hashlib
import importlib
import json
import os
import re
import shlex
import subprocess
import sys
import warnings

import numpy as np
import pytest

import graphonlab
from graphonlab import cli, derive_seed, embedding_distance_experiment, gcn, sample_graph
from graphonlab.errors import InvalidModel
from graphonlab.cli import main, parse_eps_rule, parse_k_rule
from graphonlab.cli import ConfigError, _validate_experiment_config

from helpers import SBM_BASE, SBM_SEPARATED, save_edge_list


BASE_JSON = '{"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2}'
SEP_JSON = '{"k1": 0.5, "p1": 0.55, "p2": 0.45, "q": 0.2}'


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def tree(root):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


def path_placeholders(tmp_path):
    """Placeholders for arguments, mapped to inputs made in tmp_path.

    "<dir>" is a directory holding two edge lists and a subdirectory, "<bad>"
    a file that is not UTF-8, "<file>" a plain file where a directory belongs,
    "<out>" a path that does not exist yet, "<outside>" an edge list next to
    "<dir>", and "<labels...>" labels files for "<dir>". "<config>" is an
    experiment config whose output_dir is "<file>", and each "<config-...>"
    a malformed experiment config.
    """
    paths = {"<dir>": tmp_path / "adir", "<bad>": tmp_path / "bad.json",
             "<file>": tmp_path / "afile", "<out>": tmp_path / "out",
             "<outside>": tmp_path / "outside.txt"}
    paths["<dir>"].mkdir()
    (paths["<dir>"] / "sub").mkdir()
    (paths["<dir>"] / "a.edges").write_text("0 1\n1 2\n")
    (paths["<dir>"] / "b.edges").write_text("0 1\n")
    paths["<bad>"].write_bytes(b'{"k1": "\xff"}')
    paths["<file>"].write_text("x\n")
    paths["<outside>"].write_text("0 1\n1 2\n")
    for key, text in (("<labels>", "a.edges,x\nb.edges,y\n"),
                      ("<labels-subdir>", "a.edges,x\nsub,y\n"),
                      ("<labels-twice>", "a.edges,x\nb.edges,y\na.edges,y\n"),
                      ("<labels-parent>", "a.edges,x\n../outside.txt,y\n"),
                      ("<labels-absolute>", f"a.edges,x\n{paths['<outside>']},y\n"),
                      # one field past csv's default field size limit (131,072)
                      ("<labels-long-field>", "a" * 200_000 + ",x\n"),
                      ("<labels-one-field>", "a.edges\nb.edges,y\n")):
        paths[key] = tmp_path / (key.strip("<>") + ".csv")
        paths[key].write_text(text)
    paths["<config>"], doc = write_experiment_config(
        tmp_path, output_dir=str(paths["<file>"]))
    without_trials = {k: v for k, v in doc.items() if k != "trials"}
    for key, text in (("<config-not-json>", "{"), ("<config-list>", "[]"),
                      ("<config-no-trials>", json.dumps(without_trials)),
                      ("<config-one-model>", json.dumps(dict(doc, models=doc["models"][:1]))),
                      ("<config-model-number>",
                       json.dumps(dict(doc, models=[5, doc["models"][1]]))),
                      ("<config-model-null>",
                       json.dumps(dict(doc, models=[None, doc["models"][1]])))):
        paths[key] = tmp_path / (key.strip("<>") + ".json")
        paths[key].write_text(text)
    return {key: str(path) for key, path in paths.items()}


class TestRules:
    def test_k_rule_explicit(self):
        rule = parse_k_rule(16)
        assert rule(100) == 16

    def test_k_rule_log_form(self):
        rule = parse_k_rule("ceil(6*ln(n))")
        assert rule(500) == int(np.ceil(6 * np.log(500)))

    def test_k_rule_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_k_rule("6*log2(n)")

    def test_eps_rule_explicit_and_scaled(self):
        assert parse_eps_rule(0.25)(10) == 0.25
        assert parse_eps_rule("10/n")(500) == pytest.approx(0.02)

    def test_eps_rule_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_eps_rule("n/10")

    @pytest.mark.parametrize(
        "parse, rule, key",
        [
            (parse_k_rule, "ceil(1e400*ln(n))", "k_rule"),
            (parse_k_rule, "ceil(1e308*ln(n))", "k_rule"),
            (parse_k_rule, "ceil(-1e400*ln(n))", "k_rule"),
            (parse_k_rule, "ceil(1.2.3*ln(n))", "k_rule"),
            (parse_eps_rule, "1.2.3/n", "eps_rule"),
            (parse_eps_rule, "-1/n^2", "eps_rule"),
            (parse_eps_rule, "1e400/n", "eps_rule"),
            (parse_eps_rule, json.loads("1e400"), "eps_rule"),
            (parse_eps_rule, 1e308, "eps_rule"),
            (parse_eps_rule, 10**400, "eps_rule"),
        ],
        ids=[
            "k_rule-overflow", "k_rule-depth-overflow", "k_rule-negative-overflow",
            "k_rule-two-points", "eps_rule-two-points", "eps_rule-negative",
            "eps_rule-overflow",
            "eps_rule-json-1e400", "eps_rule-width-overflow", "eps_rule-huge-int",
        ],
    )
    def test_rules_refuse_non_finite_constants(self, parse, rule, key):
        # a rule may be refused when parsed or when evaluated at some n
        with pytest.raises(ConfigError, match=key):
            parse(rule)(40)


class TestDeltaCommand:
    def test_reference_pair(self, capsys):
        code = main(["delta", BASE_JSON, SEP_JSON, "--threshold", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0.0714285714" in out
        assert "separated" in out

    def test_identical_specs_exceptional(self, capsys):
        code = main(["delta", BASE_JSON, BASE_JSON])
        out = capsys.readouterr().out
        assert code == 0
        assert "delta = 0" in out
        assert "exceptional" in out

    def test_family_composition_is_exceptional(self, capsys):
        main(["family", "--base", BASE_JSON, "--tau", "0.05"])
        fam_out = capsys.readouterr().out
        line = [l for l in fam_out.splitlines() if l.startswith("generated:")][0]
        parts = dict(
            kv.split("=") for kv in line.replace("generated: ", "").split()
            if "=" in kv and not kv.startswith("(")
        )
        spec = json.dumps(
            {"k1": 0.5, "p1": float(parts["p1"]), "p2": float(parts["p2"]), "q": float(parts["q"])}
        )
        code = main(["delta", BASE_JSON, spec])
        out = capsys.readouterr().out
        assert code == 0
        assert "exceptional" in out

    def test_spec_file_path(self, tmp_path, capsys):
        p = tmp_path / "w.json"
        p.write_text('{"weights": [1.0], "densities": [[0.5]]}')
        code = main(["delta", str(p), str(p)])
        assert code == 0

    def test_bad_spec_exit_code(self, capsys):
        code = main(["delta", '{"weights": [0.9], "densities": [[0.5]]}', BASE_JSON])
        assert code == 2

    def test_missing_file_exit_code(self, capsys):
        code = main(["delta", "no_such_file.json", BASE_JSON])
        assert code == 2


def src_env():
    src = os.path.dirname(os.path.dirname(graphonlab.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    ))


def test_import_leaves_scipy_unloaded():
    code = (
        "import sys, graphonlab, graphonlab.cli; "
        "print(sorted(m for m in ('scipy.stats', 'scipy.linalg') if m in sys.modules))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True,
        text=True, check=True, timeout=60,
    ).stdout
    assert out.strip() == "[]"


def test_import_leaves_multiprocessing_unloaded():
    # trials run in the calling process, whatever GRAPHONLAB_WORKERS says
    code = (
        "import sys, graphonlab, graphonlab.cli; "
        "print('multiprocessing' in sys.modules); "
        "w = graphonlab.SBMParams(0.5, 0.6, 0.4, 0.2).to_step_graphon(); "
        "graphonlab.monte_carlo_error(w, w, 20, graphonlab.GCNConfig(depth=3), "
        "0.05, trials=2, seed=1); "
        "print('multiprocessing' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=dict(src_env(), GRAPHONLAB_WORKERS="2"),
        capture_output=True, text=True, check=True, timeout=60,
    ).stdout
    assert out.split() == ["False", "False"]


DEMOS = os.path.join(os.path.dirname(__file__), os.pardir, "demos")


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(DEMOS) if f.endswith(".py")))
def test_demo_runs(name):
    demo = os.path.join(DEMOS, name)
    proc = subprocess.run(
        [sys.executable, demo], env=src_env(), capture_output=True, text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def read_readme():
    with open(README) as fh:
        return fh.read()


class TestReadmeExamples:
    def test_delta_and_family_commands_run(self, capsys):
        text = read_readme()
        lines = [
            line for line in text.splitlines()
            if line.startswith(("graphonlab delta ", "graphonlab family "))
        ]
        assert len(lines) == 2
        for line in lines:
            assert main(shlex.split(line)[1:]) == 0, line

    def test_experiment_config_block_validates(self):
        text = read_readme()
        blocks = re.findall(r"```json\n(.*?)```", text, re.S)
        assert len(blocks) == 1
        _validate_experiment_config(json.loads(blocks[0]))

    @pytest.mark.parametrize(
        "module", ["graphon", "sampling", "gcn", "spectral", "testing"]
    )
    def test_library_tour_names_exist(self, module):
        rows = [
            line for line in read_readme().splitlines()
            if line.startswith(f"| `graphonlab.{module}`")
        ]
        assert len(rows) == 1
        contents = rows[0].split("|")[2]
        names = re.findall(r"`([A-Za-z_]\w*)`", contents)
        assert names
        mod = importlib.import_module(f"graphonlab.{module}")
        assert [n for n in names if not hasattr(mod, n)] == []


class TestFamilyCommand:
    def test_reference_point(self, capsys):
        code = main(["family", "--base", BASE_JSON, "--tau", "0.05"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p1=0.7" in out and "p2=0.5" in out and "q=0.1" in out
        assert "(-0.2, 0.1)" in out
        assert "q > 0" in out

    def test_tau_zero(self, capsys):
        code = main(["family", "--base", BASE_JSON, "--tau", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "p1=0.6" in out

    def test_out_of_range_names_constraint(self, capsys):
        code = main(["family", "--base", BASE_JSON, "--tau", "0.5"])
        err = capsys.readouterr().err
        assert code == 3
        assert "p1" in err  # tau=.5 drives p1 to 1.6 first


class TestMixingCommand:
    def test_complete_graph_small(self, tmp_path, capsys):
        out_dir = tmp_path / "mix"
        code = main(
            [
                "mixing",
                "--model", '{"weights": [1.0], "densities": [[1.0]]}',
                "--n-list", "4",
                "--eps", "0.3",
                "--seeds", "2",
                "--seed", "5",
                "--t-max", "50",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        rows = read_csv(out_dir / "mixing_runs.csv")
        assert rows[0] == ["n", "seed", "t_mix", "gap", "fitted_D", "status"]
        for row in rows[1:]:
            assert row[2] == "1"  # K4 mixes in one step at eps=.3
        assert (out_dir / "tv_traces.json").exists()
        assert (out_dir / "manifest.json").exists()

    def test_eps_at_least_one_gives_zero_rows(self, tmp_path, capsys):
        out_dir = tmp_path / "mix0"
        code = main(
            [
                "mixing",
                "--model", BASE_JSON,
                "--n-list", "30",
                "--eps", "1.0",
                "--seeds", "1",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        rows = read_csv(out_dir / "mixing_runs.csv")
        assert rows[1][2] == "0"

    def test_not_mixed_surfaced_per_run(self, tmp_path, capsys):
        # two-vertex samples from the all-one graphon are single edges: periodic
        out_dir = tmp_path / "mixp"
        code = main(
            [
                "mixing",
                "--model", '{"weights": [1.0], "densities": [[1.0]]}',
                "--n-list", "2",
                "--eps", "0.01",
                "--seeds", "1",
                "--t-max", "20",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        rows = read_csv(out_dir / "mixing_runs.csv")
        assert rows[1][5].startswith("not_mixed")
        assert "not mixed" in capsys.readouterr().err

    def test_lazy_chain_mixes_on_the_periodic_edge(self, tmp_path, capsys):
        # the same single edge as above: (P + I)/2 is aperiodic and mixes in one step
        out_dir = tmp_path / "mixl"
        code = main(
            [
                "mixing",
                "--model", '{"weights": [1.0], "densities": [[1.0]]}',
                "--n-list", "2",
                "--eps", "0.01",
                "--seeds", "1",
                "--t-max", "20",
                "--lazy",
                "--out-dir", str(out_dir),
            ]
        )
        assert code == 0
        rows = read_csv(out_dir / "mixing_runs.csv")
        assert (rows[1][2], rows[1][5]) == ("1", "ok")
        assert "not mixed" not in capsys.readouterr().err

    def test_runtime_failure_writes_partial_marker(self, tmp_path, capsys):
        # n=3 samples from a sparse model have isolated vertices
        out_dir = tmp_path / "mixf"
        argv = [
            "mixing",
            "--n-list", "3",
            "--seeds", "1",
            "--out-dir", str(out_dir),
        ]
        sparse = '{"weights": [1.0], "densities": [[1e-6]]}'
        assert main(argv + ["--model", sparse]) == 3
        err = capsys.readouterr().err
        assert err.startswith("model error: vertex") and "Traceback" not in err
        assert (out_dir / "PARTIAL").read_text().startswith("IsolatedVertex: vertex")
        # a later successful run into the same directory clears the marker
        assert main(argv + ["--model", '{"weights": [1.0], "densities": [[1.0]]}']) == 0
        assert not (out_dir / "PARTIAL").exists()

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        args = [
            "mixing",
            "--model", BASE_JSON,
            "--n-list", "40",
            "--eps", "0.01",
            "--seeds", "2",
            "--seed", "9",
            "--out-dir", "",
        ]
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        args[-1] = str(dir_a)
        main(list(args))
        args[-1] = str(dir_b)
        main(list(args))
        body_a = (dir_a / "mixing_runs.csv").read_bytes()
        body_b = (dir_b / "mixing_runs.csv").read_bytes()
        assert body_a == body_b
        man_a = json.loads((dir_a / "manifest.json").read_text())
        man_b = json.loads((dir_b / "manifest.json").read_text())
        assert man_a["outputs"] == man_b["outputs"]
        assert man_a["config_sha256"] == man_b["config_sha256"]


def write_experiment_config(tmp_path, **overrides):
    doc = {
        "schema_version": 1,
        "models": [json.loads(BASE_JSON), json.loads(SEP_JSON)],
        "n_list": [40],
        "k_rule": 12,
        "eps_rule": "0.017857/n",
        "activation": "identity",
        "trials": 10,
        "seed": 31,
        "output_dir": str(tmp_path / "out"),
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return path, doc


class TestExperimentCommand:
    def test_end_to_end_outputs(self, tmp_path, capsys):
        path, doc = write_experiment_config(tmp_path)
        code = main(["experiment", "--config", str(path)])
        assert code == 0
        out_dir = doc["output_dir"]
        for name in ("distances.csv", "trials.csv", "summary.csv", "report.json", "manifest.json"):
            assert os.path.exists(os.path.join(out_dir, name))
        summary = read_csv(os.path.join(out_dir, "summary.csv"))
        assert "fitted_exponent" in summary[0]
        assert "error_rate" in summary[0]
        trials = read_csv(os.path.join(out_dir, "trials.csv"))
        assert trials[0] == ["n", "trial", "seed", "label", "decision", "distance"]
        assert len(trials) == 1 + 10
        manifest = json.loads(
            open(os.path.join(out_dir, "manifest.json")).read()
        )
        assert set(manifest["outputs"]) == {
            "distances.csv", "trials.csv", "summary.csv", "report.json"
        }

    def test_manifest_records_blas_and_restores_threads(self, tmp_path, capsys, blas_threads):
        path, doc = write_experiment_config(tmp_path, trials=2, activation="tanh")
        assert main(["experiment", "--config", str(path)]) == 0
        assert blas_threads() == 2
        with open(os.path.join(doc["output_dir"], "manifest.json")) as fh:
            blas = json.load(fh)["blas"]
        assert blas["corename"] and isinstance(blas["corename"], str)
        assert {k: blas[k] for k in ("threads", "dense_path_threads")} == {
            "threads": 2, "dense_path_threads": 1,
        }

    def test_manifest_blas_null_without_the_library(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(gcn, "_numpy_openblas", lambda: None)
        path, doc = write_experiment_config(tmp_path, trials=2, activation="tanh")
        assert main(["experiment", "--config", str(path)]) == 0
        with open(os.path.join(doc["output_dir"], "manifest.json")) as fh:
            assert json.load(fh)["blas"] is None

    # n = 500 at eps = 10/n: tanh and the identity both take the float32 walk
    # here (tanh inside its bracket), under the trial loop's one-thread pin
    @pytest.mark.parametrize("activation", ["tanh", "identity"])
    def test_same_bytes_at_any_blas_thread_count(self, tmp_path, activation):
        path, doc = write_experiment_config(
            tmp_path,
            models=[json.loads(BASE_JSON),
                    {"k1": 0.5, "p1": 0.7, "p2": 0.5, "q": 0.1}],
            n_list=[500], k_rule="ceil(6*ln(n))", eps_rule="10/n",
            activation=activation, trials=1, seed=5, share_edge_randomness=True,
        )
        digests = set()
        for threads in ("1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "graphonlab.cli", "experiment", "--config", str(path)],
                env=dict(src_env(), OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            h = hashlib.sha256()
            for name in ("distances.csv", "trials.csv", "summary.csv", "report.json"):
                with open(os.path.join(doc["output_dir"], name), "rb") as fh:
                    h.update(fh.read())
            digests.add(h.hexdigest())
        assert len(digests) == 1

    def test_same_bytes_at_any_blas_thread_count_on_the_dense_path(self, tmp_path):
        # eps = 0.001/n puts tanh's bracket over the limit, so both graphs run
        # the dense float64 pass; without the one-thread pin there,
        # OPENBLAS_NUM_THREADS=1 and =2 give different bytes
        path, doc = write_experiment_config(
            tmp_path,
            models=[json.loads(BASE_JSON),
                    {"k1": 0.5, "p1": 0.7, "p2": 0.5, "q": 0.1}],
            n_list=[500], k_rule="ceil(6*ln(n))", eps_rule="0.001/n",
            activation="tanh", trials=1, seed=5, share_edge_randomness=True,
        )
        def read(name):
            with open(os.path.join(doc["output_dir"], name), "rb") as fh:
                return fh.read()

        names = ("distances.csv", "trials.csv", "summary.csv", "report.json")
        outputs = set()
        for threads in ("1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "graphonlab.cli", "experiment", "--config", str(path)],
                env=dict(src_env(), OPENBLAS_NUM_THREADS=threads),
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.add(tuple(read(name) for name in names))
        assert len(outputs) == 1
        error = json.loads(outputs.pop()[3])["error"][0]
        assert error["f32_bound_max"] is None and error["f64_fallbacks"] == 2

    def test_trials_zero_is_config_error(self, tmp_path, capsys):
        path, _ = write_experiment_config(tmp_path, trials=0)
        assert main(["experiment", "--config", str(path)]) == 2

    @pytest.mark.parametrize("key", ["trials", "seed"])
    def test_boolean_count_is_config_error(self, tmp_path, capsys, key):
        path, doc = write_experiment_config(tmp_path, **{key: True})
        with pytest.raises(ConfigError, match=key):
            _validate_experiment_config(doc)
        assert main(["experiment", "--config", str(path)]) == 2
        assert f"{key} must be an integer" in capsys.readouterr().err

    def test_range_edges_are_accepted(self, tmp_path):
        for trials, seed in ((1, 0), (100_000, 2**64 - 1)):
            _, doc = write_experiment_config(tmp_path, trials=trials, seed=seed)
            run = _validate_experiment_config(doc)
            assert (run["trials"], run["seed"]) == (trials, seed)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("share_edge_randomness", "false"),
            ("share_edge_randomness", 0),
            ("n_list", 5),
            ("n_list", [40, 10_000_000]),
            ("output_dir", 5),
            ("activation", "sigmoid"),
            ("seed", -1),
            ("seed", 2**64),
            ("seed", 2**65),
            ("trials", 100_001),
            ("eps_rule", "1e-323/n"),
            # misspelt optional keys, which would otherwise fall back to defaults
            ("activaton", "tanh"),
            ("share_edge_randomnes", True),
            # keys that no longer exist: the floor and envelope constants are
            # 1, and a config that sets either, to any value, is refused
            ("const_c", 1.0),
            ("envelope_const", 1.0),
            ("const_c", "x"),
            ("const_c", True),
            ("const_c", 0.0),
            ("const_c", float("inf")),
            ("const_c", 10**400),
            ("envelope_const", None),
            ("envelope_const", -1.0),
            ("envelope_const", float("nan")),
        ],
        ids=[
            "share-string", "share-int", "n_list-int", "n_list-huge",
            "output_dir-int", "activation-sigmoid", "seed-negative", "seed-2^64",
            "seed-2^65", "trials-over-cap", "eps_rule-underflow",
            "unknown-activaton", "unknown-share_edge_randomnes",
            "unknown-const_c", "unknown-envelope_const", "const_c-string",
            "const_c-bool", "const_c-zero", "const_c-inf", "const_c-huge-int",
            "envelope-null", "envelope-negative", "envelope-nan",
        ],
    )
    def test_optional_key_type_is_config_error(
        self, tmp_path, monkeypatch, capsys, key, value
    ):
        monkeypatch.chdir(tmp_path)  # a relative output_dir would land here
        path, doc = write_experiment_config(tmp_path, **{key: value})
        # the activation check raises the library's InvalidModel, which main()
        # reports as a config error like any other
        with pytest.raises((ConfigError, InvalidModel), match=key):
            cli._plan_experiment(str(path))
        assert main(["experiment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("key", ["output_dir", "models"])
    def test_nul_in_path_is_config_error(self, tmp_path, monkeypatch, capsys, key):
        monkeypatch.chdir(tmp_path)
        value = ["o\0x", json.loads(BASE_JSON)] if key == "models" else "o\0x"
        path, _ = write_experiment_config(tmp_path, **{key: value})
        assert main(["experiment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "'o\\x00x'" in err
        assert "Traceback" not in err
        assert os.listdir(tmp_path) == ["config.json"]

    def test_report_json_keys(self, tmp_path, capsys):
        path, doc = write_experiment_config(tmp_path, trials=3)
        assert main(["experiment", "--config", str(path)]) == 0
        with open(os.path.join(doc["output_dir"], "report.json")) as fh:
            report = json.load(fh)
        assert list(report) == ["fitted_exponent", "distance", "error"]
        assert list(report["distance"][0]) == [
            "n", "K", "trials", "seed", "median", "p95", "envelope", "regime",
            "delta", "frac_small_coords", "coord_tol_const",
            "shared_edge_randomness", "distances",
        ]
        error = report["error"][0]
        assert list(error) == [
            "n", "K", "eps_res", "trials", "seed", "error_rate", "ci_low",
            "ci_high", "mean_conditional_tv", "lecam_floor", "formula_floor",
            "formula_raw", "regime", "delta", "f32_bound_max", "walk_steps_median",
            "walk_steps_max", "f64_fallbacks", "trials_detail",
        ]
        # identity activation: all six graphs certified in float32, as the
        # stationary law within K steps
        assert 0 < error["f32_bound_max"] <= error["eps_res"] / 4
        assert 0 <= error["walk_steps_median"] <= error["walk_steps_max"] < error["K"]
        assert error["f64_fallbacks"] == 0
        assert len(error["trials_detail"]) == 3
        assert list(error["trials_detail"][0]) == [
            "trial", "seed", "label", "decision", "distance",
        ]

    def test_shallow_walk_embeds_in_float64(self, tmp_path, capsys):
        # at K = 2 the walk is far from pi, so no certificate closes and
        # every graph is embedded as without a limit
        path, doc = write_experiment_config(
            tmp_path, n_list=[60, 120], k_rule=2, trials=4, seed=5,
            share_edge_randomness=True,
        )
        assert main(["experiment", "--config", str(path)]) == 0
        with open(os.path.join(doc["output_dir"], "report.json")) as fh:
            report = json.load(fh)
        for error in report["error"]:
            assert error["f64_fallbacks"] == 8 and error["f32_bound_max"] is None
            assert error["walk_steps_max"] == 2
        rows = read_csv(os.path.join(doc["output_dir"], "trials.csv"))[1:]
        w0, w1 = (cli._load_model(m) for m in doc["models"])
        for idx, n in enumerate(doc["n_list"]):
            stats = embedding_distance_experiment(
                w0, w1, n, gcn.GCNConfig(2), 4, seed=derive_seed(5, 2 * idx),
                share_edge_randomness=True,
            )
            got = [float(r[5]) for r in rows if int(r[0]) == n]
            assert got == list(stats.distances)

    @pytest.mark.parametrize(
        "key, rule",
        [
            ("k_rule", "ceil(1e400*ln(n))"),
            ("k_rule", "ceil(1e308*ln(n))"),
            ("eps_rule", 1e308),
            ("k_rule", 1000000000),
            ("k_rule", "ceil(1e12*ln(n))"),
        ],
        ids=[
            "k_rule-1e400", "k_rule-1e308", "eps_rule-1e308", "k_rule-deep-int",
            "k_rule-deep-rule",
        ],
    )
    def test_overflowing_rule_is_config_error(self, tmp_path, capsys, key, rule):
        path, doc = write_experiment_config(tmp_path, **{key: rule})
        assert main(["experiment", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and key in err
        assert "Traceback" not in err
        assert not os.path.exists(doc["output_dir"])

    def test_bad_schema_version(self, tmp_path, capsys):
        path, _ = write_experiment_config(tmp_path, schema_version=99)
        assert main(["experiment", "--config", str(path)]) == 2

    def test_missing_config_file(self, capsys):
        assert main(["experiment", "--config", "missing.json"]) == 2

    def test_rerun_byte_identical_csvs(self, tmp_path, capsys):
        path_a, doc_a = write_experiment_config(tmp_path, output_dir=str(tmp_path / "oa"))
        main(["experiment", "--config", str(path_a)])
        path_b, doc_b = write_experiment_config(tmp_path, output_dir=str(tmp_path / "ob"))
        main(["experiment", "--config", str(path_b)])
        for name in ("distances.csv", "trials.csv", "summary.csv"):
            a = open(os.path.join(doc_a["output_dir"], name), "rb").read()
            b = open(os.path.join(doc_b["output_dir"], name), "rb").read()
            assert a == b

    def test_runtime_failure_writes_partial_marker(self, tmp_path, capsys):
        # n=2 samples from a sparse model quickly produce isolated vertices
        path, doc = write_experiment_config(
            tmp_path,
            models=[
                {"weights": [1.0], "densities": [[1e-6]]},
                {"weights": [1.0], "densities": [[1e-6]]},
            ],
            n_list=[3],
            trials=3,
        )
        code = main(["experiment", "--config", str(path)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("model error: vertex") and "Traceback" not in err
        with open(os.path.join(doc["output_dir"], "PARTIAL")) as fh:
            assert fh.read().startswith("IsolatedVertex: vertex")

    def test_each_coupled_pair_is_sampled_and_embedded_once(
        self, tmp_path, monkeypatch, capsys
    ):
        from graphonlab import testing

        calls = []  # appended from the trial loop's worker thread too
        for name in ("sample_coupled", "graph_embedding"):
            def counted(*args, _real=getattr(testing, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(testing, name, counted)
        path, doc = write_experiment_config(tmp_path, n_list=[40, 60], trials=3)
        assert main(["experiment", "--config", str(path)]) == 0
        pairs = doc["trials"] * len(doc["n_list"])
        assert calls.count("sample_coupled") == pairs
        assert calls.count("graph_embedding") == 2 * pairs

    def test_memory_error_is_one_line_exit_3(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.00 GiB for an array")

        monkeypatch.setattr(cli, "monte_carlo_error", failing)
        path, doc = write_experiment_config(tmp_path, trials=2)
        assert main(["experiment", "--config", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("model error: out of memory")
        assert err.count("\n") == 1 and "Traceback" not in err
        with open(os.path.join(doc["output_dir"], "PARTIAL")) as fh:
            assert fh.read().startswith("MemoryError: Unable to allocate")

    def test_unexpected_failure_writes_partial_marker(self, tmp_path, monkeypatch, capsys):
        def failing(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "monte_carlo_error", failing)
        path, doc = write_experiment_config(tmp_path, trials=2)
        marker = os.path.join(doc["output_dir"], "PARTIAL")
        with pytest.raises(RuntimeError, match="boom"):
            main(["experiment", "--config", str(path)])
        with open(marker) as fh:
            assert fh.read() == "RuntimeError: boom\n"
        # a successful rerun into the same directory clears the marker
        monkeypatch.undo()
        assert main(["experiment", "--config", str(path)]) == 0
        assert not os.path.exists(marker)


MALFORMED_SPECS = {
    "string_k1": '{"k1": "a", "p1": 0.6, "p2": 0.4, "q": 0.2}',
    "string_densities": '{"weights": [1.0], "densities": "x"}',
    "missing_densities": '{"weights": [1.0]}',
    "extra_key": '{"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2, "qq": 3}',
    "both_forms": '{"k1": 0.5, "p1": 0.6, "p2": 0.4, "q": 0.2, '
                  '"weights": [1.0], "densities": [[0.5]]}',
    # spec file paths that exist but cannot be read as text
    "directory": "<dir>",
    "non_utf8": "<bad>",
}


class TestMalformedSpecs:
    def run_command(self, tmp_path, command, spec):
        spec = path_placeholders(tmp_path).get(spec, spec)
        if command == "delta":
            return main(["delta", spec, BASE_JSON])
        if command == "family":
            return main(["family", "--base", spec, "--tau", "0"])
        if command == "mixing":
            return main(
                ["mixing", "--model", spec, "--n-list", "10", "--seeds", "1",
                 "--out-dir", str(tmp_path / "mix")]
            )
        path, _ = write_experiment_config(
            tmp_path,
            models=[json.loads(spec) if spec.startswith("{") else spec, json.loads(BASE_JSON)],
        )
        return main(["experiment", "--config", str(path)])

    @pytest.mark.parametrize("spec", MALFORMED_SPECS.values(), ids=MALFORMED_SPECS)
    @pytest.mark.parametrize("command", ["delta", "family", "mixing", "experiment"])
    def test_config_error_without_traceback(self, tmp_path, capsys, command, spec):
        assert self.run_command(tmp_path, command, spec) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:")
        assert "Traceback" not in err
        assert not (tmp_path / "mix").exists() and not (tmp_path / "out").exists()


PROFILE_ARGS = ["dataset-profile", "--dir", "graphs", "--labels", "labels.csv"]


@pytest.mark.parametrize(
    "argv, name",
    [
        (["mixing", "--model", BASE_JSON, "--n-list", "a,b"], "--n-list"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--eps", "inf"], "--eps"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--eps", "nan"], "--eps"),
        (PROFILE_ARGS + ["--grid-length", "0"], "--grid-length"),
        (PROFILE_ARGS + ["--grid-length", "-3"], "--grid-length"),
        (PROFILE_ARGS + ["--grid-length", "10000000000000"], "--grid-length"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--t-max", "0"], "--t-max"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--t-max", "10001"], "--t-max"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30,10000000"], "--n-list"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--seeds", "0"], "--seeds"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--seeds", "100001"],
         "--seeds"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--seed", "-5"], "--seed"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--seed", str(2**64)],
         "--seed"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--eps", "1e-323/n^2"],
         "--eps"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--seeds", "x"], "--seeds"),
        (["mixing", "--model", "m\0x", "--n-list", "30"], "'m\\x00x'"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--out-dir", "o\0x"],
         "'o\\x00x'"),
        (["experiment"], "--config"),
        (["delta", BASE_JSON, BASE_JSON, "--threshold", "nan"], "--threshold"),
        (["family", "--base", BASE_JSON, "--tau", "nan"], "--tau"),
        (["family", "--base", BASE_JSON, "--tau", "inf"], "--tau"),
        (["delta", "<dir>", "<dir>"], "<dir>"),
        (["delta", "<bad>", "<bad>"], "<bad>"),
        (["experiment", "--config", "<dir>"], "<dir>"),
        (["experiment", "--config", "<bad>"], "<bad>"),
        (["experiment", "--config", "<config>"], "<file>"),
        (["mixing", "--model", BASE_JSON, "--n-list", "30", "--out-dir", "<file>"],
         "<file>"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<labels>",
          "--out-dir", "<file>"], "<file>"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<dir>"], "<dir>"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<bad>"], "<bad>"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<labels-subdir>"], "['sub']"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<labels-twice>"], "'a.edges'"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<labels-long-field>"],
         "<labels-long-field>"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<labels-parent>"],
         "'../outside.txt'"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<labels-absolute>"],
         "<outside>"),
        (["dataset-profile", "--dir", "<dir>", "--labels", "<labels-one-field>"],
         "labels row needs filename,label: ['a.edges']"),
        (["dataset-profile", "--dir", "<out>", "--labels", "<labels>"],
         "dataset directory not found"),
        (["delta", "{not json", BASE_JSON], "model spec is not valid JSON"),
        (["experiment", "--config", "<config-not-json>"], "config is not valid JSON"),
        (["experiment", "--config", "<config-list>"], "must be a JSON object"),
        (["experiment", "--config", "<config-no-trials>"], "missing 'trials'"),
        (["experiment", "--config", "<config-one-model>"], "exactly two specs"),
        (["experiment", "--config", "<config-model-number>"],
         "malformed model spec: TypeError"),
        (["experiment", "--config", "<config-model-null>"],
         "malformed model spec: TypeError"),
    ],
    ids=[
        "n-list-letters", "eps-inf", "eps-nan", "grid-length-zero",
        "grid-length-negative", "grid-length-huge", "t-max-zero", "t-max-huge",
        "n-list-huge", "seeds-zero", "seeds-huge", "seed-negative", "seed-2^64",
        "eps-underflow", "seeds-not-int", "model-nul", "out-dir-nul",
        "missing-config", "threshold-nan", "tau-nan", "tau-inf",
        "delta-directory", "delta-non-utf8", "config-directory",
        "config-non-utf8", "experiment-out-dir-file", "mixing-out-dir-file",
        "profile-out-dir-file", "labels-directory", "labels-non-utf8",
        "labeled-name-directory", "labels-repeated-name", "labels-field-too-long",
        "labeled-name-parent", "labeled-name-absolute", "labels-one-field",
        "missing-dataset-dir", "spec-not-json", "config-not-json",
        "config-not-object", "config-missing-key", "config-one-model",
        "config-model-number", "config-model-null",
    ],
)
def test_bad_argument_is_config_error(tmp_path, capsys, argv, name):
    paths = path_placeholders(tmp_path)
    if argv[0] in ("mixing", "dataset-profile") and "--out-dir" not in argv:
        argv = argv + ["--out-dir", "<out>"]
    before = tree(tmp_path)
    assert main([paths.get(a, a) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and paths.get(name, name) in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert tree(tmp_path) == before  # no output directory, no file written


@pytest.mark.parametrize("argv, blocked", [
    (["experiment", "--config", "<config>"], "summary.csv"),
    (["mixing", "--model", BASE_JSON, "--n-list", "30", "--out-dir", "<out>"],
     "tv_traces.json"),
    (["dataset-profile", "--dir", "<dir>", "--labels", "<labels>", "--out-dir", "<out>"],
     "class_profiles.csv"),
], ids=["experiment", "mixing", "dataset-profile"])
def test_unwritable_output_is_one_line_exit_2(tmp_path, capsys, argv, blocked):
    # a directory where an output file belongs
    paths = path_placeholders(tmp_path)
    paths["<config>"], _ = write_experiment_config(
        tmp_path, output_dir=paths["<out>"], trials=2)
    target = os.path.join(paths["<out>"], blocked)
    os.makedirs(target)
    assert main([str(paths.get(a, a)) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot write output:") and target in err
    assert err.count("\n") == 1 and "Traceback" not in err
    with open(os.path.join(paths["<out>"], "PARTIAL")) as fh:
        marker = fh.read()
    assert marker.startswith("IsADirectoryError:") and repr(target) in marker


def test_byte_order_mark_is_ignored(tmp_path, monkeypatch, capsys):
    # the same inputs with and without a leading UTF-8 byte-order mark, each
    # set run from its own directory under the same relative paths
    inputs = {
        "m0.json": BASE_JSON,
        "config.json": json.dumps({
            "schema_version": 1, "models": ["m0.json", json.loads(SEP_JSON)],
            "n_list": [40], "k_rule": 5, "eps_rule": "0.017857/n", "trials": 2,
            "seed": 3, "output_dir": "exp",
        }),
        "labels.csv": "filename,label\na.edges,x\nb.edges,y\n",
        "graphs/a.edges": "0 1\n1 2\n",
        "graphs/b.edges": "0 1\n1 2\n2 3\n",
    }
    runs = []
    for bom in (b"", b"\xef\xbb\xbf"):
        root = tmp_path / ("bom" if bom else "plain")
        (root / "graphs").mkdir(parents=True)
        for name, text in inputs.items():
            (root / name).write_bytes(bom + text.encode())
        monkeypatch.chdir(root)
        codes = [
            main(["experiment", "--config", "config.json"]),
            main(["delta", "m0.json", SEP_JSON]),
            main(["dataset-profile", "--dir", "graphs", "--labels", "labels.csv",
                  "--out-dir", "prof"]),
        ]
        captured = capsys.readouterr()
        assert codes == [0, 0, 0], captured.err
        outputs = {}
        for path in sorted((root / "exp").iterdir()) + sorted((root / "prof").iterdir()):
            data = path.read_bytes()
            if path.name == "manifest.json":
                data = {k: v for k, v in json.loads(data).items() if k != "timestamp"}
            outputs[str(path.relative_to(root))] = data
        runs.append((codes, captured.out, captured.err, outputs))
    assert runs[1] == runs[0]


class TestDatasetProfileCommand:
    def make_dataset(self, tmp_path, w0, w1, n, per_class, seed0=100, seed1=200):
        data_dir = tmp_path / "graphs"
        data_dir.mkdir()
        rows = []
        from graphonlab.seeding import derive_seed

        for i in range(per_class):
            g = sample_graph(w0, n, seed=derive_seed(seed0, i))
            name = f"a{i}.edges"
            save_edge_list(g, data_dir / name, sidecar=False)
            rows.append((name, "classA"))
        for i in range(per_class):
            g = sample_graph(w1, n, seed=derive_seed(seed1, i))
            name = f"b{i}.edges"
            save_edge_list(g, data_dir / name, sidecar=False)
            rows.append((name, "classB"))
        labels = tmp_path / "labels.csv"
        with open(labels, "w") as fh:
            fh.write("filename,label\n")
            for name, label in rows:
                fh.write(f"{name},{label}\n")
        return data_dir, labels

    def test_separated_classes_recover_delta(self, tmp_path, capsys):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        n = 300
        data_dir, labels = self.make_dataset(tmp_path, w0, w1, n, per_class=6)
        code = main(
            [
                "dataset-profile",
                "--dir", str(data_dir),
                "--labels", str(labels),
                "--out-dir", str(tmp_path / "prof"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        delta_line = [l for l in out.splitlines() if "empirical delta" in l][0]
        measured = float(delta_line.split("=")[1])
        assert abs(measured - 1 / 14) <= 2.0 / np.sqrt(n)
        rows = read_csv(tmp_path / "prof" / "class_profiles.csv")
        assert rows[0] == ["grid_u", "mean_classA", "mean_classB"]
        assert len(rows) == 101

    def test_family_classes_near_zero_delta(self, tmp_path, capsys):
        from graphonlab import FamilySpec, family_generate

        w0 = SBM_BASE.to_step_graphon()
        w1 = family_generate(FamilySpec(SBM_BASE, 0.05)).to_step_graphon()
        n = 300
        data_dir, labels = self.make_dataset(tmp_path, w0, w1, n, per_class=6)
        code = main(
            [
                "dataset-profile",
                "--dir", str(data_dir),
                "--labels", str(labels),
                "--out-dir", str(tmp_path / "prof"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        measured = float(
            [l for l in out.splitlines() if "empirical delta" in l][0].split("=")[1]
        )
        assert measured <= 2.0 / np.sqrt(n)

    def test_empty_directory_error(self, tmp_path, capsys):
        (tmp_path / "empty").mkdir()
        labels = tmp_path / "labels.csv"
        labels.write_text("filename,label\n")
        code = main(
            [
                "dataset-profile",
                "--dir", str(tmp_path / "empty"),
                "--labels", str(labels),
                "--out-dir", str(tmp_path / "prof"),
            ]
        )
        assert code == 2

    def test_missing_labels_file(self, tmp_path, capsys):
        (tmp_path / "d").mkdir()
        code = main(
            [
                "dataset-profile",
                "--dir", str(tmp_path / "d"),
                "--labels", str(tmp_path / "nope.csv"),
                "--out-dir", str(tmp_path / "prof"),
            ]
        )
        assert code == 2

    def test_no_readable_graph_is_config_error_first(self, tmp_path, capsys):
        data_dir = tmp_path / "graphs"
        data_dir.mkdir()
        (data_dir / "bad.edges").write_text("x y\n")
        (data_dir / "odd.edges").write_text("0 1 2\n")
        labels = tmp_path / "labels.csv"
        labels.write_text("filename,label\nbad.edges,classA\nodd.edges,classB\n")
        code = main(
            [
                "dataset-profile",
                "--dir", str(data_dir),
                "--labels", str(labels),
                "--out-dir", str(tmp_path / "prof"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("config error: no readable graphs")
        assert "skipping" not in captured.err
        assert not (tmp_path / "prof").exists()

    def self_loop_dataset(self, tmp_path, labels):
        data_dir = tmp_path / "graphs"
        data_dir.mkdir()
        (data_dir / "loop.edges").write_text("0 1\n1 1\n1 2\n")
        (data_dir / "path.edges").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "labels.csv").write_text(labels)
        return ["dataset-profile", "--dir", str(data_dir),
                "--labels", str(tmp_path / "labels.csv"),
                "--out-dir", str(tmp_path / "prof")]

    def test_self_loop_warning_is_held_behind_config_error(self, tmp_path, capsys):
        argv = self.self_loop_dataset(tmp_path, "loop.edges,classA\n")
        before = tree(tmp_path)
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: need exactly two classes")
        assert "UserWarning" not in err and "self-loop" not in err
        assert escaped == []
        assert tree(tmp_path) == before

    def test_self_loop_warning_is_one_line(self, tmp_path, capsys):
        argv = self.self_loop_dataset(
            tmp_path, "loop.edges,classA\npath.edges,classB\n"
        )
        with warnings.catch_warnings(record=True) as escaped:
            warnings.simplefilter("always")
            assert main(argv) == 0
        err = capsys.readouterr().err
        assert err == "warning: loop.edges: dropped 1 self-loop(s)\n"
        assert escaped == []

    def test_name_in_a_subdirectory_is_read(self, tmp_path, capsys):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        data_dir, labels = self.make_dataset(tmp_path, w0, w1, 80, per_class=1)
        (data_dir / "sub").mkdir()
        (data_dir / "b0.edges").rename(data_dir / "sub" / "b0.edges")
        labels.write_text("a0.edges,classA\nsub/b0.edges,classB\n")
        out_dir = tmp_path / "prof"
        argv = ["dataset-profile", "--dir", str(data_dir), "--labels", str(labels)]
        assert main(argv + ["--out-dir", str(out_dir)]) == 0
        names = {row[0] for row in read_csv(out_dir / "per_graph_profiles.csv")[1:]}
        assert names == {"a0.edges", "sub/b0.edges"}

    def test_unreadable_file_skipped_with_warning(self, tmp_path, capsys):
        w0 = SBM_BASE.to_step_graphon()
        w1 = SBM_SEPARATED.to_step_graphon()
        data_dir, labels = self.make_dataset(tmp_path, w0, w1, 80, per_class=2)
        (data_dir / "bad.edges").write_text("x y\n")
        (data_dir / "huge.edges").write_text("0 100000000000\n")
        (data_dir / "latin.edges").write_bytes(b"0 1\n1 \xe9\n")
        with open(labels, "a") as fh:
            fh.write("bad.edges,classA\nhuge.edges,classB\nlatin.edges,classA\n")
        code = main(
            [
                "dataset-profile",
                "--dir", str(data_dir),
                "--labels", str(labels),
                "--out-dir", str(tmp_path / "prof"),
            ]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "skipping bad.edges" in captured.err
        assert "skipping huge.edges" in captured.err
        assert "skipping latin.edges" in captured.err
        assert "skipped 3 unreadable file(s)" in captured.err
        assert "Traceback" not in captured.err
