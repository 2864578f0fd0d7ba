"""Command-line front end: model diagnostics and reproducible experiment runs.

Commands
--------
delta            degree-profile distance and exceptional/separated verdict
family           degree-preserving SBM family point and tau validity range
mixing           mixing-time scaling runs, CSV plus full TV traces
experiment       coupled-distance + error-rate experiment from a JSON config
dataset-profile  per-class degree profiles and empirical delta for edge lists

All randomness is controlled by --seed (or the config's seed). Commands that
write files also write a manifest with a config hash and per-output checksums;
rerunning with the same inputs reproduces byte-identical CSV bodies. Exit
codes: 0 success, 2 config error, 3 runtime model error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import __version__
from .errors import GraphonLabError, InvalidModel, NotMixed
from .gcn import Activation, GCNConfig, blas_info
from .graphon import (
    SBMParams,
    delta_distance,
    family_binding_constraints,
    family_generate,
    family_validity_range,
    FamilySpec,
    normalized_degree_profile,
    parse_model_spec,
)
from .sampling import (
    MAX_EDGE_LIST_VERTICES,
    empirical_degree_profile,
    load_edge_list,
    sample_graph,
)
from .seeding import derive_seed
from .spectral import RWChain, mixing_time
from .testing import (
    COORD_TOL_CONST,
    check_distance_activation,
    distance_stats,
    embedding_distance_experiment,  # unused here; perfbench's tracer hooks this name
    fit_decay_exponent,
    monte_carlo_error,
)

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Bad command-line or config-file input (exit code 2)."""


def _read_text(path, what) -> str:
    """A UTF-8 text file's contents; a file that cannot be opened or decoded
    is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            return fh.read()
    except FileNotFoundError:
        raise ConfigError(f"{what} not found: {path}") from None
    except (OSError, UnicodeDecodeError, ValueError) as exc:  # ValueError: a NUL
        raise ConfigError(f"cannot read {what} {path!r}: {exc}") from None


def _parse_json(text, what):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # JSONDecodeError is a ValueError
        raise ConfigError(f"{what} is not valid JSON: {exc}") from None


def _make_out_dir(path) -> str:
    try:
        os.makedirs(path, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise ConfigError(f"cannot make output directory {path!r}: {exc}") from None
    return path


def _load_model(entry, sbm: bool = False):
    """Model spec from a parsed dict, inline JSON or a file path.

    Returns a StepGraphon, or with ``sbm`` the SBMParams of a two-block
    {"k1","p1","p2","q"} spec. A spec whose fields have the wrong type or are
    missing is a ConfigError.
    """
    kind = "SBM" if sbm else "model"
    if isinstance(entry, str):
        text = entry.strip()
        if not text.startswith("{"):
            text = _read_text(text, f"{kind} spec file")
        entry = _parse_json(text, f"{kind} spec")
    try:
        if not sbm:
            return parse_model_spec(entry)
        missing = {"k1", "p1", "p2", "q"} - set(entry)
        if missing:
            raise ConfigError(f"SBM spec missing fields: {sorted(missing)}")
        return SBMParams(entry["k1"], entry["p1"], entry["p2"], entry["q"])
    except GraphonLabError:  # InvalidModel is also a ValueError; keep its message
        raise
    except (TypeError, ValueError, KeyError, OverflowError) as exc:
        raise ConfigError(f"malformed {kind} spec: {exc!r}") from None


_K_RULE_RE = re.compile(r"^ceil\(\s*([0-9.eE+-]+)\s*\*\s*ln\(n\)\s*\)$")
_EPS_RULE_RE = re.compile(r"^([0-9.eE+-]+)\s*/\s*n(\^?2)?$")

# every bounded integer input, (lowest, highest) inclusive, read by _int_in
_RANGES = {
    # a sampled graph's n: the dense-adjacency cap
    "size": (2, MAX_EDGE_LIST_VERTICES),
    # bounds both the GCN depth K and mixing's --t-max, each a count of dense
    # n x n products; the deepest rule in use, ceil(6*ln(n)), is 42 at n = 1000
    "depth": (1, 10_000),
    # an experiment's trials per n and mixing's --seeds; below 100,003, so
    # mixing's run indices n * 100003 + j stay distinct across sizes
    "count": (1, 100_000),
    # seeds are 64-bit: a seed outside [0, 2^64) would run another seed's trials
    "seed": (0, 2**64 - 1),
    # a profile has at most MAX_EDGE_LIST_VERTICES values; a longer grid only
    # repeats them
    "grid": (1, MAX_EDGE_LIST_VERTICES),
}


def _int_in(value, name, kind):
    """value if it is an int (not a bool) in _RANGES[kind]; else a ConfigError."""
    lo, hi = _RANGES[kind]
    if isinstance(value, bool) or not isinstance(value, int) or not lo <= value <= hi:
        raise ConfigError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
    return value


def _number(value, name, lowest=-math.inf, above=-math.inf):
    """float(value) if value is a finite number (not a bool), >= lowest and
    > above; else a ConfigError."""
    x = math.nan
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int beyond the float range
            pass
    if not (math.isfinite(x) and x >= lowest and x > above):
        bound = (f" >= {lowest:g}" if lowest > -math.inf
                 else f" > {above:g}" if above > -math.inf else "")
        raise ConfigError(f"{name} must be a finite number{bound}, got {value!r}")
    return x


def parse_k_rule(rule):
    """Depth rule: explicit integer or 'ceil(D*ln(n))'.

    The returned rule raises ConfigError at an n where the depth is outside
    _RANGES["depth"], which includes D*ln(n) overflowing.
    """
    if isinstance(rule, int) and not isinstance(rule, bool):
        _int_in(rule, "k_rule", "depth")
        return lambda n: rule
    m = _K_RULE_RE.match(rule.strip()) if isinstance(rule, str) else None
    try:
        d = float(m.group(1) if m else "")
    except ValueError:
        raise ConfigError(
            f"cannot parse k_rule {rule!r}; use an int or 'ceil(D*ln(n))'"
        ) from None

    def depth(n):
        k = d * math.log(n)
        # a k far outside the range (inf, NaN) is refused as it stands
        k = math.ceil(k) if abs(k) <= _RANGES["depth"][1] else k
        return _int_in(k, f"k_rule {rule!r} at n = {n}", "depth")

    return depth


def parse_eps_rule(rule, name="eps_rule"):
    """Noise rule: a number, 'c/n' or 'c/n^2' (eps_rule and mixing --eps).

    The noise is uniform on [-eps, eps], so the returned rule raises
    ConfigError at an n where eps is not positive or 2*eps overflows; a tiny
    c can underflow to eps = 0.
    """
    m = _EPS_RULE_RE.match(rule.strip()) if isinstance(rule, str) else None
    text, power = (m.group(1), 2 if m.group(2) else 1) if m else (rule, 0)
    try:
        if isinstance(text, bool):
            raise TypeError(text)
        c = float(text)
    except OverflowError:  # an int beyond the float range
        c = math.inf
    except (TypeError, ValueError):
        raise ConfigError(
            f"cannot parse {name} {rule!r}; use a number, 'c/n' or 'c/n^2'"
        ) from None

    def eps(n):
        value = c / n**power
        if not (value > 0 and math.isfinite(2 * value)):
            raise ConfigError(
                f"{name} {rule!r} gives eps = {value!r} at n = {n}; eps must be "
                "positive, with 2*eps finite"
            )
        return value

    return eps


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir, config_doc, outputs):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "artifact_version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        # output bytes depend on the OpenBLAS core kernel, so record it
        "blas": blas_info(),
        "config_sha256": hashlib.sha256(
            json.dumps(config_doc, sort_keys=True).encode()
        ).hexdigest(),
        "outputs": {os.path.basename(p): _sha256(p) for p in outputs},
    }
    path = os.path.join(out_dir, "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


# ---------------------------------------------------------------- commands


def cmd_delta(args) -> int:
    threshold = _number(args.threshold, "--threshold", 0.0)
    w0 = _load_model(args.model0)
    w1 = _load_model(args.model1)
    d = delta_distance(w0, w1)
    print(f"delta = {d:.12g}")
    for tag, w in (("model0", w0), ("model1", w1)):
        prof = normalized_degree_profile(w)
        pairs = " ".join(
            f"({wt:.6g}, {val:.10g})" for wt, val in zip(prof.weights, prof.values)
        )
        print(f"{tag} normalized degree profile: {pairs}")
    verdict = "exceptional" if d <= threshold + 1e-12 else "separated"
    print(f"verdict at threshold {threshold:g}: {verdict}")
    return 0


def cmd_family(args) -> int:
    tau = _number(args.tau, "--tau")
    base = _load_model(args.base, sbm=True)
    lo, hi = family_validity_range(base)
    binding = family_binding_constraints(base)
    point = family_generate(FamilySpec(base=base, tau=tau))
    print(
        f"generated: p1={point.p1:.12g} p2={point.p2:.12g} q={point.q:.12g} "
        f"(k1={point.k1:g})"
    )
    print(
        f"tau validity range: ({lo:.12g}, {hi:.12g}); "
        f"binding: lower {binding['lower']}, upper {binding['upper']}"
    )
    base_prof = normalized_degree_profile(base.to_step_graphon())
    gen_prof = normalized_degree_profile(point.to_step_graphon())
    drift = float(np.abs(base_prof.values - gen_prof.values).max())
    print(
        "note: only the offset direction (1/k1, k1/k2^2, -1/k2) keeps the "
        f"expected degree profile fixed; componentwise drift here = {drift:.3g}. "
        "Cross-checking any externally quoted parameter triple against this "
        "footprint is recommended before treating it as degree-matched."
    )
    return 0


def _n_list(sizes, name):
    """A nonempty list of graph sizes, each in _RANGES["size"]."""
    if not isinstance(sizes, list) or not sizes:
        raise ConfigError(f"{name} must be a nonempty list of sizes, got {sizes!r}")
    return [_int_in(n, f"each {name} size", "size") for n in sizes]


def cmd_mixing(args) -> int:
    w = _load_model(args.model)
    try:
        n_list = [int(x) for x in args.n_list.split(",") if x]
    except ValueError:
        n_list = args.n_list  # not a list of integers: _n_list names it
    n_list = _n_list(n_list, "--n-list")
    _int_in(args.seeds, "--seeds", "count")
    _int_in(args.t_max, "--t-max", "depth")
    _int_in(args.seed, "--seed", "seed")
    eps_rule = parse_eps_rule(args.eps, "--eps")
    eps_list = [eps_rule(n) for n in n_list]
    _make_out_dir(args.out_dir)

    rows = []
    traces = []
    for n, eps in zip(n_list, eps_list):
        for j in range(args.seeds):
            run_seed = derive_seed(args.seed, n * 100003 + j)
            g = sample_graph(w, n, run_seed)
            try:
                chain = RWChain.from_graph(g)
                if args.lazy:
                    chain = chain.lazy()
                report = mixing_time(chain, eps, args.t_max)
                slope = report.fitted_slope
                rows.append(
                    [
                        n,
                        run_seed,
                        report.t_mix,
                        f"{report.gap:.12g}",
                        "" if slope is None else f"{slope:.12g}",
                        "ok",
                    ]
                )
                trace = report.worst_row_tv_trace
            except NotMixed as exc:
                rows.append([n, run_seed, "", "", "", f"not_mixed(t_max={exc.t_max})"])
                trace = exc.trace
                print(
                    f"warning: n={n} seed={run_seed} not mixed within {exc.t_max}",
                    file=sys.stderr,
                )
            traces.append(
                {"n": n, "seed": run_seed, "eps": eps, "trace": [list(p) for p in trace]}
            )

    runs_csv = os.path.join(args.out_dir, "mixing_runs.csv")
    _write_csv(runs_csv, ["n", "seed", "t_mix", "gap", "fitted_D", "status"], rows)
    traces_path = os.path.join(args.out_dir, "tv_traces.json")
    with open(traces_path, "w") as fh:
        json.dump(traces, fh)
        fh.write("\n")
    config_doc = {
        "command": "mixing",
        "model": args.model,
        "n_list": n_list,
        "eps": args.eps,
        "seeds": args.seeds,
        "seed": args.seed,
        "t_max": args.t_max,
        "lazy": args.lazy,
    }
    _write_manifest(args.out_dir, config_doc, [runs_csv, traces_path])
    print(f"wrote {runs_csv}")
    return 0


def _validate_experiment_config(doc) -> dict:
    """Check an experiment config; return the settings every n shares, with
    the optional keys' defaults filled in."""
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a JSON object")
    version = doc.get("schema_version")
    if isinstance(version, bool) or version != SCHEMA_VERSION:  # true == 1
        raise ConfigError(f"config schema_version must be {SCHEMA_VERSION}")
    for key in ("models", "n_list", "k_rule", "eps_rule", "trials", "seed", "output_dir"):
        if key not in doc:
            raise ConfigError(f"experiment config missing {key!r}")
    models = doc["models"]
    if not (isinstance(models, list) and len(models) == 2):
        raise ConfigError("models must be a list of exactly two specs")
    _n_list(doc["n_list"], "n_list")
    if not isinstance(doc["output_dir"], str) or not doc["output_dir"]:
        raise ConfigError("output_dir must be a nonempty string")
    share = doc.get("share_edge_randomness", False)
    if not isinstance(share, bool):
        raise ConfigError("share_edge_randomness must be true or false")
    activation = Activation(doc.get("activation", "identity"))
    check_distance_activation(activation)
    return dict(
        trials=_int_in(doc["trials"], "trials", "count"),
        seed=_int_in(doc["seed"], "seed", "seed"),
        activation=activation,
        share=share,
        const_c=_number(doc.get("const_c", 1.0), "const_c", above=0.0),
        envelope_const=_number(doc.get("envelope_const", 1.0), "envelope_const", 0.0),
    )


def _plan_experiment(path):
    """Load and check an experiment config, raising every config error before
    any output directory exists.

    Returns (doc, run, [(n, K, eps), ...]); ``run`` holds the two step
    graphons under "models" and the settings every n shares.
    """
    doc = _parse_json(_read_text(path, "config file"), "config")
    run = _validate_experiment_config(doc)
    run["models"] = (_load_model(doc["models"][0]), _load_model(doc["models"][1]))
    k_rule = parse_k_rule(doc["k_rule"])
    eps_rule = parse_eps_rule(doc["eps_rule"])
    return doc, run, [(n, k_rule(n), eps_rule(n)) for n in doc["n_list"]]


def _run_experiment_n(run, idx, n, depth, eps):
    """One trial loop at the idx-th n; returns that n's (distance, error)
    records of report.json, both read from the same coupled pairs."""
    w0, w1 = run["models"]
    cfg = GCNConfig(depth=depth, activation=run["activation"])
    mc = monte_carlo_error(
        w0, w1, n, cfg, eps, run["trials"], derive_seed(run["seed"], 2 * idx),
        const_c=run["const_c"], share_edge_randomness=run["share"],
    )
    dist = distance_stats(
        n, depth, mc.seed, mc.delta, [t.embedding_distance for t in mc.outcomes],
        mc.small_coord_fracs, run["share"], run["envelope_const"],
    )
    distance = {
        "n": dist.n,
        "K": dist.depth,
        "trials": dist.trials,
        "seed": dist.seed,
        "median": dist.median,
        "p95": dist.p95,
        "envelope": dist.envelope,
        "regime": dist.regime,
        "delta": dist.delta,
        "frac_small_coords": dist.frac_small_coords,
        "coord_tol_const": COORD_TOL_CONST,
        "shared_edge_randomness": dist.shared_edge_randomness,
        "distances": list(dist.distances),
    }
    error = {
        "n": mc.n,
        "K": mc.depth,
        "eps_res": mc.eps_res,
        "trials": mc.trials,
        "seed": mc.seed,
        "error_rate": mc.error_rate,
        "ci_low": mc.ci_low,
        "ci_high": mc.ci_high,
        "mean_conditional_tv": mc.mean_conditional_tv,
        "lecam_floor": mc.bounds.lecam_lower,
        "formula_floor": mc.bounds.formula_floor,
        "formula_raw": mc.bounds.formula_raw,
        "regime": mc.bounds.regime,
        "delta": mc.delta,
        # the identity/ReLU path's float32 certificate; no CSV reads these
        **({} if mc.f64_fallbacks is None else
           {"f32_bound_max": mc.f32_bound_max, "f64_fallbacks": mc.f64_fallbacks}),
        "trials_detail": [
            {"trial": i, "seed": t.seed, "label": t.true_label,
             "decision": t.decision, "distance": t.embedding_distance}
            for i, t in enumerate(mc.outcomes)
        ],
    }
    return distance, error


# summary.csv's columns: keys of one n's error record overlaid by its distance
# record, or of the four that _write_experiment adds
_SUMMARY_COLUMNS = (
    "n", "K", "eps_res", "delta", "regime", "median_distance", "p95_distance",
    "envelope", "frac_small_coords", "error_rate", "ci_low", "ci_high",
    "accuracy", "lecam_floor", "formula_floor", "fitted_exponent",
)


def _write_experiment(out_dir, doc, records):
    """Write every experiment output from the per-n (distance, error) records
    alone; returns the summary path and the fitted decay exponent of the p95s."""
    dists, errors = zip(*records)
    exponent = fit_decay_exponent([d["n"] for d in dists], [d["p95"] for d in dists])
    paths = [
        os.path.join(out_dir, name)
        for name in ("distances.csv", "trials.csv", "summary.csv", "report.json")
    ]
    distances_csv, trials_csv, summary_csv, report_json = paths
    _write_csv(
        distances_csv,
        ["n", "trial", "seed", "distance"],
        ([d["n"], i, d["seed"], f"{x:.17g}"]
         for d in dists for i, x in enumerate(d["distances"])),
    )
    _write_csv(
        trials_csv,
        ["n", "trial", "seed", "label", "decision", "distance"],
        ([e["n"], *fields, f"{x:.17g}"]
         for e in errors for *fields, x in (t.values() for t in e["trials_detail"])),
    )
    summary = (
        {**e, **d, "median_distance": d["median"], "p95_distance": d["p95"],
         "accuracy": 1.0 - e["error_rate"], "fitted_exponent": exponent}
        for d, e in records
    )
    _write_csv(
        summary_csv,
        _SUMMARY_COLUMNS,
        ([f"{row[c]:.12g}" if isinstance(row[c], float) else row[c] for c in _SUMMARY_COLUMNS]
         for row in summary),
    )
    with open(report_json, "w") as fh:
        json.dump({"fitted_exponent": exponent, "distance": dists, "error": errors}, fh)
        fh.write("\n")
    _write_manifest(out_dir, doc, paths)
    return summary_csv, exponent


def cmd_experiment(args) -> int:
    doc, run, plan = _plan_experiment(args.config)
    out_dir = _make_out_dir(doc["output_dir"])
    partial_marker = os.path.join(out_dir, "PARTIAL")
    if os.path.exists(partial_marker):
        os.remove(partial_marker)
    try:
        records = [_run_experiment_n(run, idx, *point) for idx, point in enumerate(plan)]
    except BaseException as exc:  # any failure leaves the run marked partial
        with open(partial_marker, "w") as fh:
            fh.write(f"{type(exc).__name__}: {exc}\n")
        raise
    summary_csv, exponent = _write_experiment(out_dir, doc, records)
    print(f"wrote {summary_csv} (fitted exponent {exponent:.4g})")
    return 0


def _profile_on_grid(profile, grid_length):
    """Piecewise-constant quantile interpolation of a sorted profile.

    Values are scaled by the profile length so the step function integrates
    to 1 on [0,1]; graphs of different orders become comparable curves.
    """
    n_v = profile.size
    mids = (np.arange(grid_length) + 0.5) / grid_length
    idx = np.minimum((mids * n_v).astype(int), n_v - 1)
    return profile[idx] * n_v


def cmd_dataset_profile(args) -> int:
    grid = _int_in(args.grid_length, "--grid-length", "grid")
    if not os.path.isdir(args.dir):
        raise ConfigError(f"dataset directory not found: {args.dir}")
    try:
        rows = list(csv.reader(io.StringIO(_read_text(args.labels, "labels file"))))
    except csv.Error as exc:
        raise ConfigError(f"cannot parse labels file {args.labels}: {exc}") from None
    labels = {}
    for row in rows:
        if not row or row[0].strip().lower() == "filename":
            continue
        if len(row) < 2:
            raise ConfigError(f"labels row needs filename,label: {row}")
        name = row[0].strip()
        if name in labels:
            raise ConfigError(f"labels file lists {name!r} more than once")
        labels[name] = row[1].strip()
    if not labels:
        raise ConfigError("labels file is empty")

    per_graph = []
    # printed once the command knows it goes on, so a config error is the
    # first line on stderr
    skipped = []
    dropped = []  # load_edge_list's warnings, such as dropped self-loops
    missing = []
    for fname in sorted(labels):
        path = os.path.join(args.dir, fname)
        if not os.path.isfile(path):
            missing.append(fname)
            continue
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                g = load_edge_list(_read_text(path, "edge list"))
        except (ConfigError, GraphonLabError) as exc:
            skipped.append(f"warning: skipping {fname}: {exc}")
            continue
        dropped.extend(f"warning: {fname}: {w.message}" for w in caught)
        curve = _profile_on_grid(empirical_degree_profile(g), grid)
        per_graph.append((fname, labels[fname], curve))
    if missing:
        raise ConfigError(f"labeled files missing from directory: {missing[:5]}")
    if not per_graph:
        raise ConfigError("no readable graphs in dataset directory")

    classes = sorted({label for _, label, _ in per_graph})
    if len(classes) != 2:
        raise ConfigError(f"need exactly two classes, got {classes}")
    means = {}
    for cls in classes:
        curves = np.array([c for _, label, c in per_graph if label == cls])
        means[cls] = curves.mean(axis=0)
    empirical_delta = float(np.abs(means[classes[0]] - means[classes[1]]).mean())

    _make_out_dir(args.out_dir)
    for line in skipped + dropped:
        print(line, file=sys.stderr)
    class_csv = os.path.join(args.out_dir, "class_profiles.csv")
    grid_u = (np.arange(grid) + 0.5) / grid
    _write_csv(
        class_csv,
        ["grid_u", f"mean_{classes[0]}", f"mean_{classes[1]}"],
        [
            [f"{u:.8g}", f"{a:.12g}", f"{b:.12g}"]
            for u, a, b in zip(grid_u, means[classes[0]], means[classes[1]])
        ],
    )
    graphs_csv = os.path.join(args.out_dir, "per_graph_profiles.csv")
    _write_csv(
        graphs_csv,
        ["filename", "label", "grid_index", "value"],
        [
            [fname, label, i, f"{v:.12g}"]
            for fname, label, curve in per_graph
            for i, v in enumerate(curve)
        ],
    )
    config_doc = {
        "command": "dataset-profile",
        "dir": args.dir,
        "labels": args.labels,
        "grid_length": grid,
    }
    _write_manifest(args.out_dir, config_doc, [class_csv, graphs_csv])
    print(f"classes: {classes[0]} ({sum(1 for _, l, _ in per_graph if l == classes[0])} graphs), "
          f"{classes[1]} ({sum(1 for _, l, _ in per_graph if l == classes[1])} graphs)")
    if skipped:
        print(f"skipped {len(skipped)} unreadable file(s)", file=sys.stderr)
    print(f"empirical delta between class means = {empirical_delta:.6g}")
    return 0


# ---------------------------------------------------------------- plumbing


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ConfigErrors; its
    subparsers inherit the class."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="graphonlab",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "delta",
        help="degree-profile distance between two step graphons",
        description=(
            "Print the rearrangement L1 distance between normalized degree "
            "profiles, both profiles, and the verdict against --threshold. "
            "Specs are inline JSON or file paths; either "
            '{"weights": [...], "densities": [[...]]} or {"k1","p1","p2","q"}.'
        ),
    )
    p.add_argument("model0")
    p.add_argument("model1")
    p.add_argument("--threshold", type=float, default=0.0)
    p.set_defaults(func=cmd_delta)

    p = sub.add_parser(
        "family",
        help="degree-preserving SBM family point",
        description=(
            "Generate base + tau*(1/k1, k1/k2^2, -1/k2) and print the valid "
            "tau interval with its binding constraints."
        ),
    )
    p.add_argument("--base", required=True, help="SBM spec (inline JSON or path)")
    p.add_argument("--tau", type=float, required=True)
    p.set_defaults(func=cmd_family)

    p = sub.add_parser(
        "mixing",
        help="mixing-time runs over sampled graphs",
        description=(
            "Sample graphs at each n and record t_mix, spectral gap, and the "
            "fitted constant t_mix/ln(n/eps). mixing_runs.csv schema: "
            "n,seed,t_mix,gap,fitted_D,status; tv_traces.json holds the "
            "(t, worst-row TV) trace per run."
        ),
    )
    p.add_argument("--model", required=True)
    p.add_argument("--n-list", required=True, help="comma-separated sizes")
    p.add_argument("--eps", default="1/n^2", help="number, 'c/n' or 'c/n^2'")
    p.add_argument("--seeds", type=int, default=5, help="runs per size")
    p.add_argument("--seed", type=int, default=0, help="base seed, 0 to 2^64 - 1")
    p.add_argument(
        "--t-max", type=int, default=400, help=f"step cap, 1 to {_RANGES['depth'][1]}"
    )
    p.add_argument("--lazy", action="store_true", help="use the lazy chain (P+I)/2")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_mixing)

    p = sub.add_parser(
        "experiment",
        help="coupled-distance and error-rate experiment from a JSON config",
        description=(
            "Config keys: schema_version=1, models (two specs), n_list, "
            "k_rule (int or 'ceil(D*ln(n))'), eps_rule (number, 'c/n' or 'c/n^2'), "
            "activation, trials, seed, output_dir, plus optional "
            "share_edge_randomness, const_c, envelope_const. Each n runs one "
            "seeded trial loop under the configured coupling: each trial samples "
            "and embeds one coupled pair, which gives both its distances.csv and "
            "its trials.csv row. Outputs: "
            "distances.csv (n,trial,seed,distance), trials.csv "
            "(n,trial,seed,label,decision,distance), summary.csv (per-n "
            "medians/percentiles/floors plus fitted_exponent), report.json, "
            "manifest.json."
        ),
    )
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_experiment)

    p = sub.add_parser(
        "dataset-profile",
        help="per-class degree profiles for a directory of edge lists",
        description=(
            "Labels CSV rows are 'filename,label' (exactly two classes). "
            "class_profiles.csv: grid_u,mean_<class0>,mean_<class1>; "
            "per_graph_profiles.csv: filename,label,grid_index,value. Prints "
            "the empirical delta (L1 gap between class mean profiles)."
        ),
    )
    p.add_argument("--dir", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--grid-length", type=int, default=100)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_dataset_profile)

    return parser


def main(argv=None) -> int:
    # the one table from exceptions to exit codes; commands only raise
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, InvalidModel) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except GraphonLabError as exc:
        print(f"model error: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"model error: out of memory. {exc}".rstrip(), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
