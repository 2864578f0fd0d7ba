"""perfbench's tracer patches graphonlab attributes by name: each must exist,
and every call the trial loop makes through them must reach the patch.

The benchmark's own tests are not part of this suite, so a renamed function,
or a call that binds the function before the tracer patches it, would
otherwise go unnoticed until a traced run. The tracer module is loaded
from its file without writing bytecode next to it.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look the module up in sys.modules while it executes
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


def test_every_hook_resolves(tracer):
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in tracer.HOOKS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_rwchain_from_graph_resolves():
    chain_cls = importlib.import_module("graphonlab.spectral").RWChain
    assert isinstance(chain_cls.__dict__.get("from_graph"), classmethod)


@pytest.mark.parametrize("kind", ["identity", "tanh"])
def test_every_trial_loop_call_is_traced(tracer, kind):
    # the worker thread's calls too: each harness samples one pair and embeds
    # two graphs per trial
    from graphonlab import GCNConfig, testing

    from helpers import SBM_BASE, SBM_SEPARATED

    w0, w1 = SBM_BASE.to_step_graphon(), SBM_SEPARATED.to_step_graphon()
    cfg, trials = GCNConfig(depth=3, activation=kind), 3
    spans = tracer.Tracer()
    with spans.installed(0):
        testing.monte_carlo_error(w0, w1, 40, cfg, 0.01, trials, 5)
        testing.embedding_distance_experiment(w0, w1, 40, cfg, trials, 5)
        testing.embedding_distance_experiment(
            w0, w1, 40, cfg, trials, 5, share_edge_randomness=True
        )
    names = [s.name for s in spans.run_spans(0)]
    # each error trial perturbs, decides and takes the pair's TV once; each
    # harness call takes the models' delta once
    for name in ("gcn.perturb", "testing.nearest_profile_test", "testing.tv_perturbed"):
        assert names.count(name) == trials
    assert names.count("graphon.delta_distance") == 3
    assert names.count("sampling.sample_coupled.indep") == 2 * trials
    assert names.count("sampling.sample_coupled.shared") == trials
    assert names.count("gcn.graph_embedding") == 3 * 2 * trials
    if kind == "identity":
        assert names.count("gcn.fast_linear_embedding") == 3 * 2 * trials
    else:
        # the error harness's tanh graphs take the float32 walk inside its
        # bracket; the distance harness passes no limit and runs forward
        assert names.count("gcn.forward") == 2 * 2 * trials
