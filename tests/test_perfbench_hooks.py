"""perfbench's tracer patches graphonlab attributes by name: each must exist.

The benchmark's own tests are not part of this suite, so a renamed function
would otherwise go unnoticed until a traced run. The tracer module is loaded
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
