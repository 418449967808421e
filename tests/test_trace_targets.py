"""The benchmark's tracer still finds every function it wraps.

`perfbench/tracing.py` wraps the library functions named in its `TARGETS`
and `METHODS` tables by name.  When one of them is renamed or deleted,
`Tracer.install` raises, and every traced benchmark run crashes.  These
tests install the tracer against this checkout and take it out again; they
only read `perfbench/`.
"""

import importlib.util
from pathlib import Path

import pytest

import critplace.arrangement
import critplace.placement

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_exists():
    tracing = _tracing()
    decompose = critplace.arrangement.convex_decompose
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert critplace.arrangement.convex_decompose is not decompose
    finally:
        tracer.uninstall()
    assert critplace.arrangement.convex_decompose is decompose
    for home, cls, attr, _name in tracing.METHODS:
        owner = getattr(getattr(critplace, home), cls)
        assert not hasattr(owner.__dict__[attr], "__wrapped__")


def test_a_missing_trace_target_fails_the_install(monkeypatch):
    # a deleted target stops the install; what it wrapped before it comes out
    tracing = _tracing()
    decompose = critplace.arrangement.convex_decompose
    monkeypatch.delattr(critplace.placement, "collect_S")
    tracer = tracing.Tracer()
    with pytest.raises(AttributeError, match="collect_S"):
        tracer.install()
    assert critplace.arrangement.convex_decompose is not decompose
    tracer.uninstall()
    assert critplace.arrangement.convex_decompose is decompose
