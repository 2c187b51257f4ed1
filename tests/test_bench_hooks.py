"""The benchmark's traced pass wraps tmlwb functions by module and name
(perfbench/layer_trace.py HOOKS). A hook whose target was renamed or moved
only drops its per-layer metrics, so a refactor must keep every target,
and the commands must keep calling each one through the name the tracer
patches."""
import importlib
import importlib.util
import io
from pathlib import Path

from tmlwb.cli import Session, run_commands
from tmlwb.store import Store

from conftest import FIXTURE_DIR

LAYER_TRACE = Path(__file__).parents[1] / "perfbench" / "layer_trace.py"


def _load_layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _installed_tracer(monkeypatch):
    layer_trace = _load_layer_trace()
    # let monkeypatch put back every attribute the tracer replaces
    for _, module_name, path, _, _ in layer_trace.HOOKS:
        owner = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for name in parents:
            owner = getattr(owner, name, None)
        if owner is not None and hasattr(owner, attr):
            monkeypatch.setattr(owner, attr, getattr(owner, attr))
    tracer = layer_trace.Tracer()
    tracer.install()
    return layer_trace, tracer


def test_every_hook_target_exists(monkeypatch):
    _, tracer = _installed_tracer(monkeypatch)
    assert tracer.missing == []


def test_every_hook_is_reached(monkeypatch, workspace):
    layer_trace, tracer = _installed_tracer(monkeypatch)
    out = io.StringIO()
    status = run_commands(Session(store=Store()), [
        f"corpus import {FIXTURE_DIR} as hooks fold cavat",
        "corpus use hooks",
        "check consistent in all",
        "check orphans in 1",
        "check tlink_loop in consistent.tml",
        "check split_graph in all",
        "show distribution of tlink reltype",
        "browse doc 2",
        "browse doc consistent.tml",
        "browse event e1",
        "context l1",
    ], out)
    assert status == 2, out.getvalue()  # the fixtures hold inconsistent documents
    # checks.run_check is counted per check, as checks.run_check.<name>
    assert [span for span, *_ in layer_trace.HOOKS
            if not any(name == span or name.startswith(span + ".")
                       for name in tracer.calls)] == []
