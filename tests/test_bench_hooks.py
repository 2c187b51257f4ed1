"""The benchmark's traced pass wraps tmlwb functions by module and name
(perfbench/layer_trace.py HOOKS). A hook whose target was renamed or moved
only drops its per-layer metrics, so a refactor must keep every target."""
import importlib
import importlib.util
from pathlib import Path

LAYER_TRACE = Path(__file__).parents[1] / "perfbench" / "layer_trace.py"


def _load_layer_trace():
    spec = importlib.util.spec_from_file_location("layer_trace", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_target_exists(monkeypatch):
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
    assert tracer.missing == []
