"""Every tdyn function that the benchmark tracer (perfbench/tracer.py) wraps
must exist, so that a refactor which drops or renames one fails here rather
than in a traced benchmark run."""

import importlib
from pathlib import Path


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    targets = tracer.Tracer()._targets()
    assert targets
    for module, attr, _, _ in targets:
        owner = importlib.import_module("tdyn." + module)
        cls_name, _, fn_name = attr.rpartition(".")
        if cls_name:
            # Tracer.install replaces the method in the class's own __dict__
            assert fn_name in vars(getattr(owner, cls_name)), f"{module}.{attr}"
        else:
            assert callable(getattr(owner, fn_name, None)), f"{module}.{attr}"
