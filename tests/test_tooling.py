"""Guards for the repository's tooling that imports the package from outside."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_benchmark_tracer_finds_every_wrapped_name(monkeypatch):
    # The traced benchmark run replaces owner.__dict__[attr] for each entry of
    # WRAPS; a name a refactor drops from a module would make it raise KeyError.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    missing = [
        f"{owner.__name__}.{attr}" for owner, attr, _, _ in spans.WRAPS
        if attr not in owner.__dict__
    ]
    assert missing == []
