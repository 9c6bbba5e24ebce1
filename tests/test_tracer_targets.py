"""The benchmark's tracer wraps k3cone functions by name
(`perfbench/tracer.py`, `TARGETS`), so a renamed or deleted target breaks
the traced benchmark run.  This test installs the tracer and takes it off
again; it only reads the benchmark files.
"""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_tracer_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer")
    for _, module, _, _ in tracer.TARGETS:
        importlib.import_module(f"k3cone.{module}")
    t = tracer.Tracer()
    try:
        t.install()
    finally:
        t.uninstall()
    assert not tracer.installed_wrappers()
