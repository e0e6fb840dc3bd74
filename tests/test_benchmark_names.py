"""The names the benchmark in perfbench/ replaces while it runs still exist."""

import importlib
import importlib.util
import re
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracing():
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    # the tracer wraps (module, attr) for each span; a target a refactor drops
    # fails the benchmark's self-test, so it fails here first
    missing = [f"{m}.{a}" for m, a, _ in _tracing().TARGETS
               if not hasattr(importlib.import_module(m), a)]
    assert missing == []


def test_every_shifted_name_resolves():
    # the self-test shifts the estimators it names as (metricmi.<module>, "<attr>")
    text = (PERFBENCH / "selftest.py").read_text(encoding="utf-8")
    names = re.findall(r'\(metricmi\.(\w+), "(\w+)"\)', text)
    missing = [f"metricmi.{m}.{a}" for m, a in names
               if not hasattr(importlib.import_module(f"metricmi.{m}"), a)]
    assert names and missing == []
