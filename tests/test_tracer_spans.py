"""The benchmark's tracer patches each traced name in the namespace that
defines it (owner.__dict__), not where getattr would find it: a method
inherited from a base class or moved into a mixin resolves, but makes
`Tracer.install` fail.  So the test installs and removes a tracer."""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

from tracer import SPANS, Tracer  # noqa: E402


def _resolve(module, path):
    obj = importlib.import_module("hlx." + module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_span_resolves():
    tracer = Tracer()
    try:
        tracer.install()
        assert [span for span in SPANS if not hasattr(_resolve(*span), "__wrapped__")] == []
    finally:
        tracer.remove()
    assert [span for span in SPANS if hasattr(_resolve(*span), "__wrapped__")] == []
