"""The benchmark's tracer resolves each traced name with getattr when it
installs, so every name it lists must exist in hlx."""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

from tracer import SPANS  # noqa: E402


def test_every_traced_span_resolves():
    missing = []
    for module, path in SPANS:
        obj = importlib.import_module("hlx." + module)
        for part in path.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append("%s.%s" % (module, path))
    assert missing == []
