"""The benchmark's tracer patches each traced name in the namespace that
defines it (owner.__dict__), not where getattr would find it: a method
inherited from a base class or moved into a mixin resolves, but makes
`Tracer.install` fail.  So the test installs and removes a tracer.

The benchmark's workloads call hlx through its public API (CartanData,
EllWeight.spectral_character, DrinfeldPoly.polys, ...), so the finite-field
workloads run here too: an API break fails these tests, not the benchmark."""

import importlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

import pytest  # noqa: E402
from tracer import SPANS, Tracer  # noqa: E402
from workloads import generate, run_instance  # noqa: E402


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


# instances of the seed-1 draw that the library decides; extfield leaves
# undecided those where |F|^dim is past the brute-force bound
DECIDED_AT_SEED_1 = {"grid5": 44, "bigprime": 30, "extfield": 15}


@pytest.mark.parametrize("name", sorted(DECIDED_AT_SEED_1))
def test_benchmark_workload_runs_against_the_api(name):
    instances = generate(name, 1)
    decided = [run_instance(name, inst) for inst in instances]  # raises on a wrong answer
    assert sum(decided) >= DECIDED_AT_SEED_1[name]
