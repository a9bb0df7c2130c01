"""Tests of the benchmark itself: metrics printed, layer counters wired,
trace counts repeatable, wrong answers caught, bad environments refused.

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

# the smallest pass on which every end-to-end metric is defined
MIN_INSTANCES = 20


def run(*args, cwd=ROOT, env=None):
    env = dict(os.environ if env is None else env)
    env.pop("HLX_MAX_BRUTE", None)
    return subprocess.run(
        [sys.executable, RUN, "--seed", "7", "--seconds", "1", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_end_to_end_metric_is_printed(name):
    res = result(run("--workload", name, "--instances", str(MIN_INSTANCES)))
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= MIN_INSTANCES
    for metric in SPEC["end_to_end"]:
        got = res["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert got["value"] > 0
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_traced_run_prints_every_per_layer_metric_and_repeats_its_calls():
    args = ("--workload", "grid5", "--instances", "6", "--trace", "1")
    first, second = result(run(*args)), result(run(*args))
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for metric in SPEC["per_layer"]:
        assert first["metrics"][metric["name"]]["unit"] == metric["unit"]
    calls = {k: v["value"] for k, v in first["metrics"].items() if k.endswith(".calls")}
    assert calls == {k: v["value"] for k, v in second["metrics"].items() if k.endswith(".calls")}
    assert calls["meataxe.is_irreducible.calls"] > 0


def _first(insts, pred):
    return next(i for i in insts if pred(i))


def _coverage(name):
    """A few cheap instances that between them take every code path the
    workload exercises."""
    insts = workloads.generate(name, 7)
    if name == "grid5":
        return [_first(insts, lambda i: len(i["factors"]) == 2 and i["irreducible"]),
                _first(insts, lambda i: not i["irreducible"])]
    if name == "bigprime":
        return [_first(insts, lambda i: len(i["factor_dims"]) == 1),
                _first(insts, lambda i: len(i["factor_dims"]) > 1)]
    if name == "extfield":
        return [_first(insts, lambda i: i["p"] ** (i["d"] * i["dim"]) <= workloads.EXT_CHEAP),
                _first(insts, lambda i: i["p"] ** (i["d"] * i["dim"]) > workloads.BRUTE_BOUND)]
    return [_first(insts, lambda i: i.get("part_b")),
            _first(insts, lambda i: i["kind"] == "paper"),
            _first(insts, lambda i: i["kind"] == "identities")]


NP_TABLES = ["modrep.tables.%s.calls" % t for t in ("op", "op_np", "lam", "lam_np", "cartan_binom_np")]
BOXED_TABLES = ["modrep.tables.%s.calls" % t for t in ("op", "lam", "cartan_binom")]
FP_LAYERS = NP_TABLES + [
    "modrep.generators",
    "modrep.drinfeld_polynomial.calls",
    "modrep.ell_weight_decomposition.calls",
    "modrep.ell_hw_vectors.calls",
    "drinfeld.factor_poly_unit_roots.calls",
    "linalg.np_nullspace.calls",
    "linalg.np_rref.calls",
    "linalg.from_np.calls",
    "linalg.to_np.calls",
    "linalg.NpEchelon.add.calls",
    "meataxe.is_irreducible.calls",
    "meataxe.chop.calls",
    "meataxe.cert.norton",
    "meataxe.norton.attempts",
    "meataxe.norton.points",
]
# the README's prediction table, column "nonzero on"
NONZERO = {
    "grid5": FP_LAYERS,
    "bigprime": FP_LAYERS,
    "extfield": BOXED_TABLES + [
        "modrep.generators",
        "linalg.Echelon.add.calls",
        "linalg.Mat.apply.calls",
        "meataxe.brute_force_irreducible.calls",
        "meataxe.cert.brute_force",
        "meataxe.cert.undecided",
    ],
    "char0": BOXED_TABLES + [
        "linalg.Mat.apply.calls",
        "lattice.lattice_closure.calls",
        "lattice.canonicalize.calls",
        "lattice.reduce_mod_p.calls",
        "lattice.compare_lattices.calls",
        "lattice.paper_example_report.calls",
        "looppbw.weyl_upper_bound.calls",
        "looppbw.saturation.sweeps",
        "looppbw.saturation.basis",
        "looppbw.verify_basicrel.calls",
    ],
}
ZERO = {
    "grid5": ["meataxe.brute_force_irreducible.calls"],
    "bigprime": ["meataxe.brute_force_irreducible.calls"],
    "extfield": [],
    "char0": ["meataxe.is_irreducible.calls"],
}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_predicted_layer_counters(name):
    tracer = Tracer()
    tracer.install()
    try:
        for inst in _coverage(name):
            workloads.run_instance(name, inst)
    finally:
        tracer.remove()
    metrics = {k: v for k, (v, _) in tracer.metrics().items()}
    assert [k for k in NONZERO[name] if not metrics[k]] == []
    assert [k for k in ZERO[name] if metrics[k]] == []


def test_tracer_restores_every_binding():
    import hlx.meataxe
    import hlx.modrep

    before = (hlx.meataxe.drinfeld_polynomial, hlx.modrep.LoopModule.op_np, hlx.modrep.factor_poly_unit_roots)
    tracer = Tracer()
    tracer.install()
    assert hlx.meataxe.drinfeld_polynomial is hlx.modrep.drinfeld_polynomial
    assert hlx.meataxe.drinfeld_polynomial is not before[0]
    assert hlx.modrep.factor_poly_unit_roots is hlx.drinfeld.factor_poly_unit_roots
    tracer.remove()
    after = (hlx.meataxe.drinfeld_polynomial, hlx.modrep.LoopModule.op_np, hlx.modrep.factor_poly_unit_roots)
    assert after == before


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_negative_control_fails_the_run(name):
    proc = run("--workload", name, "--instances", "40", "--negative-control")
    assert proc.returncode == 1
    assert "wrong answer" in proc.stderr
    assert '"correct"' not in proc.stdout


def test_refuses_hlx_max_brute():
    env = dict(os.environ, HLX_MAX_BRUTE="1000")
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", "grid5", "--seed", "1", "--seconds", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""


def test_fails_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid5", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0 and proc.stdout == ""
