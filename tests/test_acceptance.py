"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is exact (rational or mod-p arithmetic); runtime budgets are
asserted where stated.  Run with `pytest tests/test_acceptance.py -v -s`.
"""

import time
from fractions import Fraction

from hlx import lattice as latmod
from hlx import meataxe, modrep
from hlx.cartan import CartanData
from hlx.cli import run_identity_suite, run_steinberg, run_tpd_grid
from hlx.drinfeld import unit_root_product
from hlx.exactnum import Poly, PrimeField, QQ

A1 = CartanData("A1")

PRIMES = (2, 3, 5)


def _report(n, name, ok):
    print("ACCEPTANCE %d (%s): %s" % (n, name, "PASS" if ok else "FAIL"))
    assert ok, "criterion %d (%s) failed" % (n, name)


def _grid_modules(p):
    """The criterion-4 grid: single factors and all pairs, with the expected
    irreducibility verdict and the structural Drinfeld polynomial."""
    F = PrimeField(p)
    singles = [(lam, l, av) for lam in range(1, p) for l in (0, 1) for av in range(1, p)]

    def build(factors):
        mods = []
        for lam, l, av in factors:
            a = F(av)
            ak = a
            for _ in range(l):
                apow = F.one
                for _ in range(p):
                    apow = apow * ak
                ak = apow
            mods.append(modrep.frobenius_twist(modrep.eval_weyl_module(F, lam, ak), l))
        return modrep.tensor(*mods) if len(mods) > 1 else mods[0]

    cases = [[f] for f in singles] + [[f1, f2] for f1 in singles for f2 in singles]
    for factors in cases:
        expected = True
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if factors[i][1] == factors[j][1] and factors[i][2] == factors[j][2]:
                    expected = False
        omega = Poly(F, unit_root_product(F, [F(av) for lam, l, av in factors for _ in range(lam * p ** l)]))
        yield factors, build(factors), expected, omega


def test_criterion_1_identity_suite():
    t0 = time.time()
    rep = run_identity_suite(kmax=3, smax=2, rmax=6)
    elapsed = time.time() - t0
    ok = rep["pass"] and elapsed < 60
    assert any(r["identity"] == "koslem" and r["params"] == {"k": 4, "l": 4} for r in rep["results"])
    assert any(r["identity"] == "evLambda" and r["params"] == {"r": -6} for r in rep["results"])
    assert any(r["identity"] == "lambda_integrality" and r["params"] == {"r": 6} for r in rep["results"])
    assert any(r["identity"] == "ht_snot0" and r["params"]["s"] * r["params"]["k"] == 6 for r in rep["results"])
    _report(1, "identity suite, %d checks in %.1fs" % (len(rep["results"]), elapsed), ok)


def test_criterion_2_worked_example():
    t0 = time.time()
    rep = latmod.paper_example_report(3, "1", "2")
    sym = rep["symbolic"]
    ok = (
        sym["basicrele1"]
        and sym["x1x0_equals_2a_x0sq"]
        and sym["matrix1"] == [["1", "0", "-a**2"], ["0", "1", "2*a"], ["1", "b", "b**2"]]
        and sym["matrix2"] == [["1", "2*a", "a**2"], ["1", "b", "0"], ["0", "1", "b"]]
        and sym["dets_equal_(a-b)^2"]
        and sym["final_relation_x0cubed"]
        and rep["numeric"]["residues_distinct"]
        and rep["numeric"]["lattices_equal"]
    )
    rep2 = latmod.paper_example_report(3, "1", "4")
    ok = ok and rep2["numeric"]["val_a_minus_b"] == 1 and rep2["numeric"]["colength"] == 4
    elapsed = time.time() - t0
    ok = ok and elapsed < 10
    _report(2, "worked example in %.1fs" % elapsed, ok)


def test_criterion_3_steinberg():
    t0 = time.time()
    ok = True
    checked = 0
    for p in PRIMES:
        rep = run_steinberg(p, 12)
        ok = ok and rep["pass"]
        for row in rep["rows"]:
            checked += 1
            ok = ok and row["dim"] == row["expected_dim"] and row["irreducible"] is True
            feasible = PrimeField(p).card ** row["dim"] <= meataxe.brute_bound()
            if feasible:
                ok = ok and row["brute_force_agrees"] is True
    elapsed = time.time() - t0
    ok = ok and elapsed < 180
    _report(3, "steinberg %d instances in %.1fs" % (checked, elapsed), ok)


def test_criterion_4_tpd_grid():
    t0 = time.time()
    ok = True
    total = 0
    for p in PRIMES:
        rep = run_tpd_grid(p)
        total += rep["cases"]
        ok = ok and rep["pass"] and not rep["mismatches"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 180
    _report(4, "tensor product theorem grid, %d cases in %.1fs" % (total, elapsed), ok)


def test_criterion_5_drinfeld_extraction():
    t0 = time.time()
    ok = True
    n = 0
    for p in PRIMES:
        F = PrimeField(p)
        # criterion-3 irreducibles
        for lam in range(0, 13):
            m = modrep.irreducible_module(F, lam, F(1))
            expected = Poly(F, unit_root_product(F, [F.one] * lam))
            poly, checks = modrep.drinfeld_polynomial(m)
            ok = ok and checks["plus_polynomial"] and checks["minus_matches"]
            ok = ok and poly.polys[0] == expected
            n += 1
        # criterion-4 grid irreducibles
        for factors, m, expected_irr, omega in _grid_modules(p):
            if not expected_irr:
                continue
            poly, checks = modrep.drinfeld_polynomial(m)
            ok = ok and checks["plus_polynomial"] and checks["minus_matches"]
            ok = ok and poly.polys[0] == omega
            n += 1
            if not ok:
                break
    elapsed = time.time() - t0
    _report(5, "Drinfeld extraction on %d irreducibles in %.1fs" % (n, elapsed), ok)


def test_criterion_6_duality():
    t0 = time.time()
    ok = True
    n = 0
    for p in PRIMES:
        F = PrimeField(p)
        for factors, m, expected_irr, omega in _grid_modules(p):
            if not expected_irr:
                continue
            d = modrep.dual(m)
            vs = modrep.ell_hw_vectors(d)
            ok = ok and len(vs) == 1
            if not ok:
                break
            dpoly, checks = modrep.drinfeld_polynomial(d, vs[0])
            # sl2: star is the identity, so dual Drinfeld equals omega
            ok = ok and dpoly.polys[0] == omega
            ok = ok and checks["plus_polynomial"] and checks["minus_matches"]
            # double dual operator-isomorphic to the original
            dd = modrep.dual(d)
            for label in meataxe.generator_labels(m):
                kind, r, k = label
                if kind == "h":
                    continue
                if (dd.op_np(kind, r, k) != m.op_np(kind, r, k)).any():
                    ok = False
            for r in (-2, -1, 1, 2):
                if (dd.lam_np(r) != m.lam_np(r)).any():
                    ok = False
            n += 1
        if not ok:
            break
    elapsed = time.time() - t0
    _report(6, "duality on %d grid irreducibles in %.1fs" % (n, elapsed), ok)


def test_criterion_7_conjecture_desk_test():
    t0 = time.time()
    ok = True
    outcomes = []
    for p in (2, 3):
        for deg in (1, 2, 3):
            roots = [Fraction(1 + i * p) for i in range(deg)]
            rep = latmod.conjecture_cp0_report(roots, p)
            outcomes.append((p, deg, rep["lower"], rep["upper"], rep["status"]))
            ok = ok and rep["lower"] == 2 ** deg  # guaranteed by the lattice theory
            if deg <= 2:
                ok = ok and rep["status"] == "VERIFIED"
            # deg 3: outcome recorded either way
    elapsed = time.time() - t0
    ok = ok and elapsed < 300
    print("  conjecture outcomes:", outcomes)
    _report(7, "reduction mod p desk test in %.1fs" % elapsed, ok)


def _module_character_or_none(m):
    try:
        blocks = modrep.ell_weight_decomposition(m)
    except (ValueError, ArithmeticError):
        return None, False
    chars = []
    for b in blocks:
        if b["ell_weight"] is None:
            return None, False
        chars.append(b["ell_weight"].spectral_character(A1))
    consistent = bool(chars) and all(c == chars[0] for c in chars)
    return (chars[0] if consistent else None), consistent


def test_criterion_8_block_consistency():
    t0 = time.time()
    ok = True
    checked_modules = 0
    checked_factors = 0
    # reduced Weyl-module candidates from the criterion-7 workflows
    reduced = []
    for p in (2, 3):
        for deg in (1, 2, 3):
            roots = [Fraction(1 + i * p) for i in range(deg)]
            factors = [modrep.eval_weyl_module(QQ, 1, a) for a in roots]
            ambient = factors[0] if deg == 1 else modrep.tensor(*factors)
            lat = latmod.lattice_closure(ambient, ambient.hw_vector(), p)
            reduced.append(latmod.reduce_mod_p(lat))
    for m in reduced:
        chi, consistent = _module_character_or_none(m)
        ok = ok and consistent
        checked_modules += 1
        for rec in meataxe.chop(m, analyze=False):
            fchi, fcons = _module_character_or_none(rec.module)
            ok = ok and fcons and fchi == chi
            checked_factors += 1
    # every tensor module in the grids
    for p in PRIMES:
        for factors, m, expected_irr, omega in _grid_modules(p):
            chi, consistent = _module_character_or_none(m)
            ok = ok and consistent
            checked_modules += 1
            if not consistent:
                break
            if not expected_irr:
                for rec in meataxe.chop(m, analyze=False):
                    fchi, fcons = _module_character_or_none(rec.module)
                    ok = ok and fcons and fchi == chi
                    checked_factors += 1
        if not ok:
            break
    # tensor additivity and dual negation on sampled pairs
    F = PrimeField(3)
    samples = [
        modrep.irreducible_module(F, 1, F(1)),
        modrep.irreducible_module(F, 2, F(2)),
        modrep.irreducible_module(F, 3, F(1)),
    ]
    for i in range(len(samples)):
        chi_i, cons = _module_character_or_none(samples[i])
        ok = ok and cons
        dchi, dcons = _module_character_or_none(modrep.dual(samples[i]))
        ok = ok and dcons and dchi == -chi_i
        for j in range(i + 1, len(samples)):
            chi_j, _ = _module_character_or_none(samples[j])
            tchi, tcons = _module_character_or_none(modrep.tensor(samples[i], samples[j]))
            ok = ok and tcons and tchi == chi_i + chi_j
    elapsed = time.time() - t0
    _report(
        8,
        "block consistency on %d modules / %d factors in %.1fs"
        % (checked_modules, checked_factors, elapsed),
        ok,
    )


def test_criterion_9_degree_four_weyl_lattices(tmp_path, capsys):
    # `hlx lattice --p 3 --reduce --json` on W0(omega) for two lifts of degree
    # 4, each within 5 s: the lattice U_A v has rank 2^4, its reduction has
    # dimension 2^4, and the reduction's Drinfeld polynomial is omega mod 3
    # (the same coefficients, each in {0, 1, 2})
    import json

    from hlx.cli import main

    ok = True
    times = []
    for omega in (["1", "0", "0", "0", "1"], ["1", "1", "0", "1", "1"]):
        path = tmp_path / "weyl0.json"
        path.write_text(json.dumps({"weyl0": {"omega": omega}}))
        t0 = time.time()
        code = main(["lattice", "--recipe", str(path), "--p", "3", "--reduce", "--json"])
        times.append(time.time() - t0)
        rep = json.loads(capsys.readouterr().out)
        red = rep["reduction"]
        ok = ok and code == 0 and rep["rank"] == 16 and red["dim"] == 16 and red["drinfeld"] == [omega]
        ok = ok and red["drinfeld_checks"] == {"degree": 4, "minus_matches": True, "plus_polynomial": True}
        ok = ok and times[-1] < 5
    _report(9, "degree-4 Weyl lattices reduced mod 3 in %s" % ", ".join("%.1fs" % t for t in times), ok)
