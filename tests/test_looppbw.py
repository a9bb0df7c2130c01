import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hlx.exactnum import QQ, FpElem, PrimeField, SymElem, SymField, scalars
from hlx.linalg import np_rref, rref
from hlx.looppbw import (
    CARTAN,
    LOWER,
    RAISE,
    HyperElement,
    _lower_monomials,
    _merge_lower,
    _relation_bases,
    _relation_instance,
    _relation_instances,
    cartan_to_lambda_monomials,
    ev_lambda_expected,
    formal_ev,
    koslem_rhs,
    lambda_element,
    lambda_twisted,
    tau_twist,
    verify_basicrel,
    weyl_upper_bound,
    z_form_member,
)

H = HyperElement


def test_defining_bracket():
    # x+_0 x-_0 = x-_0 x+_0 + h_0
    lhs = H.x_plus(0) * H.x_minus(0)
    rhs = H.x_minus(0) * H.x_plus(0) + H.binom_h(1)
    assert lhs == rhs


def test_divided_power_collapse():
    # x-_0 x-_0 = 2 (x-_0)^(2)
    assert H.x_minus(0) * H.x_minus(0) == H.x_minus(0, 2).scale(2)


def test_binid():
    for k in range(1, 4):
        for l in range(1, 4):
            lhs = H.x_minus(2, k) * H.x_minus(2, l)
            from math import comb

            assert lhs == H.x_minus(2, k + l).scale(comb(k + l, k))


def test_koslem():
    for k in range(1, 5):
        for l in range(1, 5):
            lhs = H.x_plus(0, l) * H.x_minus(0, k)
            assert lhs == koslem_rhs(k, l), (k, l)


def test_koslem_spec_example():
    lhs = H.x_plus(0, 2) * H.x_minus(0, 2)
    acc = H.zero()
    for m in range(3):
        acc = acc + (
            H.x_minus(0, 2 - m)
            * H.binom_h_shifted(-4 + 2 * m, m)
            * H.x_plus(0, 2 - m)
        )
    assert lhs == acc


def test_comutxh():
    # binom(h,l) (x±_r)^(k) = (x±_r)^(k) binom(h ± 2k, l)
    for k in range(1, 4):
        for l in range(1, 4):
            for kind, sign in ((LOWER, -1), (RAISE, 1)):
                lhs = H.binom_h(l) * H.gen(kind, 1, k)
                rhs = H.gen(kind, 1, k) * H.binom_h_shifted(sign * 2 * k, l)
                assert lhs == rhs


def test_normal_order_multiplicative_consistency():
    rng = random.Random(4)
    gens = [H.x_minus(0), H.x_minus(1), H.x_plus(0), H.x_plus(-1), H.h(0), H.h(1)]
    for _ in range(25):
        a = rng.choice(gens) * rng.choice(gens)
        b = rng.choice(gens)
        assert (a * b) * rng.choice([H.one()]) == a * b  # normalized already
        c = rng.choice(gens)
        assert (a * b) * c == a * (b * c)


def test_ppowerx_divisible_by_p():
    for p in (2, 3):
        for k in (1, 2):
            e = H.gen(LOWER, 1, k).power(p)
            assert all(c.denominator == 1 and c.numerator % p == 0 for c in e.coeffs.values())
        e = H.gen(RAISE, -2, 1).power(p)
        assert all(c.denominator == 1 and c.numerator % p == 0 for c in e.coeffs.values())


def test_ppowerh():
    # binom(h,k)^p - binom(h,k) has all integral coefficients divisible by p
    for p in (2, 3):
        for k in (1, 2):
            e = H.binom_h(k).power(p) - H.binom_h(k)
            for c in e.coeffs.values():
                assert c.denominator == 1 and c.numerator % p == 0


def test_lambda_small():
    assert lambda_element(0) == H.one()
    assert lambda_element(1) == H.h(1).scale(-1)
    exp2 = (H.h(1) * H.h(1) - H.h(2)).scale(Fraction(1, 2))
    assert lambda_element(2) == exp2
    assert lambda_element(-1) == H.h(-1).scale(-1)


def test_tau_twist():
    assert tau_twist(H.x_minus(3), 2) == H.x_minus(6)
    assert lambda_twisted(1, 2) == H.h(2).scale(-1)
    # Lambda_{1;2} = 2 Lambda_2 - Lambda_1^2
    assert lambda_twisted(1, 2) == lambda_element(2).scale(2) - lambda_element(1) * lambda_element(1)
    with pytest.raises(ValueError):
        tau_twist(H.x_minus(1), 0)


def test_z_form_membership():
    for r in range(-6, 7):
        assert z_form_member(lambda_element(r)), r
    assert z_form_member(H.x_minus(0).scale(Fraction(1, 2)) * H.x_minus(0))
    assert not z_form_member(H.h(0).scale(Fraction(1, 2)))
    assert z_form_member(H.x_minus(2, 3) * H.x_plus(5, 2))


def test_ht_snot0_structure():
    # tau_k(Lambda_{±s}) - k Lambda_{±sk} is an integer combination of
    # Lambda-monomials of length >= 2
    for sign in (1, -1):
        for s in range(1, 7):
            for k in range(1, 7):
                if s * k > 6:
                    continue
                diff = tau_twist(lambda_element(sign * s), k) - lambda_element(sign * s * k).scale(k)
                expansion = cartan_to_lambda_monomials(diff)
                for profile, coeff in expansion.items():
                    length = sum(n for _, n in profile)
                    assert length >= 2, (sign, s, k, profile)
                    assert coeff.denominator == 1, (sign, s, k, profile, coeff)


def test_formal_ev_generators():
    ev = formal_ev(H.x_minus(3))
    assert ev == {(((LOWER, 0, 1),), 3): Fraction(1)}
    ev = formal_ev(H.h(-2))
    assert ev == {(((CARTAN, 0, 1),), -2): Fraction(1)}


def test_formal_ev_is_algebra_map():
    rng = random.Random(8)
    gens = [H.x_minus(1), H.x_plus(-1), H.h(2), H.x_minus(0, 2)]
    for _ in range(10):
        a, b = rng.choice(gens), rng.choice(gens)
        prod = formal_ev(a * b)
        # multiply the images: both live in U(sl2) ⊗ Q[t,t^-1]
        ea, eb = formal_ev(a), formal_ev(b)
        acc = {}
        for (ma, ta), ca in ea.items():
            for (mb, tb), cb in eb.items():
                prod_elem = HyperElement({ma: Fraction(1)}) * HyperElement({mb: Fraction(1)})
                for m, c in prod_elem.coeffs.items():
                    key = (m, ta + tb)
                    acc[key] = acc.get(key, Fraction(0)) + ca * cb * c
        acc = {k: v for k, v in acc.items() if v}
        assert prod == acc


def test_ev_lambda():
    for r in range(-6, 7):
        assert formal_ev(lambda_element(r)) == ev_lambda_expected(r), r


def test_basicrel_spec_examples():
    assert verify_basicrel(1, 1, 0, 1).is_zero()
    assert verify_basicrel(2, 1, 0, 1).is_zero()
    assert verify_basicrel(2, 2, 1, -1).is_zero()


def test_basicrel_grid():
    for k in range(1, 4):
        for l in range(1, k + 1):
            for s in range(-2, 3):
                for sign in (1, -1):
                    assert verify_basicrel(k, l, s, sign).is_zero(), (k, l, s, sign)


def test_hopf_axioms_small():
    # coassociativity and the antipode law on divided powers, degree <= 4,
    # and on the Lambda series, computed straight from the comultiplication
    # formulas Delta(x^(k)) = sum x^(l) ⊗ x^(m), Delta(Λ_k) = sum Λ_l ⊗ Λ_m.
    from math import comb

    for k in range(5):
        left = {(a, b, k - a - b) for a in range(k + 1) for b in range(k - a + 1)}
        right = set()
        for l in range(k + 1):
            for a in range(l + 1):
                right.add((a, l - a, k - l))
        assert left == right
    # antipode law: sum_l S(x^(l)) x^(m) = 0 for k >= 1
    for kind in (LOWER, RAISE):
        for k in range(1, 4):
            acc = H.zero()
            for l in range(k + 1):
                acc = acc + H.gen(kind, 1, l).scale((-1) ** l) * H.gen(kind, 1, k - l)
            assert acc.is_zero(), (kind, k)
    # antipode on the Lambda series is the series inverse: convolution with
    # the antipode image gives delta_{k,0}; S negates every h_r
    def antipode_cartan(e):
        out = {}
        for mono, c in e.coeffs.items():
            deg = sum(k for kind, r, k in mono if kind == CARTAN and r != 0)
            out[mono] = out.get(mono, Fraction(0)) + c * (-1) ** deg
        return HyperElement(out)

    for k in range(1, 5):
        acc = H.zero()
        for l in range(k + 1):
            acc = acc + antipode_cartan(lambda_element(l)) * lambda_element(k - l)
        assert acc.is_zero(), k


def test_weyl_upper_bound_deg1():
    for ring, a in ((QQ, Fraction(5)), (PrimeField(3), PrimeField(3)(2))):
        res = weyl_upper_bound([ring.one, -a], ring)
        assert res.dimension_bound == 2


def test_weyl_upper_bound_repeated_root():
    a = Fraction(3)
    res = weyl_upper_bound([Fraction(1), -2 * a, a * a], QQ)
    assert res.dimension_bound == 4
    assert res.stabilized
    # the relation x-_1 x-_0 = 2a (x-_0)^(2) is recovered
    target = {((0, 1), (1, 1)): Fraction(1), ((0, 2),): -2 * a}
    found = False
    for rel in res.relations:
        if set(rel) == set(target):
            lead = rel[((0, 1), (1, 1))]
            if all(rel[m] == lead * target[m] for m in target):
                found = True
    assert found


def test_weyl_upper_bound_distinct_roots():
    a, b = Fraction(2), Fraction(7)
    res = weyl_upper_bound([Fraction(1), -(a + b), a * b], QQ)
    assert res.dimension_bound == 4


def test_weyl_upper_bound_char_p():
    F = PrimeField(3)
    # omega = (1-u)^2 over F_3
    res = weyl_upper_bound([F(1), F(-2), F(1)], F)
    assert res.dimension_bound == 4


@pytest.mark.parametrize(
    "p, omega",
    [
        (2, (1, -4, 6, -4, 1)),  # (1-u)^4
        (3, (1, -6, 13, -12, 4)),  # (1-u)^2 (1-2u)^2: two double roots
    ],
    ids=["f2", "f3"],
)
def test_weyl_upper_bound_degree_4_over_f2(p, omega):
    # the sparse straightening echelon bounds W by 2^4
    F = PrimeField(p)
    res = weyl_upper_bound([F(c) for c in omega], F)
    assert res.dimension_bound == 16
    assert res.stabilized


def _reference_saturation(omega, ring, max_sweeps=5, margin=0):
    """weyl_upper_bound without its shortcuts: each sweep builds every
    (k, l, shift, multiplier) row, repeats included, and takes one dense
    RREF in the documented column order (out-of-range distance, degree,
    total slot value, monomial; descending)."""
    lam = len(omega) - 1

    def badness(mono):
        dist = sum(k * (max(0, -s) + max(0, s - (lam - 1))) for s, k in mono)
        return (dist, sum(k for _, k in mono), sum(abs(s) * k for s, k in mono), mono)

    def in_xi(mono):
        return all(0 <= s < lam for s, _ in mono)

    prev = None
    for sweep in range(max_sweeps):
        grow = sweep + margin
        shifts = range(-lam - grow, lam + 1 + grow)
        smin, smax = min(min(shifts) + 1, 0), max(max(shifts) + 2 * lam, lam - 1)
        slots = list(range(smin, smax + 1))
        columns = sorted(_lower_monomials(slots, lam), key=badness, reverse=True)
        col_index = {m: i for i, m in enumerate(columns)}
        rows = []
        for k in range(lam + 1, 2 * lam + 1):
            for l in range(max(1, k - lam), k):
                muls = _lower_monomials(slots, lam - (k - l))
                for shift in shifts:
                    rel = _relation_instance(k, l, shift, omega, ring)
                    if not rel or any(not smin <= s <= smax for m in rel for s, _ in m):
                        continue
                    for mul in muls:
                        row = {}
                        for mono, c in rel.items():
                            merged, extra = _merge_lower(mul, mono, ring)
                            row[col_index[merged]] = c * extra
                        rows.append(row)
        if ring.card is None:
            red, pivots = rref([[row.get(j, ring.zero) for j in range(len(columns))] for row in rows], ring)
            red = [{j: c for j, c in enumerate(row) if not ring.is_zero(c)} for row in red]
        else:
            dense = np.zeros((len(rows), len(columns)), dtype=np.int64)
            for i, row in enumerate(rows):
                for j, c in row.items():
                    dense[i, j] = c.v
            arr, pivots = np_rref(dense, ring)
            red = [{int(j): ring(int(row[j])) for j in np.flatnonzero(row)} for row in arr]
        pivot_set = set(pivots)
        basis = [m for j, m in enumerate(columns) if j not in pivot_set and in_xi(m)]
        rules, relations = {}, []
        for row, lead in zip(red, pivots):
            rest = {columns[j]: c for j, c in row.items() if j != lead}
            rules[columns[lead]] = {m: -c for m, c in rest.items()}
            if in_xi(columns[lead]):
                relations.append({columns[lead]: ring.one, **rest})
        stabilized = prev is not None and len(basis) == prev
        if stabilized:
            break
        prev = len(basis)
    basis.sort(key=lambda m: (sum(k for _, k in m), m))
    return basis, rules, relations, (smin, smax), len(basis), stabilized, sweep + 1


@st.composite
def weights(draw, qdeg=2):
    """(omega, ring): constant term 1 and a unit leading coefficient, over
    F_2..F_7 up to degree 3 and over Q up to degree qdeg (a dense RREF over
    Fractions at degree 3 takes minutes)."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7]))
    if p:
        ring = PrimeField(p)
        coeff, lead = st.integers(0, p - 1), st.integers(1, p - 1)
    else:
        ring = QQ
        coeff = st.fractions(-3, 3, max_denominator=3)
        lead = coeff.filter(bool)
    deg = draw(st.integers(1, 3 if p else qdeg))
    cs = [1] + [draw(coeff) for _ in range(deg - 1)] + [draw(lead)]
    return [ring(c) if p else Fraction(c) for c in cs], ring


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(weights())
def test_weyl_upper_bound_matches_dense_reference(case):
    # the echelon carried across sweeps, the repeated rows skipped and the
    # indexed pivot updates give the very result of one dense RREF per sweep
    omega, ring = case
    res = weyl_upper_bound(omega, ring)
    got = (res.basis, res._rules, res.relations, res.window, res.dimension_bound, res.stabilized, res.sweeps)
    assert got == _reference_saturation(omega, ring)


@settings(max_examples=40, deadline=None)
@given(weights(qdeg=3), st.data())
def test_relation_instances_translate_the_shift_zero_instance(case, data):
    # building each (k, l) once at shift 0 and moving its slots gives the
    # instances of building every (k, l, shift), deduplicated by value in
    # first-seen order, on every window
    omega, ring = case
    lam = len(omega) - 1
    sc = scalars(ring)
    omega = [sc.lift(c) for c in omega]
    lo, hi = data.draw(st.integers(-lam - 3, 0)), data.draw(st.integers(0, lam + 3))
    shifts = range(lo, hi + 1)
    smin = data.draw(st.integers(lo - 1, 1))
    smax = data.draw(st.integers(lam - 1, hi + 2 * lam + 1))
    expected = {}
    for k in range(lam + 1, 2 * lam + 1):
        for l in range(max(1, k - lam), k):
            for shift in shifts:
                rel = _relation_instance(k, l, shift, omega, sc)
                if rel and all(smin <= s <= smax for m in rel for s, _ in m):
                    expected.setdefault(frozenset(rel.items()), rel)
    got = _relation_instances(_relation_bases(lam, omega, sc), shifts, smin, smax)
    assert list(got) == list(expected)
    assert list(got.values()) == list(expected.values())


@pytest.mark.parametrize(
    "ring, omega, kind",
    [
        (PrimeField(2), (1, 0, 1), FpElem),
        (PrimeField(3), (1, 1, 1), FpElem),
        (PrimeField(5), (1, -6, 13, -12, 4), FpElem),
        (QQ, (1, -6, 9), Fraction),
        (SymField(("a",)), None, SymElem),
    ],
    ids=["f2", "f3", "f5", "q", "qa"],
)
def test_saturation_results_are_ring_elements(ring, omega, kind):
    # the echelon runs on int residues over F_p; rules, relations and
    # reduced coordinates are boxed back into the ring
    if omega is None:
        a = ring.var("a")
        omega = [ring.one, -(a + a), a * a]
    else:
        omega = [ring.from_int(c) for c in omega]
    res = weyl_upper_bound(omega, ring)
    values = [c for rule in res._rules.values() for c in rule.values()]
    values += [c for rel in res.relations for c in rel.values()]
    assert res.relations and values
    assert all(type(c) is kind for c in values)
    if kind is FpElem:
        assert all(c.p == ring.p for c in values)
    pivots = [m for m in res._rules if sum(k for _, k in m) <= res.lam]
    coords = [res.reduce({m: ring.one}) for m in pivots[:20]]
    assert coords and all(type(c) is kind for row in coords for c in row)


def test_weyl_upper_bound_rejects_bad_input():
    with pytest.raises(ValueError):
        weyl_upper_bound([Fraction(0), Fraction(1)], QQ)


def test_canonical_str():
    e = H.x_minus(1, 2) * H.binom_h(1) * H.x_plus(0)
    s = e.canonical_str()
    assert "(x-_1)^(2)" in s and "binom(h,1)" in s and "(x+_0)^(1)" in s


def test_from_word_matches_pbw_product():
    # raw-word normal ordering agrees with multiplication of PBW generators
    words = [
        [(RAISE, 0), (LOWER, 0)],
        [(LOWER, 1), (RAISE, -1), (CARTAN, 2)],
        [(CARTAN, 0), (LOWER, 0), (LOWER, 0), (RAISE, 1)],
    ]
    for letters in words:
        prod = H.one()
        for kind, r in letters:
            prod = prod * H.gen(kind, r, 1)
        assert H.from_word(letters) == prod


def test_counit_law():
    # epsilon kills divided powers; mu(epsilon ⊗ 1)Delta = id on x^(k) reduces
    # to the l = 0 term of the comultiplication, which is 1 ⊗ x^(k)
    for k in range(1, 5):
        terms = [(l, k - l) for l in range(k + 1)]
        surviving = [m for l, m in terms if l == 0]
        assert surviving == [k]
