"""Generated-input cross-checks of the q-independent prime-field paths.

The eigenvalue and root finders are compared with scans of the field, and
the structural r-window of op_ratios with the periodic window it replaces.
"""

from collections import Counter

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from hlx.drinfeld import factor_poly_unit_roots
from hlx.exactnum import Poly, PrimeField, fppoly_roots, is_prime
from hlx.linalg import np_eigenvalues, np_inverse, np_nullspace
from hlx.looppbw import LOWER, RAISE
from hlx.meataxe import (
    _hom_space_nonzero,
    _spin_up_np,
    _submodule_and_quotient,
    is_irreducible,
    iso_ell_hw,
    np_generator_set,
)
from hlx.modrep import (
    build_module,
    ell_hw_vectors,
    eval_weyl_module,
    generator_exponents,
    ratio_window,
    tensor,
)

SMALL_PRIMES = [2, 3, 5, 7]
PRIMES = SMALL_PRIMES + [q for q in range(11, 1000) if is_prime(q)]
primes = st.one_of(st.sampled_from(SMALL_PRIMES), st.sampled_from(PRIMES))
SETTINGS = settings(
    max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much]
)


@st.composite
def square_matrices(draw):
    p = draw(primes)
    n = draw(st.integers(1, 6))
    entries = st.integers(0, p - 1)
    a = np.array(draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=np.int64).reshape(n, n)
    if draw(st.booleans()):
        # a rank-one update of a scalar: one eigenvalue of high multiplicity
        u = np.array(draw(st.lists(entries, min_size=n, max_size=n)), dtype=np.int64)
        a = (draw(entries) * np.eye(n, dtype=np.int64) + np.outer(u, u)) % p
    return p, a


@SETTINGS
@given(square_matrices())
def test_eigenvalues_match_nullspace_scan(pa):
    p, a = pa
    n = a.shape[0]
    scan = [nu for nu in range(p) if np_nullspace((a - nu * np.eye(n, dtype=np.int64)) % p, p).shape[0]]
    assert np_eigenvalues(a, p) == scan


@SETTINGS
@given(primes, st.data())
def test_roots_match_evaluation(p, data):
    f = data.draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=10))
    assume(any(f[1:]))
    brute = [x for x in range(p) if sum(c * pow(x, i, p) for i, c in enumerate(f)) % p == 0]
    assert fppoly_roots(f, p) == brute


@SETTINGS
@given(primes, st.data())
def test_unit_root_factorization_matches_scan_order(p, data):
    assume(p > 2)
    F = PrimeField(p)
    params = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=6))
    extra = data.draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=3))
    f = Poly.const(F, F.one)
    for a in params:
        f = f * Poly(F, [F.one, F(-a)])
    got = factor_poly_unit_roots(f)
    # a field scan finds the roots a_j of the reversed polynomial ascending
    assert [(a.v, mult) for a, mult in got.items()] == sorted(Counter(params).items())
    # an extra factor without roots in F_p must be refused, never dropped
    g = Poly(F, [F.one] + [F(c) for c in extra])
    rev = list(reversed(g.coeffs))
    if g.degree() >= 1 and not fppoly_roots([c.v for c in rev], p):
        try:
            factor_poly_unit_roots(f * g)
        except ValueError:
            pass
        else:
            raise AssertionError("non-split factor accepted")


# ---------------------------------------------------------------------------
# structural recipes: r-window of op_ratios against the periodic window
# ---------------------------------------------------------------------------


def _recipes(p):
    units = st.integers(1, p - 1).map(str)
    leaf = st.one_of(
        st.builds(lambda lam, a: {"eval_weyl": {"lambda": lam, "a": a}}, st.integers(0, 3), units),
        st.builds(lambda lam, a: {"irreducible": {"lambda": lam, "a": a}}, st.integers(1, 2 * p), units),
    )

    def extend(children):
        return st.one_of(
            st.builds(lambda a, b: {"tensor": [a, b]}, children, children),
            children.map(lambda c: {"dual": c}),
            children.map(lambda c: {"frobenius_twist": {"m": 1, "of": c}}),
            st.builds(lambda c, a: {"psi_twist": {"a": a, "of": c}}, children, units),
        )

    return st.recursive(leaf, extend, max_leaves=4)


@st.composite
def structural_recipes(draw):
    p = draw(st.sampled_from(SMALL_PRIMES))
    recipe = draw(_recipes(p))
    assume(1 <= build_module(recipe, PrimeField(p)).dim <= 12)
    return recipe, PrimeField(p)


@settings(SETTINGS, max_examples=60)
@given(structural_recipes(), st.data())
def test_structural_window_keeps_spans(recipe_ring, data):
    m = build_module(*recipe_ring)
    old = m.periodic_window()
    assert m.r_window() <= old
    assert ell_hw_vectors(m) == ell_hw_vectors(m, r_window=old)
    p = m.ring.p
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=m.dim, max_size=m.dim))
    vec = [m.ring(c) for c in v]
    assert _spin_up_np(m, [vec], np_generator_set(m)) == _spin_up_np(m, [vec], np_generator_set(m, old))
    res = is_irreducible(m)
    m_old = build_module(*recipe_ring)
    m_old.r_window = m_old.periodic_window
    res_old = is_irreducible(m_old)
    if res.verdict is not None and res_old.verdict is not None:
        assert res.verdict == res_old.verdict
    if res.verdict is False:
        # chop subquotients inherit the ratios through explicit_module
        rows = [[m.ring.parse(c) for c in row] for row in res.certificate["witness"]]
        if "dual_witness_dim" not in res.certificate:
            for part in _submodule_and_quotient(m, rows):
                if part.dim:
                    assert part.op_ratios(1) == m.op_ratios(1)
                    assert ell_hw_vectors(part) == ell_hw_vectors(part, r_window=part.periodic_window())


@SETTINGS
@given(structural_recipes())
def test_op_ratios_decompose_the_tables(recipe_ring):
    # (x±_r)^(k) = sum_c c^r M_c over the claimed ratios: fit the M_c on N
    # consecutive r by the Vandermonde inverse, then predict other r
    m = build_module(*recipe_ring)
    p = m.ring.p
    for k in generator_exponents(p, m.max_exponent()):
        cs = sorted(c.v for c in m.op_ratios(k))
        for kind in (LOWER, RAISE):
            tables = {r: m.op_np(kind, r, k).reshape(-1) for r in range(-3, len(cs) + 3)}
            if not cs:
                assert not any(t.any() for t in tables.values())
                continue
            vinv = np_inverse(np.array([[pow(c, r, p) for c in cs] for r in range(len(cs))]), p)
            parts = vinv @ np.array([tables[r] for r in range(len(cs))]) % p
            for r, table in tables.items():
                powers = np.array([pow(c, r, p) for c in cs])
                assert ((powers @ parts - table) % p == 0).all()


def test_hom_window_uses_the_union_of_ratios():
    F = PrimeField(7)
    w = [eval_weyl_module(F, 1, F(a)) for a in (2, 3, 5)]
    m1, m2, m3 = tensor(w[0], w[1]), tensor(w[1], w[0]), tensor(w[0], w[2])
    assert m1.r_window() == 2
    assert iso_ell_hw(m1, m2)
    assert not iso_ell_hw(m1, m3)
    assert ratio_window(m1, m3) == 3
    assert _hom_space_nonzero(m1, m2)
    assert not _hom_space_nonzero(m1, m3)
