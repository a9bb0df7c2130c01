import random
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hlx.exactnum import QQ, PrimeField, residue, val_p
from hlx.lattice import (
    LatticeBasis,
    LatticeError,
    _canonical_rep,
    _recurrence_windows,
    _verify_invariance,
    canonicalize,
    compare_lattices,
    conjecture_cp0_report,
    dvr_smith_valuations,
    lattice_closure,
    reduce_mod_p,
    tensor_lattice,
)
from hlx.linalg import Mat, from_np
from hlx.looppbw import LOWER, RAISE
from hlx.modrep import (
    drinfeld_polynomial,
    dual,
    eval_weyl_module,
    explicit_module,
    frobenius_twist,
    psi_twist,
    tensor,
    weyl0_from_roots,
)


def test_canonicalize_unique_and_integral():
    p = 3
    rows = [
        [Fraction(3), Fraction(6), Fraction(0)],
        [Fraction(1), Fraction(2), Fraction(1)],
        [Fraction(0), Fraction(9), Fraction(3)],
    ]
    basis = canonicalize(rows, p)
    # order independence
    rng = random.Random(5)
    for _ in range(6):
        shuffled = list(rows)
        rng.shuffle(shuffled)
        assert canonicalize(shuffled, p) == basis
    for r in basis:
        for c in r:
            if c:
                assert val_p(c, p) >= 0


def _dense_canonicalize(rows, p, weights=None):
    # the Hermite form with every row operation over every column
    work = [list(map(Fraction, r)) for r in rows if any(map(Fraction, r))]
    if not work:
        return []
    n = len(work[0])
    order = sorted(range(n), key=lambda j: (-weights[j], j)) if weights is not None else list(range(n))
    done = []
    for col in order:
        best = None
        for i, r in enumerate(work):
            if r[col] != 0:
                v = val_p(r[col], p)
                if best is None or v < best[1]:
                    best = (i, v)
        if best is None:
            continue
        i0, v0 = best
        row = work.pop(i0)
        unit = row[col] / Fraction(p) ** v0
        row = [c / unit for c in row]
        for r in work:
            if r[col] != 0:
                q = r[col] / row[col]
                for j in range(n):
                    r[j] -= q * row[j]
        for r in done:
            e = r[col]
            if e != 0:
                m = (e - _canonical_rep(e, p, v0)) / row[col]
                for j in range(n):
                    r[j] -= m * row[j]
        done.append(row)
    return done


@st.composite
def _hermite_inputs(draw):
    # sparse p-integral rows, with zero rows, repeated rows and p-multiples
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    dens = [d for d in (1, 2, 3, 5, 7) if d % p]
    nonzero = st.builds(
        lambda c, e, d: Fraction(c * p ** e, d), st.integers(-9, 9), st.integers(0, 2), st.sampled_from(dens)
    )
    entry = st.one_of(st.just(Fraction(0)), nonzero)
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=6))
    for how in draw(st.lists(st.sampled_from(["zero", "repeat", "p-multiple"]), max_size=3)):
        if how == "zero" or not rows:
            rows.append([Fraction(0)] * n)
        else:
            r = rows[draw(st.integers(0, len(rows) - 1))]
            rows.append(list(r) if how == "repeat" else [p * c for c in r])
    rows = draw(st.permutations(rows))
    weights = draw(st.one_of(st.none(), st.lists(st.integers(-3, 3), min_size=n, max_size=n)))
    return rows, p, weights


@settings(max_examples=150, deadline=None)
@given(_hermite_inputs())
def test_canonicalize_matches_the_dense_elimination(case):
    # canonicalize runs its row operations over the pivot row's support only
    rows, p, weights = case
    assert canonicalize(rows, p, weights) == _dense_canonicalize(rows, p, weights)


def test_closure_rank2_eval():
    a = Fraction(2)
    m = eval_weyl_module(QQ, 1, a)
    lat = lattice_closure(m, m.hw_vector(), 3)
    assert lat.rank == 2
    assert lat.weights == (1, -1)


def test_closure_weyl0_repeated_root():
    # L1 = A-span of {v0, v1, v2, v3} in W0((1-au)^2)
    a = Fraction(1)
    m = weyl0_from_roots(QQ, [a, a])
    lat = lattice_closure(m, m.hw_vector(), 3)
    assert lat.rank == 4
    assert sorted(lat.weights, reverse=True) == [2, 0, 0, -2]
    # the four basis vectors are unit multiples of v0, v1, v3, v2
    for r in lat.rows:
        nz = [i for i, c in enumerate(r) if c]
        assert len(nz) == 1


def test_closure_full_tensor_lattice():
    # distinct unit roots: the closure is a full lattice (rank = dim)
    m = tensor(eval_weyl_module(QQ, 1, Fraction(1)), eval_weyl_module(QQ, 1, Fraction(4)))
    lat = lattice_closure(m, m.hw_vector(), 3)
    assert lat.rank == 4


def test_closure_rejects_nonunit_parameter():
    m = eval_weyl_module(QQ, 1, Fraction(3))
    with pytest.raises(LatticeError):
        lattice_closure(m, m.hw_vector(), 3)


def test_reduce_mod_p_weyl1():
    b = Fraction(5)
    m = eval_weyl_module(QQ, 1, b)
    lat = lattice_closure(m, m.hw_vector(), 3)
    red = reduce_mod_p(lat)
    assert red.dim == 2
    F = PrimeField(3)
    poly, report = drinfeld_polynomial(red)
    assert poly.polys[0].coeffs == (F.one, -F(5))
    assert report["plus_polynomial"] and report["minus_matches"]


def test_reduce_preserves_weight_multiplicities():
    m = tensor(eval_weyl_module(QQ, 1, Fraction(1)), eval_weyl_module(QQ, 1, Fraction(4)))
    lat = lattice_closure(m, m.hw_vector(), 3)
    red = reduce_mod_p(lat)
    amb_mult = m.weight_multiplicities()
    red_mult = red.weight_multiplicities()
    assert amb_mult == red_mult


def test_reduction_with_coincident_residues():
    # W0((1-u)(1-4u)) mod 3 gives a 4-dimensional module with Drinfeld
    # polynomial (1-u)^2 over F_3
    m = tensor(eval_weyl_module(QQ, 1, Fraction(1)), eval_weyl_module(QQ, 1, Fraction(4)))
    lat = lattice_closure(m, m.hw_vector(), 3)
    red = reduce_mod_p(lat)
    assert red.dim == 4
    F = PrimeField(3)
    poly, _ = drinfeld_polynomial(red)
    assert poly.polys[0].coeffs == (F(1), F(-2), F(1))


def test_modules_built_on_a_reduction_keep_the_dim2_window():
    # a lattice reduction has no ratio data, and neither has anything built
    # on it: its tables need not be (q-1)-periodic in r
    m = tensor(*[eval_weyl_module(QQ, 1, Fraction(a)) for a in (1, 3, 5, 7)])
    red = reduce_mod_p(lattice_closure(m, m.hw_vector(), 2))
    F = red.ring
    assert red.r_window() == red.dim ** 2 == 256
    built = [
        dual(red),
        psi_twist(red, F.one),
        frobenius_twist(red, 1),
        tensor(red, eval_weyl_module(F, 1, F.one)),
    ]
    for b in built:
        assert b.r_window() == b.dim ** 2


def test_tell_functoriality():
    # (L1 ⊗ L2)_F ≅ L1_F ⊗ L2_F: same dimension, weights and Drinfeld data
    f1 = eval_weyl_module(QQ, 1, Fraction(2))
    f2 = eval_weyl_module(QQ, 1, Fraction(5))
    amb = tensor(f1, f2)
    l1 = lattice_closure(f1, f1.hw_vector(), 3)
    l2 = lattice_closure(f2, f2.hw_vector(), 3)
    big = tensor_lattice(l1, l2, amb)
    red_big = reduce_mod_p(big)
    t = tensor(reduce_mod_p(l1), reduce_mod_p(l2))
    assert red_big.dim == t.dim
    assert sorted(red_big.weights) == sorted(t.weights)
    p1, _ = drinfeld_polynomial(red_big)
    p2, _ = drinfeld_polynomial(t)
    assert p1 == p2


def test_compare_lattices_equal_and_strict():
    # residues distinct: L = L'; val(a-b) = 1: colength 4
    for b, expect_total in ((Fraction(2), 0), (Fraction(4), 4)):
        w4 = weyl0_from_roots(QQ, [Fraction(1), Fraction(1)])
        w2 = eval_weyl_module(QQ, 1, b)
        amb = tensor(w4, w2)
        lat = lattice_closure(amb, amb.hw_vector(), 3)
        l1 = lattice_closure(w4, w4.hw_vector(), 3)
        l2 = lattice_closure(w2, w2.hw_vector(), 3)
        big = tensor_lattice(l1, l2, amb)
        div = compare_lattices(lat, big)
        assert div.total == expect_total
        if expect_total == 0:
            assert div.is_equality()


def test_compare_self():
    m = eval_weyl_module(QQ, 2, Fraction(1))
    lat = lattice_closure(m, m.hw_vector(), 3)
    div = compare_lattices(lat, lat)
    assert div.is_equality()


def test_smith_valuations():
    p = 3
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(9)]]
    assert dvr_smith_valuations(rows, p) == [0, 2]
    rows = [
        [Fraction(1), Fraction(0), Fraction(-1)],
        [Fraction(0), Fraction(1), Fraction(2)],
        [Fraction(1), Fraction(4), Fraction(16)],
    ]
    vals = dvr_smith_valuations(rows, p)
    assert sum(vals) == 2  # det = (1-4)^2 = 9


def test_conjecture_report_deg1():
    rep = conjecture_cp0_report([Fraction(2)], 3)
    assert rep["status"] == "VERIFIED"
    assert rep["lower"] == rep["upper"] == 2


def test_conjecture_report_deg2():
    rep = conjecture_cp0_report([Fraction(1), Fraction(4)], 3)
    assert rep["lower"] == 4
    assert rep["upper"] == 4
    assert rep["status"] == "VERIFIED"
    assert "part_b" not in rep  # residues coincide


def test_conjecture_report_part_b():
    rep = conjecture_cp0_report([Fraction(1), Fraction(2)], 3)
    assert rep["status"] == "VERIFIED"
    assert rep["part_b"]["equal"] is True


def test_rank_equality_higher_weight_tensor():
    # irreducible tensor ambient with distinct unit parameters: full lattice
    m = tensor(eval_weyl_module(QQ, 2, Fraction(1)), eval_weyl_module(QQ, 1, Fraction(2)))
    lat = lattice_closure(m, m.hw_vector(), 3)
    assert lat.rank == m.dim == 6


def _wide_window(m):
    # every loop degree r in [-2 dim, 2 dim]: far wider than any recurrence
    # window, and independent of how the lattice was built
    return range(-2 * m.dim, 2 * m.dim + 1)


def _oracle_invariant(m, lat, kmax):
    # the row-by-row check on Fractions: every image of a basis row under a
    # certified operator has p-integral coordinates in the basis
    checks = [m.op(kind, r, k) for kind in (LOWER, RAISE) for r in _wide_window(m) for k in range(1, kmax + 1)]
    checks += [m.cartan_binom(k) for k in range(1, kmax + 1)]
    prec = m.lam_precision()
    checks += [m.lam(r) for r in range(-prec + 1, prec) if r]
    for mat in checks:
        for row in lat.rows:
            img = mat.apply(list(row))
            if any(img) and not lat.contains(img):
                return False
    return True


def _integer_invariant(m, lat, kmax):
    try:
        _verify_invariance(m, lat, kmax, _recurrence_windows(m, lat.p, kmax))
    except LatticeError as exc:
        assert str(exc) == "lattice is not invariant under a certified operator"
        return False
    return True


def _top_vector(m):
    # the basis vector of the highest weight: a dual has no hw_index
    top = m.weights.index(max(m.weights))
    return [Fraction(int(i == top)) for i in range(m.dim)]


@st.composite
def closure_lattices(draw):
    # evaluation modules and their tensor products, with roots that may share
    # a residue (part (a) of the conjecture), maybe dualized or psi-twisted
    p = draw(st.sampled_from([2, 3, 5, 7]))
    units = st.builds(
        Fraction,
        st.integers(-3 * p, 3 * p).filter(lambda n: n % p),
        st.integers(1, 2 * p).filter(lambda n: n % p),
    )
    lams = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    roots = [draw(units) for _ in lams]
    if len(roots) == 2 and draw(st.booleans()):
        roots[1] = roots[0] + p * draw(st.integers(1, 3))
    factors = [eval_weyl_module(QQ, lam, a) for lam, a in zip(lams, roots)]
    m = factors[0] if len(factors) == 1 else tensor(*factors)
    twist = draw(st.sampled_from([None, "dual", "psi"]))
    if twist == "dual":
        m = dual(m)
    elif twist == "psi":
        m = psi_twist(m, draw(units))
    return m, lattice_closure(m, _top_vector(m), p)


def _reference_closure(m, v, p):
    # the lowering fixpoint over every r in [-2 dim, 2 dim], on Fractions
    kmax = max(1, m.max_exponent())
    ops = [m.op(LOWER, r, k) for r in _wide_window(m) for k in range(1, kmax + 1)]
    basis = canonicalize([v], p, m.weights)
    while True:
        merged = canonicalize(basis + [op.apply(list(row)) for op in ops for row in basis], p, m.weights)
        if merged == basis:
            return basis
        basis = merged


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(closure_lattices())
def test_closure_matches_a_wide_window_reference(case):
    # the closure runs over r in [0, n_k) only, by the ratio recurrence
    m, lat = case
    windows = _recurrence_windows(m, lat.p, max(1, m.max_exponent()))
    assert lat.stable_window == max(len(rs) for rs in windows.values())
    assert [list(r) for r in lat.rows] == _reference_closure(m, _top_vector(m), lat.p)


def test_closure_requests_only_the_recurrence_windows():
    # W(1,1)⊗W(1,4)⊗W(1,7) at p = 3: the ratios of degree k = 1, 2, 3 are
    # {1, 4, 7}, {4, 7, 28} and {28}, so n = 3, 3, 1
    m = tensor(*[eval_weyl_module(QQ, 1, Fraction(a)) for a in (1, 4, 7)])
    requests = []
    op = m.op

    def counted(kind, r, k):
        requests.append((kind, r, k))
        return op(kind, r, k)

    m.op = counted
    lat = lattice_closure(m, m.hw_vector(), 3)
    windows = {1: 3, 2: 3, 3: 1}
    assert lat.stable_window == 3
    want = [(kind, r, k) for kind in (LOWER, RAISE) for k, n in windows.items() for r in range(n)]
    assert sorted(requests) == sorted(want)
    assert sum(kind == LOWER for kind, _, _ in requests) == sum(kind == RAISE for kind, _, _ in requests) == 7


def test_max_window_caps_only_the_doubling_search():
    # weyl0 has no ratio data: its window doubles from max|weight| = 2 and
    # stabilizes at W = 4; an evaluation tensor needs no search
    w0 = weyl0_from_roots(QQ, [Fraction(1), Fraction(1)])
    lat = lattice_closure(w0, w0.hw_vector(), 3)
    assert lat.stable_window == 4
    with pytest.raises(LatticeError, match="^closure did not stabilize within window 2$"):
        lattice_closure(w0, w0.hw_vector(), 3, max_window=2)
    m = tensor(eval_weyl_module(QQ, 1, Fraction(1)), eval_weyl_module(QQ, 1, Fraction(4)))
    assert lattice_closure(m, m.hw_vector(), 3, max_window=1).stable_window == 2


def test_closure_rejects_a_ratio_that_is_not_a_unit():
    # the recipe names no parameter, so only the ratio data shows that 3 is
    # not a unit in Z_(3)
    w = eval_weyl_module(QQ, 1, Fraction(3))
    m = explicit_module(QQ, w.weights, {"explicit": {}}, w.op, w.lam, hw_index=0, ratio_fn=w.op_ratios)
    with pytest.raises(LatticeError, match="^ratio 3 of the degree-1 tables is not a unit in Z_\\(3\\)$"):
        lattice_closure(m, m.hw_vector(), 3)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(closure_lattices(), st.data())
def test_integer_invariance_check_agrees_with_fraction_check(case, data):
    m, lat = case
    p, kmax = lat.p, max(1, m.max_exponent())
    assert _integer_invariant(m, lat, kmax) and _oracle_invariant(m, lat, kmax)
    rows = [list(r) for r in lat.rows]
    i = data.draw(st.integers(0, len(rows) - 1))
    # one row multiplied by p: still an echelon basis, of a smaller lattice
    scaled = [[c * p for c in r] if j == i else r for j, r in enumerate(rows)]
    # one row replaced by a random p-integral vector, then made canonical
    entries = st.builds(Fraction, st.integers(-p, p), st.integers(1, 2 * p).filter(lambda n: n % p))
    swapped = list(rows)
    swapped[i] = data.draw(st.lists(entries, min_size=m.dim, max_size=m.dim))
    swapped = canonicalize(swapped, p, m.weights)
    for perturbed in (scaled, swapped):
        bad = LatticeBasis(m, p, perturbed, lat.stable_window)
        assert _integer_invariant(m, bad, kmax) == _oracle_invariant(m, bad, kmax)


def test_integer_invariance_check_rejects_a_row_times_p():
    m = tensor(eval_weyl_module(QQ, 1, Fraction(1)), eval_weyl_module(QQ, 2, Fraction(4)))
    lat = lattice_closure(m, m.hw_vector(), 3)
    kmax = m.max_exponent()
    for i in range(lat.rank):
        rows = [[c * 3 for c in r] if j == i else list(r) for j, r in enumerate(lat.rows)]
        bad = LatticeBasis(m, 3, rows, lat.stable_window)
        assert not _integer_invariant(m, bad, kmax)
        assert not _oracle_invariant(m, bad, kmax)


def _fraction_reduce_matrix(lat, mat):
    # the Fraction route: apply the ambient table to each basis row, solve
    # for the image's coordinates in the basis and take their residues
    p = lat.p
    cols = []
    for row in lat.rows:
        coords = lat.coords(mat.apply(list(row)))
        if coords is None:
            raise LatticeError("operator leaves the lattice span")
        if any(val_p(c, p) < 0 for c in coords):
            raise LatticeError("operator violates lattice invariance mod %d" % p)
        cols.append([residue(c, p) for c in coords])
    return Mat(PrimeField(p), list(zip(*cols)))


def _reduced_tables(m, lat, red):
    # (reduced table, ambient table) of each operator certified on lat
    kmax = max(1, m.max_exponent())
    for kind in (LOWER, RAISE):
        for r in _wide_window(m):
            for k in range(1, kmax + 1):
                yield partial(red.op_np, kind, r, k), m.op(kind, r, k)
    prec = m.lam_precision()
    for r in range(-prec + 1, prec):
        yield partial(red.lam_np, r), m.lam(r)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(closure_lattices())
def test_reduction_agrees_with_the_fraction_route(case):
    m, lat = case
    red = reduce_mod_p(lat)
    for table, ambient in _reduced_tables(m, lat, red):
        assert from_np(table(), red.ring) == _fraction_reduce_matrix(lat, ambient)


def test_reduction_rejects_a_row_times_p():
    m = tensor(eval_weyl_module(QQ, 1, Fraction(1)), eval_weyl_module(QQ, 2, Fraction(4)))
    lat = lattice_closure(m, m.hw_vector(), 3)
    for i in range(lat.rank):
        rows = [[c * 3 for c in r] if j == i else list(r) for j, r in enumerate(lat.rows)]
        bad = LatticeBasis(m, 3, rows, lat.stable_window)
        red = reduce_mod_p(bad)
        with pytest.raises(LatticeError, match="^operator violates lattice invariance mod 3$"):
            for table, ambient in _reduced_tables(m, bad, red):
                table()
