"""Generated-input cross-checks of the q-independent paths.

The int64 kernel of every finite field is compared with the boxed Mat
routines and with scans of the field, and brute-force witnesses with the
boxed generators; the structural r-window of op_ratios with the periodic
window min(dim^2, q - 1), the ell-weight labels of structural modules with
the matrix path on independently built Lambda tables, every recipe node's
array tables (and, over Q, its boxed tables) with dense Mat tables built
from the node's formulas, and the norm-based extension hint with root
enumeration in the extension field.
"""

import functools
import itertools
import json
import operator
import time
from collections import Counter

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hlx import modrep
from hlx.drinfeld import FieldExtensionNeeded, _extension_hint, _roots_in_field, factor_poly_unit_roots
from hlx.exactnum import (
    QQ,
    FiniteField,
    Poly,
    PrimeField,
    field_roots,
    fppoly_roots,
    integer_binomial,
    is_prime,
    ring_pow,
)
from hlx.linalg import (
    Mat,
    NpEchelon,
    arrays,
    det,
    from_np,
    kernel,
    np_charpoly,
    np_eigenvalues,
    np_inverse,
    np_nullspace,
    np_rref,
    rref,
    tables,
    to_np,
)
from hlx.looppbw import LOWER, RAISE
from hlx.meataxe import (
    _hom_space_nonzero,
    _spin_np_dim,
    _submodule_and_quotient,
    brute_force_irreducible,
    chop,
    is_irreducible,
    iso_ell_hw,
    np_generator_set,
    spin_up,
)
from hlx.modrep import (
    build_module,
    drinfeld_polynomial,
    ell_hw_vectors,
    ell_weight_decomposition,
    eval_weyl_module,
    explicit_module,
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
    scan = [nu for nu in range(p) if np_nullspace((a - nu * np.eye(n, dtype=np.int64)) % p, PrimeField(p)).shape[0]]
    assert np_eigenvalues(a, PrimeField(p)) == scan


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
# the int64 kernel of every finite field against the boxed routines
# ---------------------------------------------------------------------------

KERNEL_FIELDS = [PrimeField(p) for p in SMALL_PRIMES] + [
    FiniteField(2, 2), FiniteField(2, 3), FiniteField(3, 2), FiniteField(5, 2)
]


def _element(F, n):
    return F(n) if isinstance(F, PrimeField) else F.element(n)


@st.composite
def field_matrices(draw, F=None, rows=None, cols=None):
    F = draw(st.sampled_from(KERNEL_FIELDS)) if F is None else F
    m = draw(st.integers(1, 5)) if rows is None else rows
    n = draw(st.integers(1, 5)) if cols is None else cols
    # a few values, so that pivots clash and nullities are positive
    values = st.sampled_from(sorted({0, 1, F.card - 1, draw(st.integers(0, F.card - 1))}))
    return F, Mat(F, [[_element(F, draw(values)) for _ in range(n)] for _ in range(m)])


class _PolyRing:
    """F[x] as a ring descriptor, for the boxed det(x I - A)."""

    def __init__(self, F):
        self.zero, self.one = Poly(F, []), Poly(F, [F.one])

    def is_zero(self, f):
        return f.is_zero()


@SETTINGS
@given(field_matrices(), st.data())
def test_kernel_products_match_boxed(fa, data):
    F, a = fa
    _, b = data.draw(field_matrices(F, rows=a.shape[1]))
    assert from_np(arrays(F).mul(to_np(a), to_np(b)), F) == a * b


@SETTINGS
@given(field_matrices())
def test_kernel_rref_and_nullspace_match_boxed(fa):
    F, a = fa
    K = arrays(F)
    rows, pivots = np_rref(to_np(a), F)
    want_rows, want_pivots = rref(a.rows, F)
    assert (K.to_rows(rows), pivots) == (want_rows, want_pivots)
    assert K.to_rows(np_nullspace(to_np(a), F)) == kernel(a)


@SETTINGS
@given(st.integers(1, 5).flatmap(lambda n: field_matrices(rows=n, cols=n)))
def test_kernel_inverse_and_characteristic_polynomial(fa):
    F, a = fa
    K = arrays(F)
    n = a.shape[0]
    if kernel(a):
        try:
            np_inverse(to_np(a), F)
        except ZeroDivisionError:
            pass
        else:
            raise AssertionError("a singular matrix was inverted")
    else:
        assert from_np(np_inverse(to_np(a), F), F) * a == Mat.identity(F, n)
    charpoly = [K.box(c) for c in np_charpoly(to_np(a), F)]
    if n <= 4:
        R = _PolyRing(F)
        xa = Mat(R, [[Poly(F, [-a[i, j]] + ([F.one] if i == j else [])) for j in range(n)] for i in range(n)])
        assert Poly(F, charpoly) == det(xa)
    # eigenvalues: a scan of the field for a nonzero kernel of A - t I
    scan = [t for t in F.elements() if kernel(a - Mat.identity(F, n).scale(t))]
    assert [K.box(t) for t in np_eigenvalues(to_np(a), F)] == scan


@SETTINGS
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_roots_match_a_scan_in_index_order(F, data):
    coeffs = data.draw(st.lists(st.integers(0, F.card - 1).map(lambda n: _element(F, n)), min_size=1, max_size=8))
    f = Poly(F, coeffs)
    assume(f.degree() >= 1)
    assert field_roots(F, coeffs) == [t for t in F.elements() if F.is_zero(f.eval(t))]


@st.composite
def brute_force_modules(draw, fields=KERNEL_FIELDS[4:], bound=7000):
    F = draw(st.sampled_from(fields))
    if draw(st.booleans()):
        # W(l, a) (x) W(l', b) is reducible when a = b
        a = _element(F, draw(st.integers(1, F.card - 1)))
        b = draw(st.sampled_from([a, _element(F, draw(st.integers(1, F.card - 1)))]))
        lams = draw(st.lists(st.integers(1, 2), min_size=2, max_size=2))
        m = tensor(eval_weyl_module(F, lams[0], a), eval_weyl_module(F, lams[1], b))
    else:
        m = build_module(draw(_recipes(F)), F)
    assume(2 <= m.dim and F.card ** m.dim <= bound)
    return m


def _assert_witness_invariant(m, witness):
    F = m.ring
    assert 0 < len(witness) < m.dim
    for g in np_generator_set(m):
        for row in witness:
            assert len(rref(witness + [from_np(g, F).apply(row)], F)[0]) == len(witness)


@settings(SETTINGS, max_examples=30)
@given(brute_force_modules())
def test_brute_force_witnesses_are_invariant(m):
    verdict, witness = brute_force_irreducible(m)
    if witness is None:
        return
    assert verdict is False
    _assert_witness_invariant(m, witness)


def _first_proper_spin_over_all_lines(m):
    # reference oracle: spin every line of the module, whatever its weights,
    # in the order of brute force (the first nonzero coordinate is 1, the
    # later ones run over the field, the first of them fastest)
    F = m.ring
    for lead in range(m.dim):
        for tail in itertools.product(F.elements(), repeat=m.dim - lead - 1):
            spin = spin_up(m, [[F.zero] * lead + [F.one] + list(reversed(tail))])
            if len(spin) < m.dim:
                return spin
    return None


@settings(SETTINGS, max_examples=30)
@given(brute_force_modules(fields=KERNEL_FIELDS[:3] + KERNEL_FIELDS[4:7], bound=2000))
@example(eval_weyl_module(PrimeField(2), 2, PrimeField(2)(1)))  # reducible at weight 0 alone
@example(tensor(modrep.dual(eval_weyl_module(PrimeField(3), 1, PrimeField(3)(1))),
                eval_weyl_module(PrimeField(3), 1, PrimeField(3)(1))))  # weights not in descending order
def test_brute_force_over_weight_spaces_matches_every_line(m):
    # every submodule is the sum of its weight spaces, so spinning the lines
    # of each weight space finds what spinning every line finds first
    verdict, witness = brute_force_irreducible(m)
    assert witness == _first_proper_spin_over_all_lines(m)
    assert verdict is (witness is None)
    if witness is not None:
        _assert_witness_invariant(m, witness)


# ---------------------------------------------------------------------------
# structural recipes: r-window of op_ratios against the periodic window
# min(dim^2, q - 1)
# ---------------------------------------------------------------------------


def _recipes(F):
    units = st.sampled_from([F.fmt(u) for u in F.units()])
    leaf = st.one_of(
        st.builds(lambda lam, a: {"eval_weyl": {"lambda": lam, "a": a}}, st.integers(0, 3), units),
        st.builds(lambda lam, a: {"irreducible": {"lambda": lam, "a": a}}, st.integers(1, 2 * F.char), units),
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
    F = PrimeField(draw(st.sampled_from(SMALL_PRIMES)))
    recipe = draw(_recipes(F))
    assume(1 <= build_module(recipe, F).dim <= 12)
    return recipe, F


@settings(SETTINGS, max_examples=60)
@given(structural_recipes(), st.data())
def test_structural_window_keeps_spans(recipe_ring, data):
    m = build_module(*recipe_ring)
    old = min(m.dim ** 2, m.ring.card - 1)
    assert m.r_window() <= old
    assert ell_hw_vectors(m) == ell_hw_vectors(m, r_window=old)
    p = m.ring.p
    v = data.draw(st.lists(st.integers(0, p - 1), min_size=m.dim, max_size=m.dim))
    vec = [m.ring(c) for c in v]
    spans = []
    for gens in (np_generator_set(m), np_generator_set(m, old)):
        ech = NpEchelon(m.ring, m.dim)
        ech.add(arrays(m.ring).from_rows([vec], (1, m.dim))[0])
        _spin_np_dim(ech, gens, arrays(m.ring), m.dim)
        spans.append(ech.basis_matrix().tolist())
    assert spans[0] == spans[1]
    res = is_irreducible(m)
    m_old = build_module(*recipe_ring)
    m_old.r_window = lambda: old
    res_old = is_irreducible(m_old)
    if res.verdict is not None and res_old.verdict is not None:
        assert res.verdict == res_old.verdict
    if res.verdict is False:
        # chop subquotients inherit the ratios of their parent
        rows = [[m.ring.parse(c) for c in row] for row in res.certificate["witness"]]
        if "dual_witness_dim" not in res.certificate:
            for part in _submodule_and_quotient(m, rows):
                if part.dim:
                    assert part.op_ratios(1) == m.op_ratios(1)
                    part_old = min(part.dim ** 2, part.ring.card - 1)
                    assert ell_hw_vectors(part) == ell_hw_vectors(part, r_window=part_old)


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
            vinv = np_inverse(np.array([[pow(c, r, p) for c in cs] for r in range(len(cs))]), m.ring)
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


# ---------------------------------------------------------------------------
# ell-weight labels against the matrix path
# ---------------------------------------------------------------------------


def _eval_without_labels(ring, lam, a):
    # W(lambda, a) as an explicit module: the same tables, and Lambda from
    # hev_a(Lambda_r) = (-a)^r binom(h, |r|), with no labels
    e = eval_weyl_module(ring, lam, a)

    def lam_fn(r):
        scal = ring_pow(ring, -a, r) if r > 0 else ring_pow(ring, -ring.inv(a), -r)
        return tables(ring).diag([scal * ring.from_int(integer_binomial(w, abs(r))) for w in e.weights])

    return explicit_module(ring, e.weights, e.recipe, e.op_table, lam_fn, hw_index=0, ratio_fn=e.op_ratios)


def _build_without_labels(node, ring):
    """The recipe's module with unlabelled leaves, so that tensor, dual and
    twists compute Lambda by the coproduct sum, the inverse series and the
    twisted tables instead of from labels."""
    if "eval_weyl" in node:
        spec = node["eval_weyl"]
        return _eval_without_labels(ring, int(spec["lambda"]), ring.parse(spec["a"]))
    if "irreducible" in node:
        spec = node["irreducible"]
        lam, a, p = int(spec["lambda"]), ring.parse(spec["a"]), ring.char
        factors = []
        k = 0
        while lam:
            if lam % p:
                leaf = _eval_without_labels(ring, lam % p, ring_pow(ring, a, p ** k))
                factors.append(modrep.frobenius_twist(leaf, k))
            lam //= p
            k += 1
        return tensor(*factors)
    if "tensor" in node:
        return tensor(*[_build_without_labels(sub, ring) for sub in node["tensor"]])
    if "dual" in node:
        return modrep.dual(_build_without_labels(node["dual"], ring))
    if "frobenius_twist" in node:
        spec = node["frobenius_twist"]
        return modrep.frobenius_twist(_build_without_labels(spec["of"], ring), int(spec["m"]))
    spec = node["psi_twist"]
    return modrep.psi_twist(_build_without_labels(spec["of"], ring), ring.parse(spec["a"]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _factor_reports(m):
    return sorted(json.dumps(f.to_json(), sort_keys=True) for f in chop(m))


@st.composite
def labelled_recipes(draw):
    F = draw(st.sampled_from([PrimeField(p) for p in SMALL_PRIMES] + [FiniteField(2, 2), FiniteField(3, 2)]))
    recipe = draw(_recipes(F))
    m = build_module(recipe, F)
    assume(1 <= m.dim <= (12 if isinstance(F, PrimeField) else 8))
    return recipe, F


@settings(SETTINGS, max_examples=60)
@given(labelled_recipes())
def test_labels_agree_with_the_matrix_path(recipe_ring):
    recipe, F = recipe_ring
    m = build_module(recipe, F)
    assert m.labels() is not None
    # the oracle: m's own operator tables, Lambda computed without labels
    bare = _build_without_labels(recipe, F)
    assert bare.labels() is None
    oracle = explicit_module(F, m.weights, m.recipe, m.op_np, bare.lam_np, hw_index=m.hw_index, ratio_fn=m.op_ratios)
    prec = m.lam_precision()
    for r in range(-prec, prec + 1):
        assert m.lam(r) == oracle.lam(r)
    assert ell_weight_decomposition(m) == ell_weight_decomposition(oracle)
    assert _outcome(drinfeld_polynomial, m) == _outcome(drinfeld_polynomial, oracle)
    for w, _, idxs in modrep.label_classes(m):
        if w >= 0:
            v = [F.one if i == idxs[0] else F.zero for i in range(m.dim)]
            assert drinfeld_polynomial(m, v) == drinfeld_polynomial(oracle, v)
    if isinstance(F, PrimeField) or F.card ** m.dim <= 4096:
        assert _factor_reports(m) == _factor_reports(oracle)


# ---------------------------------------------------------------------------
# the extension hint over F_{p^d}
# ---------------------------------------------------------------------------
# every node's tables against boxed Mat references from the node formulas
# ---------------------------------------------------------------------------


def _dense_kron(F, a, b):
    # every product, zeros included, on the row lists
    return Mat(F, [[x * y for x in ra for y in rb] for ra in a.rows for rb in b.rows])


def _dense_sum(F, mats):
    # entrywise ring sums on the row lists
    return Mat(F, [[functools.reduce(operator.add, xs) for xs in zip(*rows)] for rows in zip(*(m.rows for m in mats))])


def _reference_tables(F):
    """Memoized boxed tables of a module tree, from the formulas of each
    node: (op(m, kind, r, k), lam(m, r)).  Tensor sums take every coproduct
    term, and kron and sums are dense and test-local, so that the oracle
    shares neither the zero skipping of Mat nor the exponent bounds of
    _Tensor with the code under test."""

    @functools.cache
    def leaf(m):
        if isinstance(m, modrep._EvalWeyl):
            return m.lam_weight, m.a
        spec = m.recipe["eval_weyl"]
        return int(spec["lambda"]), F.parse(spec["a"])

    @functools.cache
    def op(m, kind, r, k):
        if k == 0:
            return Mat.identity(F, m.dim)
        if isinstance(m, modrep._Tensor):
            terms = [_dense_kron(F, op(m.left, kind, r, l), op(m.right, kind, r, k - l)) for l in range(k + 1)]
            return _dense_sum(F, terms)
        if isinstance(m, modrep._Dual):
            t = op(m.inner, kind, r, k).transpose()
            return -t if k % 2 else t
        if isinstance(m, modrep._Frobenius):
            return op(m.inner, kind, r, k // m.pm) if k % m.pm == 0 else Mat.zeros(F, m.dim, m.dim)
        if isinstance(m, modrep._Psi):
            return op(m.inner, kind, r, k).scale(ring_pow(F, m.a, r * k))
        # W(lambda, a): a^{rk} (x±)^(k)
        lam, a = leaf(m)
        rows = [[F.zero] * m.dim for _ in range(m.dim)]
        for j in range(m.dim):
            i = j + k if kind == LOWER else j - k
            if 0 <= i < m.dim:
                rows[i][j] = ring_pow(F, a, r * k) * F.from_int(integer_binomial(i if kind == LOWER else lam - i, k))
        return Mat(F, rows)

    @functools.cache
    def series(m, sign, n):
        # the inverse of the Lambda^{sign}-series of m, coefficient n
        if n == 0:
            return Mat.identity(F, m.dim)
        return -_dense_sum(F, [lam(m, sign * j) * series(m, sign, n - j) for j in range(1, n + 1)])

    @functools.cache
    def lam(m, r):
        if r == 0:
            return Mat.identity(F, m.dim)
        sign, n = (1 if r > 0 else -1), abs(r)
        if isinstance(m, modrep._Tensor):
            terms = [_dense_kron(F, lam(m.left, sign * l), lam(m.right, sign * (n - l))) for l in range(n + 1)]
            return _dense_sum(F, terms)
        if isinstance(m, modrep._Dual):
            return series(m.inner, sign, n).transpose()
        if isinstance(m, modrep._Frobenius):
            return lam(m.inner, r // m.pm) if r % m.pm == 0 else Mat.zeros(F, m.dim, m.dim)
        if isinstance(m, modrep._Psi):
            return lam(m.inner, r).scale(ring_pow(F, m.a, r))
        # hev_a(Lambda_r) = (-a)^r binom(h, r) and (-1/a)^{|r|} binom(h, |r|) for r < 0
        _, a = leaf(m)
        scal = ring_pow(F, -a, n) if r > 0 else ring_pow(F, -F.inv(a), n)
        return Mat.diag(F, [scal * F.from_int(integer_binomial(w, n)) for w in m.weights])

    return op, lam


def _nodes(m):
    yield m
    for child in ("left", "right", "inner"):
        if hasattr(m, child):
            yield from _nodes(getattr(m, child))


@settings(SETTINGS, max_examples=60)
@given(labelled_recipes(), st.booleans())
def test_every_node_matches_the_boxed_formulas(recipe_ring, with_labels):
    recipe, F = recipe_ring
    m = build_module(recipe, F) if with_labels else _build_without_labels(recipe, F)
    op, lam = _reference_tables(F)
    for node in _nodes(m):
        for kind in (LOWER, RAISE):
            for r in range(-2, 3):
                for k in range(1, node.max_exponent() + 2):
                    assert from_np(node.op_np(kind, r, k), F) == op(node, kind, r, k)
        for r in range(-4, 5):
            assert from_np(node.lam_np(r), F) == lam(node, r)


QQ_PARAMETERS = ["1", "-1", "2", "-3", "1/2", "-2/3", "5/4"]


def _qq_recipes():
    params = st.sampled_from(QQ_PARAMETERS)
    leaf = st.builds(lambda lam, a: {"eval_weyl": {"lambda": lam, "a": a}}, st.integers(0, 3), params)

    def extend(children):
        return st.one_of(
            st.builds(lambda a, b: {"tensor": [a, b]}, children, children),
            children.map(lambda c: {"dual": c}),
            st.builds(lambda c, a: {"psi_twist": {"a": a, "of": c}}, children, params),
        )

    return st.recursive(leaf, extend, max_leaves=3)


@settings(SETTINGS, max_examples=40)
@given(_qq_recipes(), st.booleans())
def test_every_node_matches_the_boxed_formulas_over_q(recipe, with_labels):
    # the boxed Mat tables over Q, where the tensor sum is bounded by the
    # factors' max_exponent and Mat skips zero operands
    m = build_module(recipe, QQ) if with_labels else _build_without_labels(recipe, QQ)
    assume(m.dim <= 12)
    op, lam = _reference_tables(QQ)
    for node in _nodes(m):
        for kind in (LOWER, RAISE):
            for r in range(-2, 3):
                for k in range(1, node.max_exponent() + 2):
                    assert node.op(kind, r, k) == op(node, kind, r, k)
        for r in range(-3, 4):
            assert node.lam(r) == lam(node, r)


# ---------------------------------------------------------------------------


def _hint_by_enumeration(f):
    """The least d' <= 4, a multiple of d, such that f splits over
    F_{p^d'}, found by listing the roots of f in each such field; F_{p^d}
    embeds by sending its generator to a root of its defining polynomial."""
    ring = f.ring
    for d in range(ring.d + 1, 5):
        if d % ring.d:
            continue
        ext = FiniteField(ring.p, d)

        def at(coeffs, x):
            return sum((ring_pow(ext, x, i) * ext.from_int(c) for i, c in enumerate(coeffs)), ext.zero)

        gen = next(x for x in ext.elements() if ext.is_zero(at(ring.poly, x)))
        lifted = Poly(ext, [at(c.coeffs, gen) for c in reversed(f.coeffs)])
        if _roots_in_field(lifted)[1].degree() < 1:
            return d
    return None


@settings(SETTINGS, max_examples=30)
@given(st.sampled_from([FiniteField(2, 2), FiniteField(2, 3), FiniteField(3, 2)]), st.data())
def test_extension_hint_matches_enumeration(F, data):
    elements = F.elements()
    tail = data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4))
    assume(not F.is_zero(tail[-1]))
    f = Poly(F, [F.one] + tail)
    assert _extension_hint(f) == _hint_by_enumeration(f)


def test_extension_hint_over_f_31_squared_is_fast():
    # 1 + u^2 + g u^3 does not split over F_{31^2} nor over F_{31^4}; the
    # hint used to list all 31^4 elements of F_{31^4} to find that out
    F = FiniteField(31, 2)
    f = Poly(F, [F.one, F.zero, F.one, F.gen()])
    start = time.perf_counter()
    try:
        factor_poly_unit_roots(f)
    except FieldExtensionNeeded as exc:
        assert exc.suggested_degree is None
    else:
        raise AssertionError("a non-split polynomial was factored")
    assert time.perf_counter() - start < 1.0
