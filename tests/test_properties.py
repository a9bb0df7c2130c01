"""Generated-input cross-checks of the q-independent paths.

The int64 kernel of every finite field is compared with the boxed Mat
routines and with scans of the field, the integer-numerator tables over Q
with Mat of Fractions, and brute-force witnesses with the boxed
generators; the structural r-window of op_ratios with the periodic
window min(dim^2, q - 1), the ell-weight labels of structural modules with
the matrix path on independently built Lambda tables, its Berlekamp-Massey
matching with the denominator-degree search it replaced, every recipe node's
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
from types import SimpleNamespace
from fractions import Fraction

import numpy as np
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from hlx import modrep
from hlx.drinfeld import (
    EllWeight,
    FieldExtensionNeeded,
    _extension_hint,
    _roots_in_field,
    factor_poly_unit_roots,
    unit_root_product,
)
from hlx.exactnum import (
    QQ,
    FiniteField,
    Poly,
    PrimeField,
    _poly_mul,
    field_roots,
    integer_binomial,
    is_prime,
    poly_roots,
    ring_pow,
    scalars,
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
    _annihilator,
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
    assert poly_roots(f, scalars(PrimeField(p))) == brute


@SETTINGS
@given(primes, st.data())
def test_unit_root_factorization_matches_scan_order(p, data):
    assume(p > 2)
    F = PrimeField(p)
    params = data.draw(st.lists(st.integers(1, p - 1), min_size=1, max_size=6))
    extra = data.draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=3))
    f = [c.v for c in unit_root_product(F, [F(a) for a in params])]
    got = factor_poly_unit_roots(Poly(F, [F(c) for c in f]))
    # a field scan finds the roots a_j of the reversed polynomial ascending
    assert [(a.v, mult) for a, mult in got.items()] == sorted(Counter(params).items())
    # an extra factor without roots in F_p must be refused, never dropped
    g = Poly(F, [F.one] + [F(c) for c in extra])
    rev = list(reversed(g.coeffs))
    if g.degree() >= 1 and not field_roots(F, rev):
        try:
            factor_poly_unit_roots(Poly(F, [F(c) for c in _poly_mul(f, [1] + extra, scalars(F))]))
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
    """F[x] as a ring descriptor, for the boxed det(x I - A).  Its
    schoolbook arithmetic is written here, apart from hlx's polynomial
    kernel, so the determinant is an independent oracle."""

    def __init__(self, F):
        self.zero, self.one = _Px(F, []), _Px(F, [F.one])

    def is_zero(self, f):
        return not f.coeffs


class _Px:
    """An element of F[x]: ascending coefficients without trailing zeros."""

    def __init__(self, F, coeffs):
        c = list(coeffs)
        while c and F.is_zero(c[-1]):
            c.pop()
        self.F, self.coeffs = F, c

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        n, z = max(len(a), len(b)), self.F.zero
        return _Px(self.F, [(a[i] if i < len(a) else z) + (b[i] if i < len(b) else z) for i in range(n)])

    def __neg__(self):
        return _Px(self.F, [-c for c in self.coeffs])

    def __mul__(self, other):
        out = [self.F.zero] * max(0, len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return _Px(self.F, out)


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
        xa = Mat(R, [[_Px(F, [-a[i, j]] + ([F.one] if i == j else [])) for j in range(n)] for i in range(n)])
        assert charpoly == det(xa).coeffs
    # eigenvalues: a scan of the field for a nonzero kernel of A - t I
    scan = [t for t in F.elements() if kernel(a - Mat.identity(F, n).scale(t))]
    assert [K.box(t) for t in np_eigenvalues(to_np(a), F)] == scan


def _horner(f, x):
    acc = f.ring.zero
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


@SETTINGS
@given(st.sampled_from(KERNEL_FIELDS), st.data())
def test_roots_match_a_scan_in_index_order(F, data):
    coeffs = data.draw(st.lists(st.integers(0, F.card - 1).map(lambda n: _element(F, n)), min_size=1, max_size=8))
    f = Poly(F, coeffs)
    assume(f.degree() >= 1)
    assert field_roots(F, coeffs) == [t for t in F.elements() if F.is_zero(_horner(f, t))]


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


@settings(SETTINGS, max_examples=40)
@given(brute_force_modules(fields=KERNEL_FIELDS[:3]))
def test_irreducibility_verdicts_match_brute_force(m):
    # over F_2, F_3 and F_5 the highest-weight test, Norton's and brute force
    # give one verdict, and every reducible witness (a dual one through its
    # annihilator) is a proper invariant subspace
    res = is_irreducible(m)
    assert res.verdict is brute_force_irreducible(m)[0]
    if res.verdict is False:
        witness = [[m.ring.parse(c) for c in row] for row in res.certificate["witness"]]
        if "dual_witness_dim" in res.certificate:
            witness = _annihilator(m, witness)
        _assert_witness_invariant(m, witness)


# ---------------------------------------------------------------------------
# the integer-numerator tables over Q against Mat of Fractions
# ---------------------------------------------------------------------------

QT = tables(QQ)
rationals = st.one_of(st.just(Fraction(0)), st.builds(Fraction, st.integers(-12, 12), st.integers(1, 12)))


@st.composite
def q_matrices(draw, m=None, n=None):
    """(rows, pair): a matrix of Fractions (a zero matrix one time in four)
    and its table, unreduced three times in five: numerators and
    denominator multiplied by a common factor."""
    m = draw(st.integers(1, 4)) if m is None else m
    n = draw(st.integers(1, 4)) if n is None else n
    entries = st.just(Fraction(0)) if draw(st.integers(0, 3)) == 0 else rationals
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    d, ints = QT.from_rows(rows)
    g = draw(st.sampled_from([1, 1, 2, 6, 35]))
    return rows, (d * g, [[x * g for x in r] for r in ints])


def _assert_table(table, mat):
    # the table boxes to mat and is normal: gcd(d, every entry) = 1 exactly
    # when the pair is the least-common-denominator form of its boxed rows
    assert QT.to_mat(table) == mat
    assert table == QT.from_rows(QT.to_mat(table).rows)


@SETTINGS
@given(st.data())
def test_q_tables_match_fraction_mats(data):
    m, k, n = (data.draw(st.integers(1, 4)) for _ in range(3))
    rows, a = data.draw(q_matrices(m, k))
    rows2, b = data.draw(q_matrices(m, k))
    rows3, c = data.draw(q_matrices(k, n))
    rows4, e = data.draw(q_matrices())
    A, B, C, E = (Mat(QQ, r) for r in (rows, rows2, rows3, rows4))
    scalar = data.draw(rationals)
    _assert_table(QT.from_rows(rows), A)
    _assert_table(QT.zeros(n), Mat.zeros(QQ, n, n))
    _assert_table(QT.eye(n), Mat.identity(QQ, n))
    _assert_table(QT.diag(rows[0]), Mat.diag(QQ, rows[0]))
    _assert_table(QT.add(a, b), A + B)
    _assert_table(QT.scale(a, scalar), A.scale(scalar))
    _assert_table(QT.mul(a, c), A * C)
    _assert_table(QT.kron(a, e), A.kron(E))
    # neg and transpose keep the form of their input, a normal one here
    normal = QT.from_rows(rows)
    _assert_table(QT.neg(normal), -A)
    _assert_table(QT.transpose(normal), A.transpose())


# ---------------------------------------------------------------------------
# structural recipes: the windows m.window(k) = range(n_k) against wider ones
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


def _wide_labels(m, w):
    # every generator label at r in [-w, w], the binom(h, k) last
    ks = generator_exponents(m.ring.char, m.max_exponent())
    return [(kind, r, k) for kind in (LOWER, RAISE) for k in ks for r in range(-w, w + 1)] + [("h", 0, k) for k in ks]


def _wide_generator_set(m, w):
    tables = [m.cartan_binom_np(k) if kind == "h" else m.op_np(kind, r, k) for kind, r, k in _wide_labels(m, w)]
    return [t for t in tables if t.any()]


def _wide_ell_hw_vectors(m, w):
    # the joint kernel of the raising tables at r in [-w, w]
    raising = [m.op_np(kind, r, k) for kind, r, k in _wide_labels(m, w) if kind == RAISE]
    return arrays(m.ring).to_rows(np_nullspace(np.concatenate(raising), m.ring))


def _spin_span(m, gens, rows):
    K = arrays(m.ring)
    ech = NpEchelon(m.ring, m.dim)
    for v in K.from_rows(rows, (len(rows), m.dim)):
        ech.add(v)
    _spin_np_dim(ech, gens, K, m.dim)
    return ech.basis_matrix().tolist()


@settings(SETTINGS, max_examples=60)
@given(structural_recipes(), st.data())
def test_structural_window_keeps_spans(recipe_ring, data):
    # unit ratios make the tables (q-1)-periodic in r, so the wide oracles
    # at r in [-(q-1), q-1] read the tables at every r
    m = build_module(*recipe_ring)
    wide = m.ring.card - 1
    assert all(len(m.window(k)) <= wide for k in generator_exponents(m.ring.char, m.max_exponent()))
    assert ell_hw_vectors(m) == _wide_ell_hw_vectors(m, wide)
    p = m.ring.p
    vec = [m.ring(c) for c in data.draw(st.lists(st.integers(0, p - 1), min_size=m.dim, max_size=m.dim))]
    wide_gens = _wide_generator_set(m, wide)
    assert _spin_span(m, np_generator_set(m), [vec]) == _spin_span(m, wide_gens, [vec])
    res = is_irreducible(m)
    if res.verdict is True and not all(m.ring.is_zero(c) for c in vec):
        assert len(_spin_span(m, wide_gens, [vec])) == m.dim
    if res.verdict is False:
        rows = [[m.ring.parse(c) for c in row] for row in res.certificate["witness"]]
        if "dual_witness_dim" not in res.certificate:
            # the witness is invariant under every table, not only the window's
            assert len(_spin_span(m, wide_gens, rows)) == len(rows) < m.dim
            # chop subquotients keep the recurrence orders of their parent
            for part in _submodule_and_quotient(m, rows):
                if part.dim:
                    ks = generator_exponents(p, m.max_exponent())
                    assert [part.recurrence_order(k) for k in ks] == [m.recurrence_order(k) for k in ks]
                    assert ell_hw_vectors(part) == _wide_ell_hw_vectors(part, wide)


def _table_span(m, kind, k, rs):
    # row space of the flattened tables at every r in rs
    tail = arrays(m.ring).tail
    flat = [m.op_np(kind, r, k).reshape((-1,) + tail) for r in rs]
    return np_rref(np.stack(flat), m.ring)[0].tolist() if flat else []


@st.composite
def structural_recipes_with_extensions(draw):
    F = draw(st.sampled_from([PrimeField(p) for p in SMALL_PRIMES] + [FiniteField(2, 2), FiniteField(3, 2)]))
    recipe = draw(_recipes(F))
    assume(1 <= build_module(recipe, F).dim <= 8)
    return recipe, F


@settings(SETTINGS, max_examples=40)
@given(structural_recipes_with_extensions())
def test_structural_windows_span_every_loop_degree(recipe_ring):
    # for each generator exponent k, the tables at r in [0, n_k) span those
    # at r in [-dim^2, dim^2], which meets every class of r mod q - 1
    m = build_module(*recipe_ring)
    wide = range(-m.dim**2, m.dim**2 + 1)
    for k in generator_exponents(m.ring.char, m.max_exponent()):
        assert m.window(k) == range(m.recurrence_order(k))
        for kind in (LOWER, RAISE):
            assert _table_span(m, kind, k, m.window(k)) == _table_span(m, kind, k, wide)


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


def test_hom_window_is_the_joint_order():
    # the intertwiner search reads the two modules' tables at r in
    # [0, n1 + n2): their recurrence polynomials multiply
    F = PrimeField(7)
    w = [eval_weyl_module(F, 1, F(a)) for a in (2, 3, 5)]
    m1, m2, m3 = tensor(w[0], w[1]), tensor(w[1], w[0]), tensor(w[0], w[2])
    assert [m.recurrence_order(1) for m in (m1, m2, m3)] == [2, 2, 2]
    assert iso_ell_hw(m1, m2)
    assert not iso_ell_hw(m1, m3)
    requests = []
    op_np = m1.op_np

    def counted(kind, r, k):
        requests.append((kind, r, k))
        return op_np(kind, r, k)

    m1.op_np = counted
    for other, iso in ((m2, True), (m3, False)):
        requests.clear()
        assert _hom_space_nonzero(m1, other) is iso
        assert sorted(requests) == sorted((kind, r, 1) for kind in (LOWER, RAISE) for r in range(4))


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

    return explicit_module(
        ring, e.weights, e.recipe, e.op_table, lam_fn, order_fn=e.recurrence_order, hw_index=0, ratio_fn=e.op_ratios
    )


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


L_11_6 = {"irreducible": {"lambda": 11, "a": "6"}}


@settings(SETTINGS, max_examples=60)
@given(labelled_recipes())
# the double Frobenius twist of L(11, 6) over F_7: weights up to 539, so the
# series run to u^1079
@example(({"frobenius_twist": {"m": 1, "of": {"frobenius_twist": {"m": 1, "of": L_11_6}}}}, PrimeField(7)))
def test_labels_agree_with_the_matrix_path(recipe_ring):
    recipe, F = recipe_ring
    m = build_module(recipe, F)
    assert m.labels() is not None
    # the oracle: m's own operator tables, Lambda computed without labels
    bare = _build_without_labels(recipe, F)
    assert bare.labels() is None
    oracle = explicit_module(
        F, m.weights, m.recipe, m.op_np, bare.lam_np,
        order_fn=m.recurrence_order, hw_index=m.hw_index, ratio_fn=m.op_ratios,
    )
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


def _per_block_refinement(m, prec):
    """The refinement as it was before it stacked its blocks: per block and
    per r, one product for the images of its RREF rows, read at their pivot
    columns, and one more to check that they stay in the block."""
    ring = m.ring
    K = arrays(ring)
    p = K.p
    blocks = []
    for w in sorted(set(m.weights), reverse=True):
        idxs = [i for i, wi in enumerate(m.weights) if wi == w]
        rows = np.zeros((len(idxs), m.dim) + K.tail, dtype=np.int64)
        rows[np.arange(len(idxs)), idxs] = K.unit
        blocks.append((w, rows, idxs, ([ring.one], [ring.one])))
    for r in (r for rr in range(1, prec) for r in (rr, -rr)):
        side = 0 if r > 0 else 1
        mat = m.lam_np(r)
        nxt = []
        for block in blocks:
            w, rows, pivots, series = block
            s = rows.shape[0]
            imgs = K.mul(rows, mat.swapaxes(0, 1))
            coords = imgs[:, pivots]
            if ((K.mul(coords, rows) - imgs) % p).any():
                raise ArithmeticError("weight block is not Lambda invariant")
            rmat = coords.swapaxes(0, 1)
            if s == 1:
                kernels, found_total = [(None, K.to_ring(rmat[0, 0]))], 1
            else:
                kernels, found_total, prod = [], 0, K.eye(s)
                for nu in np_eigenvalues(rmat, ring):
                    power = (rmat - K.emul(K.eye(s), K.coords(nu))) % p
                    for _ in range(max(1, s.bit_length())):
                        power = K.mul(power, power)
                    ker = np_nullspace(power, ring)
                    kernels.append((ker, K.box(nu)))
                    found_total += ker.shape[0]
                    prod = K.mul(prod, power)
                    if found_total == s:
                        break
            if found_total == s and len(kernels) == 1:
                if series is not None:
                    series[side].append(kernels[0][1])
                nxt.append(block)
                continue
            for ker, nu in kernels:
                red, piv = np_rref(K.mul(ker, rows), ring)
                child = None
                if series is not None:
                    child = (series[0][:], series[1][:])
                    child[side].append(nu)
                nxt.append((w, red, piv, child))
            if found_total < s:
                img_rows, _ = np_rref(prod.swapaxes(0, 1), ring)
                if img_rows.shape[0]:
                    red, piv = np_rref(K.mul(img_rows, rows), ring)
                    nxt.append((w, red, piv, None))
        blocks = nxt
    return [(w, K.to_rows(rows), series) for w, rows, _, series in blocks]


def _in_another_basis(m):
    """m's Lambda tables after the change of basis that adds to each basis
    vector every later one of its weight, so that the joint eigenspaces are
    no longer spanned by unit vectors."""
    F = m.ring
    K = arrays(F)
    n = m.dim
    adds = [[i == j or (i < j and m.weights[i] == m.weights[j]) for j in range(n)] for i in range(n)]
    P = K.from_rows([[F.one if a else F.zero for a in row] for row in adds], (n, n))
    P_inv = np_inverse(P, F)
    return explicit_module(
        F, m.weights, m.recipe, m.op_np, lambda r: K.mul(K.mul(P, m.lam_np(r)), P_inv), order_fn=m.recurrence_order
    )


W111 = {"tensor": [{"tensor": [{"eval_weyl": {"lambda": 1, "a": a}} for a in "23"]}, {"eval_weyl": {"lambda": 1, "a": "4"}}]}
W1_W3 = {"tensor": [{"eval_weyl": {"lambda": 1, "a": "1"}}, {"eval_weyl": {"lambda": 3, "a": "1"}}]}


@settings(SETTINGS, max_examples=30)
@given(labelled_recipes())
# weight spaces of dimension 3 and 2 that split into lines, and over F_2
# planes that do not split
@example((W111, PrimeField(5)))
@example((W1_W3, PrimeField(2)))
def test_stacked_block_refinement_gives_the_per_block_blocks(recipe_ring):
    recipe, F = recipe_ring
    m = build_module(recipe, F)
    prec = m.lam_precision()
    bare = _build_without_labels(recipe, F)
    got = modrep._block_refinement(bare, prec)
    assert got == _per_block_refinement(bare, prec)
    labelled = [(b["weight"], b["rows"], (b["series_plus"], b["series_minus"])) for b in ell_weight_decomposition(m)]
    assert got == labelled
    mixed = _in_another_basis(bare)
    got = modrep._block_refinement(mixed, prec)
    assert got == _per_block_refinement(mixed, prec)
    assert [(w, len(rows), series) for w, rows, series in got] == [(w, len(rows), ser) for w, rows, ser in labelled]


@settings(SETTINGS, max_examples=60)
@given(st.data())
def test_memoized_series_are_prefixes_of_fresh_ones(data):
    ring = data.draw(st.sampled_from([PrimeField(p) for p in SMALL_PRIMES] + [FiniteField(2, 2), FiniteField(3, 2)]))
    pairs = data.draw(st.lists(st.tuples(st.sampled_from(ring.units()), st.integers(-9, 9)), max_size=3))
    label = EllWeight(ring, pairs)
    calls = st.tuples(st.integers(0, 40), st.sampled_from([1, -1]), st.integers(0, 40))
    for n, sign, at_least in data.draw(st.lists(calls, min_size=1, max_size=8)):
        got = label.memo_coefficients(n, sign, at_least)
        assert len(got) > n and got[: n + 1] == label.coefficients(n, sign)


# ---------------------------------------------------------------------------
# ell-weight matching by Berlekamp-Massey against the denominator search
# ---------------------------------------------------------------------------


def _match_by_denominator_search(ring, w, series_plus, series_minus, prec, m):
    """The matching that Berlekamp-Massey replaced: for each denominator
    degree dpi = 0..top, solve the plus series for pi and accept the first
    omega/pi of exact degrees (dpi + w, dpi) that factors and whose minus
    series is series_minus."""
    top = max((abs(x) for x in m.weights), default=0)
    for dpi in range(0, top + 1):
        dom = dpi + w
        if dom < 0 or dom > top:
            continue
        if dom + dpi + 1 > prec:
            break
        pi = _solve_denominator(ring, series_plus, dom, dpi, prec)
        if pi is None:
            continue
        om = _series_times_poly(ring, series_plus, pi, dom)
        omp, pip = Poly(ring, om), Poly(ring, pi)
        if omp.degree() != dom or pip.degree() != dpi:
            continue
        try:
            pairs = list(factor_poly_unit_roots(omp).items())
            pairs += [(a, -mult) for a, mult in factor_poly_unit_roots(pip).items()]
        except ValueError:
            continue
        candidate = EllWeight(ring, pairs)
        if candidate.coefficients(prec - 1, -1) == series_minus:
            return candidate
    return None


def _solve_denominator(ring, series, dom, dpi, prec):
    """pi with pi_0 = 1, deg <= dpi and (series * pi) of degree <= dom
    through precision, by one RREF; None when there is none."""
    if dpi == 0:
        if all(ring.is_zero(series[r]) for r in range(dom + 1, prec)):
            return [ring.one]
        return None
    K = arrays(ring)
    p = K.p
    a = np.zeros((prec - dom - 1, dpi + 1) + K.tail, dtype=np.int64)
    for i, mdeg in enumerate(range(dom + 1, prec)):
        for j in range(1, dpi + 1):
            if mdeg - j >= 0:
                a[i, j - 1] = K.from_ring(series[mdeg - j])
        a[i, dpi] = -K.from_ring(series[mdeg]) % p
    red, pivots = np_rref(a, ring)
    if dpi in pivots:
        return None
    x = np.zeros((dpi,) + K.tail, dtype=np.int64)
    for row, col in zip(red, pivots):
        x[col] = row[dpi]
    if ((K.mul(a[:, :dpi], x) - a[:, dpi]) % p).any():
        return None
    return [ring.one] + [K.to_ring(c) for c in x]


def _series_times_poly(ring, series, pi, dom):
    return [
        functools.reduce(operator.add, (pj * series[n - j] for j, pj in enumerate(pi) if n - j >= 0), ring.zero)
        for n in range(dom + 1)
    ]


@st.composite
def ell_weight_series(draw):
    """(ring, w, plus, minus, prec, m, want): the series of a random
    EllWeight to the precision of a stand-in module m whose weights bound
    its degrees or fall one short, with w its wt or off by one.  The plus
    series may carry one more factor g or 1/g with g = 1 + u + u^2 (char 2)
    or 1 + u^2 (char 3 and up), which splits over neither F_2 nor F_3, and
    either series may have one coefficient corrupted.  want is the
    EllWeight when none of this happened, and None otherwise."""
    ring = draw(st.sampled_from([PrimeField(p) for p in SMALL_PRIMES] + [FiniteField(2, 2), FiniteField(3, 2)]))
    p = ring.char
    powers = [c * p**N for N in (1, 2, 3, 4) for c in range(1, p) if c * p**N <= 16]
    weight = st.integers(1, 4) | st.sampled_from(powers)
    signed = st.builds(lambda mu, neg: -mu if neg else mu, weight, st.booleans())
    ew = EllWeight(ring, draw(st.lists(st.tuples(st.sampled_from(ring.units()), signed), max_size=3)))
    g1 = ring.one if p == 2 else ring.zero  # g = 1 + g1 u + u^2
    extra = draw(st.sampled_from([0, 0, 1, -1]))
    deg_om = sum(mu for _, mu in ew.pairs if mu > 0) + 2 * (extra == 1)
    deg_pi = sum(-mu for _, mu in ew.pairs if mu < 0) + 2 * (extra == -1)
    top = max(0, max(deg_om, deg_pi) + draw(st.integers(-1, 2)))
    prec = 2 * top + 2
    s = [ring.zero, ring.zero] + ew.coefficients(prec - 1, 1)
    # times g from the top down, or divided by g from the bottom up, in place
    for i in range(prec + 1, 1, -1) if extra == 1 else range(2, prec + 2) if extra == -1 else ():
        tail = g1 * s[i - 1] + s[i - 2]
        s[i] = s[i] + tail if extra == 1 else s[i] - tail
    plus = s[2:]
    minus = ew.coefficients(prec - 1, -1)
    clean = not extra and max(deg_om, deg_pi) <= top
    for series in (plus, minus):
        if top and draw(st.integers(0, 4)) == 0:
            r = draw(st.integers(1, prec - 1))
            series[r] = series[r] + ring.one
            clean = False
    shift = draw(st.sampled_from([0, 0, 0, 1, -1]))
    want = ew if clean and not shift else None
    return ring, deg_om - deg_pi + shift, plus, minus, prec, SimpleNamespace(weights=(top, -top)), want


INVERSE_SQUARE = EllWeight(PrimeField(3), [(PrimeField(3).one, -2)])


@settings(SETTINGS, max_examples=150)
@given(ell_weight_series())
# 1/(1 - u)^2 with weights up to 1: its four terms fix it, but deg pi = 2 is
# past the top weight, so nothing matches
@example(
    (PrimeField(3), -2, INVERSE_SQUARE.coefficients(3), INVERSE_SQUARE.coefficients(3, -1), 4)
    + (SimpleNamespace(weights=(1, -1)), None)
)
def test_berlekamp_massey_matches_the_denominator_search(case):
    ring, w, plus, minus, prec, m, want = case
    got = modrep._match_ell_weight(ring, w, plus, minus, prec, m)
    assert got == _match_by_denominator_search(ring, w, plus, minus, prec, m)
    if want is not None:
        assert got == want


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


def _hint_by_enumeration(ring, f):
    """The least d' <= 4, a multiple of d, such that f (ascending
    coefficients) splits over F_{p^d'}, found by listing the roots of f in
    each such field; F_{p^d} embeds by sending its generator to a root of
    its defining polynomial."""
    for d in range(ring.d + 1, 5):
        if d % ring.d:
            continue
        ext = FiniteField(ring.p, d)

        def at(coeffs, x):
            return sum((ring_pow(ext, x, i) * ext.from_int(c) for i, c in enumerate(coeffs)), ext.zero)

        gen = next(x for x in ext.elements() if ext.is_zero(at(ring.poly, x)))
        lifted = [at(c.coeffs, gen) for c in f]
        if len(_roots_in_field(ext, lifted)[1]) == 1:
            return d
    return None


@settings(SETTINGS, max_examples=30)
@given(st.sampled_from([FiniteField(2, 2), FiniteField(2, 3), FiniteField(3, 2)]), st.data())
def test_extension_hint_matches_enumeration(F, data):
    elements = F.elements()
    tail = data.draw(st.lists(st.sampled_from(elements), min_size=1, max_size=4))
    assume(not F.is_zero(tail[-1]))
    f = [F.one] + tail
    assert _extension_hint(F, f) == _hint_by_enumeration(F, f)


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


def _power_traces(mat):
    """tr(M), tr(M^2), ..., tr(M^n) of an n x n Mat: over Q they fix the
    characteristic polynomial, so conjugate tables have equal lists."""
    out, power = [], mat
    for _ in range(len(mat.rows)):
        out.append(sum(power.rows[i][i] for i in range(len(mat.rows))))
        power = power * mat
    return out


@settings(SETTINGS, max_examples=5)
@given(st.lists(st.sampled_from([1, 2, 4, 5, -1, -2]), min_size=1, max_size=3, unique=True), st.data())
def test_weyl0_far_tables_match_the_evaluation_tensor(roots, data):
    # for distinct roots W0(prod (1 - a_i u)) is the tensor of the W(1, a_i)
    # (the roots are small 3-units); x+_s x-_r and Lambda_r for r, s in
    # [-2 dim, 2 dim] take weyl0 past its first straightening window, so
    # their traces check the widened tables.  A weyl0 whose first request
    # is the farthest r builds the same tables as one widened step by step.
    roots = [Fraction(a) for a in roots]
    near = modrep.weyl0_from_roots(QQ, roots)
    far = modrep.weyl0_from_roots(QQ, roots)
    ev = modrep.tensor(*[modrep.eval_weyl_module(QQ, 1, a) for a in roots])
    top = 2 * near.dim
    end = data.draw(st.sampled_from([-top, top]))
    far.op(LOWER, end, 1)
    window = st.integers(-top, top)
    rs = [0] + data.draw(st.lists(window, min_size=1, max_size=3)) + [end]
    ss = data.draw(st.lists(window, min_size=1, max_size=3)) + [-end]
    for r in rs:
        for s in ss:
            prods = [m.op(RAISE, s, 1) * m.op(LOWER, r, 1) for m in (near, ev)]
            assert _power_traces(prods[0]) == _power_traces(prods[1]), (r, s)
    for r in data.draw(st.lists(window, min_size=1, max_size=2)):
        assert _power_traces(near.lam(r)) == _power_traces(ev.lam(r)), r
    assert far.basis_monomials == near.basis_monomials
    for r in rs:
        assert far.op(LOWER, r, 1) == near.op(LOWER, r, 1), r
    for s in ss:
        assert far.op(RAISE, s, 1) == near.op(RAISE, s, 1), s
