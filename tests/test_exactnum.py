import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hlx.exactnum import (
    QQ,
    FiniteField,
    Fraction,
    INFINITY,
    MPoly,
    Poly,
    PrimeField,
    SymField,
    integer_binomial,
    irreducible_mod_p,
    lucas_binom,
    parse_rational,
    rational_str,
    residue,
    ring_from_json,
    val_p,
)


def test_val_p_rejects_p_below_two():
    # n % 1 == 0 for every n, so p = 1 used to loop forever
    for p in (1, 0, -3):
        with pytest.raises(ValueError):
            val_p(Fraction(6), p)
    assert val_p(Fraction(12, 5), 2) == 2


def test_rational_roundtrip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert rational_str(Fraction(-6, 4)) == "-3/2"
    assert rational_str(Fraction(5)) == "5"


def test_val_p_basics():
    assert val_p(Fraction(1), 3) == 0
    assert val_p(Fraction(9), 3) == 2
    assert val_p(Fraction(4, 3), 3) == -1
    assert val_p(Fraction(0), 5) == INFINITY


def test_val_p_multiplicative_additive():
    rng = random.Random(7)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        x = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        y = Fraction(rng.randint(-40, 40), rng.randint(1, 40))
        if x == 0 or y == 0:
            continue
        assert val_p(x * y, p) == val_p(x, p) + val_p(y, p)
        if x + y != 0:
            assert val_p(x + y, p) >= min(val_p(x, p), val_p(y, p))


def test_residue():
    assert residue(Fraction(4), 3).v == 1
    assert residue(Fraction(1, 2), 3).v == 2
    assert residue(Fraction(3), 3).v == 0
    with pytest.raises(ZeroDivisionError):
        residue(Fraction(1, 3), 3)


def test_residue_is_ring_hom():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5])
        x = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 7, 11]))
        y = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 7, 11]))
        if x.denominator % p == 0 or y.denominator % p == 0:
            continue
        assert residue(x * y, p) == residue(x, p) * residue(y, p)
        assert residue(x + y, p) == residue(x, p) + residue(y, p)


def test_lucas_examples():
    assert lucas_binom(5, 3, 3) == 10 % 3 == 1
    assert lucas_binom(7, 9, 2) == 0
    for p in (2, 3, 5):
        for r in range(4):
            assert lucas_binom(p ** r, p ** r, p) == 1


def test_lucas_exhaustive_matches_integer_binomial():
    for p in (2, 3, 5):
        for m in range(-30, 31):
            for k in range(0, 31):
                assert lucas_binom(m, k, p) == integer_binomial(m, k) % p


def test_lucas_matches_integer_binomial_far_out():
    # both signs of m, far past one base-p digit; a negative m takes Lucas
    # on binom(m, k) = (-1)^k binom(k - m - 1, k), never the big integer
    rng = random.Random(11)
    for p in (2, 3, 7, 101):
        for _ in range(200):
            m, k = rng.randint(-5000, 5000), rng.randint(0, 3000)
            assert lucas_binom(m, k, p) == integer_binomial(m, k) % p


def test_prime_field_axioms():
    rng = random.Random(3)
    for p in (2, 3, 5, 7):
        F = PrimeField(p)
        els = F.elements()
        for _ in range(100):
            a, b, c = rng.choice(els), rng.choice(els), rng.choice(els)
            assert (a + b) + c == a + (b + c)
            assert a * (b + c) == a * b + a * c
            assert (a * b) * c == a * (b * c)
        for a in els:
            if F.is_unit(a):
                assert a * F.inv(a) == F.one
        assert [F.index(a) for a in els] == list(range(p))


def test_prime_field_parse_fmt():
    F = PrimeField(3)
    assert F.parse("1/2").v == 2
    assert F.fmt(F(5)) == "2"
    assert str(F(5)) == "2 mod 3"


def test_finite_field_construction_and_inverse():
    rng = random.Random(5)
    for (p, d) in [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2)]:
        F = FiniteField(p, d)
        assert irreducible_mod_p(list(F.poly), p)
        els = F.elements()
        assert len(els) == p ** d
        assert [F.index(a) for a in els] == list(range(p ** d))
        for _ in range(50):
            a, b = rng.choice(els), rng.choice(els)
            assert (a + b) * (a + b) == a * a + a * b + b * a + b * b
        for a in els:
            if F.is_unit(a):
                assert a * F.inv(a) == F.one


def test_finite_field_takes_degrees_two_to_four():
    # degree 1 is PrimeField(p), so FiniteField(p, 1) is refused
    for d in (0, 1, 5):
        with pytest.raises(ValueError, match=r"extension degree must be in \[2, 4\]"):
            FiniteField(5, d)


def test_finite_field_rejects_reducible():
    with pytest.raises(ValueError):
        FiniteField(2, 2, poly=[1, 0, 1])  # x^2+1 = (x+1)^2 mod 2


def test_field_literals_name_their_field():
    # a literal of another field is refused, not cut to this one: [0,0,1]
    # is x^2 = -1 in F_3[x]/(x^2 + 1), not 0, and 2 mod 5 is not 2 mod 3
    for F, text in ((FiniteField(3, 2), "[0,0,1]"), (FiniteField(2, 2), "[1,1,1]")):
        with pytest.raises(ValueError, match="more than 2 coordinates"):
            F.parse(text)
    with pytest.raises(ValueError, match="more than 2 coordinates"):
        FiniteField(3, 2).parse([1, 2, 0])
    with pytest.raises(ValueError, match="not an element of F_3"):
        PrimeField(3).parse("2 mod 5")
    assert PrimeField(3).parse("2 mod 3") == PrimeField(3)(2)
    F = FiniteField(3, 2)
    assert F.parse("[1]") == F.one
    assert F.parse("[1,2]") == F.one + F.from_int(2) * F.gen()


def test_poly_arithmetic():
    f = Poly(QQ, [Fraction(1), Fraction(-2)])
    g = Poly(QQ, [Fraction(1), Fraction(3)])
    assert (f * g).coeffs == (Fraction(1), Fraction(1), Fraction(-6))
    assert Poly(QQ, [Fraction(0)]).is_zero()


def test_sym_field_fractions():
    K = SymField(("a", "b"))
    a, b = K.var("a"), K.var("b")
    expr = (a - b) * (a - b)
    expanded = a * a - K.from_int(2) * a * b + b * b
    assert expr == expanded
    assert K.inv(a) * a == K.one
    assert str((a - b) * (a - b)) == "a**2 - 2*a*b + b**2"


def test_mpoly_eval_and_content():
    names = ("a", "b")
    poly = MPoly(names, {(2, 1): Fraction(3), (1, 1): Fraction(-1)})
    assert poly.monomial_content() == (1, 1)


def test_sym_axioms():
    rng = random.Random(13)
    K = SymField(("t",))
    t = K.var("t")
    sels = [K.zero, K.one, t, t * t - K.one, K.inv(t + K.one)]
    for _ in range(60):
        a, b, c = rng.choice(sels), rng.choice(sels), rng.choice(sels)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c


def test_every_ring_kind_is_a_field():
    # Z_(p) is no ring kind: it lives in the lattice layer, as val_p and
    # residue on Q
    descs = [
        {"kind": "Q"},
        {"kind": "Fp", "p": 2},
        {"kind": "Fp", "p": 7},
        {"kind": "Fq", "p": 2, "d": 2},
        {"kind": "Fq", "p": 3, "d": 2},
        {"kind": "Fq", "p": 5, "d": 2},
        {"kind": "Sym", "names": ["a", "b"]},
    ]
    for desc in descs:
        ring = ring_from_json(desc)
        if ring.card is not None:
            nonzero = [x for x in ring.elements() if not ring.is_zero(x)]
            assert len(nonzero) == ring.card - 1
        elif ring == QQ:
            nonzero = [ring.parse(s) for s in ("1", "-2", "3", "1/3", "-9/4", "6")]
        else:
            a, b = ring.var("a"), ring.var("b")
            nonzero = [ring.one, ring.from_int(3), a, a - b, ring.inv(a + b) * a * b]
        for x in nonzero:
            assert ring.is_unit(x)
            assert ring.inv(x) * x == ring.one
    with pytest.raises(ValueError, match="unknown ring kind 'Zp'"):
        ring_from_json({"kind": "Zp", "p": 3})


def test_sym_hash_agrees_with_equality():
    # the bivariate normal form is not canonical: x and y print differently
    K = SymField(("a", "b"))
    a, b = K.var("a"), K.var("b")
    x = ((a - b) * (a - b)) * K.inv(a - b)
    y = a - b
    assert x == y and str(x) != str(y)
    assert hash(x) == hash(y)
    assert len({x, y}) == 1


def _uni_gcd(a, b):
    # dense univariate gcd over Q, monic output: the gcd SymElem._reduce ran
    # before it moved onto exactnum's _poly_gcd
    a = [Fraction(c) for c in a]
    b = [Fraction(c) for c in b]

    def trim(x):
        while x and x[-1] == 0:
            x.pop()
        return x

    a, b = trim(a), trim(b)
    while b:
        # a mod b
        r = list(a)
        inv = 1 / b[-1]
        for i in range(len(r) - len(b), -1, -1):
            c = r[i + len(b) - 1] * inv
            if c:
                for j, bj in enumerate(b):
                    r[i + j] -= c * bj
        a, b = b, trim(r[: len(b) - 1])
    if not a:
        return [Fraction(1)]
    inv = 1 / a[-1]
    return [c * inv for c in a]


def _uni_divexact(a, b):
    # exact dense univariate division
    a = [Fraction(c) for c in a]
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv = 1 / b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c = a[i + len(b) - 1] * inv
        q[i] = c
        if c:
            for j, bj in enumerate(b):
                a[i + j] -= c * bj
    if any(a[: len(b) - 1]):
        raise ArithmeticError("inexact division")
    return q


def _reference_reduce(num, den):
    # SymElem._reduce before the monomial shortcut and the _poly_* kernel:
    # the dense Fraction gcd above runs whenever both sides are univariate in
    # one variable or either is constant
    if num.is_zero():
        return num, MPoly.const(den.names, 1)
    sn, sd = num.monomial_content(), den.monomial_content()
    shift = tuple(min(x, y) for x, y in zip(sn, sd))
    if any(shift):
        num, den = num.shift_down(shift), den.shift_down(shift)
    un, ud = num.as_univariate(), den.as_univariate()
    if un is not None and ud is not None and (un[0] == ud[0] or len(un[1]) == 1 or len(ud[1]) == 1):
        i = un[0] if len(un[1]) > 1 else ud[0]
        g = _uni_gcd(un[1], ud[1])
        if len(g) > 1:

            def rebuild(coeffs):
                terms = {}
                for k, c in enumerate(coeffs):
                    e = [0] * len(num.names)
                    e[i] = k
                    terms[tuple(e)] = c
                return MPoly(num.names, terms)

            num, den = rebuild(_uni_divexact(un[1], g)), rebuild(_uni_divexact(ud[1], g))
    _, lc = den.lead()
    num = MPoly(num.names, {e: c / lc for e, c in num.terms.items()})
    den = MPoly(den.names, {e: c / lc for e, c in den.terms.items()})
    return num, den


NAMES = ("a", "b")
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def mpolys(draw, max_terms=3):
    # univariate in a, univariate in b, or bivariate, so that both the gcd
    # path and the bivariate path are reached
    shape = draw(st.sampled_from(["a", "b", "ab"]))
    exps = st.tuples(
        st.integers(0, 3) if "a" in shape else st.just(0),
        st.integers(0, 3) if "b" in shape else st.just(0),
    )
    terms = draw(st.dictionaries(exps, coefficients.filter(bool), min_size=1, max_size=max_terms))
    return MPoly(NAMES, terms)


@st.composite
def monomial_times_polys(draw):
    mono = MPoly(NAMES, {(draw(st.integers(0, 3)), draw(st.integers(0, 3))): draw(coefficients.filter(bool))})
    return mono * draw(mpolys())


@st.composite
def fraction_pairs(draw):
    # num and den share a factor half of the time
    num, den = draw(monomial_times_polys()), draw(monomial_times_polys())
    if draw(st.booleans()):
        common = draw(mpolys(max_terms=2))
        num, den = num * common, den * common
    return num, den


@settings(max_examples=100, deadline=None)
@given(fraction_pairs())
def test_sym_reduction_shortcut_keeps_normal_forms(pair):
    from hlx.exactnum import SymElem

    num, den = pair
    x = SymElem(num, den)
    rn, rd = _reference_reduce(num, den)
    assert (x.num, x.den) == (rn, rd)
    assert str(x) == str(SymElem._normal(rn, rd))


@settings(max_examples=60, deadline=None)
@given(fraction_pairs(), fraction_pairs())
def test_sym_arithmetic_keeps_normal_forms(p1, p2):
    from hlx.exactnum import SymElem

    x, y = SymElem(*p1), SymElem(*p2)
    for got, num, den in (
        (x + y, x.num * y.den + y.num * x.den, x.den * y.den),
        (x - y, x.num * y.den - y.num * x.den, x.den * y.den),
        (x * y, x.num * y.num, x.den * y.den),
        (-x, -x.num, x.den),
    ):
        assert (got.num, got.den) == _reference_reduce(num, den)


@settings(max_examples=60, deadline=None)
@given(fraction_pairs())
def test_sym_zero_operand_shortcuts_match_the_generic_path(pair):
    # x + 0, 0 + x, x - 0, x * 0 and 0 * x return an operand; the generic
    # constructor path gives the same normal form
    from hlx.exactnum import SymElem

    K = SymField(NAMES)
    x, z = SymElem(*pair), K.zero
    for got, num, den in (
        (x + z, x.num * z.den + z.num * x.den, x.den * z.den),
        (z + x, z.num * x.den + x.num * z.den, z.den * x.den),
        (x - z, x.num * z.den - z.num * x.den, x.den * z.den),
        (x * z, x.num * z.num, x.den * z.den),
        (z * x, z.num * x.num, z.den * x.den),
    ):
        generic = SymElem(num, den)
        assert got.num.terms == generic.num.terms
        assert got.den.terms == generic.den.terms
        assert str(got) == str(generic)
