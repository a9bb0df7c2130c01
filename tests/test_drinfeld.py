import random
import time

import pytest
from fractions import Fraction
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hlx.cartan import CartanData
from hlx.drinfeld import (
    EllWeight,
    FieldExtensionNeeded,
    SpectralCharacter,
    _roots_in_field,
    block_partition,
    factor_poly_unit_roots,
    minus_involution,
    unit_root_product,
)
from hlx.exactnum import (
    QQ,
    FiniteField,
    Poly,
    PrimeField,
    SymField,
    field_roots,
    integer_binomial,
    lucas_binom,
    ring_pow,
)


A1 = CartanData("A1")


def test_factor_over_f3():
    F = PrimeField(3)
    # (1-u)^2 (1-2u)
    pairs = factor_poly_unit_roots(Poly(F, unit_root_product(F, [F(1), F(1), F(2)])))
    as_dict = {F.fmt(a): mu for a, mu in pairs.items()}
    assert as_dict == {"1": 2, "2": 1}


def test_factor_constant():
    F = PrimeField(3)
    assert factor_poly_unit_roots(Poly(F, [F.one])) == {}


def test_factor_irreducible_quadratic_raises_with_hint():
    F = PrimeField(3)
    # 1 + u^2 has no roots in F_3 (note 1 + u + u^2 does: u = 1)
    with pytest.raises(FieldExtensionNeeded) as exc:
        factor_poly_unit_roots(Poly(F, [F(1), F(0), F(1)]))
    assert exc.value.suggested_degree == 2


def test_factor_reconstruct_roundtrip():
    F = PrimeField(5)
    ew = EllWeight(F, [(F(2), 2), (F(3), 1)])
    # a dominant ell-weight's plus series is its Drinfeld polynomial
    poly = Poly(F, ew.coefficients(ew.wt()))
    assert poly == Poly(F, unit_root_product(F, [F(2), F(2), F(3)]))
    assert EllWeight(F, factor_poly_unit_roots(poly).items()) == ew


def test_minus_involution():
    F5 = PrimeField(5)
    assert minus_involution(F5, [F5(1), F5(-2)]) == [F5(1), F5(-3)]  # 2^{-1} = 3 in F_5
    g = [Fraction(1), Fraction(-1)]
    assert minus_involution(QQ, g) == g
    a = Fraction(7)
    pair = unit_root_product(QQ, [a, 1 / a])
    assert minus_involution(QQ, pair) == pair
    f = [Fraction(1), Fraction(2), Fraction(5)]
    assert minus_involution(QQ, minus_involution(QQ, f)) == f
    with pytest.raises(ValueError):
        minus_involution(QQ, [Fraction(0), Fraction(1)])
    with pytest.raises(ValueError):
        minus_involution(QQ, [Fraction(1), Fraction(0)])


def test_minus_involution_commutes_with_residue():
    # unit-root polynomials over the DVR: reduce-then-minus = minus-then-reduce
    from hlx.exactnum import residue

    p = 5
    F = PrimeField(p)
    coeffs = [Fraction(1), Fraction(-7, 2), Fraction(3)]
    fm = minus_involution(QQ, coeffs)
    red = [residue(c, p) for c in coeffs]
    assert minus_involution(F, red) == [residue(c, p) for c in fm]


def test_wt():
    F = PrimeField(3)
    ew = EllWeight(F, [(F(2), 3)])
    assert ew.wt() == 3
    assert (ew * ew.inverse()).wt() == 0
    assert EllWeight(F, [(F(1), 5), (F(2), -2)]).wt() == 3


def test_ell_weights_are_interned():
    F = PrimeField(5)
    a, b = F(2), F(3)
    ew = EllWeight(F, [(a, 1), (b, 2)])
    assert EllWeight(F, [(b, 2), (a, 1)]) is ew
    assert EllWeight(F, [(b, 1), (a, 1), (b, 1)]) is ew
    assert EllWeight(F, [(a, 1)]) * EllWeight(F, [(b, 2)]) is ew
    assert ew.inverse().inverse() is ew
    assert EllWeight(F, [(a, 1), (a, -1)]) is EllWeight(F, [])
    # the same pairs over another field are another label
    F7 = PrimeField(7)
    assert EllWeight(F7, [(F7(2), 1), (F7(3), 2)]) is not ew
    with pytest.raises(ValueError):
        EllWeight(F, [(F.zero, 1), (F.zero, -1)])


def test_ring_mismatch_is_a_value_error():
    # a ValueError, not an assert, so that python -O does not build a
    # label of one field with a parameter of another
    F5, F7 = PrimeField(5), PrimeField(7)
    with pytest.raises(ValueError):
        EllWeight(F5, [(F5(2), 1)]) * EllWeight(F7, [(F7(2), 1)])
    with pytest.raises(ValueError):
        SpectralCharacter(F5, [(F5(2), 1)]) + SpectralCharacter(F7, [(F7(2), 1)])


def test_spectral_character():
    F = PrimeField(3)
    # omega_{2,a}: 2 lies in Q for sl2
    assert EllWeight(F, [(F(1), 2)]).spectral_character(A1).is_zero()
    chi = EllWeight(F, [(F(1), 1), (F(2), 1)]).spectral_character(A1)
    assert chi.fmt() == {"1": [1], "2": [1]}
    a = EllWeight(F, [(F(1), 1)])
    b = EllWeight(F, [(F(2), 3)])
    assert (a * b).spectral_character(A1) == a.spectral_character(A1) + b.spectral_character(A1)


def test_spectral_character_kernel_is_ell_root_lattice():
    F = PrimeField(5)
    # exhaustive for sl2 exponent vectors with |mu| <= 4 at two parameters
    for m1 in range(-4, 5):
        for m2 in range(-4, 5):
            ew = EllWeight(F, [(F(1), m1), (F(2), m2)])
            chi = ew.spectral_character(A1)
            # omega_{mu,a} is in the ell-root lattice (generated by the
            # alpha_a = omega_{2,a}) exactly when every exponent is even
            assert chi.is_zero() == (m1 % 2 == 0 and m2 % 2 == 0)


def test_block_partition():
    F = PrimeField(3)
    chi0 = EllWeight(F, [(F(1), 2)]).spectral_character(A1)
    chi1 = EllWeight(F, [(F(1), 1)]).spectral_character(A1)
    chi2 = EllWeight(F, [(F(2), 1)]).spectral_character(A1)
    groups, flagged = block_partition(
        [("V(2,1)", chi0), ("V(0)", SpectralCharacter(F)), ("V(1,1)", chi1), ("V(1,2)", chi2)]
    )
    assert len(groups) == 3
    members = sorted(tuple(sorted(g["members"])) for g in groups)
    assert ("V(0)", "V(2,1)") in members
    assert not flagged
    assert block_partition([]) == ([], [])


def test_ell_weight_series():
    F = PrimeField(5)
    a = F(2)
    ew = EllWeight(F, [(a, -1)])
    # (1 - a u)^{-1} = sum a^k u^k
    assert ew.coefficients(3) == [F(1), a, a * a, a * a * a]


def _truncated_product(ring, f, g, prec):
    # f * g modulo u^prec, both given as coefficient lists
    out = [ring.zero] * prec
    for i, x in enumerate(f[:prec]):
        for j, y in enumerate(g[: prec - i]):
            out[i + j] = out[i + j] + x * y
    return out


@pytest.mark.parametrize("ring", [PrimeField(5), FiniteField(3, 2), QQ])
def test_ell_weight_coefficients_match_series_products(ring):
    # reference: one factor (1 - a u) or 1 / (1 - a u) = sum a^k u^k at a time
    prec = 12
    units = ring.units() if ring.card else [ring.from_int(k) for k in (2, -3, 5)]
    rng = random.Random(7)
    for _ in range(40):
        pairs = [(rng.choice(units), rng.randint(-6, 6)) for _ in range(rng.randint(0, 3))]
        ew = EllWeight(ring, pairs)
        for sign in (1, -1):
            ref = [ring.one] + [ring.zero] * (prec - 1)
            for a, mu in ew.pairs:
                a = a if sign == 1 else ring.inv(a)
                if mu > 0:
                    factor = [ring.one, -a]
                else:
                    factor = [ring_pow(ring, a, k) for k in range(prec)]
                for _ in range(abs(mu)):
                    ref = _truncated_product(ring, ref, factor, prec)
            assert ew.coefficients(prec - 1, sign) == ref


def test_factor_over_rationals():
    # factoring runs over finite fields only: characteristic-zero modules
    # keep their Drinfeld polynomials as coefficient lists
    from fractions import Fraction

    f = Poly(QQ, unit_root_product(QQ, [Fraction(2), Fraction(1, 3)]))
    with pytest.raises(ValueError) as err:
        factor_poly_unit_roots(f)
    assert str(err.value) == "factoring needs a finite field, not Q"


# ---------------------------------------------------------------------------
# the P/Q series kernel against the closed-form binomial convolution
# ---------------------------------------------------------------------------

SETTINGS = settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SYM = SymField(("a", "b"))
SERIES_RINGS = [PrimeField(p) for p in (2, 3, 5, 7)] + [
    FiniteField(2, 2), FiniteField(2, 3), FiniteField(3, 2), FiniteField(5, 2), QQ, SYM
]


def _binomial_convolution(ring, pairs, n, sign):
    """prod (1 - a u)^{mu} to u^n as the product of the closed forms
    binom(mu, s) (-a)^s, s <= n, binom being the generalized binomial when
    mu < 0, taken mod p by Lucas's theorem in characteristic p."""
    out = [ring.one] + [ring.zero] * n
    for a, mu in pairs:
        if sign == -1:
            a = ring.inv(a)
        top = n if mu < 0 else min(n, mu)
        closed = [
            ring.from_int(lucas_binom(mu, s, ring.char) if ring.char else integer_binomial(mu, s))
            * ring_pow(ring, -a, s)
            for s in range(top + 1)
        ]
        out = [sum((closed[s] * out[t - s] for s in range(min(t, top) + 1)), ring.zero) for t in range(n + 1)]
    return out


@st.composite
def series_labels(draw):
    """(ring, pairs, n): weights past n, and in characteristic p weights
    c p^N + r with p^N up to past n, so every base-p digit position shows."""
    ring = draw(st.sampled_from(SERIES_RINGS))
    if ring == SYM:
        a, b = ring.var("a"), ring.var("b")
        params = [a, b, a + b, a * b, ring.from_int(2)]
        n, top = draw(st.integers(0, 4)), 3
    elif ring == QQ:
        params = [Fraction(c, d) for c in (-3, -1, 2, 5) for d in (1, 2)]
        n, top = draw(st.integers(0, 12)), 16
    else:
        params = ring.units()
        n, top = draw(st.integers(0, 30)), 40
    weight = st.integers(1, top)
    if ring.char:
        p = ring.char
        weight |= st.builds(lambda N, c, r: c * p**N + r, st.integers(1, 5), st.integers(1, p), st.integers(0, p - 1))
    signed = st.tuples(st.sampled_from(params), st.builds(lambda m, neg: -m if neg else m, weight, st.booleans()))
    return ring, draw(st.lists(signed, max_size=3)), n


@SETTINGS
@given(series_labels(), st.sampled_from([1, -1]))
def test_series_match_the_binomial_convolution(label, sign):
    ring, pairs, n = label
    ew = EllWeight(ring, pairs)
    assert ew.coefficients(n, sign) == _binomial_convolution(ring, ew.pairs, n, sign)


# ---------------------------------------------------------------------------
# root multiplicities by Frobenius binomials against one-root deflation
# ---------------------------------------------------------------------------


def _horner(ring, f, x):
    acc = ring.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _times_root(ring, f, x):
    # (u - x) f
    return [a - x * b for a, b in zip([ring.zero] + f, f + [ring.zero])]


def _deflate(ring, f, root):
    # synthetic division by (u - root); f(root) = 0
    out = [ring.zero] * (len(f) - 1)
    acc = ring.zero
    for k in range(len(f) - 1, 0, -1):
        acc = f[k] + root * acc
        out[k - 1] = acc
    return out


def _roots_by_deflation(ring, f):
    roots, g = [], f
    for x in field_roots(ring, f):
        while len(g) > 1 and ring.is_zero(_horner(ring, g, x)):
            g = _deflate(ring, g, x)
            roots.append(x)
    return roots, g


@SETTINGS
@given(
    st.sampled_from([PrimeField(p) for p in (2, 3, 5, 7)] + [FiniteField(2, 2), FiniteField(3, 2)]),
    st.data(),
)
def test_root_multiplicities_match_deflation(F, data):
    elements = F.elements()
    unit = data.draw(st.sampled_from(elements[1:]))
    roots = []
    for _ in range(data.draw(st.integers(0, 3))):
        x = data.draw(st.sampled_from(elements))
        roots += [x] * data.draw(st.integers(1, 2 * F.char**2 + 3))
    # a cofactor that may have roots of its own, or none in F
    f = [unit * c for c in data.draw(st.lists(st.sampled_from(elements), max_size=4)) + [F.one]]
    for x in roots:
        f = _times_root(F, f, x)
    assert _roots_in_field(F, f) == _roots_by_deflation(F, f)


@SETTINGS
@given(
    st.sampled_from([PrimeField(p) for p in (2, 3, 5, 7, 11)] + [FiniteField(2, 2), FiniteField(3, 2)]),
    st.data(),
)
def test_unit_root_product_matches_evaluation(F, data):
    roots = data.draw(st.lists(st.sampled_from(F.units()), max_size=6))
    f = unit_root_product(F, roots)
    assert len(f) == len(roots) + 1
    for u in F.elements():
        want = F.one
        for a in roots:
            want = want * (F.one - a * u)
        assert _horner(F, f, u) == want


def test_triple_frobenius_twist_factors_fast():
    # (1 - 6u)^3773 = (1 - 6u^343)^11 over F_7, the Drinfeld polynomial of the
    # triple Frobenius twist of L(11, 6): one deflation per root took minutes
    F = PrimeField(7)
    f = Poly(F, [F(lucas_binom(3773, j, 7) * pow(-6, j, 7)) for j in range(3774)])
    start = time.perf_counter()
    assert factor_poly_unit_roots(f) == {F(6): 3773}
    assert time.perf_counter() - start < 1.0
