"""Drinfeld polynomials, general ell-weights, spectral characters of sl2.

A DrinfeldPoly holds one constant-term-1 polynomial; an EllWeight is a
canonical multiset of (parameter, weight) pairs with the parameter nonzero
and the int weights allowed to be negative.  Factorization
is by gcd with x^q - x and Cantor-Zassenhaus splitting over every finite
field F_q and by rational root search over Q; nothing is ever extended
silently.
"""

from __future__ import annotations

from fractions import Fraction

from .exactnum import (
    Poly,
    PrimeField,
    field_roots,
    fppoly_splits_over,
    integer_binomial,
    ring_pow,
    scalars,
)


class FieldExtensionNeeded(ValueError):
    """Roots lie outside the certified field; carries a suggested degree."""

    def __init__(self, message, suggested_degree=None):
        super().__init__(message)
        self.suggested_degree = suggested_degree


class DrinfeldPoly:
    """A constant-term-1 polynomial, kept as the 1-tuple polys that the JSON
    form [[...]] prints."""

    __slots__ = ("ring", "polys")

    def __init__(self, ring, poly):
        if poly.is_zero() or not ring.is_zero(poly.coeffs[0] - ring.one):
            raise ValueError("Drinfeld polynomials need constant term 1")
        self.ring = ring
        self.polys = (poly,)

    def __eq__(self, other):
        return (
            isinstance(other, DrinfeldPoly)
            and self.ring == other.ring
            and self.polys == other.polys
        )

    def __hash__(self):
        return hash((self.ring, self.polys))

    def fmt(self):
        return [f.fmt() for f in self.polys]

    def __repr__(self):
        return "DrinfeldPoly(%r)" % (self.fmt(),)


def minus_involution(f):
    """f(u) = prod(1 - a_j u)  ->  f^-(u) = prod(1 - a_j^{-1} u).

    Computed root-free as the reversed coefficient list over the leading
    coefficient, which must be a unit.
    """
    ring = f.ring
    if f.is_zero() or ring.is_zero(f.coeffs[0]):
        raise ValueError("zero constant term")
    if not ring.is_unit(f.coeffs[-1]):
        raise ValueError("leading coefficient must be a unit")
    inv = ring.inv(f.coeffs[-1])
    return Poly(ring, [inv * c for c in reversed(f.coeffs)])


def _roots_in_field(f):
    """All roots (with multiplicity) of f in its coefficient field, plus the
    nonsplit residual polynomial (constant when f splits)."""
    ring = f.ring
    roots = []
    g = f
    if ring.card is not None:
        # deflating in field-element order lists the roots exactly as a
        # scan of the field would
        for x in field_roots(ring, f.coeffs):
            while g.degree() >= 1 and ring.is_zero(g.eval(x)):
                g = _deflate(g, x)
                roots.append(x)
        return roots, g
    while g.degree() >= 1:
        found = _rational_root(g)
        if found is None:
            break
        g = _deflate(g, found)
        roots.append(found)
    return roots, g


def _deflate(f, root):
    # synthetic division by (u - root); f(root) = 0
    ring = f.ring
    out = [ring.zero] * f.degree()
    acc = ring.zero
    for k in range(f.degree(), 0, -1):
        acc = f.coeffs[k] + root * acc
        out[k - 1] = acc
    return Poly(ring, out)


def _rational_root(f):
    """One rational root of a Q-coefficient polynomial, or None."""
    from math import gcd

    mult = 1
    for c in f.coeffs:
        mult = mult * c.denominator // gcd(mult, c.denominator)
    ints = [int(c * mult) for c in f.coeffs]
    lead = ints[-1]
    # strip u^k factor: constant term is nonzero for Drinfeld-type inputs
    const = ints[0]
    if const == 0:
        return Fraction(0)

    def divisors(n):
        n = abs(n)
        out = set()
        d = 1
        while d * d <= n:
            if n % d == 0:
                out.add(d)
                out.add(n // d)
            d += 1
        return sorted(out)

    for p in divisors(const):
        for q in divisors(lead):
            for sign in (1, -1):
                cand = Fraction(sign * p, q)
                if f.eval(cand) == 0:
                    return cand
    return None


def factor_poly_unit_roots(f):
    """Multiset {root a_j: multiplicity} of f = prod (1 - a_j u).

    The roots of f as a polynomial in u are the reciprocals 1/a_j, so a_j
    runs over the roots of the reversed polynomial.  Raises
    FieldExtensionNeeded when f does not split over its field.
    """
    ring = f.ring
    if f.degree() <= 0:
        return {}
    rev = Poly(ring, list(reversed(f.coeffs)))
    roots, residual = _roots_in_field(rev)
    if residual.degree() >= 1:
        hint = _extension_hint(f)
        raise FieldExtensionNeeded(
            "roots not in certified field %r (residual degree %d)"
            % (ring.to_json(), residual.degree()),
            suggested_degree=hint,
        )
    out = {}
    for a in roots:
        for seen in out:
            if seen == a:
                out[seen] += 1
                break
        else:
            out[a] = 1
    return out


def _extension_hint(f):
    """The least degree d' <= 4 (a multiple of the field's degree d) over
    which f splits, or None.  Over F_{p^d} this asks it of the norm
    N(f) = prod_{i<d} f^{sigma^i}, sigma the coefficientwise Frobenius: N(f)
    lies in F_p[u], and f splits over F_{p^d'} exactly when N(f) does (its
    roots are the conjugates of the roots of f)."""
    from .exactnum import FiniteField

    ring = f.ring
    rev = Poly(ring, list(reversed(f.coeffs)))
    if isinstance(ring, PrimeField):
        base_d = 1
        norm = [c.v for c in rev.coeffs]
    elif isinstance(ring, FiniteField):
        base_d = ring.d
        acc = conj = rev
        for _ in range(base_d - 1):
            conj = Poly(ring, [ring_pow(ring, c, ring.p) for c in conj.coeffs])
            acc = acc * conj
        norm = [c.coeffs[0] for c in acc.coeffs]
    else:
        return None
    return next(
        (d for d in range(base_d + 1, 5) if d % base_d == 0 and fppoly_splits_over(norm, ring.char, d)),
        None,
    )


class EllWeight:
    """Canonical multiset of (parameter, weight) pairs with nonzero int
    weights; identified with prod_j omega_{mu_j, a_j}."""

    __slots__ = ("ring", "pairs", "_memo")

    def __init__(self, ring, pairs):
        if not all(ring.is_unit(a) for a, _ in pairs):
            raise ValueError("parameters must be nonzero")
        self.ring = ring
        self.pairs = _canonical(ring, pairs)
        self._memo = {}  # {sign: coefficients(n, sign)}, the longest n asked for

    def __mul__(self, other):
        assert self.ring == other.ring
        return EllWeight(self.ring, self.pairs + other.pairs)

    def inverse(self):
        return EllWeight(self.ring, [(a, -mu) for a, mu in self.pairs])

    def wt(self):
        return sum(mu for _, mu in self.pairs)

    def spectral_character(self, cd):
        return SpectralCharacter(self.ring, [(a, cd.weight_class(mu)) for a, mu in self.pairs])

    def to_drinfeld(self):
        """The DrinfeldPoly when all exponents are dominant."""
        if any(mu < 0 for _, mu in self.pairs):
            raise ValueError("not a dominant ell-weight")
        ring = self.ring
        f = Poly.const(ring, ring.one)
        for a, mu in self.pairs:
            for _ in range(mu):
                f = f * Poly(ring, [ring.one, -a])
        return DrinfeldPoly(ring, f)

    def coefficients(self, n, sign=1):
        """Coefficients of u^0..u^n in prod (1 - a u)^{mu}, with the
        parameters inverted when sign=-1: the convolution of the closed forms
        binom(mu, s) (-a)^s, binom being the generalized binomial when mu < 0.
        It runs on exactnum.scalars: over F_p on int residues, boxed once at
        the end; other rings compute on their own elements."""
        k = scalars(self.ring)
        out = _binomial_convolution([(k.lift(a), mu) for a, mu in self.pairs], n, sign, k)
        return [k.box(out.get(t, k.zero)) for t in range(n + 1)]

    def memo_coefficients(self, n, sign, at_least):
        """coefficients(m, sign) for some m >= n, memoized on the label,
        which a module and its subquotients share.  A miss computes
        max(n, at_least) terms, so the longest list per sign is kept."""
        have = self._memo.get(sign)
        if have is None or len(have) <= n:
            have = self._memo[sign] = self.coefficients(max(n, at_least), sign)
        return have

    def __eq__(self, other):
        return isinstance(other, EllWeight) and self.ring == other.ring and self.pairs == other.pairs

    def __hash__(self):
        return hash((self.ring, self.pairs))

    def fmt(self):
        return [[self.ring.fmt(a), [mu]] for a, mu in self.pairs]

    def __repr__(self):
        if not self.pairs:
            return "EllWeight(1)"
        return "EllWeight(%s)" % ", ".join(
            "omega_{%d,%s}" % (mu, self.ring.fmt(a)) for a, mu in self.pairs
        )


def _binomial_convolution(pairs, n, sign, k):
    """prod (1 - a u)^{mu} to u^n as {degree: nonzero coefficient}, on the
    scalars of k = exactnum.scalars(ring) (red reduces a sum or product).
    The partial products are kept sparse."""
    one, from_int, inv, red, is_zero = k.one, k.from_int, k.inv, k.red, k.is_zero
    out = {0: one}
    for a, mu in pairs:
        if sign == -1:
            a = inv(a)
        top = n if mu < 0 else min(n, mu)
        prod = {}
        power = one
        for s in range(top + 1):
            c = red(from_int(integer_binomial(mu, s)) * power)
            power = red(power * -a)
            if is_zero(c):
                continue
            for t, x in out.items():
                if t + s <= n:
                    prod[t + s] = prod[t + s] + c * x if t + s in prod else c * x
        out = {}
        for t, x in prod.items():
            x = red(x)
            if not is_zero(x):
                out[t] = x
    return out


def _param_sort_key(ring, a):
    return ring.fmt(a)


def _canonical(ring, pairs):
    """The (parameter, int) pairs summed over equal parameters, with zero
    sums dropped, sorted by parameter."""
    acc = []  # [param, sum] with params pairwise distinct
    for a, n in pairs:
        for item in acc:
            if item[0] == a:
                item[1] += n
                break
        else:
            acc.append([a, n])
    return tuple(sorted(((a, n) for a, n in acc if n), key=lambda t: _param_sort_key(ring, t[0])))


def factor(obj):
    """Canonical multiset {(a_j, mu_j)} of a DrinfeldPoly (or pass-through of
    an EllWeight's pairs).  Raises FieldExtensionNeeded when roots escape."""
    if isinstance(obj, EllWeight):
        return list(obj.pairs)
    pairs = list(factor_poly_unit_roots(obj.polys[0]).items())
    pairs.sort(key=lambda t: _param_sort_key(obj.ring, t[0]))
    return pairs


def ell_weight_from_poly(poly):
    return EllWeight(poly.ring, factor(poly))


class SpectralCharacter:
    """Finitely supported map from nonzero field elements to P/Q = Z/2,
    kept as the (parameter, 1) pairs of its support."""

    __slots__ = ("ring", "values")

    def __init__(self, ring, values=()):
        self.ring = ring
        self.values = tuple((a, res % 2) for a, res in _canonical(ring, values) if res % 2)

    def __add__(self, other):
        assert self.ring == other.ring
        return SpectralCharacter(self.ring, self.values + other.values)

    def __neg__(self):
        return self  # -1 = 1 in Z/2

    def is_zero(self):
        return not self.values

    def __eq__(self, other):
        return (
            isinstance(other, SpectralCharacter)
            and self.ring == other.ring
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.ring, self.values))

    def fmt(self):
        return {self.ring.fmt(a): [res] for a, res in self.values}

    def __repr__(self):
        return "SpectralCharacter(%r)" % (self.fmt(),)


def block_partition(entries):
    """Group (label, spectral character or None) pairs by character.

    Entries with inconsistent or unavailable characters are reported apart.
    Returns (groups, flagged) with groups a list of {"character", "members"}.
    """
    groups = []
    flagged = []
    for label, chi in entries:
        if chi is None:
            flagged.append(label)
            continue
        for g in groups:
            if g["character"] == chi:
                g["members"].append(label)
                break
        else:
            groups.append({"character": chi, "members": [label]})
    groups.sort(key=lambda g: sorted(g["members"]))
    return groups, flagged
