"""Drinfeld polynomials, general ell-weights, spectral characters of sl2.

A DrinfeldPoly holds one constant-term-1 polynomial, an exactnum.Poly, as
the value it prints; everything computed from it (the minus involution,
the product prod (1 - a u) of given roots, factoring) runs on ascending
coefficient lists through exactnum's _poly_* routines.  An EllWeight is a
canonical multiset of (parameter, weight) pairs with the parameter nonzero
and the int weights allowed to be negative, interned: one object per ring
and value, so labels compare by identity.  Factorization
is by gcd with x^q - x and Cantor-Zassenhaus splitting over every finite
field F_q, and only there; nothing is ever extended silently.  A root's
multiplicity is divided out by the binomials
(u - x)^{p^i} = u^{p^i} - x^{p^i}, one per unit of each base-p digit.

The series of an ell-weight is P/Q for P, Q the products of its positive
and negative pairs.  In characteristic p each factor (1 - a u)^mu is
sparse: a product over the base-p digits of mu of binomials in u^{p^i}, so
a Frobenius twist omega_{a,mu} -> omega_{a^{1/p^m}, p^m mu} costs no more
terms than the label it twists.  The coefficients come from Q g = P by a
division-free recurrence (EllWeight.coefficients).
"""

from __future__ import annotations

import math

from .exactnum import (
    PrimeField,
    _poly_divmod,
    _poly_mul,
    field_roots,
    fppoly_splits_over,
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


def minus_involution(ring, coeffs):
    """prod(1 - a_j u)  ->  prod(1 - a_j^{-1} u) on ascending coefficients.

    Computed root-free as the reversed coefficient list over the leading
    coefficient, which must be a unit.
    """
    if not coeffs or ring.is_zero(coeffs[0]):
        raise ValueError("zero constant term")
    if not ring.is_unit(coeffs[-1]):
        raise ValueError("leading coefficient must be a unit")
    inv = ring.inv(coeffs[-1])
    return [inv * c for c in reversed(coeffs)]


def unit_root_product(ring, roots):
    """The ascending coefficients of prod (1 - a u) over the roots a, each
    a unit of the ring."""
    k = scalars(ring)
    f = [k.one]
    for a in roots:
        f = _poly_mul(f, [k.one, k.red(-k.lift(a))], k)
    return [k.box(c) for c in f]


def _roots_in_field(ring, coeffs):
    """All roots (with multiplicity) in a finite field of a polynomial with
    coefficients in it, plus the nonsplit residual coefficients (one when
    it splits).  The distinct roots come in field-element order, so the
    list reads as a scan of the field would; each one's multiplicity is
    divided out on scalars by Frobenius binomials."""
    k = scalars(ring)
    g = [k.lift(c) for c in coeffs]
    roots = []
    for x in field_roots(ring, coeffs):
        mult, g = _divide_out_root(g, k.lift(x), k)
        roots += [x] * mult
    return roots, [k.box(c) for c in g]


def _divide_out_root(g, x, k):
    """(m, g / (u - x)^m) for the multiplicity m of x as a root of g, on the
    reduced scalars of k = exactnum.scalars(F_q), F_q of characteristic p.

    As (u - x)^{p^i} = u^{p^i} - x^{p^i}, g is divided by these binomials
    greedily, the largest p^i <= deg g first: each p^i divides out as many
    times as the base-p digit of m at i, so the cost is the digit sum of m
    divisions of O(deg g) each (_poly_divmod skips the zero terms)."""
    steps = []  # (p^i, x^{p^i}) for p^i <= deg g
    e = 1
    while e < len(g):
        steps.append((e, x))
        e *= k.p
        if k.q != k.p:
            x = ring_pow(k.ring, x, k.p)
    mult = 0
    for e, c in reversed(steps):
        binomial = [k.red(-c)] + [k.zero] * (e - 1) + [k.one]
        while len(g) > e:
            quotient, rest = _poly_divmod(g, binomial, k)
            if rest:
                break
            g = quotient
            mult += e
    return mult, g


def factor_poly_unit_roots(f):
    """Multiset {root a_j: multiplicity} of f = prod (1 - a_j u).

    The roots of f as a polynomial in u are the reciprocals 1/a_j, so a_j
    runs over the roots of the reversed polynomial.  The field must be
    finite: over Q this is a ValueError.  Raises FieldExtensionNeeded when f
    does not split over its field.
    """
    ring = f.ring
    if ring.card is None:
        raise ValueError("factoring needs a finite field, not Q")
    if f.degree() <= 0:
        return {}
    rev = f.coeffs[::-1]
    roots, residual = _roots_in_field(ring, rev)
    if len(residual) > 1:
        raise FieldExtensionNeeded(
            "roots not in certified field %r (residual degree %d)"
            % (ring.to_json(), len(residual) - 1),
            suggested_degree=_extension_hint(ring, rev),
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


def _extension_hint(ring, coeffs):
    """The least degree d' <= 4 (a multiple of the field's degree d) over
    which a polynomial f with these coefficients splits, or None.  Over
    F_{p^d} this asks it of the norm N(f) = prod_{i<d} f^{sigma^i}, sigma
    the coefficientwise Frobenius: N(f) lies in F_p[u], and f splits over
    F_{p^d'} exactly when N(f) does (its roots are the conjugates of the
    roots of f)."""
    if isinstance(ring, PrimeField):
        base_d, norm = 1, [c.v for c in coeffs]
    else:
        base_d, k = ring.d, scalars(ring)
        norm = conj = list(coeffs)
        for _ in range(base_d - 1):
            conj = [ring_pow(ring, c, ring.p) for c in conj]
            norm = _poly_mul(norm, conj, k)
        norm = [c.coeffs[0] for c in norm]
    return next(
        (d for d in range(base_d + 1, 5) if d % base_d == 0 and fppoly_splits_over(norm, ring.char, d)),
        None,
    )


class EllWeight:
    """Canonical multiset of (parameter, weight) pairs with nonzero int
    weights; identified with prod_j omega_{mu_j, a_j}.

    Interned, as the rings are: EllWeight(ring, pairs) hands out the one
    label of its ring and canonical pairs, so equal labels are one object
    and compare by identity.  Tensor products, duals, twists and
    subquotients that carry a value, and later modules over the same ring,
    reuse its label, and with it the series that memo_coefficients keeps on
    the label."""

    __slots__ = ("ring", "pairs", "_memo")
    _instances = {}  # {(ring, canonical pairs): label}

    def __new__(cls, ring, pairs):
        if not all(ring.is_unit(a) for a, _ in pairs):
            raise ValueError("parameters must be nonzero")
        pairs = _canonical(ring, pairs)
        self = cls._instances.get((ring, pairs))
        if self is None:
            self = object.__new__(cls)
            self.ring = ring
            self.pairs = pairs
            self._memo = {}  # {sign: coefficients(n, sign)}, the longest n asked for
            cls._instances[ring, pairs] = self
        return self

    def __mul__(self, other):
        if self.ring is not other.ring:
            raise ValueError("ell-weights over different rings")
        return EllWeight(self.ring, self.pairs + other.pairs)

    def inverse(self):
        return EllWeight(self.ring, [(a, -mu) for a, mu in self.pairs])

    def wt(self):
        return sum(mu for _, mu in self.pairs)

    def spectral_character(self, cd):
        return SpectralCharacter(self.ring, [(a, cd.weight_class(mu)) for a, mu in self.pairs])

    def coefficients(self, n, sign=1):
        """Coefficients of u^0..u^n in prod (1 - a u)^{mu}, with the
        parameters inverted when sign=-1.

        The product is P/Q with P = prod_{mu>0} (1 - a u)^mu and
        Q = prod_{mu<0} (1 - a u)^{-mu}, both truncated at u^n.  In
        characteristic p the Frobenius x -> x^p is additive, so
        (1 - a u)^{p^i} = 1 - a^{p^i} u^{p^i}, and for m = sum_i d_i p^i in
        base p, (1 - a u)^m = prod_i (1 - a^{p^i} u^{p^i})^{d_i}: each factor
        has the d_i + 1 terms binom(d_i, j) (-a^{p^i})^j u^{j p^i}, and only
        the digits with p^i <= n reach u^n.  This is how the Frobenius twist
        omega_{a,mu} -> omega_{a^{1/p^m}, p^m mu} keeps a series sparse.  Over
        F_p, a^{p^i} = a.  In characteristic 0 the factor is the binomial
        expansion.  Q has constant term 1, so g = P/Q comes division-free
        from Q g = P: g_s = P_s - sum_{j>=1} Q_j g_{s-j}, in O(n nnz(Q)).
        It runs on exactnum.scalars: over F_p on int residues, boxed into
        the field's shared elements; other rings compute on their own."""
        k = scalars(self.ring)
        num, den = [], []
        for a, mu in self.pairs:
            a = k.lift(a) if sign == 1 else k.inv(k.lift(a))
            (num if mu > 0 else den).extend(_binomial_factors(a, abs(mu), n, k))
        return [k.box(x) for x in _series_quotient(_sparse_product(num, n, k), _sparse_product(den, n, k), n, k)]

    def memo_coefficients(self, n, sign, at_least):
        """coefficients(m, sign) for some m >= n, memoized on the label,
        which a module and its subquotients share.  A miss computes
        max(n, at_least) terms, so the longest list per sign is kept."""
        have = self._memo.get(sign)
        if have is None or len(have) <= n:
            have = self._memo[sign] = self.coefficients(max(n, at_least), sign)
        return have

    def fmt(self):
        return [[self.ring.fmt(a), [mu]] for a, mu in self.pairs]

    def __repr__(self):
        if not self.pairs:
            return "EllWeight(1)"
        return "EllWeight(%s)" % ", ".join(
            "omega_{%d,%s}" % (mu, self.ring.fmt(a)) for a, mu in self.pairs
        )


def _binomial_factors(a, m, n, k):
    """(1 - a u)^m, m > 0, to u^n as a list of sparse factors, each a list
    of (degree, scalar) terms on k = exactnum.scalars(ring): one binomial
    expansion in characteristic 0, one factor (1 - a^{p^i} u^{p^i})^{d_i}
    per nonzero base-p digit d_i of m with p^i <= n in characteristic p."""
    b = k.red(-a)
    if not k.p:
        return [_binomial_terms(b, m, 1, n, k)]
    out = []
    e = 1
    while m and e <= n:
        m, d = divmod(m, k.p)
        if d:
            out.append(_binomial_terms(b, d, e, n, k))
        e *= k.p
        if k.q != k.p:
            b = ring_pow(k.ring, b, k.p)  # (-a)^p = -(a^p) in characteristic p
    return out


def _binomial_terms(b, d, e, n, k):
    # (1 + b u^e)^d to u^n: binom(d, j) b^j u^{j e}
    out = []
    power = k.one
    for j in range(min(d, n // e) + 1):
        out.append((j * e, k.red(k.from_int(math.comb(d, j)) * power)))
        power = k.red(power * b)
    return out


def _sparse_product(factors, n, k):
    """The product of sparse factors to u^n, as {degree: nonzero scalar}."""
    out = {0: k.one}
    for terms in factors:
        prod = {}
        for s, c in terms:
            for t, x in out.items():
                if t + s <= n:
                    prod[t + s] = prod[t + s] + c * x if t + s in prod else c * x
        out = {}
        for t, x in prod.items():
            x = k.red(x)
            if not k.is_zero(x):
                out[t] = x
    return out


def _series_quotient(num, den, n, k):
    """u^0..u^n of num/den for sparse num, den with den_0 = 1, by
    g_s = num_s - sum_{j>=1} den_j g_{s-j}."""
    g = [k.zero] * (n + 1)
    for t, x in num.items():
        g[t] = x
    tail = sorted(den.items())[1:]
    if tail:
        red = k.red
        for s in range(1, n + 1):
            acc = g[s]
            for j, c in tail:
                if j > s:
                    break
                acc = acc - c * g[s - j]
            g[s] = red(acc)
    return g


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


class SpectralCharacter:
    """Finitely supported map from nonzero field elements to P/Q = Z/2,
    kept as the (parameter, 1) pairs of its support."""

    __slots__ = ("ring", "values")

    def __init__(self, ring, values=()):
        self.ring = ring
        self.values = tuple((a, res % 2) for a, res in _canonical(ring, values) if res % 2)

    def __add__(self, other):
        if self.ring is not other.ring:
            raise ValueError("spectral characters over different rings")
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
