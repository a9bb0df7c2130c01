"""Symbolic engine for the loop algebra of sl2 over the rationals.

Elements are stored on a PBW basis of divided-power monomials.  The fixed
total order is: lowering generators (loop degree ascending), then Cartan
generators, then raising generators.  A monomial is a tuple of entries
(kind, r, k) where kind is LOWER/CARTAN/RAISE, r the loop degree and k the
exponent.  For x-generators k is a divided-power exponent; for the Cartan
entry with r = 0 it is a binomial exponent (the entry stands for binom(h,k)),
and for r != 0 it is a plain power of h_r.

Products are normal ordered by inserting letters, right to left, into a
sorted word, with the sl2 loop brackets
    [x+_r, x-_s] = h_{r+s},   [h_r, x±_s] = ±2 x±_{r+s}.
A letter a at most the word's first letter b is prepended; otherwise
a·b·rest = b·(a·rest) + [a, b]·rest, and each call acts on a sorted word.
This terminates by induction on the length of the word: every full-length
word of a·rest has the letters {a} ∪ rest, all at least b, so putting b in
front of it is a prepend, and every bracket term is shorter.  The structure
constants are integers, so word rewriting runs on Python ints; a PBW
monomial is an integer word sum over prod k!, because divided powers
divide, and a product of elements builds one exact rational per output
monomial.  Integrality questions are settled afterwards by a triangular
change of basis into the divided-power integral form.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

from .exactnum import integer_binomial, scalars

LOWER, CARTAN, RAISE = 0, 1, 2

_KIND_NAME = {LOWER: "x-", CARTAN: "h", RAISE: "x+"}


# ---------------------------------------------------------------------------
# word rewriting
# ---------------------------------------------------------------------------

_insert_cache = {}
_pbw_cache = {}
_mono_product_cache = {}


def _bracket(a, b):
    """[a, b] for letters with a > b; None when they commute.  The structure
    constants are integers, so words are rewritten on Python ints."""
    ka, ra = a
    kb, rb = b
    if ka == RAISE and kb == LOWER:
        return (CARTAN, ra + rb), 1
    if ka == RAISE and kb == CARTAN:
        # [x+_ra, h_rb] = -2 x+_{ra+rb}
        return (RAISE, ra + rb), -2
    if ka == CARTAN and kb == LOWER:
        return (LOWER, ra + rb), -2
    return None


def _add_into(acc, terms, c):
    """acc += c * terms on {key: int} maps."""
    for w, t in terms.items():
        acc[w] = acc.get(w, 0) + c * t


def _insert(letter, word):
    """letter · word normal ordered, for a sorted word: {sorted word: int}.

    A letter at most word[0] is prepended.  Otherwise, with word = b·rest
    and letter > b,
        letter·b·rest = b·(letter·rest) + [letter, b]·rest,
    and every call acts on a sorted word.  Termination, by induction on
    len(word): letter·rest and [letter, b]·rest insert into the shorter
    rest.  A swap keeps the letters and a bracket drops one, so every word
    of letter·rest as long as word has the letters {letter} ∪ rest, all at
    least b: inserting b into it is a prepend.  Every other word of it is
    shorter than word.  Memoised on (letter, word), prepends aside."""
    if not word or letter <= word[0]:
        return {(letter,) + word: 1}
    key = (letter, word)
    cached = _insert_cache.get(key)
    if cached is not None:
        return cached
    b, rest = word[0], word[1:]
    out = {}
    for u, c in _insert(letter, rest).items():
        _add_into(out, _insert(b, u), c)
    br = _bracket(letter, b)
    if br is not None:
        _add_into(out, _insert(br[0], rest), br[1])
    out = {w: c for w, c in out.items() if c}
    _insert_cache[key] = out
    return out


def _straighten(word):
    """Normal order a word of letters; returns {sorted word: integer coefficient}.

    Letters (kind, r) sort exactly the way the PBW order wants.  The letters
    in front of the longest sorted suffix are inserted into it right to
    left (`_insert`)."""
    i = len(word) - 1
    while i > 0 and word[i - 1] <= word[i]:
        i -= 1
    out = {word[i:]: 1}
    for letter in reversed(word[:i]):
        acc = {}
        for u, c in out.items():
            _add_into(acc, _insert(letter, u), c)
        out = {w: c for w, c in acc.items() if c}
    return out


# h^m in the binomial basis: h^m = sum_j _H_TO_BINOM[m][j] binom(h, j)
_H_TO_BINOM = [{0: 1}]
# falling factorial h(h-1)...(h-k+1) = sum_j _FALLING[k][j] h^j
_FALLING = [{0: 1}]


def _h_to_binom(m):
    while len(_H_TO_BINOM) <= m:
        prev = _H_TO_BINOM[-1]
        nxt = {}
        # h * binom(h,j) = (j+1) binom(h,j+1) + j binom(h,j)
        for j, c in prev.items():
            nxt[j + 1] = nxt.get(j + 1, 0) + c * (j + 1)
            if j:
                nxt[j] = nxt.get(j, 0) + c * j
        _H_TO_BINOM.append(nxt)
    return _H_TO_BINOM[m]


def _falling(k):
    while len(_FALLING) <= k:
        prev = _FALLING[-1]
        n = len(_FALLING) - 1
        nxt = {}
        for j, c in prev.items():
            nxt[j + 1] = nxt.get(j + 1, 0) + c
            nxt[j] = nxt.get(j, 0) - n * c
        nxt = {j: c for j, c in nxt.items() if c}
        _FALLING.append(nxt)
    return _FALLING[k]


def _pbw(word):
    """A sorted word on the PBW basis: {monomial: int}, memoised.

    A run x^m is m! x^(m), h_r^m (r != 0) is itself, and h_0^m goes to the
    binomial basis.  Distinct parts stay distinct when an entry is appended,
    so no two terms meet."""
    cached = _pbw_cache.get(word)
    if cached is not None:
        return cached
    out = {(): 1}
    for (kind, r), group in itertools.groupby(word):
        m = len(list(group))
        if kind == CARTAN and r == 0:
            table = _h_to_binom(m)
            out = {
                part + (((CARTAN, 0, j),) if j else ()): c * t for part, c in out.items() for j, t in table.items()
            }
        elif kind == CARTAN:
            out = {part + ((CARTAN, r, m),): c for part, c in out.items()}
        else:
            f = math.factorial(m)
            out = {part + ((kind, r, m),): c * f for part, c in out.items()}
    _pbw_cache[word] = out
    return out


def _expand(mono):
    """PBW monomial -> (denominator, {sorted word: int}): the monomial is the
    word sum over the denominator, prod k! over its divided powers and
    binomials.  Distinct words stay distinct when a block is appended: a
    monomial has one binom(h,.) entry, and no h_0 precedes it."""
    den = 1
    words = {(): 1}
    for kind, r, k in mono:
        if kind == CARTAN and r == 0:
            table = _falling(k)
            den *= math.factorial(k)
            words = {w + ((CARTAN, 0),) * j: c * t for w, c in words.items() for j, t in table.items()}
        elif kind == CARTAN:
            words = {w + ((CARTAN, r),) * k: c for w, c in words.items()}
        else:
            den *= math.factorial(k)
            words = {w + ((kind, r),) * k: c for w, c in words.items()}
    return den, words


def _word_sum(words):
    """{word: int} normal ordered onto the PBW basis: {monomial: int}."""
    acc = {}
    for word, c in words.items():
        for w, c2 in _straighten(word).items():
            _add_into(acc, _pbw(w), c * c2)
    return acc


def _mono_product(m1, m2):
    """m1 · m2 on the PBW basis as (denominator, {monomial: int}), memoised."""
    key = (m1, m2)
    cached = _mono_product_cache.get(key)
    if cached is not None:
        return cached
    d1, e1 = _expand(m1)
    d2, e2 = _expand(m2)
    words = {}
    for w1, c1 in e1.items():
        for w2, c2 in e2.items():
            words[w1 + w2] = words.get(w1 + w2, 0) + c1 * c2
    out = d1 * d2, {m: n for m, n in _word_sum(words).items() if n}
    _mono_product_cache[key] = out
    return out


class HyperElement:
    """Element of U(loop sl2) over Q as a PBW coefficient map; immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c}

    # -- constructors -------------------------------------------------------

    @classmethod
    def one(cls):
        return cls({(): Fraction(1)})

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def gen(cls, kind, r, k=1):
        """(x±_r)^(k), binom(h,k) (kind CARTAN, r=0) or h_r^k (r != 0)."""
        if k == 0:
            return cls.one()
        return cls({((kind, r, k),): Fraction(1)})

    @classmethod
    def x_minus(cls, r, k=1):
        return cls.gen(LOWER, r, k)

    @classmethod
    def x_plus(cls, r, k=1):
        return cls.gen(RAISE, r, k)

    @classmethod
    def h(cls, r):
        if r == 0:
            return cls.gen(CARTAN, 0, 1)  # h = binom(h,1)
        return cls.gen(CARTAN, r, 1)

    @classmethod
    def binom_h(cls, k):
        return cls.gen(CARTAN, 0, k)

    @classmethod
    def binom_h_shifted(cls, shift, k):
        """binom(h + shift, k) expanded by Vandermonde into binom(h, j)."""
        out = {}
        for j in range(k + 1):
            c = integer_binomial(shift, k - j)
            if c:
                mono = ((CARTAN, 0, j),) if j else ()
                out[mono] = out.get(mono, Fraction(0)) + Fraction(c)
        return cls(out)

    @classmethod
    def from_word(cls, letters):
        """The product of the letters (kind, r) in the given order, x±_r or
        h_r.  The public entry to normal ordering of a raw word; the
        straightening's oracle test goes through it."""
        return cls({m: Fraction(c) for m, c in _word_sum({tuple(letters): 1}).items()})

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return HyperElement(out)

    def __sub__(self, other):
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) - c
        return HyperElement(out)

    def __neg__(self):
        return HyperElement({m: -c for m, c in self.coeffs.items()})

    def scale(self, c):
        c = Fraction(c)
        return HyperElement({m: c * x for m, x in self.coeffs.items()})

    def __mul__(self, other):
        # every pair's product on int numerators over one common denominator
        terms = []
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                den, prod = _mono_product(m1, m2)
                terms.append((c1.numerator * c2.numerator, c1.denominator * c2.denominator * den, prod))
        common = math.lcm(*(d for _, d, _ in terms))
        out = {}
        for n, d, prod in terms:
            _add_into(out, prod, n * (common // d))
        return HyperElement({m: Fraction(n, common) for m, n in out.items() if n})

    def __eq__(self, other):
        return isinstance(other, HyperElement) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def is_zero(self):
        return not self.coeffs

    # -- structure ------------------------------------------------------------

    def strip_raise(self):
        """Drop every monomial whose raise block is nonempty (the projection
        modulo U(g~) U(n+)^0)."""
        return HyperElement(
            {m: c for m, c in self.coeffs.items() if not any(kind == RAISE for kind, _, _ in m)}
        )

    def cartan_only(self):
        return all(kind == CARTAN for m in self.coeffs for kind, _, _ in m)

    def power(self, n):
        out = HyperElement.one()
        for _ in range(n):
            out = out * self
        return out

    def canonical_str(self):
        if not self.coeffs:
            return "0"
        bits = []
        for m in sorted(self.coeffs):
            c = self.coeffs[m]
            factors = []
            for kind, r, k in m:
                if kind == CARTAN and r == 0:
                    factors.append("binom(h,%d)" % k)
                elif kind == CARTAN:
                    factors.append("h_%d%s" % (r, "^%d" % k if k > 1 else ""))
                else:
                    name = _KIND_NAME[kind]
                    factors.append("(%s_%d)^(%d)" % (name, r, k))
            body = "·".join(factors) if factors else "1"
            if c == 1 and factors:
                bits.append(body)
            elif c == -1 and factors:
                bits.append("-" + body)
            else:
                coeff = str(c.numerator) if c.denominator == 1 else "%d/%d" % (c.numerator, c.denominator)
                bits.append(coeff if not factors else coeff + "·" + body)
        return " + ".join(bits).replace("+ -", "- ")

    __repr__ = canonical_str


# ---------------------------------------------------------------------------
# Garland Lambda elements
# ---------------------------------------------------------------------------

_lambda_cache = {}


def lambda_element(r):
    """Lambda_r as a polynomial in h_{±1..|r|} with rational coefficients."""
    if r == 0:
        return HyperElement.one()
    sign = 1 if r > 0 else -1
    n = abs(r)
    key = (sign, n)
    if key not in _lambda_cache:
        # exp(sum_{s>=1} s_s u^s) with s_s = -h_{sign*s}/s, by e_n = (1/n) sum j s_j e_{n-j}
        known = max((k for sg, k in _lambda_cache if sg == sign), default=0)
        es = [_lambda_cache[(sign, k)] for k in range(1, known + 1)]
        es.insert(0, HyperElement.one())
        for m in range(known + 1, n + 1):
            acc = HyperElement.zero()
            for j in range(1, m + 1):
                sj = HyperElement.h(sign * j).scale(Fraction(-1, j))
                acc = acc + (sj * es[m - j]).scale(j)
            em = acc.scale(Fraction(1, m))
            es.append(em)
            _lambda_cache[(sign, m)] = em
    return _lambda_cache[key]


def tau_twist(e, k):
    """The endomorphism extending t -> t^k on loop degrees; k != 0."""
    if k == 0:
        raise ValueError("tau_0 is not defined")
    out = {}
    for m, c in e.coeffs.items():
        entries = sorted(((kind, r * k, exp) for kind, r, exp in m), key=lambda t: (t[0], t[1]))
        out[tuple(entries)] = out.get(tuple(entries), Fraction(0)) + c
    return HyperElement(out)


def lambda_twisted(r, k):
    """Lambda_{r;k} = tau_k(Lambda_r)."""
    return tau_twist(lambda_element(r), k)


# ---------------------------------------------------------------------------
# integral form membership
# ---------------------------------------------------------------------------


def _partitions(n):
    """Partitions of n as sorted tuples, ascending parts."""
    if n == 0:
        yield ()
        return

    def rec(rest, minpart):
        if rest == 0:
            yield ()
            return
        for part in range(minpart, rest + 1):
            for tail in rec(rest - part, part):
                yield (part,) + tail

    yield from rec(n, 1)


_integral_expansion_cache = {}


def _integral_element(sign, profile):
    """prod over loop degrees s of Lambda_{sign * m_s; s} for profile {s: m_s}."""
    key = (sign, tuple(sorted(profile.items())))
    if key not in _integral_expansion_cache:
        e = HyperElement.one()
        for s, m in sorted(profile.items()):
            e = e * lambda_twisted(sign * m, s)
        _integral_expansion_cache[key] = e
    return _integral_expansion_cache[key]


def _cartan_split(mono):
    """Split a pure-Cartan monomial into (binom exponent, pos profile, neg profile)."""
    k0 = 0
    pos, neg = {}, {}
    for kind, r, k in mono:
        assert kind == CARTAN
        if r == 0:
            k0 = k
        elif r > 0:
            pos[r] = k
        else:
            neg[-r] = k
    return k0, pos, neg


def cartan_to_integral_basis(e):
    """Rewrite a pure-Cartan element in the integral basis
    binom(h,k0) * prod Lambda_{+m;s} * prod Lambda_{-m;s}.

    Returns {(k0, pos profile, neg profile): coefficient} with profiles as
    sorted tuples of (loop degree, exponent).
    """
    assert e.cartan_only(), "integral-basis rewrite needs a Cartan element"
    remaining = dict(e.coeffs)
    out = {}

    def weight(mono):
        _, pos, neg = _cartan_split(mono)
        return sum(pos.values()) + sum(neg.values())

    while remaining:
        mono = max(remaining, key=lambda m: (weight(m), m))
        c = remaining.pop(mono)
        if not c:
            continue
        k0, pos, neg = _cartan_split(mono)
        expansion = _integral_element(+1, pos) * _integral_element(-1, neg)
        if k0:
            expansion = expansion * HyperElement.binom_h(k0)
        lead = expansion.coeffs[mono]
        factor = c / lead
        key = (k0, tuple(sorted(pos.items())), tuple(sorted(neg.items())))
        out[key] = out.get(key, Fraction(0)) + factor
        for m2, c2 in expansion.coeffs.items():
            if m2 == mono:
                continue
            remaining[m2] = remaining.get(m2, Fraction(0)) - factor * c2
            if not remaining[m2]:
                del remaining[m2]
    return {k: v for k, v in out.items() if v}


def cartan_to_lambda_monomials(e):
    """Rewrite a pure-Cartan element with no binom(h,·) part as a polynomial in
    the plain Lambda_r (both signs).  Returns {((r, n), ...): coefficient}."""
    assert e.cartan_only()
    remaining = dict(e.coeffs)
    out = {}

    def nfactors(mono):
        return sum(k for kind, r, k in mono if r != 0)

    while remaining:
        mono = min(remaining, key=lambda m: (nfactors(m), m))
        c = remaining.pop(mono)
        if not c:
            continue
        k0, pos, neg = _cartan_split(mono)
        if k0:
            raise ValueError("element has a binom(h,·) component")
        profile = tuple(sorted([(r, n) for r, n in pos.items()] + [(-r, n) for r, n in neg.items()]))
        expansion = HyperElement.one()
        for r, n in profile:
            expansion = expansion * lambda_element(r).power(n)
        lead = expansion.coeffs[mono]
        factor = c / lead
        out[profile] = out.get(profile, Fraction(0)) + factor
        for m2, c2 in expansion.coeffs.items():
            if m2 == mono:
                continue
            remaining[m2] = remaining.get(m2, Fraction(0)) - factor * c2
            if not remaining[m2]:
                del remaining[m2]
    return {k: v for k, v in out.items() if v}


def z_form_member(e):
    """Membership in the divided-power integral form."""
    groups = {}
    for mono, c in e.coeffs.items():
        lower = tuple(t for t in mono if t[0] == LOWER)
        raise_ = tuple(t for t in mono if t[0] == RAISE)
        cart = tuple(t for t in mono if t[0] == CARTAN)
        groups.setdefault((lower, raise_), {})[cart] = c
    for cart_map in groups.values():
        elem = HyperElement(cart_map)
        for coeff in cartan_to_integral_basis(elem).values():
            if coeff.denominator != 1:
                return False
    return True


# ---------------------------------------------------------------------------
# formal evaluation into U(sl2) ⊗ Q[t, t^-1]
# ---------------------------------------------------------------------------


def formal_ev(e):
    """The algebra map with x±_r -> x± t^r, h_r -> h t^r.

    Result: {(finite PBW monomial, t degree): coefficient} with finite
    monomials coded like loop monomials but with all loop degrees zero.
    """
    out = {}
    for mono, c0 in e.coeffs.items():
        den, words = _expand(mono)
        by_degree = {}
        for word, c in words.items():
            tdeg = sum(r for _, r in word)
            finite = by_degree.setdefault(tdeg, {})
            finite_word = tuple((kind, 0) for kind, _ in word)
            finite[finite_word] = finite.get(finite_word, 0) + c
        for tdeg, finite in by_degree.items():
            for m, n in _word_sum(finite).items():
                key = (m, tdeg)
                out[key] = out.get(key, Fraction(0)) + c0 * Fraction(n, den)
    return {k: v for k, v in out.items() if v}


def ev_lambda_expected(r):
    """(-1)^|r| binom(h, |r|) ⊗ t^r in the formal_ev encoding."""
    k = abs(r)
    mono = ((CARTAN, 0, k),) if k else ()
    return {(mono, r): Fraction((-1) ** k)}


# ---------------------------------------------------------------------------
# the Garland relation
# ---------------------------------------------------------------------------


def _series_x_divided_coeff(n, shift, sign, m):
    """Coefficient of u^m in (sum_{r>=1} x-_{sign(r+shift)} u^r)^(n) as a
    HyperElement: sum over multisets of n positive integers summing to m of
    the divided-power monomial prod (x-_{sign(r_i+shift)})^(mult)."""
    if n == 0:
        return HyperElement.one() if m == 0 else HyperElement.zero()
    out = {}
    for parts in _partitions(m):
        if len(parts) != n:
            continue
        counts = {}
        for r in parts:
            counts[r] = counts.get(r, 0) + 1
        entries = sorted(((LOWER, sign * (r + shift), mult) for r, mult in counts.items()),
                         key=lambda t: t[1])
        out[tuple(entries)] = Fraction(1)
    return HyperElement(out)


def basicrel_coefficient_term(k, l, s, sign):
    """((X-_{s,±}(u))^(k-l) Λ±(u))_k as a HyperElement (sign = +1 or -1)."""
    acc = HyperElement.zero()
    for m in range(k + 1):
        xs = _series_x_divided_coeff(k - l, s, sign, m)
        if xs.is_zero():
            continue
        lam = lambda_element(sign * (k - m))
        acc = acc + xs * lam
    return acc


def verify_basicrel(k, l, s, sign):
    """Residual of the Garland relation; zero means the identity holds.

    LHS (x+_{∓s})^(l) (x-_{±(s+1)})^(k) minus (-1)^l times the series
    coefficient term, with every monomial whose raise block is nonempty
    deleted (those lie in U(g~) U(n+)^0).
    """
    assert k >= l >= 1
    lhs = HyperElement.gen(RAISE, -sign * s, l) * HyperElement.gen(LOWER, sign * (s + 1), k)
    rhs = basicrel_coefficient_term(k, l, s, sign).scale(Fraction((-1) ** l))
    return (lhs - rhs).strip_raise()


def koslem_rhs(k, l):
    """sum_m (x-)^(k-m) binom(h-k-l+2m, m) (x+)^(l-m)."""
    acc = HyperElement.zero()
    for m in range(min(k, l) + 1):
        term = HyperElement.gen(LOWER, 0, k - m)
        term = term * HyperElement.binom_h_shifted(-k - l + 2 * m, m)
        term = term * HyperElement.gen(RAISE, 0, l - m)
        acc = acc + term
    return acc


# ---------------------------------------------------------------------------
# straightening / saturation: upper bounds for Weyl module dimensions
# ---------------------------------------------------------------------------


def _merge(m1, m2):
    """Product of two commutative divided-power lowering monomials.

    Monomials are tuples of (s, k) sorted by s; returns (monomial, integer
    coefficient).
    """
    counts = dict(m1)
    coeff = 1
    for s, k in m2:
        c = counts.get(s)
        if c is None:
            counts[s] = k
        else:
            counts[s] = c + k
            coeff *= math.comb(c + k, k)
    return tuple(sorted(counts.items())), coeff


def _merge_lower(m1, m2, ring):
    """_merge with the coefficient in ring."""
    mono, coeff = _merge(m1, m2)
    return mono, ring.one if coeff == 1 else ring.from_int(coeff)


def _lower_monomials(slots, maxdeg):
    """All divided-power monomials on the given slots with degree <= maxdeg."""
    out = [()]
    for d in range(1, maxdeg + 1):
        for combo in itertools.combinations_with_replacement(slots, d):
            counts = {}
            for s in combo:
                counts[s] = counts.get(s, 0) + 1
            out.append(tuple(sorted(counts.items())))
    return sorted(set(out), key=lambda m: (sum(k for _, k in m), m))


def _relation_instance(k, l, shift, omega, ring):
    """((X-_{shift,+}(u))^(k-l) Λ+(u))_k v as {lower monomial: coefficient},
    using Λ_j v = omega_j v (zero beyond the degree); l < k.  ring is a
    field with omega in it, or exactnum.scalars of one with omega in its
    scalars.

    The u^m coefficient of the series power is a sum of distinct monomials
    of slot sum m + shift (k - l), so no two terms meet and every
    coefficient is an entry of omega."""
    lam = len(omega) - 1
    out = {}
    for m in range(max(0, k - lam), k + 1):
        scal = omega[k - m]
        if ring.is_zero(scal):
            continue
        for parts in _partitions(m):
            if len(parts) != k - l:
                continue
            counts = {}
            for r in parts:
                counts[r] = counts.get(r, 0) + 1
            out[tuple(sorted((r + shift, mult) for r, mult in counts.items()))] = scal
    return out


class SaturationResult:
    def __init__(self, ring, lam, basis, rules, window, bound, stabilized, sweeps):
        self.ring = ring
        self.lam = lam
        self.basis = basis              # surviving monomials, canonical order
        self._rules = rules             # {pivot monomial: {monomial: coeff}} rewrite map
        self.window = window            # (smin, smax) slot window covered
        self.dimension_bound = bound
        self.stabilized = stabilized
        self.sweeps = sweeps

    def reduce(self, vec):
        """Rewrite {monomial: coeff} into basis coordinates; None if some
        monomial cannot be resolved inside the window.

        The echelon is fully reduced, so a rule's right side holds only
        basis monomials and monomials that no rule resolves: one pass
        rewrites every monomial, and the unresolved ones collect in a
        residue, which must vanish."""
        ring = self.ring
        coords = {m: ring.zero for m in self.basis}
        residue = {}
        for mono, c in vec.items():
            if mono in coords:
                coords[mono] += c
            elif sum(k for _, k in mono) <= self.lam:  # past the weight a monomial acts as zero
                rule = self._rules.get(mono)
                if rule is None:
                    residue[mono] = residue.get(mono, ring.zero) + c
                else:
                    for m2, c2 in rule.items():
                        out = coords if m2 in coords else residue
                        out[m2] = out.get(m2, ring.zero) + c * c2
        if any(not ring.is_zero(c) for c in residue.values()):
            return None
        return [coords[m] for m in self.basis]


def _relation_bases(lam, omega, sc):
    """The nonzero Garland relation instances (k, l, 0) for k beyond the
    weight, in (k, l) order, each with its least and greatest slot; omega
    is in the scalars of sc = exactnum.scalars(ring)."""
    out = []
    for k in range(lam + 1, 2 * lam + 1):
        for l in range(max(1, k - lam), k):
            rel = _relation_instance(k, l, 0, omega, sc)
            if rel:
                slots = [s for m in rel for s, _ in m]
                out.append((rel, min(slots), max(slots)))
    return out


def _relation_instances(bases, shifts, smin, smax):
    """The distinct Garland relation instances inside the slot window, in
    first-seen order over (k, l, shift), keyed by exact value.

    Instance (k, l, shift) is its base (k, l, 0) with every slot moved by
    shift, so each base is built once and translated.  Many (k, l, shift)
    give one instance: the reldeg-1 instance (k, k-1) at shift s is
    (k-1, k-2) at shift s+1.  The key compares coefficients with ==, which
    is exact in every ring (Q(a, b) hashes all its elements alike)."""
    out = {}
    for rel, lo, hi in bases:
        for shift in shifts:
            if smin <= lo + shift and hi + shift <= smax:
                moved = {tuple((s + shift, e) for s, e in m): c for m, c in rel.items()}
                out.setdefault(frozenset(moved.items()), moved)
    return out


def _badness(lam):
    """Sort key of the column order for weight lam: out-of-range distance
    first, then degree, then total slot value, so that low loop degrees
    survive as the quotient basis.  The key does not depend on the window
    or on omega."""

    def badness(mono):
        dist = sum(k * (max(0, -s) + max(0, s - (lam - 1))) for s, k in mono)
        slotsum = sum(abs(s) * k for s, k in mono)
        return (dist, sum(k for _, k in mono), slotsum, mono)

    return badness


@functools.lru_cache(maxsize=16)
def _columns(lam, smin, smax):
    """The straightening echelon's columns on the slot window [smin, smax],
    worst first so that they pick up the pivots, and the index of each.
    Shared by calls; read only."""
    columns = sorted(_lower_monomials(range(smin, smax + 1), lam), key=_badness(lam), reverse=True)
    return columns, {m: i for i, m in enumerate(columns)}


@functools.lru_cache(maxsize=16)
def _multipliers(lam, smin, smax, old):
    """The multiplier monomials of degree < lam on the slot window
    [smin, smax], best first in the column order, as (monomial, degree,
    whether it touches a slot outside the previous window old; never when
    old is None).  Shared by calls; read only."""
    out = []
    for m in sorted(_lower_monomials(range(smin, smax + 1), lam - 1), key=_badness(lam)):
        fresh = old is not None and any(s < old[0] or s > old[1] for s, _ in m)
        out.append((m, sum(k for _, k in m), fresh))
    return out


def _relation_rows(lam, instances, old_instances, window, old, col_index, sc):
    """A sweep's rows as a stream of {column: nonzero scalar}: each relation
    instance left multiplied by the window's multipliers of degree up to
    lam minus its own, or only by those touching a new slot when the last
    sweep had the instance.

    The rows come multiplier by multiplier, best multiplier first, so the
    pivots of good columns tend to come before the rows that would carry
    those columns into the echelon; later pivot rows are then short, and
    fewer stored rows need a back substitution.  The echelon does not
    depend on the order: a fully reduced echelon is unique."""
    red, from_int, is_zero = sc.red, sc.from_int, sc.is_zero
    every = [[] for _ in range(lam)]  # by the largest multiplier degree
    new = [[] for _ in range(lam)]
    for key, rel in instances.items():
        room = lam - sum(k for _, k in next(iter(rel)))
        every[room].append(rel)
        if key not in old_instances:
            new[room].append(rel)
    for mul, deg, fresh in _multipliers(lam, window[0], window[1], old):
        groups = every if fresh else new
        for room in range(deg, lam):
            for rel in groups[room]:
                row = {}
                for mono, c in rel.items():
                    # merging with mul is injective, so no two terms collide
                    merged, extra = _merge(mul, mono)
                    if extra != 1:
                        c = red(c * from_int(extra))
                        if is_zero(c):
                            continue
                    row[col_index[merged]] = c
                if row:
                    yield row


def weyl_upper_bound(omega, ring, max_sweeps=5, margin=0):
    """Dimension upper bound for the Weyl module with highest weight omega.

    omega: coefficient list (constant term first, constant 1) over a field.
    Saturates the span of divided-power lowering monomials with instances of
    the Garland relation for k beyond the weight, left multiplied by window
    monomials, and echelonizes with out-of-range monomials eliminated first.
    The returned dimension_bound is >= dim W for every window, because every
    relation row vanishes on the corresponding vectors of W.

    Each sweep widens the shifts and the slot window by one on either side,
    and starts from the previous sweep's fully reduced echelon plus only the
    rows that sweep lacked: those of a relation instance it did not have, and
    those whose multiplier touches a new slot.  This is exact: the windows
    only grow, so every row of a sweep is a row of the next; the column order
    (`_badness`) does not depend on the window; and a fully reduced echelon
    is unique for its row space and column order.  Equal relation instances
    give equal rows, so each is built once per sweep.

    The work that does not depend on omega is done once: instance
    (k, l, shift) is instance (k, l, 0) with every slot moved by shift, so
    each (k, l) is built once per call and translated; the columns and the
    multiplier monomials are functions of the weight and the window alone,
    shared by calls.  The scalars are those of exactnum.scalars(ring): over
    F_p every coefficient, row entry and echelon entry is an int in [0, p),
    and other fields compute on their own elements.  A sweep counts only
    its bound, the Xi' columns that are not pivots; the echelon is read
    once, after the last sweep, and its scalars are boxed into ring
    elements only in `rules`.  Each sweep's rows are streamed into the
    echelon, so a sweep holds no row list; their order (`_relation_rows`)
    keeps the pivot rows short.
    """
    if max_sweeps < 1:
        raise ValueError("max_sweeps must be at least 1, got %d" % max_sweeps)
    lam = len(omega) - 1
    if lam < 0 or not ring.is_zero(omega[0] - ring.one):
        raise ValueError("omega must have constant term 1")
    if lam == 0:
        return SaturationResult(ring, 0, [()], {}, (0, 0), 1, True, 0)
    if not ring.is_unit(omega[-1]):
        raise ValueError("leading coefficient of omega must be a unit")
    sc = scalars(ring)
    bases = _relation_bases(lam, [sc.lift(c) for c in omega], sc)

    def in_xi(mono):
        return all(0 <= s < lam for s, _ in mono)

    bound = None
    columns, echelon = [], {}
    instances, window = {}, None
    for sweep in range(max_sweeps):
        grow = sweep + margin
        shifts = range(-lam - grow, lam + 1 + grow)
        smin = min(min(shifts) + 1, 0)
        smax = max(max(shifts) + 2 * lam, lam - 1)

        # the carried echelon moves to the wider window's column indices
        old_columns, (columns, col_index) = columns, _columns(lam, smin, smax)
        move = [col_index[m] for m in old_columns]
        echelon = {move[lead]: {move[j]: c for j, c in row.items()} for lead, row in echelon.items()}

        old_instances = instances
        instances = _relation_instances(bases, shifts, smin, smax)
        rows = _relation_rows(lam, instances, old_instances, (smin, smax), window, col_index, sc)
        window = (smin, smax)

        _sparse_echelon(rows, sc, echelon)
        # the bound: the Xi' columns that are not pivots
        prev, bound = bound, sum(1 for i, m in enumerate(columns) if i not in echelon and in_xi(m))
        if bound == prev:
            break
    basis, rules = _read_echelon(echelon, columns, sc, in_xi)
    return SaturationResult(
        ring, lam,
        sorted(basis, key=lambda m: (sum(k for _, k in m), m)),
        rules, window, bound, bound == prev, sweep + 1,
    )


def _read_echelon(echelon, columns, sc, in_xi):
    """Basis monomials and the rewrite rules for pivot monomials of a fully
    reduced echelon, with every coefficient boxed into the ring of
    sc = exactnum.scalars(ring).

    Each pivot row, read as pivot = -(rest of the row), is a rewrite rule.
    A pivot inside Xi' cuts the dimension; because out-of-range columns all
    precede Xi' columns, its rule is supported on Xi' alone, so the pure-Xi'
    relation {pivot: 1} - rule is derivable from `rules`.
    """
    box, red = sc.box, sc.red
    basis = [m for i, m in enumerate(columns) if i not in echelon and in_xi(m)]
    rules = {
        columns[lead]: {columns[j]: box(red(-c)) for j, c in echelon[lead].items() if j != lead}
        for lead in sorted(echelon)
    }
    return basis, rules


def _subtract(row, j, c, prow, sc):
    """row -= c * prow, skipping prow's pivot column j; returns the columns
    that entered row."""
    red, is_zero = sc.red, sc.is_zero
    entered = []
    nc = -c
    for j2, v in prow.items():
        if j2 == j:
            continue
        old = row.get(j2)
        if old is None:
            row[j2] = red(nc * v)
            entered.append(j2)
        else:
            nv = red(old + nc * v)
            if is_zero(nv):
                del row[j2]
            else:
                row[j2] = nv
    return entered


def _sparse_echelon(rows, sc, echelon):
    """Add rows, {column: nonzero scalar} dicts from any iterable, to a fully
    reduced sparse echelon {pivot column: row dict}: pivot entry 1, the
    pivot the row's least column, and no other pivot column in any stored
    row.

    The scalars are those of sc = exactnum.scalars(ring): over F_p ints in
    [0, p), kept reduced by sc.red, and a field's own elements otherwise;
    one code path serves both.  Rows are consumed one at a time, so a
    generator keeps only the echelon in memory; each row is reduced in
    place and kept if it is new.

    A new row takes one subtraction per pivot column it holds, in any
    order, and each brings in non-pivot columns only.  A new pivot changes
    only the stored rows that hold its column; `holders` indexes them, so no
    step scans every stored row.  It may list a row for a column the row
    has lost since, or twice when the column came back; both are skipped."""
    red, inv, one = sc.red, sc.inv, sc.one
    holders = {}  # column -> pivots whose rows held it (possibly stale)
    for lead, row in echelon.items():
        for j in row:
            if j != lead:
                holders.setdefault(j, []).append(lead)
    for srow in rows:
        for j in [j for j in srow if j in echelon]:
            c = srow.pop(j)
            if len(echelon[j]) > 1:  # a lone pivot entry only clears j
                _subtract(srow, j, c, echelon[j], sc)
        if not srow:
            continue
        lead = min(srow)
        f = inv(srow[lead])
        srow = {j: red(f * c) for j, c in srow.items()}
        srow[lead] = one
        for plead in holders.pop(lead, ()):
            prow = echelon[plead]
            c = prow.pop(lead, None)
            if c is None:
                continue  # the entry has cancelled since
            for j in _subtract(prow, lead, c, srow, sc):
                holders.setdefault(j, []).append(plead)
        for j in srow:
            if j != lead:
                holders.setdefault(j, []).append(lead)
        echelon[lead] = srow
    return echelon
