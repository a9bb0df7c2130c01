"""Exact arithmetic kernels.

Everything downstream (symbolic normal ordering, module matrices, lattice
reduction) assumes coefficient arithmetic is exact, so this module provides
only exact types: arbitrary-precision rationals, prime fields F_p, small
extensions F_{p^d} with d <= 4, sparse multivariate polynomials with a
fraction field on top (for symbolic unit parameters) and dense polynomials.
Z_(p) appears only as arithmetic on rationals (val_p, residue), which the
lattice layer uses for Z_(p)-forms of characteristic-zero modules.

Rings are exposed as descriptor objects (QQ, PrimeField(p), ...) whose
elements support +, -, * and ==.  Every ring is a field: division goes
through ``ring.inv``, which refuses only zero.  Descriptors compare equal
when they describe the same ring.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction

INFINITY = math.inf


def parse_rational(s):
    """Parse "num/den" or "num" into a Fraction."""
    return Fraction(str(s).strip())


def rational_str(x):
    x = Fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)


def integer_binomial(m, k):
    """binom(m, k) for any integer m, nonnegative integer k."""
    if k < 0:
        raise ValueError("negative lower index")
    if m >= 0:
        return math.comb(m, k)
    # standard extension m(m-1)...(m-k+1)/k!
    return (-1) ** k * math.comb(k - m - 1, k)


def lucas_binom(m, k, p):
    """binom(m, k) mod p, as an integer in [0, p).

    Nonnegative m uses the Lucas digit product; negative m the same on
    binom(m, k) = (-1)^k binom(k - m - 1, k).
    """
    if k < 0:
        return 0
    if m < 0:
        return (-1) ** (k & 1) * lucas_binom(k - m - 1, k, p) % p
    out = 1
    while k:
        out = out * math.comb(m % p, k % p) % p
        if out == 0:
            return 0
        m //= p
        k //= p
    return out


def val_p(x, p):
    """p-adic valuation of a rational; val_p(0) = +infinity."""
    if p < 2:
        raise ValueError("valuation at %d: p must be at least 2" % p)
    x = Fraction(x)
    if x == 0:
        return INFINITY
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def residue(x, p):
    """Image of x in F_p; requires val_p(x) >= 0."""
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError("negative valuation: %s has no residue mod %d" % (x, p))
    v = x.numerator * pow(x.denominator, -1, p) % p
    return PrimeField(p)(v)


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------


class _Rationals:
    kind = "Q"
    char = 0
    card = None

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def from_int(self, n):
        return Fraction(n)

    def parse(self, s):
        return parse_rational(s)

    def fmt(self, x):
        return rational_str(x)

    def is_zero(self, x):
        return x == 0

    def is_unit(self, x):
        return x != 0

    def inv(self, x):
        return Fraction(1) / x

    def to_json(self):
        return {"kind": "Q"}

    def __eq__(self, other):
        return isinstance(other, _Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


QQ = _Rationals()


class FpElem:
    __slots__ = ("p", "v")

    def __init__(self, p, v):
        self.p = p
        self.v = v % p

    def __add__(self, other):
        return FpElem(self.p, self.v + other.v)

    def __sub__(self, other):
        return FpElem(self.p, self.v - other.v)

    def __neg__(self):
        return FpElem(self.p, -self.v)

    def __mul__(self, other):
        return FpElem(self.p, self.v * other.v)

    def __eq__(self, other):
        return isinstance(other, FpElem) and self.p == other.p and self.v == other.v

    def __hash__(self):
        return hash((self.p, self.v))

    def __str__(self):
        return "%d mod %d" % (self.v, self.p)

    def __repr__(self):
        return "FpElem(%d, %d)" % (self.p, self.v)


class _Residues(dict):
    """{residue: FpElem} for one F_p, each element made on first lookup.
    An FpElem is never mutated, so one per residue can be shared."""

    __slots__ = ("p",)

    def __init__(self, p):
        super().__init__()
        self.p = p

    def __missing__(self, v):
        e = self[v] = FpElem(self.p, int(v))
        return e


def is_prime(n):
    if n < 2:
        return False
    for q in range(2, int(n ** 0.5) + 1):
        if n % q == 0:
            return False
    return True


class PrimeField:
    kind = "Fp"

    _instances = {}

    def __new__(cls, p):
        if p not in cls._instances:
            if not is_prime(p):
                raise ValueError("%d is not prime" % p)
            inst = object.__new__(cls)
            inst.p = p
            inst.boxed = _Residues(p)
            inst.zero, inst.one = inst.boxed[0], inst.boxed[1]
            cls._instances[p] = inst
        return cls._instances[p]

    @property
    def char(self):
        return self.p

    @property
    def card(self):
        return self.p

    def __call__(self, n):
        return self.boxed[n % self.p]

    def from_int(self, n):
        return self.boxed[n % self.p]

    def parse(self, s):
        s, mod, q = str(s).partition("mod")
        if mod and int(q) != self.p:
            raise ValueError("%s mod %s is not an element of F_%d" % (s.strip(), q.strip(), self.p))
        s = s.strip()
        if "/" in s:
            num, den = s.split("/")
            return self.boxed[int(num) * pow(int(den), -1, self.p) % self.p]
        return self.boxed[int(s) % self.p]

    def fmt(self, x):
        return str(x.v)

    def is_zero(self, x):
        return x.v == 0

    def is_unit(self, x):
        return x.v != 0

    def inv(self, x):
        return self.boxed[pow(x.v, -1, self.p)]

    def elements(self):
        return [self.boxed[v] for v in range(self.p)]

    def index(self, x):
        """Position of x in elements()."""
        return x.v

    def units(self):
        return [self.boxed[v] for v in range(1, self.p)]

    def to_json(self):
        return {"kind": "Fp", "p": self.p}

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return "PrimeField(%d)" % self.p


# ---------------------------------------------------------------------------
# small extensions F_{p^d}
# ---------------------------------------------------------------------------


class _ModP:
    """F_p for the polynomial kernels below, linalg's array kernel and the
    straightening echelon: the scalars are Python ints, reduced mod p only
    where a kernel calls red, so sums of products stay exact whatever p is.
    A reduced scalar is zero exactly when it is falsy."""

    is_zero = staticmethod(operator.not_)

    def __init__(self, ring):
        self.ring = ring
        self.p = self.q = ring.p
        self.zero, self.one = 0, 1
        # box: reduced scalar to ring element, shared per residue
        self.box = ring.boxed.__getitem__

    def red(self, x):
        return x % self.p

    from_int = red

    def inv(self, x):
        return pow(x, -1, self.p)

    def element(self, n):
        """Element n in ring.index order."""
        return n

    def key(self, x):
        return x

    def lift(self, e):
        """Ring element to scalar."""
        return e.v


class _Boxed:
    """Any other field for the same kernels: the scalars are the field's own
    (always reduced) elements.  Only a finite field has element and key."""

    def __init__(self, ring):
        self.ring = ring
        self.p, self.q = ring.char, ring.card
        self.zero, self.one = ring.zero, ring.one
        self.inv, self.from_int, self.is_zero = ring.inv, ring.from_int, ring.is_zero

    @staticmethod
    def red(x):
        return x

    lift = box = red

    def element(self, n):
        return self.ring.element(n)

    def key(self, x):
        return self.ring.index(x)


def scalars(ring):
    """The scalar arithmetic of a field for the kernels that run on one code
    path: int residues over F_p, the field's own elements otherwise."""
    return _ModP(ring) if isinstance(ring, PrimeField) else _Boxed(ring)


def _poly_trim(c):
    c = list(c)
    while c and not c[-1]:
        c.pop()
    return c


def _poly_mulmod(a, b, f, k):
    # a, b reduced scalar lists, f monic of degree d
    d = len(f) - 1
    out = [k.zero] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = out[i + j] + ai * bj
    for i in range(len(out) - 1, d - 1, -1):
        c = k.red(out[i])
        if c:
            for j in range(d):
                out[i - d + j] = out[i - d + j] - c * f[j]
    return _poly_trim([k.red(c) for c in out[:d]])


def _poly_divmod(a, b, k):
    a = list(a)
    binv = k.inv(b[-1])
    q = [k.zero] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = k.red(a[i + len(b) - 1] * binv)
        if c:
            q[i] = c
            for j, bj in enumerate(b):
                a[i + j] = a[i + j] - c * bj
    return q, _poly_trim([k.red(c) for c in a[: len(b) - 1]])


def _poly_sub(a, b, k):
    n = max(len(a), len(b))
    a = list(a) + [k.zero] * (n - len(a))
    b = list(b) + [k.zero] * (n - len(b))
    return _poly_trim([k.red(x - y) for x, y in zip(a, b)])


def _poly_monic(a, k):
    inv = k.inv(a[-1])
    return [k.red(c * inv) for c in a]


def _poly_gcd(a, b, k):
    # monic gcd; gcd(a, 0) is a made monic
    a, b = _poly_trim(a), _poly_trim(b)
    while b:
        a, b = b, _poly_divmod(a, b, k)[1]
    return _poly_monic(a, k) if a else []


def _poly_powmod(base, e, f, k):
    out = [k.one]
    base = _poly_mulmod(base, [k.one], f, k)
    while e:
        if e & 1:
            out = _poly_mulmod(out, base, f, k)
        e >>= 1
        if e:
            base = _poly_mulmod(base, base, f, k)
    return out


def poly_roots(f, k):
    """Distinct roots in F_q of a polynomial over F_q, given as reduced
    scalars of k = scalars(F_q), ascending coefficients; returned in
    ring.index order.

    gcd(f, x^q - x) is the product of the distinct linear factors of f; it is
    split by Cantor-Zassenhaus (1981): gcd(h, s) for a random s that vanishes
    at about half of the elements of F_q, namely (x + c)^((q-1)/2) - 1 for odd
    q and the trace Tr(cx) = sum_i (cx)^(2^i) for q = 2^d.  The cost is
    polynomial in deg f and log q, never in q.
    """
    f = _poly_trim(f)
    if len(f) < 2:
        return []
    f = _poly_monic(f, k)
    x = [k.zero, k.one]
    h = _poly_gcd(f, _poly_sub(_poly_powmod(x, k.q, f, k), x, k), k)
    rng = random.Random(0)
    roots = []
    stack = [h]
    while stack:
        h = stack.pop()
        d = len(h) - 1
        if d == 1:
            roots.append(k.red(-h[0]))
        elif d >= 2:
            while True:
                g = _poly_gcd(h, _splitter(h, rng, k), k)
                if 1 <= len(g) - 1 < d:
                    break
            stack.append(g)
            stack.append(_poly_divmod(h, g, k)[0])
    return sorted(roots, key=k.key)


def _splitter(h, rng, k):
    if k.p == 2:
        t = acc = _poly_mulmod([k.zero, k.element(rng.randrange(1, k.q))], [k.one], h, k)
        for _ in range(k.q.bit_length() - 2):
            t = _poly_mulmod(t, t, h, k)
            acc = _poly_sub(acc, t, k)  # in characteristic 2, acc + t
        return acc
    t = _poly_powmod([k.element(rng.randrange(k.q)), k.one], (k.q - 1) // 2, h, k)
    return _poly_sub(t, [k.one], k)


def field_roots(ring, coeffs):
    """Distinct roots in a finite field of a polynomial with coefficients in
    it (ascending), in ring.index order."""
    k = scalars(ring)
    return [k.box(x) for x in poly_roots([k.lift(c) for c in coeffs], k)]


def fppoly_splits_over(f, p, d):
    """Whether an integer polynomial splits over F_{p^d}, that is, whether
    each irreducible factor mod p has degree dividing d: gcd with
    x^{p^d} - x strips one copy of every such factor at a time."""
    k = scalars(PrimeField(p))
    x = [0, 1]
    g = _poly_monic(_poly_trim([c % p for c in f]), k)
    while len(g) > 1:
        h = _poly_gcd(g, _poly_sub(_poly_powmod(x, p ** d, g, k), x, k), k)
        if len(h) == 1:
            return False
        g = _poly_divmod(g, h, k)[0]
    return True


def ring_pow(ring, x, e):
    """x^e by square-and-multiply; a negative e inverts x first."""
    if e < 0:
        x, e = ring.inv(x), -e
    out = ring.one
    while e:
        if e & 1:
            out = out * x
        e >>= 1
        if e:
            x = x * x
    return out


def irreducible_mod_p(f, p):
    """Irreducibility of a monic integer-coefficient polynomial mod p, deg <= 4:
    no irreducible factor of degree i <= deg/2, that is, gcd(f, x^{p^i} - x)
    = 1 for each such i."""
    f = [c % p for c in f]
    d = len(f) - 1
    if d < 1 or d > 4:
        raise ValueError("only degrees 1..4 supported")
    k = scalars(PrimeField(p))
    x = xp = [0, 1]
    for _ in range(d // 2):
        xp = _poly_powmod(xp, p, f, k)
        if len(_poly_gcd(f, _poly_sub(xp, x, k), k)) > 1:
            return False
    return True


def _default_defining_poly(p, d):
    # lexicographically first monic irreducible of degree d
    def candidates():
        for tail in range(p ** d):
            coeffs = []
            t = tail
            for _ in range(d):
                coeffs.append(t % p)
                t //= p
            yield coeffs + [1]

    for f in candidates():
        if irreducible_mod_p(f, p):
            return f
    raise RuntimeError("no irreducible polynomial found")


class FqElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        c = [x % field.p for x in coeffs]
        c = c[: field.d] + [0] * max(0, field.d - len(c))
        self.field = field
        self.coeffs = tuple(c)

    def __add__(self, other):
        return FqElem(self.field, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        return FqElem(self.field, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return FqElem(self.field, [-a for a in self.coeffs])

    def __mul__(self, other):
        c = _poly_mulmod(self.coeffs, other.coeffs, self.field.poly, self.field.base)
        return FqElem(self.field, c)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, FqElem)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field.p, self.field.d, self.coeffs))

    def __str__(self):
        return "[%s] mod (%s, %d)" % (
            ",".join(str(c) for c in self.coeffs),
            ",".join(str(c) for c in self.field.poly),
            self.field.p,
        )

    __repr__ = __str__


class FiniteField:
    kind = "Fq"

    def __init__(self, p, d, poly=None):
        if not is_prime(p):
            raise ValueError("%d is not prime" % p)
        if d < 2 or d > 4:
            raise ValueError("extension degree must be in [2, 4]")
        self.p = p
        self.d = d
        if poly is None:
            poly = _default_defining_poly(p, d)
        poly = [c % p for c in poly]
        if len(poly) != d + 1 or poly[-1] != 1:
            raise ValueError("defining polynomial must be monic of degree d")
        if not irreducible_mod_p(poly, p):
            raise ValueError("defining polynomial is reducible mod %d" % p)
        self.poly = tuple(poly)
        self.base = scalars(PrimeField(p))

    @property
    def char(self):
        return self.p

    @property
    def card(self):
        return self.p ** self.d

    @property
    def zero(self):
        return FqElem(self, [0])

    @property
    def one(self):
        return FqElem(self, [1])

    def gen(self):
        return FqElem(self, [0, 1])

    def from_int(self, n):
        return FqElem(self, [n])

    def parse(self, s):
        """An element from its coordinates over the defining polynomial:
        a list, a string "[c0,c1,...]" or one integer."""
        coeffs = s
        if not isinstance(s, (list, tuple)):
            s = str(s).strip()
            coeffs = s[1 : s.index("]")].split(",") if s.startswith("[") else [s]
        coeffs = [int(c) for c in coeffs if str(c).strip() != ""]
        if len(coeffs) > self.d:
            raise ValueError("%s has more than %d coordinates over F_%d" % (s, self.d, self.card))
        return FqElem(self, coeffs)

    def fmt(self, x):
        return "[" + ",".join(str(c) for c in x.coeffs) + "]"

    def is_zero(self, x):
        return all(c == 0 for c in x.coeffs)

    def is_unit(self, x):
        return not self.is_zero(x)

    def inv(self, x):
        if self.is_zero(x):
            raise ZeroDivisionError("inverse of zero in F_%d^%d" % (self.p, self.d))
        # extended Euclid in F_p[x]
        r0, r1 = list(self.poly), _poly_trim(list(x.coeffs))
        s0, s1 = [], [1]
        while r1:
            q, r = _poly_divmod(r0, r1, self.base)
            r0, r1 = r1, r
            qs = [0] * (len(q) + len(s1) - 1) if q and s1 else []
            for i, qi in enumerate(q):
                for j, sj in enumerate(s1):
                    qs[i + j] = (qs[i + j] + qi * sj) % self.p
            news = [(a - b) % self.p for a, b in
                    zip(s0 + [0] * max(0, len(qs) - len(s0)),
                        qs + [0] * max(0, len(s0) - len(qs)))]
            s0, s1 = s1, _poly_trim(news)
        lead_inv = pow(r0[-1], -1, self.p)
        return FqElem(self, [c * lead_inv % self.p for c in s0])

    def element(self, n):
        """Element n of elements(): the coefficients are the base-p digits
        of n, lowest first."""
        coeffs = []
        for _ in range(self.d):
            coeffs.append(n % self.p)
            n //= self.p
        return FqElem(self, coeffs)

    def index(self, x):
        """Position of x in elements(), the inverse of element()."""
        n = 0
        for c in reversed(x.coeffs):
            n = n * self.p + c
        return n

    def elements(self):
        return [self.element(n) for n in range(self.card)]

    def units(self):
        return [x for x in self.elements() if self.is_unit(x)]

    def to_json(self):
        return {"kind": "Fq", "p": self.p, "d": self.d, "poly": list(self.poly)}

    def __eq__(self, other):
        return (
            isinstance(other, FiniteField)
            and other.p == self.p
            and other.d == self.d
            and other.poly == self.poly
        )

    def __hash__(self):
        return hash(("Fq", self.p, self.d, self.poly))

    def __repr__(self):
        return "FiniteField(%d, %d)" % (self.p, self.d)


# ---------------------------------------------------------------------------
# sparse multivariate polynomials and their fraction field
# ---------------------------------------------------------------------------


class MPoly:
    """Sparse multivariate polynomial over Q; terms is {exponent tuple: Fraction}."""

    __slots__ = ("names", "terms")

    def __init__(self, names, terms=None):
        self.names = tuple(names)
        clean = {}
        for e, c in (terms or {}).items():
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[tuple(e)] = c
        self.terms = clean

    @classmethod
    def const(cls, names, c):
        n = len(names)
        return cls(names, {(0,) * n: Fraction(c)})

    @classmethod
    def var(cls, names, name):
        e = [0] * len(names)
        e[list(names).index(name)] = 1
        return cls(names, {tuple(e): Fraction(1)})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return len(self.terms) == 1 and self.terms.get((0,) * len(self.names)) == 1

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return MPoly(self.names, out)

    def __neg__(self):
        return MPoly(self.names, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MPoly(self.names, out)

    def __eq__(self, other):
        return isinstance(other, MPoly) and self.names == other.names and self.terms == other.terms

    def __hash__(self):
        return hash((self.names, tuple(sorted(self.terms.items()))))

    def degree(self):
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def monomial_content(self):
        """Componentwise min exponent over all terms (zero poly -> zeros)."""
        if not self.terms:
            return (0,) * len(self.names)
        mins = [min(e[i] for e in self.terms) for i in range(len(self.names))]
        return tuple(mins)

    def shift_down(self, shift):
        return MPoly(
            self.names,
            {tuple(a - b for a, b in zip(e, shift)): c for e, c in self.terms.items()},
        )

    def lead(self):
        """Leading (graded-lex max) term as (exponent, coeff)."""
        e = max(self.terms, key=lambda t: (sum(t), t))
        return e, self.terms[e]

    def as_univariate(self):
        """Dense coefficient list when only one variable actually occurs."""
        used = [i for i in range(len(self.names)) if any(e[i] for e in self.terms)]
        if len(used) > 1:
            return None
        i = used[0] if used else 0
        d = max((e[i] for e in self.terms), default=0)
        out = [Fraction(0)] * (d + 1)
        for e, c in self.terms.items():
            out[e[i]] = c
        return i, out

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, key=lambda t: (sum(t), t), reverse=True):
            c = self.terms[e]
            mono = "*".join(
                ("%s" % n if k == 1 else "%s**%d" % (n, k))
                for n, k in zip(self.names, e)
                if k
            )
            if not mono:
                bits.append(rational_str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append("-" + mono)
            else:
                bits.append(rational_str(c) + "*" + mono)
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    __repr__ = __str__


class SymElem:
    """Rational function num/den over MPoly, kept in a normal form.

    Every operation reduces eagerly: by monomial content always, then by the
    monic univariate gcd (_poly_gcd on scalars(QQ)) when num and den both
    have at least two terms and use the same single variable, and finally
    den is made to lead with coefficient 1.
    After the content shift a monomial is coprime to the other side, so
    skipping the gcd when either side is one term leaves the normal form
    unchanged.  Bivariate fractions are not reduced by a gcd, so the normal
    form is not canonical: equality cross-multiplies and the hash is one
    constant per field.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = self._reduce(num, den)
        self.num = num
        self.den = den

    @classmethod
    def _normal(cls, num, den):
        # num/den already in normal form
        out = object.__new__(cls)
        out.num = num
        out.den = den
        return out

    @staticmethod
    def _reduce(num, den):
        if num.is_zero():
            return num, MPoly.const(den.names, 1)
        if den.is_one():
            return num, den
        sn = num.monomial_content()
        sd = den.monomial_content()
        shift = tuple(min(a, b) for a, b in zip(sn, sd))
        if any(shift):
            num = num.shift_down(shift)
            den = den.shift_down(shift)
        if len(num.terms) > 1 and len(den.terms) > 1:
            un = num.as_univariate()
            ud = den.as_univariate()
            if un is not None and ud is not None and un[0] == ud[0]:
                i = un[0]
                k = scalars(QQ)
                g = _poly_gcd(un[1], ud[1], k)
                if len(g) > 1:
                    qn = _poly_divmod(un[1], g, k)[0]
                    qd = _poly_divmod(ud[1], g, k)[0]

                    def rebuild(coeffs):
                        terms = {}
                        for k, c in enumerate(coeffs):
                            if c:
                                e = [0] * len(num.names)
                                e[i] = k
                                terms[tuple(e)] = c
                        return MPoly(num.names, terms)

                    num, den = rebuild(qn), rebuild(qd)
        # normalize: den's leading coefficient 1
        _, lc = den.lead()
        if lc != 1:
            inv = 1 / lc
            num = MPoly(num.names, {e: c * inv for e, c in num.terms.items()})
            den = MPoly(den.names, {e: c * inv for e, c in den.terms.items()})
        return num, den

    # a normal form is a fixed point of _reduce, so an operand returned for
    # x + 0, 0 + x, x - 0, x * 0 and 0 * x is the generic result

    def __add__(self, other):
        if other.num.is_zero():
            return self
        if self.num.is_zero():
            return other
        return SymElem(
            _times(self.num, other.den) + _times(other.num, self.den), _times(self.den, other.den)
        )

    def __sub__(self, other):
        if other.num.is_zero():
            return self
        return SymElem(
            _times(self.num, other.den) - _times(other.num, self.den), _times(self.den, other.den)
        )

    def __neg__(self):
        return SymElem._normal(-self.num, self.den)

    def __mul__(self, other):
        if self.num.is_zero():
            return self
        if other.num.is_zero():
            return other
        return SymElem(self.num * other.num, _times(self.den, other.den))

    def __eq__(self, other):
        if not isinstance(other, SymElem):
            return NotImplemented
        return (self.num * other.den) == (other.num * self.den)

    def __hash__(self):
        return hash(("Sym", self.num.names))

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return "(%s)/(%s)" % (self.num, self.den)

    __repr__ = __str__


def _times(x, y):
    """x * y without the product when a factor is the constant 1."""
    if y.is_one():
        return x
    if x.is_one():
        return y
    return x * y


class SymField:
    """Field of rational functions Q(names)."""

    kind = "Sym"
    char = 0
    card = None

    def __init__(self, names):
        self.names = tuple(names)
        # elements are immutable, so the constants are built once
        self.zero = self.from_int(0)
        self.one = self.from_int(1)

    def from_int(self, n):
        return SymElem(MPoly.const(self.names, n), MPoly.const(self.names, 1))

    def var(self, name):
        return SymElem(MPoly.var(self.names, name), MPoly.const(self.names, 1))

    def parse(self, s):
        s = str(s).strip()
        if s in self.names:
            return self.var(s)
        return SymElem(MPoly.const(self.names, parse_rational(s)), MPoly.const(self.names, 1))

    def fmt(self, x):
        return str(x)

    def is_zero(self, x):
        return x.num.is_zero()

    def is_unit(self, x):
        return not x.num.is_zero()

    def inv(self, x):
        if x.num.is_zero():
            raise ZeroDivisionError("inverse of zero rational function")
        return SymElem(x.den, x.num)

    def to_json(self):
        return {"kind": "Sym", "names": list(self.names)}

    def __eq__(self, other):
        return isinstance(other, SymField) and other.names == self.names

    def __hash__(self):
        return hash(("Sym", self.names))

    def __repr__(self):
        return "SymField(%s)" % (self.names,)


def ring_from_json(desc):
    kind = desc["kind"]
    if kind == "Q":
        return QQ
    if kind == "Fp":
        return PrimeField(desc["p"])
    if kind == "Fq":
        return FiniteField(desc["p"], desc["d"], desc.get("poly"))
    if kind == "Sym":
        return SymField(desc["names"])
    raise ValueError("unknown ring kind %r" % kind)


# ---------------------------------------------------------------------------
# dense polynomials over a ring descriptor
# ---------------------------------------------------------------------------


class Poly:
    """Dense polynomial; coefficient list ascending, no trailing zeros."""

    __slots__ = ("ring", "coeffs")

    def __init__(self, ring, coeffs):
        c = list(coeffs)
        while c and ring.is_zero(c[-1]):
            c.pop()
        self.ring = ring
        self.coeffs = tuple(c)

    @classmethod
    def const(cls, ring, c):
        return cls(ring, [c])

    def degree(self):
        return len(self.coeffs) - 1

    def is_zero(self):
        return not self.coeffs

    def __getitem__(self, k):
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ring.zero

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ring, [self[i] + other[i] for i in range(n)])

    def __neg__(self):
        return Poly(self.ring, [-c for c in self.coeffs])

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero() or other.is_zero():
            return Poly(self.ring, [])
        out = [self.ring.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ring, out)

    def scale(self, c):
        return Poly(self.ring, [c * x for x in self.coeffs])

    def __eq__(self, other):
        return (
            isinstance(other, Poly)
            and self.ring == other.ring
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def fmt(self):
        return [self.ring.fmt(c) for c in self.coeffs]

    def __repr__(self):
        return "Poly(%r)" % (self.fmt(),)
