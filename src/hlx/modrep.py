"""Concrete finite-dimensional modules as exact matrices, sl2 only.

A LoopModule carries its coefficient ring, a weight for every basis vector
and lazily memoized operator tables:

    op(kind, r, k)   the divided power (x±_r)^(k),
    cartan_binom(k)  binom(h, k), always diagonal by basis weight,
    lam(r)           the Garland series coefficient Lambda_r.

Modules built from evaluation Weyl modules also carry an ell-weight label
per basis vector (labels()): the Lambda-series act diagonally on their
standard basis, because hev_a(Lambda^+(u)) = (1 - au)^h, the coproduct
multiplies the series, the antipode inverts them, a Frobenius twist sends
(a, mu) to (a^{1/p^m}, p^m mu) and psi_c multiplies each parameter by c.
For them lam(r) is a diagonal read off the labels in closed form, and
ell_weight_decomposition and drinfeld_polynomial group the basis by label
instead of searching eigenspaces, so their cost does not grow with the
field.  Composition factors from meataxe.chop keep the labels; weyl0 and
lattice reductions have none and take the matrix path.
ell_weight_decomposition refuses an r-window below the Lambda precision with
a ValueError.

The same recipes give the ratios of the tables in r (op_ratios), which set
the r-window: the loop degrees whose tables span those of every degree.
weyl0, lattice reductions and modules built on them have no ratio data and
use the dim^2 window (ratio_window).

Matrices act on column vectors; entry (i, j) is the coefficient of basis
vector i in the image of basis vector j.  Construction is by recipe: hyper
evaluation modules, tensor products via the divided-power comultiplication,
duals via the antipode, Frobenius and parameter twists, straightened Weyl
modules in characteristic zero, and tables computed on demand (lattice
reductions).  Every node builds each table once, from its factors' tables,
in the representation linalg.tables(ring) chooses: an array of the int64
kernel over a finite field, a Mat over Q, Z_(p) and Q(a, b).  op, lam and
cartan_binom box a finite field's array on the way out; op_np, lam_np and
cartan_binom_np hand it over.

Modules are immutable after construction apart from the lazily memoized
tables; once a table is materialized it is never rewritten, so concurrent
readers are safe and cross-module operations stay pure.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import looppbw
from .cartan import CartanData, base_p_digits
from .drinfeld import DrinfeldPoly, EllWeight, factor_poly_unit_roots, minus_involution
from .exactnum import QQ, FiniteField, Poly, integer_binomial, ring_pow
from .linalg import (
    Mat,
    arrays,
    check_int64_bound,
    from_np,
    kernel,
    np_eigenvalues,
    np_nullspace,
    np_rref,
    tables,
)
from .looppbw import CARTAN, LOWER, RAISE, HyperElement


def _binom_in_ring(ring, m, k):
    return ring.from_int(integer_binomial(m, k))


def generator_exponents(p, kmax):
    """Exponents k of the divided-power generators: the p-powers up to
    max(1, kmax) in characteristic p, and k = 1 alone in characteristic 0."""
    if not p:
        return [1]
    ks = []
    pk = 1
    while pk <= max(1, kmax):
        ks.append(pk)
        pk *= p
    return ks


def ratio_window(*mods):
    """r-window for the tables of modules over one ring taken together (two
    of them in the intertwiner equations T op1(r) = op2(r) T): the largest
    number of their joint ratios over the generator exponents, capped by
    dim^2, which alone applies when a module has no ratio data.

    Structurally built modules give their ratios (op_ratios): their tables
    are combinations of geometric sequences c^r with c a unit, so over F_q
    the count is at most q - 1 and the tables are (q-1)-periodic in r.
    weyl0, lattice reductions and what is built on them give none.  The
    entries of a lattice reduction's tables still satisfy a linear
    recurrence in r of order at most dim^2, but need not be (q-1)-periodic:
    expressing the ambient tables in the lattice basis can put p in the
    denominators of the geometric-sequence coefficients.
    """
    bound = max(m.dim for m in mods) ** 2
    count = 0
    for k in generator_exponents(mods[0].ring.char, max(m.max_exponent() for m in mods)):
        sets = [m.op_ratios(k) for m in mods]
        if None in sets:
            return bound
        count = max(count, len(frozenset().union(*sets)))
    return min(bound, count)


class LoopModule:
    def __init__(self, ring, weights, recipe, hw_index=None):
        self.ring = ring
        self.weights = tuple(int(w) for w in weights)
        self.dim = len(self.weights)
        self._lam_precision = 2 * max((abs(w) for w in self.weights), default=0) + 2
        self.recipe = recipe
        self.hw_index = hw_index
        self._tables = {}
        self._ratio_cache = {}
        self._label_cache = {}

    # -- operator tables: one memo, in the representation of linalg.tables ---

    def _memo(self, key, build):
        if key not in self._tables:
            if self.ring.card is not None:
                # the longest int64 sums: matrix products (dim terms) and the
                # ell-weight denominator solves (below the Lambda precision)
                check_int64_bound(self.ring, max(self.dim, self.lam_precision()))
            self._tables[key] = build()
        return self._tables[key]

    def op_table(self, kind, r, k):
        """(x±_r)^(k) in the representation of linalg.tables(ring)."""
        if k < 0:
            raise ValueError("negative divided power")
        if k == 0:
            return self._memo("eye", lambda: tables(self.ring).eye(self.dim))
        return self._memo(("op", kind, r, k), lambda: self._op(kind, r, k))

    def lam_table(self, r):
        """Lambda_r in the representation of linalg.tables(ring): read off the
        labels when the module has them."""
        if r == 0:
            return self._memo("eye", lambda: tables(self.ring).eye(self.dim))
        if self.labels() is None:
            return self._memo(("lam", r), lambda: self._lam(r))
        return self._memo(("lam", r), lambda: tables(self.ring).diag(self.lam_diagonal(r)))

    def _cartan_table(self, k):
        return self._memo(
            ("h", k), lambda: tables(self.ring).diag([_binom_in_ring(self.ring, w, k) for w in self.weights])
        )

    def _boxed(self, table):
        return table if self.ring.card is None else from_np(table, self.ring)

    def _finite(self):
        if self.ring.card is None:
            raise TypeError("array tables are only kept for finite fields")

    def op(self, kind, r, k):
        return self._boxed(self.op_table(kind, r, k))

    def lam(self, r):
        return self._boxed(self.lam_table(r))

    def cartan_binom(self, k):
        return self._boxed(self._cartan_table(k))

    def op_np(self, kind, r, k):
        self._finite()
        return self.op_table(kind, r, k)

    def lam_np(self, r):
        self._finite()
        return self.lam_table(r)

    def cartan_binom_np(self, k):
        self._finite()
        return self._cartan_table(k)

    # -- ell-weight labels -----------------------------------------------------

    def labels(self):
        """One EllWeight per basis vector, whose series are the vector's
        Lambda^±-eigenvalues (so every Lambda_r is diagonal), or None when
        the module carries no such data."""
        if "labels" not in self._label_cache:
            self._label_cache["labels"] = self._labels()
        return self._label_cache["labels"]

    def _labels(self):
        return None

    def label_coefficients(self, label, sign, n):
        """Coefficients u^0..u^n (or more) of the Lambda^{sign}-series of a
        label (one of labels()), memoized on the label to at least the
        Lambda precision."""
        return label.memo_coefficients(n, sign, self.lam_precision() - 1)

    def lam_diagonal(self, r):
        """Diagonal of Lambda_r on a labelled module: coefficient |r| of each
        basis vector's Lambda^±-series, the sign of r choosing the side."""
        sign = 1 if r > 0 else -1
        return [self.label_coefficients(lab, sign, abs(r))[abs(r)] for lab in self.labels()]

    # -- policies --------------------------------------------------------------

    def op_ratios(self, k):
        """The ratios of (x±_r)^(k) in r: a finite set of c with
        (x±_r)^(k) = sum_c c^r M_c for every r (the same for both kinds), or
        None when the module carries no such data."""
        if k == 0:
            return frozenset([self.ring.one])
        if k not in self._ratio_cache:
            self._ratio_cache[k] = self._op_ratios(k)
        return self._ratio_cache[k]

    def _op_ratios(self, k):
        return None

    def r_window(self):
        """Window of loop degrees whose tables determine every operator.

        If (x±_r)^(k) = sum_c c^r M_c over N distinct ratios c, the tables
        at any N consecutive r determine every M_c: the system is a
        Vandermonde matrix in the c scaled by the unit c^{r_0}, hence
        invertible.  So the span of the tables over the window equals their
        span over all r in Z, and spin-up, Norton's test and ell_hw_vectors,
        which depend on that span alone, need no more.  N is the largest
        ratio count over the generator exponents when the module's structure
        gives it (op_ratios), and dim^2 bounds it in every case (see
        ratio_window).
        """
        return ratio_window(self)

    def lam_precision(self):
        """Number of Lambda-series terms kept: 2 max|weight| + 2, fixed with
        the weights."""
        return self._lam_precision

    def max_exponent(self):
        if not self.weights:
            return 0
        return max(0, (max(self.weights) - min(self.weights)) // 2)

    # -- misc -------------------------------------------------------------------

    def weight_multiplicities(self):
        out = {}
        for w in self.weights:
            out[w] = out.get(w, 0) + 1
        return out

    def hw_vector(self):
        if self.hw_index is None:
            raise ValueError("module has no designated highest vector")
        v = [self.ring.zero] * self.dim
        v[self.hw_index] = self.ring.one
        return v

    def to_json(self):
        return {
            "ring": self.ring.to_json(),
            "dim": self.dim,
            "weights": list(self.weights),
            "recipe": self.recipe,
        }

    def __repr__(self):
        return "LoopModule(dim=%d, ring=%r)" % (self.dim, self.ring)


# ---------------------------------------------------------------------------
# evaluation Weyl modules
# ---------------------------------------------------------------------------


class _EvalWeyl(LoopModule):
    """W(lambda, a): basis v_0..v_lambda with v_j of weight lambda - 2j and
    (x±_r)^(k) acting through the hyper evaluation map as a^{rk} (x±)^(k)."""

    def __init__(self, ring, lam, a):
        if lam < 0:
            raise ValueError("weight must be nonnegative")
        if not ring.is_unit(a):
            raise ValueError("evaluation parameter must be a unit")
        self.lam_weight = lam
        self.a = a
        recipe = {"eval_weyl": {"lambda": lam, "a": ring.fmt(a)}}
        super().__init__(ring, [lam - 2 * j for j in range(lam + 1)], recipe, hw_index=0)

    def _op_ratios(self, k):
        if k > self.lam_weight:
            return frozenset()
        return frozenset([ring_pow(self.ring, self.a, k)])

    def _op(self, kind, r, k):
        ring = self.ring
        n = self.dim
        rows = [[ring.zero] * n for _ in range(n)]
        scal = ring_pow(ring, self.a, r * k)
        lam = self.lam_weight
        for j in range(n):
            if kind == LOWER:
                i = j + k
                if i < n:
                    rows[i][j] = scal * _binom_in_ring(ring, j + k, k)
            else:
                i = j - k
                if i >= 0:
                    rows[i][j] = scal * _binom_in_ring(ring, lam - j + k, k)
        return tables(ring).from_rows(rows, (n, n))

    def _labels(self):
        # hev_a(Lambda^+(u)) = (1 - au)^h: v_j carries omega_{a, lambda - 2j}
        return tuple(EllWeight(self.ring, [(self.a, w)]) for w in self.weights)


def eval_weyl_module(ring, lam, a):
    return _EvalWeyl(ring, lam, a)


# ---------------------------------------------------------------------------
# tensor product
# ---------------------------------------------------------------------------


class _Tensor(LoopModule):
    def __init__(self, left, right):
        if left.ring != right.ring:
            raise ValueError("tensor factors live over different rings")
        self.left = left
        self.right = right
        weights = [wl + wr for wl in left.weights for wr in right.weights]
        hw = None
        if left.hw_index is not None and right.hw_index is not None:
            hw = left.hw_index * right.dim + right.hw_index
        recipe = {"tensor": [left.recipe, right.recipe]}
        super().__init__(left.ring, weights, recipe, hw_index=hw)

    def _op_ratios(self, k):
        # the coproduct sums left(l) (x) right(k - l): ratios multiply
        out = set()
        for l in range(k + 1):
            left, right = self.left.op_ratios(l), self.right.op_ratios(k - l)
            if left is None or right is None:
                return None
            out.update(a * b for a in left for b in right)
        return frozenset(out)

    def _op(self, kind, r, k):
        # Delta((x±_r)^(k)) = sum_l (x±_r)^(l) (x) (x±_r)^(k-l); (x±_r)^(l)
        # moves weights by 2l, so it vanishes on a factor past its max_exponent
        T = tables(self.ring)
        lo, hi = max(0, k - self.right.max_exponent()), min(k, self.left.max_exponent())
        if lo > hi:
            return T.zeros(self.dim)
        terms = [T.kron(self.left.op_table(kind, r, l), self.right.op_table(kind, r, k - l)) for l in range(lo, hi + 1)]
        return functools.reduce(T.add, terms)

    def _labels(self):
        # Delta(Lambda^±(u)) = Lambda^±(u) (x) Lambda^±(u): labels multiply
        left, right = self.left.labels(), self.right.labels()
        if left is None or right is None:
            return None
        return tuple(a * b for a in left for b in right)

    def _lam(self, r):
        # an unlabelled factor (weyl0, a lattice reduction): the coproduct sum
        T = tables(self.ring)
        sign, n = (1 if r > 0 else -1), abs(r)
        terms = [T.kron(self.left.lam_table(sign * l), self.right.lam_table(sign * (n - l))) for l in range(n + 1)]
        return functools.reduce(T.add, terms)


def tensor(*mods):
    assert mods
    out = mods[0]
    for m in mods[1:]:
        out = _Tensor(out, m)
    return out


# ---------------------------------------------------------------------------
# duality via the antipode
# ---------------------------------------------------------------------------


class _Dual(LoopModule):
    def __init__(self, inner):
        self.inner = inner
        super().__init__(
            inner.ring,
            [-w for w in inner.weights],
            {"dual": inner.recipe},
            hw_index=None,
        )

    def _op_ratios(self, k):
        return self.inner.op_ratios(k)

    def _op(self, kind, r, k):
        # S((x±_r)^(k)) = (-1)^k (x±_r)^(k)
        T = tables(self.ring)
        m = T.transpose(self.inner.op_table(kind, r, k))
        return T.neg(m) if k % 2 else m

    def _labels(self):
        # S(Lambda^±(u)) = Lambda^±(u)^{-1}: the antipode inverts the labels
        inner = self.inner.labels()
        return None if inner is None else tuple(lab.inverse() for lab in inner)

    def _lam(self, r):
        # unlabelled inner module: invert the matrix series, memoized on the
        # module next to the tables
        T = tables(self.ring)
        sign = 1 if r > 0 else -1
        series = self._tables.setdefault(("lamser", sign), [T.eye(self.dim)])
        while len(series) <= abs(r):
            n = len(series)
            acc = T.zeros(self.dim)
            for j in range(1, n + 1):
                acc = T.add(acc, T.mul(self.inner.lam_table(sign * j), series[n - j]))
            series.append(T.neg(acc))
        return T.transpose(series[abs(r)])


def dual(m):
    return _Dual(m)


# ---------------------------------------------------------------------------
# Frobenius and parameter twists
# ---------------------------------------------------------------------------


class _Frobenius(LoopModule):
    """Pull-back along the m-th arithmetic Frobenius: divided powers divide
    their exponents by p^m (zero unless divisible), weights scale by p^m."""

    def __init__(self, inner, m):
        if m < 0:
            raise ValueError("twist exponent must be nonnegative")
        p = inner.ring.char
        if p == 0:
            raise ValueError("Frobenius twist needs positive characteristic")
        self.inner = inner
        self.m = m
        self.pm = p ** m
        super().__init__(
            inner.ring,
            [w * self.pm for w in inner.weights],
            {"frobenius_twist": {"m": m, "of": inner.recipe}},
            hw_index=inner.hw_index,
        )

    def _op_ratios(self, k):
        if k % self.pm != 0:
            return frozenset()
        return self.inner.op_ratios(k // self.pm)

    def _op(self, kind, r, k):
        if k % self.pm != 0:
            return tables(self.ring).zeros(self.dim)
        return self.inner.op_table(kind, r, k // self.pm)

    def _labels(self):
        # Lambda^±(u) -> Lambda^±(u^{p^m}), and 1 - a u^{p^m} = (1 - a^{1/p^m} u)^{p^m}
        inner = self.inner.labels()
        if inner is None:
            return None
        ring = self.ring
        # a^{1/p^m} = a^{p^e} with e = -m mod d over F_{p^d}: a itself over F_p
        e = -self.m % ring.d if isinstance(ring, FiniteField) else 0
        root = {}
        out = []
        for lab in inner:
            pairs = []
            for a, mu in lab.pairs:
                if a not in root:
                    root[a] = ring_pow(ring, a, ring.char ** e)
                pairs.append((root[a], mu * self.pm))
            out.append(EllWeight(ring, pairs))
        return tuple(out)

    def _lam(self, r):
        if r % self.pm != 0:
            return tables(self.ring).zeros(self.dim)
        return self.inner.lam_table(r // self.pm)


def frobenius_twist(m, steps):
    if steps == 0:
        return m
    return _Frobenius(m, steps)


class _Psi(LoopModule):
    """Pull-back along psi_a: (x±_r)^(k) -> a^{rk} (x±_r)^(k)."""

    def __init__(self, inner, a):
        if not inner.ring.is_unit(a):
            raise ValueError("twist parameter must be a unit")
        self.inner = inner
        self.a = a
        super().__init__(
            inner.ring,
            inner.weights,
            {"psi_twist": {"a": inner.ring.fmt(a), "of": inner.recipe}},
            hw_index=inner.hw_index,
        )

    def _scal(self, e):
        return ring_pow(self.ring, self.a, e)

    def _op_ratios(self, k):
        inner = self.inner.op_ratios(k)
        if inner is None:
            return None
        ak = self._scal(k)
        return frozenset(ak * c for c in inner)

    def _op(self, kind, r, k):
        return tables(self.ring).scale(self.inner.op_table(kind, r, k), self._scal(r * k))

    def _labels(self):
        # Lambda^±(u) -> Lambda^±(c u): every parameter is multiplied by c
        inner = self.inner.labels()
        if inner is None:
            return None
        return tuple(EllWeight(self.ring, [(self.a * a, mu) for a, mu in lab.pairs]) for lab in inner)

    def _lam(self, r):
        return tables(self.ring).scale(self.inner.lam_table(r), self._scal(r))


def psi_twist(m, a):
    return _Psi(m, a)


# ---------------------------------------------------------------------------
# irreducibles via Steinberg digits
# ---------------------------------------------------------------------------


def irreducible_module(ring, lam, a):
    """V(lambda, a) over a field of characteristic p, built as the tensor of
    Frobenius twists of the restricted evaluation factors V(lambda_k, a^{p^k})."""
    p = ring.char
    if p == 0:
        raise ValueError("needs positive characteristic")
    if lam < 0:
        raise ValueError("weight must be dominant")
    if not ring.is_unit(a):
        raise ValueError("parameter must be a unit")
    if lam == 0:
        return eval_weyl_module(ring, 0, a)
    factors = []
    for k, dk in enumerate(base_p_digits(lam, p)):
        if dk == 0:
            continue
        ak = ring_pow(ring, a, p ** k)
        factors.append(frobenius_twist(eval_weyl_module(ring, dk, ak), k))
    out = tensor(*factors)
    out.recipe = {"irreducible": {"lambda": lam, "a": ring.fmt(a), "p": p}}
    return out


# ---------------------------------------------------------------------------
# straightened Weyl modules in characteristic zero
# ---------------------------------------------------------------------------


class _Weyl0(LoopModule):
    """W0(omega) over a characteristic-zero field, with basis the surviving
    straightening monomials applied to the highest vector.  Lowering
    operators act by monomial merging plus rewrite rules; everything else is
    evaluated through the symbolic engine against the highest-weight data."""

    def __init__(self, ring, omega_coeffs, margin=6):
        if ring.char != 0:
            raise ValueError("straightened Weyl modules are built in characteristic zero")
        sat = looppbw.weyl_upper_bound(omega_coeffs, ring, max_sweeps=6, margin=margin)
        if not sat.stabilized:
            raise RuntimeError("straightening did not stabilize; enlarge the windows")
        self.sat = sat
        self.omega = list(omega_coeffs)
        lam = sat.lam
        self.lam_weight = lam
        self.basis_monomials = list(sat.basis)
        self._hs_cache = {}
        weights = [lam - 2 * sum(k for _, k in m) for m in self.basis_monomials]
        recipe = {"weyl0": {"omega": [ring.fmt(c) for c in omega_coeffs]}}
        super().__init__(ring, weights, recipe, hw_index=self.basis_monomials.index(()))

    # h_{s} eigenvalue on the highest vector: Newton power sums of the roots,
    # from e_i = (-1)^i omega_i without factoring
    def _h_eig(self, s):
        if s == 0:
            return self.ring.from_int(self.lam_weight)
        key = s
        if key not in self._hs_cache:
            ring = self.ring
            sign = 1 if s > 0 else -1
            coeffs = self.omega if sign > 0 else _minus_coeffs(self.omega, ring)
            n = abs(s)
            # p_n = e_1 p_{n-1} - e_2 p_{n-2} + ... + (-1)^{n-1} n e_n
            es = [(ring.from_int((-1) ** i)) * c for i, c in enumerate(coeffs)]
            ps = [ring.from_int(self.lam_weight)]
            for m in range(1, n + 1):
                acc = ring.zero
                for i in range(1, m):
                    if i < len(es):
                        acc = acc + ring.from_int((-1) ** (i - 1)) * es[i] * ps[m - i]
                if m < len(es):
                    acc = acc + ring.from_int((-1) ** (m - 1) * m) * es[m]
                ps.append(acc)
                self._hs_cache[sign * m] = ps[m]
        return self._hs_cache[key]

    def _cartan_value(self, entries):
        """Value of a pure-Cartan PBW block on the highest vector."""
        ring = self.ring
        out = ring.one
        for kind, r, k in entries:
            assert kind == CARTAN
            if r == 0:
                out = out * _binom_in_ring(ring, self.lam_weight, k)
            else:
                v = self._h_eig(r)
                for _ in range(k):
                    out = out * v
        return out

    def _reduce_or_raise(self, vec):
        coords = self.sat.reduce(vec)
        if coords is None:
            raise RuntimeError(
                "monomial left the straightening window; rebuild with a larger margin"
            )
        return coords

    def _op(self, kind, r, k):
        ring = self.ring
        cols = []
        if kind == LOWER:
            for mono in self.basis_monomials:
                if sum(kk for _, kk in mono) + k > self.lam_weight:
                    cols.append([ring.zero] * self.dim)
                    continue
                merged, coeff = looppbw._merge_lower(mono, ((r, k),), ring)
                cols.append([coeff * c for c in self._reduce_or_raise({merged: ring.one})])
        else:
            elem = HyperElement.gen(RAISE, r, k)
            for mono in self.basis_monomials:
                cols.append(self._apply_symbolic(elem, mono))
        return Mat(ring, list(zip(*cols)))

    def _lam(self, r):
        elem = looppbw.lambda_element(r)
        cols = [self._apply_symbolic(elem, mono) for mono in self.basis_monomials]
        return Mat(self.ring, list(zip(*cols)))

    def _apply_symbolic(self, elem, mono):
        """Coordinates of elem . (monomial v) via normal ordering."""
        ring = self.ring
        ximono = HyperElement({tuple((LOWER, s, k) for s, k in mono): Fraction(1)})
        prod = elem * ximono
        vec = {}
        for pbw, c in prod.coeffs.items():
            if any(kind == RAISE for kind, _, _ in pbw):
                continue
            lower = tuple((s, k) for kind, s, k in pbw if kind == LOWER)
            if sum(k for _, k in lower) > self.lam_weight:
                continue
            cart = tuple(t for t in pbw if t[0] == CARTAN)
            scal = ring.from_int(c.numerator) * ring.inv(ring.from_int(c.denominator))
            scal = scal * self._cartan_value(cart)
            if not ring.is_zero(scal):
                vec[lower] = vec.get(lower, ring.zero) + scal
        coords = self._reduce_or_raise(vec)
        return coords


def _minus_coeffs(omega, ring):
    lead = omega[-1]
    inv = ring.inv(lead)
    return [inv * c for c in reversed(omega)]


def weyl0_module(ring, omega_coeffs, margin=6):
    return _Weyl0(ring, omega_coeffs, margin=margin)


def weyl0_from_roots(ring, roots, margin=6):
    f = Poly.const(ring, ring.one)
    for a in roots:
        f = f * Poly(ring, [ring.one, -a])
    return _Weyl0(ring, list(f.coeffs), margin=margin)


# ---------------------------------------------------------------------------
# explicit tables (lattice reductions)
# ---------------------------------------------------------------------------


class _Explicit(LoopModule):
    """Module whose tables come from functions: op_fn(kind, r, k) and
    lam_fn(r) compute them on demand, in the representation of
    linalg.tables(ring) (lattice reductions keep a handle on their ambient
    module this way); ratio_fn gives op_ratios when the tables are linear
    images of another module's."""

    def __init__(self, ring, weights, recipe, op_fn, lam_fn, hw_index=None, ratio_fn=None):
        super().__init__(ring, weights, recipe, hw_index=hw_index)
        self._op_fn = op_fn
        self._lam_fn = lam_fn
        self._ratio_fn = ratio_fn

    def _op_ratios(self, k):
        return None if self._ratio_fn is None else self._ratio_fn(k)

    def _op(self, kind, r, k):
        if k > self.max_exponent():
            return tables(self.ring).zeros(self.dim)
        return self._op_fn(kind, r, k)

    def _lam(self, r):
        return self._lam_fn(r)


def explicit_module(ring, weights, recipe, op_fn, lam_fn, hw_index=None, ratio_fn=None):
    return _Explicit(ring, weights, recipe, op_fn, lam_fn, hw_index=hw_index, ratio_fn=ratio_fn)


# ---------------------------------------------------------------------------
# ell-weight analysis
# ---------------------------------------------------------------------------


def ell_hw_vectors(m, r_window=None):
    """Echelonized basis of the joint kernel of all raising divided powers in
    the certified window; over F_q only p-power exponents are needed."""
    ring = m.ring
    if r_window is None:
        r_window = m.r_window()
    ks = generator_exponents(ring.char, m.max_exponent())
    rs = range(-r_window, r_window + 1)
    if ring.card is None:
        return kernel(Mat(ring, [row for r in rs for k in ks for row in m.op(RAISE, r, k).rows]))
    K = arrays(ring)
    blocks = [t for t in (m.op_np(RAISE, r, k) for r in rs for k in ks) if t.any()]
    return K.to_rows(np_nullspace(np.concatenate(blocks, axis=0), ring) if blocks else K.eye(m.dim))


def drinfeld_polynomial(m, v=None, prec=None):
    """Drinfeld data on an ell-highest-weight vector.

    Returns (DrinfeldPoly, report) where the report records the eigenvalue
    checks: v is a joint Lambda eigenvector, the plus series is a polynomial
    of degree = weight of v, and the minus series matches its minus
    involution (the identity Lambda_{lam} Lambda_{-r} v = Lambda_{lam-r} v).
    """
    ring = m.ring
    if v is None:
        if m.hw_index is not None:
            v = m.hw_vector()
        else:
            vs = ell_hw_vectors(m)
            if len(vs) != 1:
                raise ValueError("ell-highest-weight space has dimension %d" % len(vs))
            v = vs[0]
    if prec is None:
        prec = m.lam_precision()
    # weight of v
    idxs = [i for i, c in enumerate(v) if not ring.is_zero(c)]
    wts = {m.weights[i] for i in idxs}
    if len(wts) != 1:
        raise ValueError("vector is not weight homogeneous")
    lam = wts.pop()
    if lam < 0:
        raise ValueError("vector weight is not dominant")

    labels = m.labels()
    if labels is not None and len({labels[i] for i in idxs}) == 1:
        # v lies in one joint eigenspace: its eigenvalues are its label's
        label = labels[idxs[0]]

        def eig(r):
            return m.label_coefficients(label, 1 if r >= 0 else -1, abs(r))[abs(r)]

    else:

        def eig(r):
            img = m.lam(r).apply(v)
            ratio = img[idxs[0]] * ring.inv(v[idxs[0]])
            chk = [ratio * c for c in v]
            if any(not ring.is_zero(a - b) for a, b in zip(chk, img)):
                raise ValueError("vector is not a joint Lambda eigenvector")
            return ratio

    plus = [eig(r) for r in range(0, prec)]
    minus = [eig(-r) for r in range(0, prec)]
    report = {"plus_polynomial": True, "minus_matches": True, "degree": lam}
    for r in range(lam + 1, prec):
        if not ring.is_zero(plus[r]):
            report["plus_polynomial"] = False
    coeffs = plus[: lam + 1]
    poly = DrinfeldPoly(ring, Poly(ring, coeffs))
    if not ring.is_unit(coeffs[-1]):
        report["plus_polynomial"] = False
    else:
        expected = minus_involution(poly.polys[0])
        for r in range(0, prec):
            want = expected[r] if r <= expected.degree() else ring.zero
            if not ring.is_zero(minus[r] - want):
                report["minus_matches"] = False
    return poly, report


def label_classes(m):
    """The basis of a labelled module grouped by (weight, label), as a list
    of (weight, label, indices).  The order is the one in which the matrix
    path refines the joint eigenspaces: weight descending, then the label's
    eigenvalues over rs = [1, -1, 2, -2, ...] in field-element order."""
    ring = m.ring
    prec = m.lam_precision()
    groups = {}
    for i, key in enumerate(zip(m.weights, m.labels())):
        groups.setdefault(key, []).append(i)
    by_weight = {}
    for w, label in groups:
        by_weight.setdefault(w, []).append(label)

    def eigenvalues(label):
        plus = m.label_coefficients(label, 1, prec - 1)
        minus = m.label_coefficients(label, -1, prec - 1)
        return [ring.index(s[r]) for r in range(1, prec) for s in (plus, minus)]

    out = []
    for w in sorted(by_weight, reverse=True):
        labels = by_weight[w]
        if len(labels) > 1:
            labels = sorted(labels, key=eigenvalues)
        out.extend((w, label, groups[w, label]) for label in labels)
    return out


def ell_weight_decomposition(m, r_window=None):
    """Joint generalized eigenspace decomposition of the Lambda operators,
    refining the weight decomposition.

    Returns a list of blocks {weight, dim, rows, series_plus, series_minus,
    ell_weight} where ell_weight is an EllWeight when the eigenvalue series
    factors over the certified field and None (opaque) otherwise.  A
    labelled module is grouped by label: each block is one (weight, label)
    class with its unit vectors as rows, and the label is its ell-weight.
    Otherwise the weight spaces are split by generalized eigenspaces of
    Lambda_r for r = 1, -1, ..., r_window, -r_window.
    """
    ring = m.ring
    if ring.card is None:
        raise ValueError("ell-weight decomposition needs finite field coefficients")
    prec = m.lam_precision()
    if r_window is None:
        r_window = prec - 1
    elif r_window < prec - 1:
        raise ValueError(
            "r-window %d is too small: the ell-weight series need Lambda_r for |r| <= %d"
            % (r_window, prec - 1)
        )
    if m.labels() is not None:
        out = []
        for w, label, idxs in label_classes(m):
            rows = []
            for i in idxs:
                row = [ring.zero] * m.dim
                row[i] = ring.one
                rows.append(row)
            out.append(
                {
                    "weight": w,
                    "dim": len(idxs),
                    "rows": rows,
                    "series_plus": m.label_coefficients(label, 1, prec - 1)[:prec],
                    "series_minus": m.label_coefficients(label, -1, prec - 1)[:prec],
                    "ell_weight": label,
                }
            )
        return out
    rs = [r for rr in range(1, r_window + 1) for r in (rr, -rr)]
    out = []
    for w, rows, eigs in _block_refinement(m, rs):
        opaque = any(r not in eigs for r in rs)
        if opaque:
            series_plus = series_minus = None
            ellw = None
        else:
            series_plus = [ring.one] + [eigs[r] for r in range(1, prec)]
            series_minus = [ring.one] + [eigs[-r] for r in range(1, prec)]
            ellw = _match_ell_weight(ring, w, series_plus, series_minus, prec, m)
        out.append(
            {
                "weight": w,
                "dim": len(rows),
                "rows": rows,
                "series_plus": series_plus,
                "series_minus": series_minus,
                "ell_weight": ellw,
            }
        )
    return out


def common_spectral_character(blocks):
    """The spectral character shared by every block of an ell-weight
    decomposition, or None when there are no blocks, a block is opaque or
    two blocks differ."""
    if not blocks or any(b["ell_weight"] is None for b in blocks):
        return None
    a1 = CartanData("A1")
    chars = [b["ell_weight"].spectral_character(a1) for b in blocks]
    return chars[0] if all(c == chars[0] for c in chars) else None


def _block_refinement(m, rs):
    """Weight blocks refined by the generalized eigenspaces of Lambda_r for r
    in rs, on arrays: (weight, rows, {r: eigenvalue}) with the rows in RREF
    and the eigenvalues in field-element order."""
    ring = m.ring
    K = arrays(ring)
    p = K.p
    blocks = []
    for w in sorted(set(m.weights), reverse=True):
        idxs = [i for i, wi in enumerate(m.weights) if wi == w]
        rows = np.zeros((len(idxs), m.dim) + K.tail, dtype=np.int64)
        rows[np.arange(len(idxs)), idxs] = K.unit
        blocks.append((w, rows, list(idxs), {}))
    for r in rs:
        mat = m.lam_np(r)
        nxt = []
        for w, rows, pivots, eigs in blocks:
            s = rows.shape[0]
            imgs = K.mul(rows, mat.swapaxes(0, 1))
            # coordinates against the RREF rows: entries at pivot columns
            coords = imgs[:, pivots]
            if ((K.mul(coords, rows) - imgs) % p).any():
                raise ArithmeticError("weight block is not Lambda invariant")
            rmat = coords.swapaxes(0, 1)  # restricted matrix, column action
            if s == 1:
                e = dict(eigs)
                e[r] = K.to_ring(rmat[0, 0])
                nxt.append((w, rows, pivots, e))
                continue
            found_total = 0
            prod = K.eye(s)
            # only eigenvalues have a nonzero generalized kernel; they come
            # in field-element order, which keeps the blocks in that order
            for nu in np_eigenvalues(rmat, ring):
                power = (rmat - K.emul(K.eye(s), K.coords(nu))) % p
                for _ in range(max(1, s.bit_length())):
                    power = K.mul(power, power)
                ker = np_nullspace(power, ring)
                red, piv = np_rref(K.mul(ker, rows), ring)
                e = dict(eigs)
                e[r] = K.box(nu)
                nxt.append((w, red, piv, e))
                found_total += ker.shape[0]
                prod = K.mul(prod, power)
                if found_total == s:
                    break
            if found_total < s:
                img_rows, _ = np_rref(prod.swapaxes(0, 1), ring)
                if img_rows.shape[0]:
                    red, piv = np_rref(K.mul(img_rows, rows), ring)
                    nxt.append((w, red, piv, dict(eigs)))
        blocks = nxt
    return [(w, K.to_rows(rows), eigs) for w, rows, _, eigs in blocks]


def _match_ell_weight(ring, w, series_plus, series_minus, prec, m):
    """Identify the rational series omega/pi with wt = w from the plus
    series, and accept it when its closed-form minus series
    (EllWeight.coefficients) is series_minus; None when opaque."""
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
        if om is None:
            continue
        omp, pip = Poly(ring, om), Poly(ring, pi)
        if omp.degree() != dom or pip.degree() != dpi:
            continue
        try:
            pairs = list(factor_poly_unit_roots(omp).items())
            pairs += [(a, -mult) for a, mult in factor_poly_unit_roots(pip).items()]
        except ValueError:  # FieldExtensionNeeded included
            continue
        # the minus side: series_minus must be the expansion of omega^-/pi^-
        candidate = EllWeight(ring, pairs)
        if candidate.coefficients(prec - 1, -1) == series_minus:
            return candidate
    return None


def _solve_denominator(ring, series, dom, dpi, prec):
    """Find pi with pi_0 = 1, deg <= dpi, (series * pi) truncating to degree
    <= dom through precision."""
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
    # verify (system may be underdetermined)
    if ((K.mul(a[:, :dpi], x) - a[:, dpi]) % p).any():
        return None
    return [ring.one] + [K.to_ring(c) for c in x]


def _series_times_poly(ring, series, pi, dom):
    out = []
    for mdeg in range(dom + 1):
        acc = ring.zero
        for j, pj in enumerate(pi):
            if 0 <= mdeg - j < len(series):
                acc = acc + pj * series[mdeg - j]
        out.append(acc)
    return out


# ---------------------------------------------------------------------------
# JSON recipes
# ---------------------------------------------------------------------------


def build_module(recipe, ring=None):
    """Build a LoopModule from a JSON recipe {"ring": ..., "build": ...}."""
    from .exactnum import ring_from_json

    if ring is None:
        ring = ring_from_json(recipe["ring"])
        node = recipe["build"]
    else:
        node = recipe
    if "eval_weyl" in node:
        spec = node["eval_weyl"]
        return eval_weyl_module(ring, int(spec["lambda"]), ring.parse(spec["a"]))
    if "irreducible" in node:
        spec = node["irreducible"]
        return irreducible_module(ring, int(spec["lambda"]), ring.parse(spec["a"]))
    if "tensor" in node:
        return tensor(*[build_module(sub, ring) for sub in node["tensor"]])
    if "dual" in node:
        return dual(build_module(node["dual"], ring))
    if "frobenius_twist" in node:
        spec = node["frobenius_twist"]
        return frobenius_twist(build_module(spec["of"], ring), int(spec["m"]))
    if "psi_twist" in node:
        spec = node["psi_twist"]
        return psi_twist(build_module(spec["of"], ring), ring.parse(spec["a"]))
    if "weyl0" in node:
        spec = node["weyl0"]
        if "roots" in spec:
            roots = [ring.parse(s) for s in spec["roots"]]
            return weyl0_from_roots(ring, roots, margin=int(spec.get("margin", 6)))
        coeffs = [ring.parse(s) for s in spec["omega"]]
        return weyl0_module(ring, coeffs, margin=int(spec.get("margin", 6)))
    if "from_lattice" in node:
        from . import lattice as _lattice

        spec = node["from_lattice"]
        p = int(spec["p"])
        ambient = build_module(spec["ambient"], QQ)
        basis = _lattice.lattice_closure(ambient, ambient.hw_vector(), p)
        return _lattice.reduce_mod_p(basis)
    raise ValueError("unknown recipe node %r" % sorted(node))
