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
lattice reductions have none and take the matrix path: each block carries
its Lambda series as two coefficient lists, appended to while Lambda_r
leaves the block whole and copied only when it splits, and its ell-weight
is read off them by one Berlekamp-Massey pass over the nonzero
coefficients of the recurrence, so a Frobenius-twisted series costs about
what the untwisted one would.

The same recipes give the ratios of the tables in r (op_ratios), and every
module a recurrence order per divided power (recurrence_order): the tables
of (x±_r)^(k) satisfy a linear recurrence in r of that order, whose
polynomial is monic with a unit constant term.  So the tables at
r = 0..n_k-1 span those at every r (LoopModule.window), and they are the
only loop degrees that spin-up, Norton's test, ell_hw_vectors, the
intertwiner search and the lattice closure read.

Matrices act on column vectors; entry (i, j) is the coefficient of basis
vector i in the image of basis vector j.  Construction is by recipe: hyper
evaluation modules, tensor products via the divided-power comultiplication,
duals via the antipode, Frobenius and parameter twists, straightened Weyl
modules in characteristic zero, and tables computed on demand (lattice
reductions).  A straightened Weyl module straightens only x±_r and h_r at
0 <= r < deg omega, on a window certified by dim W0(omega) = 2^deg omega
(Chari-Pressley); every other table follows from the recurrence that the
ideal sl2 ⊗ omega~(t) C[t, t^-1] gives (_Weyl0).

Every node builds each table once, from its factors' tables, in the
representation linalg.tables(ring) chooses: an array of the int64 kernel
over a finite field, a denominator and integer rows over Q, a Mat over
Q(a, b).  op, lam and cartan_binom box a finite field's array or
a Q table into a Mat on the way out; op_np, lam_np and cartan_binom_np hand
an array over, and op_table, lam_table and _cartan_table any table (the
lattice reads Q tables so).

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
from .exactnum import QQ, FiniteField, Poly, integer_binomial, ring_pow, scalars
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
                # the longest int64 sums are matrix products of dim terms
                check_int64_bound(self.ring, self.dim)
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
        if self.ring.card is not None:
            return from_np(table, self.ring)
        return tables(self.ring).to_mat(table)

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

    def recurrence_order(self, k):
        """n_k: the tables of (x±_r)^(k), both kinds, satisfy a linear
        recurrence in r of order n_k whose polynomial is monic with a unit
        constant term (over Z_(p) when the module is a lattice ambient).
        With ratios C_k it is |C_k|, the polynomial prod_{c in C_k} (x - c);
        every other module says how its recipe gives it (_recurrence_order)."""
        ratios = self.op_ratios(k)
        return self._recurrence_order(k) if ratios is None else len(ratios)

    def window(self, k):
        """range(n_k) for the recurrence order n_k: the loop degrees r whose
        tables of (x±_r)^(k) span those at every r.  The recurrence runs
        forwards, and backwards after dividing by its unit constant term, so
        the n_k tables at r = 0..n_k-1 give every other one."""
        return range(self.recurrence_order(k))

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

    def _recurrence_order(self, k):
        # left(l) (x) right(k - l) is recurrent with the composed product of
        # the two polynomials (its roots multiply), of degree n_L(l) n_R(k - l),
        # monic with a unit constant term; the sum is recurrent with their lcm
        return sum(self.left.recurrence_order(l) * self.right.recurrence_order(k - l) for l in range(k + 1))

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

    def _recurrence_order(self, k):
        return self.inner.recurrence_order(k)

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

    def _recurrence_order(self, k):
        return self.inner.recurrence_order(k // self.pm)

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

    def _recurrence_order(self, k):
        # a^{rk} T_r is recurrent with the roots multiplied by a^k
        return self.inner.recurrence_order(k)

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


class WindowError(ValueError):
    """weyl0 found no certified straightening window: the bound is not
    2^lambda, or a table meets a monomial that the window cannot rewrite."""


class _Weyl0(LoopModule):
    """W0(omega) over a characteristic-zero field, with basis the surviving
    straightening monomials applied to the highest vector.

    The straightening window is worked out, not chosen.  The saturation
    (looppbw.weyl_upper_bound) is at margin 0 and is accepted only when its
    bound is 2^lambda = dim W0(omega), the dimension in characteristic zero
    (Chari-Pressley); the bound is >= dim W0 on every window.  Only the
    k = 1 tables at 0 <= r < lambda are straightened: x-_r by monomial
    merging plus rewrite rules, x+_r and h_r through the symbolic engine
    against the highest-weight data.  A monomial that the window cannot
    rewrite raises WindowError.

    Every other table comes from the reversed polynomial
    omega~(t) = t^lambda omega(1/t) = t^lambda + omega_1 t^{lambda-1} + ...
    + omega_lambda.  J = sl2 ⊗ omega~(t) C[t, t^-1] is a Lie ideal of the
    loop algebra, since [x ⊗ f, y ⊗ g] = [x, y] ⊗ fg.  It kills the highest
    vector v: x+ ⊗ J does; h ⊗ t^s omega~(t) acts by
    sum_i a_i^s omega~(a_i) = 0 over the roots of omega = prod(1 - a_i u);
    and x- ⊗ t^s omega~(t) v = 0 is the Garland relation (k, l) =
    (lambda + 1, lambda) at shift s, (X-(u) Lambda+(u))_{lambda+1} v = 0
    with Lambda_j v = omega_j v (Chari-Pressley 2001).  W0 = U v, so
    J W0 = U J v = 0, and x±_r, h_r act through C[t^±]/(omega~): every
    table T_r of them satisfies

        T_{r+lambda} = -sum_{i=1..lambda} omega_i T_{r+lambda-i}

    forwards, and backwards after dividing by the unit omega_lambda.  In
    characteristic zero (x±_r)^(k) = (x±_r)^k / k!, and the x±_r commute
    among themselves, so the tables of k are recurrent with the
    characteristic polynomial of Sym^k of the companion matrix of omega~:
    order binom(lambda + k - 1, k), monic, with constant term a power of
    ±omega_lambda (recurrence_order).  Lambda_r follows from the commuting
    h tables by Newton's recursion
    Lambda_{±n} = -(1/n) sum_{j=1..n} h_{±j} Lambda_{±(n-j)}."""

    def __init__(self, ring, omega_coeffs):
        if ring.kind not in ("Q", "Sym"):
            # a field of characteristic zero: Newton's recursion divides by n
            raise ValueError("straightened Weyl modules are built over Q or Sym, not %s" % ring.kind)
        self.omega = list(omega_coeffs)
        self.sat = looppbw.weyl_upper_bound(self.omega, ring, max_sweeps=1)
        if self.sat.dimension_bound != 2 ** self.sat.lam:
            raise WindowError("the straightening bound is %d, not 2^%d" % (self.sat.dimension_bound, self.sat.lam))
        lam = self.sat.lam
        self.lam_weight = lam
        self.basis_monomials = list(self.sat.basis)
        self._hs_cache = {}
        weights = [lam - 2 * sum(k for _, k in m) for m in self.basis_monomials]
        recipe = {"weyl0": {"omega": [ring.fmt(c) for c in omega_coeffs]}}
        super().__init__(ring, weights, recipe, hw_index=self.basis_monomials.index(()))

    def _recurrence_order(self, k):
        return 0 if k > self.lam_weight else integer_binomial(self.lam_weight + k - 1, k)

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

    def _reduce(self, vec):
        coords = self.sat.reduce(vec)
        if coords is None:
            raise WindowError("a table leaves the margin-0 straightening window")
        return coords

    def _recur(self, table, r):
        """The table at r from table(s), s in [0, lambda), by the omega~
        recurrence sum_{i=0..lambda} omega_i T_{s+lambda-i} = 0, solved for
        its first term (r >= lambda) or its last (r < 0).  table memoizes,
        and the tables between are asked for in order first, so no call
        recurses more than one step."""
        lam, w, ring = self.lam_weight, self.omega, self.ring
        T = tables(ring)
        if r >= lam:
            for s in range(lam, r):
                table(s)
            lead, rest = ring.one, [(i, r - i) for i in range(1, lam + 1)]
        else:
            for s in range(-1, r, -1):
                table(s)
            lead, rest = w[lam], [(i, r + lam - i) for i in range(lam)]
        terms = [T.scale(table(s), w[i]) for i, s in rest if not ring.is_zero(w[i])]
        if not terms:
            # lambda = 0: the recurrence reads T_r = 0
            return T.zeros(self.dim)
        return T.scale(functools.reduce(T.add, terms), -ring.inv(lead))

    def _op(self, kind, r, k):
        ring = self.ring
        T = tables(ring)
        if k > self.lam_weight:
            return T.zeros(self.dim)
        if k > 1:
            # (x±_r)^(k) = (x±_r)^(k-1) x±_r / k in characteristic zero
            return T.scale(T.mul(self.op_table(kind, r, k - 1), self.op_table(kind, r, 1)), ring.inv(ring.from_int(k)))
        if not 0 <= r < self.lam_weight:
            return self._recur(lambda s: self.op_table(kind, s, 1), r)
        if kind == RAISE:
            return self._symbolic_table(HyperElement.gen(RAISE, r, 1))
        cols = []
        for mono in self.basis_monomials:
            if sum(kk for _, kk in mono) >= self.lam_weight:
                cols.append([ring.zero] * self.dim)
                continue
            merged, coeff = looppbw._merge_lower(mono, ((r, 1),), ring)
            cols.append([coeff * c for c in self._reduce({merged: ring.one})])
        return T.from_rows(list(zip(*cols)), (self.dim, self.dim))

    def _h_table(self, r):
        """h_r, straightened at 0 <= r < lambda and recurrent elsewhere."""

        def build():
            if not 0 <= r < self.lam_weight:
                return self._recur(self._h_table, r)
            return self._symbolic_table(HyperElement.h(r))

        return self._memo(("h_r", r), build)

    def _lam(self, r):
        # Newton's recursion on the h tables, the lower Lambda's first
        T = tables(self.ring)
        sign, n = (1 if r > 0 else -1), abs(r)
        for j in range(1, n):
            self.lam_table(sign * j)
        terms = [T.mul(self._h_table(sign * j), self.lam_table(sign * (n - j))) for j in range(1, n + 1)]
        return T.scale(functools.reduce(T.add, terms), -self.ring.inv(self.ring.from_int(n)))

    def _symbolic_table(self, elem):
        cols = [self._apply_symbolic(elem, mono) for mono in self.basis_monomials]
        return tables(self.ring).from_rows(list(zip(*cols)), (self.dim, self.dim))

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
        return self._reduce(vec)


def _minus_coeffs(omega, ring):
    lead = omega[-1]
    inv = ring.inv(lead)
    return [inv * c for c in reversed(omega)]


def weyl0_module(ring, omega_coeffs):
    """The Weyl module W0(omega) over a field of characteristic zero, omega
    given by its coefficients (constant term 1).  The straightening window
    is certified by dim W0 = 2^deg omega, and the tables away from
    0 <= r < deg omega follow from the omega~ recurrence (_Weyl0)."""
    return _Weyl0(ring, omega_coeffs)


def weyl0_from_roots(ring, roots):
    """W0(prod (1 - a u)) over the roots a, each a unit."""
    f = Poly.const(ring, ring.one)
    for a in roots:
        if not ring.is_unit(a):
            raise ValueError("root must be a unit")
        f = f * Poly(ring, [ring.one, -a])
    return _Weyl0(ring, list(f.coeffs))


# ---------------------------------------------------------------------------
# explicit tables (lattice reductions)
# ---------------------------------------------------------------------------


class _Explicit(LoopModule):
    """Module whose tables come from functions: op_fn(kind, r, k) and
    lam_fn(r) compute them on demand, in the representation of
    linalg.tables(ring) (lattice reductions keep a handle on their ambient
    module this way).  order_fn(k) gives recurrence_order, say the ambient's
    when the tables are its images under a ring map (a reduction mod p);
    ratio_fn gives op_ratios when the tables are linear images of another
    module's, and then their count is the order."""

    def __init__(self, ring, weights, recipe, op_fn, lam_fn, order_fn, hw_index=None, ratio_fn=None):
        super().__init__(ring, weights, recipe, hw_index=hw_index)
        self._op_fn = op_fn
        self._lam_fn = lam_fn
        self._ratio_fn = ratio_fn
        self._order_fn = order_fn

    def _op_ratios(self, k):
        return None if self._ratio_fn is None else self._ratio_fn(k)

    def _recurrence_order(self, k):
        return self._order_fn(k)

    def _op(self, kind, r, k):
        if k > self.max_exponent():
            return tables(self.ring).zeros(self.dim)
        return self._op_fn(kind, r, k)

    def _lam(self, r):
        return self._lam_fn(r)


def explicit_module(ring, weights, recipe, op_fn, lam_fn, order_fn, hw_index=None, ratio_fn=None):
    return _Explicit(ring, weights, recipe, op_fn, lam_fn, order_fn, hw_index=hw_index, ratio_fn=ratio_fn)


# ---------------------------------------------------------------------------
# ell-weight analysis
# ---------------------------------------------------------------------------


def _raising_labels(m):
    # over F_q only p-power exponents k are needed, and for each k only r in
    # m.window(k), whose tables span those of every r
    return [(r, k) for k in generator_exponents(m.ring.char, m.max_exponent()) for r in m.window(k)]


def raising_kernel_np(m):
    """The joint kernel of the raising divided powers (x+_r)^(k) over a
    finite field, as the rows of np_nullspace (one per free column, an
    array of the int64 kernel).  Every raising table sends weight w to
    w + 2, so the stacked tables' reduced echelon rows, and with them these
    rows, are weight vectors."""
    blocks = [t for t in (m.op_np(RAISE, r, k) for r, k in _raising_labels(m)) if t.any()]
    return np_nullspace(np.concatenate(blocks, axis=0), m.ring) if blocks else arrays(m.ring).eye(m.dim)


def ell_hw_vectors(m):
    """Echelonized basis of the joint kernel of the raising divided powers
    (x+_r)^(k)."""
    ring = m.ring
    if ring.card is None:
        rows = [row for r, k in _raising_labels(m) for row in m.op(RAISE, r, k).rows]
        return kernel(Mat(ring, rows or [[ring.zero] * m.dim]))
    return arrays(ring).to_rows(raising_kernel_np(m))


def drinfeld_polynomial(m, v=None):
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
        # v as a dim x 1 table: each Lambda_r is applied in the table
        # representation and only the image column is boxed
        T = tables(ring)
        col = T.from_rows([[c] for c in v], (m.dim, 1))

        def eig(r):
            img = [row[0] for row in m._boxed(T.mul(m.lam_table(r), col)).rows]
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


def ell_weight_decomposition(m):
    """Joint generalized eigenspace decomposition of the Lambda operators,
    refining the weight decomposition.

    Returns a list of blocks {weight, dim, rows, series_plus, series_minus,
    ell_weight} where ell_weight is an EllWeight when the eigenvalue series
    factors over the certified field and None (opaque) otherwise.  A
    labelled module is grouped by label: each block is one (weight, label)
    class with its unit vectors as rows, and the label is its ell-weight.
    Otherwise the weight spaces are split by generalized eigenspaces of
    Lambda_r for r = 1, -1, ..., prec - 1, 1 - prec, with prec the Lambda
    precision: these prec terms of each series already fix its ell-weight
    (_match_ell_weight), so a wider window would split no block further.
    """
    ring = m.ring
    if ring.card is None:
        raise ValueError("ell-weight decomposition needs finite field coefficients")
    prec = m.lam_precision()
    if m.labels() is not None:
        zero, one = ring.zero, ring.one
        parts = (
            (
                w,
                [[zero] * i + [one] + [zero] * (m.dim - 1 - i) for i in idxs],
                (m.label_coefficients(label, 1, prec - 1)[:prec], m.label_coefficients(label, -1, prec - 1)[:prec]),
                label,
            )
            for w, label, idxs in label_classes(m)
        )
    else:
        parts = (
            (w, rows, series, None if series is None else _match_ell_weight(ring, w, *series, prec, m))
            for w, rows, series in _block_refinement(m, prec)
        )
    out = []
    for w, rows, series, ellw in parts:
        series_plus, series_minus = series or (None, None)
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


def _block_refinement(m, prec):
    """Weight blocks refined by the generalized eigenspaces of Lambda_r for
    r = 1, -1, ..., prec - 1, 1 - prec, on arrays: (weight, rows, series)
    with the rows in RREF and the blocks in field-element order of the
    eigenvalues.  series is the pair of eigenvalue lists (plus, minus) from
    u^0, or None (opaque) once some Lambda_r has an eigenvalue outside the
    field.  A block that Lambda_r does not split appends to its own lists;
    a split copies them once per child, at most dim times in all."""
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
            # coordinates against the RREF rows: entries at pivot columns
            coords = imgs[:, pivots]
            if ((K.mul(coords, rows) - imgs) % p).any():
                raise ArithmeticError("weight block is not Lambda invariant")
            rmat = coords.swapaxes(0, 1)  # restricted matrix, column action
            if s == 1:
                kernels, found_total = [(None, K.to_ring(rmat[0, 0]))], 1
            else:
                kernels, found_total, prod = [], 0, K.eye(s)
                # only eigenvalues have a nonzero generalized kernel; they
                # come in field-element order, which keeps the blocks so
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
                # Lambda_r leaves the block whole: it keeps its RREF rows
                # and appends to its own series
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


def _match_ell_weight(ring, w, series_plus, series_minus, prec, m):
    """Identify the rational series omega/pi with wt = w from the plus
    series, and accept it when its closed-form minus series
    (EllWeight.coefficients) is series_minus; None when opaque.

    An ell-weight of the module is omega/pi with deg omega, deg pi <= top,
    the largest |weight|, and prec = 2 top + 2 terms fix it: two such
    quotients that agree to u^prec cross-multiply to polynomials of degree
    < prec, so they are equal.  Berlekamp-Massey gives the shortest linear
    recurrence of the series, pi = C and omega = (S C) mod u^L, which is
    the reduced form (a common factor would give a shorter one).  Any
    quotient of degrees <= top that matches the series is a recurrence of
    length <= top + 1, so none exists when L > top + 1; otherwise it is
    (h omega)/(h pi): it has the same wt, splits exactly when omega, pi and
    h split, and names the same EllWeight, whose pairs cancel h.  So
    searching the denominator degrees dpi = 0..top in turn, solving each
    for pi and accepting the first candidate that factors and passes the
    minus check, accepts this candidate or nothing."""
    top = max((abs(x) for x in m.weights), default=0)
    k = scalars(ring)
    series = [k.lift(c) for c in series_plus[:prec]]
    pi, length = _shortest_recurrence(series, k)
    if length > top + 1:
        return None
    terms = _nonzero_terms(pi, k)
    om = [k.red(sum((c * series[i - j] for j, c in terms if j <= i), k.zero)) for i in range(length)]
    omp, pip = Poly(ring, [k.box(c) for c in om]), Poly(ring, [k.box(c) for c in pi])
    if omp.degree() - pip.degree() != w or max(omp.degree(), pip.degree()) > top:
        return None
    try:
        pairs = list(factor_poly_unit_roots(omp).items())
        pairs += [(a, -mult) for a, mult in factor_poly_unit_roots(pip).items()]
    except ValueError:  # FieldExtensionNeeded included
        return None
    # the minus side: series_minus must be the expansion of omega^-/pi^-
    candidate = EllWeight(ring, pairs)
    if candidate.coefficients(prec - 1, -1) == series_minus:
        return candidate
    return None


def _nonzero_terms(c, k):
    return [(j, cj) for j, cj in enumerate(c) if not k.is_zero(cj)]


def _shortest_recurrence(s, k):
    """(C, L) for the shortest linear recurrence of s by Berlekamp-Massey
    (Massey 1969): C_0 = 1, deg C <= L and sum_j C_j s_{n-j} = 0 for
    L <= n < len(s).  On the reduced scalars of k = exactnum.scalars(ring).
    The sums and updates run over the nonzero coefficients of C and B only,
    so a series supported on multiples of g, whose C is a polynomial in
    u^g, costs about what the series in u^g would."""
    c, b = [k.one], [k.one]  # C now, and C before the last length change
    cterms = bterms = [(0, k.one)]
    length, gap, bd = 0, 1, k.one
    for n in range(len(s)):
        # the discrepancy sum_j C_j s_{n-j}; deg C <= L <= n
        d = k.red(sum((cj * s[n - j] for j, cj in cterms), k.zero))
        if k.is_zero(d):
            gap += 1
            continue
        coef = k.red(d * k.inv(bd))
        old, oldterms = c, cterms
        c = c + [k.zero] * (gap + len(b) - len(c))
        for i, bi in bterms:
            c[i + gap] = k.red(c[i + gap] - coef * bi)
        if 2 * length <= n:
            b, bterms, bd, length, gap = old, oldterms, d, n + 1 - length, 1
        else:
            gap += 1
        del c[length + 1 :]  # zero: deg C <= L
        cterms = _nonzero_terms(c, k)
    return c, length


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
            return weyl0_from_roots(ring, roots)
        coeffs = [ring.parse(s) for s in spec["omega"]]
        return weyl0_module(ring, coeffs)
    if "from_lattice" in node:
        from . import lattice as _lattice

        spec = node["from_lattice"]
        p = int(spec["p"])
        ambient = build_module(spec["ambient"], QQ)
        basis = _lattice.lattice_closure(ambient, ambient.hw_vector(), p)
        return _lattice.reduce_mod_p(basis)
    raise ValueError("unknown recipe node %r" % sorted(node))
