"""Cartan matrix and weight lattice bookkeeping, general rank.

Convention: the Cartan matrix C has C[i][j] = alpha_j(h_i), so the j-th
column of C is the j-th simple root written in fundamental-weight
coordinates.  Weights are integer vectors in the fundamental-weight basis,
root vectors are integer vectors in the simple-root basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exactnum import QQ
from .linalg import Mat, det


PRESETS = {
    "A1": [[2]],
    "A2": [[2, -1], [-1, 2]],
    "A3": [[2, -1, 0], [-1, 2, -1], [0, -1, 2]],
    "B2": [[2, -2], [-1, 2]],
    "C2": [[2, -1], [-2, 2]],
    "D4": [[2, 0, -1, 0], [0, 2, -1, 0], [-1, -1, 2, -1], [0, 0, -1, 2]],
}


@dataclass(frozen=True)
class Weight:
    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(int(c) for c in coords))

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Weight(tuple(-a for a in self.coords))

    def scale(self, k):
        return Weight(tuple(k * a for a in self.coords))

    def is_dominant(self):
        return all(c >= 0 for c in self.coords)

    def is_antidominant(self):
        return all(c <= 0 for c in self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class RootVector:
    coords: tuple

    def __init__(self, coords):
        object.__setattr__(self, "coords", tuple(int(c) for c in coords))

    def __add__(self, other):
        return RootVector(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return RootVector(tuple(-a for a in self.coords))

    def is_positive(self):
        return any(self.coords) and all(c >= 0 for c in self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)


@dataclass(frozen=True)
class WeightClass:
    """Residues of a weight modulo the nontrivial invariant factors of C."""

    factors: tuple
    residues: tuple

    def __add__(self, other):
        assert self.factors == other.factors
        return WeightClass(
            self.factors,
            tuple((a + b) % f for a, b, f in zip(self.residues, other.residues, self.factors)),
        )

    def __neg__(self):
        return WeightClass(self.factors, tuple((-a) % f for a, f in zip(self.residues, self.factors)))

    def __sub__(self, other):
        return self + (-other)

    def is_zero(self):
        return all(a == 0 for a in self.residues)


class CartanData:
    def __init__(self, matrix):
        if isinstance(matrix, str):
            matrix = PRESETS[matrix]
        c = [[int(x) for x in row] for row in matrix]
        n = len(c)
        if any(len(row) != n for row in c):
            raise ValueError("Cartan matrix must be square")
        for i in range(n):
            if c[i][i] != 2:
                raise ValueError("diagonal entries must be 2")
            for j in range(n):
                if i != j and c[i][j] > 0:
                    raise ValueError("off-diagonal entries must be <= 0")
                if i != j and (c[i][j] == 0) != (c[j][i] == 0):
                    raise ValueError("zero pattern must be symmetric")
        self.rank = n
        self.matrix = tuple(tuple(row) for row in c)
        self.symmetrizers = self._find_symmetrizers()
        self._check_finite_type()
        self._roots = None
        self._snf = None

    # -- construction checks ------------------------------------------------

    def _find_symmetrizers(self):
        n = self.rank
        d = [Fraction(0)] * n
        d[0] = Fraction(1)
        # propagate along edges: d_i c_ij = d_j c_ji
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    if i != j and self.matrix[i][j] != 0 and d[i] and not d[j]:
                        d[j] = d[i] * self.matrix[i][j] / self.matrix[j][i]
                        changed = True
        if any(x == 0 for x in d):
            # disconnected diagram: seed each component
            for i in range(n):
                if d[i] == 0:
                    d[i] = Fraction(1)
            return self._find_symmetrizers_multi(d)
        return self._normalize_symmetrizers(d)

    def _find_symmetrizers_multi(self, d):
        n = self.rank
        for _ in range(n * n):
            for i in range(n):
                for j in range(n):
                    if i != j and self.matrix[i][j] != 0:
                        want = d[i] * self.matrix[i][j] / self.matrix[j][i]
                        if d[j] != want:
                            d[j] = want
        return self._normalize_symmetrizers(d)

    def _normalize_symmetrizers(self, d):
        mult = 1
        for x in d:
            mult = mult * x.denominator // math.gcd(mult, x.denominator)
        ints = [int(x * mult) for x in d]
        g = 0
        for x in ints:
            g = math.gcd(g, x)
        ints = [x // g for x in ints]
        if any(x <= 0 for x in ints):
            raise ValueError("matrix is not symmetrizable with positive symmetrizers")
        for i in range(self.rank):
            for j in range(self.rank):
                if ints[i] * self.matrix[i][j] != ints[j] * self.matrix[j][i]:
                    raise ValueError("matrix is not symmetrizable")
        return tuple(ints)

    def _check_finite_type(self):
        # D*C positive definite <=> all leading principal minors positive
        n = self.rank
        b = [[Fraction(self.symmetrizers[i] * self.matrix[i][j]) for j in range(n)] for i in range(n)]
        for k in range(1, n + 1):
            sub = [row[:k] for row in b[:k]]
            if det(Mat(QQ, sub)) <= 0:
                raise ValueError("Cartan matrix is not of finite type")

    # -- basic conversions ---------------------------------------------------

    def simple_root_weight(self, i):
        """alpha_i in fundamental-weight coordinates (i-th column of C)."""
        return Weight(tuple(self.matrix[j][i] for j in range(self.rank)))

    def pairing(self, rv, i):
        """alpha(h_i) for alpha given in root coordinates."""
        return sum(self.matrix[i][j] * rv[j] for j in range(self.rank))

    def bilinear(self, rv1, rv2):
        """(alpha, beta) with (alpha_i, alpha_j) = d_i C_ij."""
        return sum(
            self.symmetrizers[i] * self.matrix[i][j] * rv1[i] * rv2[j]
            for i in range(self.rank)
            for j in range(self.rank)
        )

    # -- roots ---------------------------------------------------------------

    def positive_roots(self):
        if self._roots is None:
            simple = [RootVector(tuple(1 if j == i else 0 for j in range(self.rank))) for i in range(self.rank)]
            seen = set(simple)
            frontier = list(simple)
            while frontier:
                nxt = []
                for alpha in frontier:
                    for i in range(self.rank):
                        pair = self.pairing(alpha, i)
                        refl = RootVector(
                            tuple(alpha[j] - (pair if j == i else 0) for j in range(self.rank))
                        )
                        if refl not in seen:
                            seen.add(refl)
                            nxt.append(refl)
                frontier = nxt
            roots = [r for r in seen if r.is_positive()]
            roots.sort(key=lambda r: (sum(r.coords), r.coords))
            self._roots = roots
        return self._roots

    def coroot_coeffs(self, alpha):
        """Coefficients m_i^vee with h_alpha = sum m_i^vee h_i."""
        if alpha not in self.positive_roots():
            raise ValueError("%r is not a positive root" % (alpha,))
        d_alpha = Fraction(self.bilinear(alpha, alpha), 2)
        out = []
        for i, m in enumerate(alpha):
            c = Fraction(self.symmetrizers[i]) / d_alpha * m
            if c.denominator != 1:
                raise ArithmeticError("non-integral coroot coefficient")
            out.append(int(c))
        return RootVector(tuple(out))

    # -- Weyl group ----------------------------------------------------------

    def reflect(self, lam, i):
        """Simple reflection s_i on a weight."""
        c = lam[i]
        if c == 0:
            return lam
        alpha = self.simple_root_weight(i)
        return Weight(tuple(a - c * b for a, b in zip(lam, alpha)))

    def longest_element_action(self, lam):
        """w0 . lam, computed as the unique antidominant Weyl translate."""
        cur = lam
        while True:
            for i in range(self.rank):
                if cur[i] > 0:
                    cur = self.reflect(cur, i)
                    break
            else:
                return cur

    # -- P/Q -----------------------------------------------------------------

    def weight_mod_root_lattice(self):
        """Nontrivial invariant factors of C and the projection data."""
        if self._snf is None:
            d, u = _smith_normal_form([list(row) for row in self.matrix])
            factors = [d[i][i] for i in range(self.rank)]
            keep = [i for i, f in enumerate(factors) if f != 1]
            self._snf = (tuple(abs(factors[i]) for i in keep), tuple(tuple(u[i]) for i in keep))
        return self._snf[0]

    def weight_class(self, lam):
        factors = self.weight_mod_root_lattice()
        rows = self._snf[1]
        residues = tuple(
            sum(r[j] * lam[j] for j in range(self.rank)) % f for r, f in zip(rows, factors)
        )
        return WeightClass(factors, residues)

    # -- base-p digits ---------------------------------------------------------

    def base_p_digits(self, lam, p):
        if not lam.is_dominant():
            raise ValueError("weight must be dominant")
        digits = []
        coords = list(lam.coords)
        while any(coords):
            digits.append(Weight(tuple(c % p for c in coords)))
            coords = [c // p for c in coords]
        if not digits:
            digits = [Weight((0,) * self.rank)]
        return digits

    def to_json(self):
        return {"rank": self.rank, "matrix": [list(r) for r in self.matrix]}


def _smith_normal_form(a):
    """Integer Smith form; returns (D, U) with U*A*V = D, invariant factors on D.

    Only the row transform U is returned (it is what the weight projection
    needs).  Divisibility ordering of the diagonal is enforced.
    """
    n = len(a)
    m = len(a[0]) if a else 0
    a = [list(r) for r in a]
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        a[i], a[j] = a[j], a[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in a:
            r[i], r[j] = r[j], r[i]

    def add_row(src, dst, c):
        a[dst] = [x + c * y for x, y in zip(a[dst], a[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        for r in a:
            r[dst] += c * r[src]

    t = 0
    while t < min(n, m):
        # find minimal nonzero entry in the remaining block
        best = None
        for i in range(t, n):
            for j in range(t, m):
                if a[i][j] != 0 and (best is None or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        done = False
        while not done:
            done = True
            for i in range(t + 1, n):
                if a[i][t] % a[t][t] != 0:
                    add_row(t, i, -(a[i][t] // a[t][t]))
                    swap_rows(t, i)
                    done = False
            for i in range(t + 1, n):
                if a[i][t]:
                    add_row(t, i, -(a[i][t] // a[t][t]))
            for j in range(t + 1, m):
                if a[t][j] % a[t][t] != 0:
                    add_col(t, j, -(a[t][j] // a[t][t]))
                    swap_cols(t, j)
                    done = False
            for j in range(t + 1, m):
                if a[t][j]:
                    add_col(t, j, -(a[t][j] // a[t][t]))
            if done:
                # entry must divide the whole remaining block
                for i in range(t + 1, n):
                    for j in range(t + 1, m):
                        if a[i][j] % a[t][t] != 0:
                            add_row(i, t, 1)
                            done = False
                            break
                    if not done:
                        break
        t += 1
    for i in range(min(n, m)):
        if a[i][i] < 0:
            a[i] = [-x for x in a[i]]
            u[i] = [-x for x in u[i]]
    return a, u
