"""Exact linear algebra over ring descriptors.

Generic routines work over any field descriptor from exactnum; matrices are
immutable row-tuples.  Prime fields additionally get a numpy int64 fast path
(used by the MeatAxe and the saturation engine) — all arithmetic there is
integer mod p, so it stays exact.
"""

from __future__ import annotations

import numpy as np

from .exactnum import PrimeField, fppoly_roots


class Mat:
    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = tuple(tuple(r) for r in rows)

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring, m, n):
        z = ring.zero
        return cls(ring, [[z] * n for _ in range(m)])

    @classmethod
    def diag(cls, ring, entries):
        z = ring.zero
        n = len(entries)
        return cls(ring, [[entries[i] if i == j else z for j in range(n)] for i in range(n)])

    @property
    def shape(self):
        return (len(self.rows), len(self.rows[0]) if self.rows else 0)

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __add__(self, other):
        return Mat(self.ring, [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        return Mat(self.ring, [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return Mat(self.ring, [[-a for a in r] for r in self.rows])

    def __mul__(self, other):
        m, k = self.shape
        k2, n = other.shape
        assert k == k2, "shape mismatch"
        z = self.ring.zero
        bt = list(zip(*other.rows))
        out = []
        for r in self.rows:
            row = []
            for c in bt:
                acc = z
                for a, b in zip(r, c):
                    acc = acc + a * b
                row.append(acc)
            out.append(row)
        return Mat(self.ring, out)

    def scale(self, c):
        return Mat(self.ring, [[c * a for a in r] for r in self.rows])

    def apply(self, vec):
        """Matrix times column vector (vec given as a flat list)."""
        z = self.ring.zero
        out = []
        for r in self.rows:
            acc = z
            for a, v in zip(r, vec):
                acc = acc + a * v
            out.append(acc)
        return out

    def transpose(self):
        return Mat(self.ring, list(zip(*self.rows)))

    def kron(self, other):
        m, n = self.shape
        p, q = other.shape
        out = []
        for i in range(m):
            for k in range(p):
                row = []
                for j in range(n):
                    a = self.rows[i][j]
                    row.extend(a * b for b in other.rows[k])
                out.append(row)
        return Mat(self.ring, out)

    def is_zero(self):
        return all(self.ring.is_zero(a) for r in self.rows for a in r)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        return hash((self.ring, self.rows))

    def fmt(self):
        return [[self.ring.fmt(a) for a in r] for r in self.rows]

    def __repr__(self):
        return "Mat(%r)" % (self.fmt(),)


def rref(rows, ring):
    """Reduced row echelon form over a field; returns (rows, pivot columns).

    Zero rows are dropped, pivot entries normalized to 1, pivots strictly
    increasing, entries above pivots cleared.
    """
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    out = []
    for col in range(ncols):
        piv = None
        for i, r in enumerate(work):
            if not ring.is_zero(r[col]):
                piv = i
                break
        if piv is None:
            continue
        row = work.pop(piv)
        inv = ring.inv(row[col])
        row = [inv * a for a in row]
        for r in work:
            c = r[col]
            if not ring.is_zero(c):
                for j in range(col, ncols):
                    r[j] = r[j] - c * row[j]
        for r in out:
            c = r[col]
            if not ring.is_zero(c):
                for j in range(col, ncols):
                    r[j] = r[j] - c * row[j]
        out.append(row)
        pivots.append(col)
        if not work:
            break
    return out, pivots


def rank(mat):
    rows, _ = rref(mat.rows, mat.ring)
    return len(rows)


def vec_is_zero(vec, ring):
    return all(ring.is_zero(a) for a in vec)


def reduce_against(vec, basis_rows, pivots, ring):
    """Reduce a vector against echelon rows with known pivot columns."""
    v = list(vec)
    for row, col in zip(basis_rows, pivots):
        c = v[col]
        if not ring.is_zero(c):
            for j in range(len(v)):
                v[j] = v[j] - c * row[j]
    return v


def kernel(mat):
    """Basis of the right kernel {x : A x = 0}, echelonized rows."""
    ring = mat.ring
    m, n = mat.shape
    rows, pivots = rref(mat.rows, ring)
    free = [j for j in range(n) if j not in pivots]
    out = []
    for f in free:
        v = [ring.zero] * n
        v[f] = ring.one
        for row, col in zip(rows, pivots):
            v[col] = -row[f]
        out.append(v)
    return out


def solve_right(a, b):
    """Solve A x = b for one vector b, or return None."""
    ring = a.ring
    m, n = a.shape
    aug = [list(r) + [bv] for r, bv in zip(a.rows, b)]
    rows, pivots = rref(aug, ring)
    x = [ring.zero] * n
    for row, col in zip(rows, pivots):
        if col == n:
            return None
        x[col] = row[n]
    # verify (guards against underdetermined systems with inconsistent residue)
    chk = a.apply(x)
    if any(not ring.is_zero(u - v) for u, v in zip(chk, b)):
        return None
    return x


def det(mat):
    ring = mat.ring
    n, n2 = mat.shape
    assert n == n2
    if n <= 4:
        # permutation expansion keeps this usable over non-field rings
        import itertools

        acc = ring.zero
        for perm in itertools.permutations(range(n)):
            sign = 1
            seen = list(perm)
            for i in range(n):
                for j in range(i + 1, n):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = ring.one
            for i in range(n):
                term = term * mat.rows[i][perm[i]]
            acc = acc + (term if sign == 1 else -term)
        return acc
    # fraction-free would be better in general; field path suffices here
    work = [list(r) for r in mat.rows]
    d = ring.one
    for col in range(n):
        piv = None
        for i in range(col, n):
            if not ring.is_zero(work[i][col]):
                piv = i
                break
        if piv is None:
            return ring.zero
        if piv != col:
            work[col], work[piv] = work[piv], work[col]
            d = -d
        d = d * work[col][col]
        inv = ring.inv(work[col][col])
        for i in range(col + 1, n):
            c = inv * work[i][col]
            if not ring.is_zero(c):
                for j in range(col, n):
                    work[i][j] = work[i][j] - c * work[col][j]
    return d


# ---------------------------------------------------------------------------
# numpy fast path for prime fields
# ---------------------------------------------------------------------------


def is_np_ring(ring):
    return isinstance(ring, PrimeField)


def check_int64_bound(p, n):
    """Refuse a prime for which int64 arithmetic mod p could overflow: the
    numpy path sums up to n products of residues in [0, p)."""
    if n * (p - 1) ** 2 >= 2 ** 63:
        raise ValueError(
            "int64 arithmetic mod %d needs n*(p-1)^2 < 2^63; here n = %d" % (p, n)
        )


def to_np(mat):
    return np.array([[a.v for a in r] for r in mat.rows], dtype=np.int64)


def from_np(arr, ring):
    p = ring.p
    return Mat(ring, [[ring(int(v)) for v in row] for row in (arr % p)])


def np_rref(a, p):
    """RREF mod p of an int64 array; returns (rows, pivots) with zero rows dropped."""
    a = a % p
    m, n = a.shape
    r = 0
    pivots = []
    a = a.copy()
    for col in range(n):
        if r == m:
            break
        nz = np.nonzero(a[r:, col])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, col]), -1, p)
        a[r] = a[r] * inv % p
        mask = np.nonzero(a[:, col])[0]
        mask = mask[mask != r]
        if mask.size:
            a[mask] = (a[mask] - np.outer(a[mask, col], a[r])) % p
        pivots.append(col)
        r += 1
    return a[:r], pivots


def charpoly_mod_p(a, p):
    """Characteristic polynomial det(x I - A) mod p, ascending coefficients.

    A is brought to upper Hessenberg form by similarity; the characteristic
    polynomials of its leading principal blocks then follow a recurrence
    along the subdiagonal (Cohen, A Course in Computational Algebraic Number
    Theory, Algorithm 2.2.9).  Entries are Python ints, so no size of p
    overflows.
    """
    h = [[int(x) % p for x in row] for row in a]
    n = len(h)
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if h[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            h[piv], h[j + 1] = h[j + 1], h[piv]
            for row in h:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(h[j + 1][j], -1, p)
        for i in range(j + 2, n):
            u = h[i][j] * inv % p
            if u:
                # row_i -= u row_{j+1}, then col_{j+1} += u col_i
                hi, hj = h[i], h[j + 1]
                for c in range(j, n):
                    hi[c] = (hi[c] - u * hj[c]) % p
                for row in h:
                    row[j + 1] = (row[j + 1] + u * row[i]) % p
    polys = [[1]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [0] + prev
        for i, c in enumerate(prev):
            cur[i] = (cur[i] - h[m - 1][m - 1] * c) % p
        t = 1
        for i in range(1, m):
            t = t * h[m - i][m - i - 1] % p
            c = h[m - i - 1][m - 1] * t % p
            if c:
                for k, v in enumerate(polys[m - i - 1]):
                    cur[k] = (cur[k] - c * v) % p
        polys.append(cur)
    return polys[n]


def np_eigenvalues(a, p):
    """Eigenvalues of a square matrix that lie in F_p, ascending: the F_p-roots
    of its characteristic polynomial."""
    return fppoly_roots(charpoly_mod_p(a, p), p)


def np_nullspace(a, p):
    """Rows spanning the right kernel mod p."""
    m, n = a.shape
    rows, pivots = np_rref(a, p)
    free = [j for j in range(n) if j not in pivots]
    out = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        out[i, f] = 1
        for row, col in zip(rows, pivots):
            out[i, col] = (-row[f]) % p
    return out


class Echelon:
    """Incremental echelon basis over a field descriptor."""

    __slots__ = ("ring", "n", "rows", "pivots")

    def __init__(self, ring, n):
        self.ring = ring
        self.n = n
        self.rows = []
        self.pivots = []

    def add(self, v):
        ring = self.ring
        v = reduce_against(v, self.rows, self.pivots, ring)
        col = None
        for j, c in enumerate(v):
            if not ring.is_zero(c):
                col = j
                break
        if col is None:
            return False
        inv = ring.inv(v[col])
        v = [inv * c for c in v]
        for row in self.rows:
            c = row[col]
            if not ring.is_zero(c):
                for j in range(self.n):
                    row[j] = row[j] - c * v[j]
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < col:
            idx += 1
        self.rows.insert(idx, list(v))
        self.pivots.insert(idx, col)
        return True

    @property
    def dim(self):
        return len(self.rows)


def np_inverse(a, p):
    """Inverse of a square matrix mod p (raises when singular)."""
    n = a.shape[0]
    aug = np.concatenate([a % p, np.eye(n, dtype=np.int64)], axis=1)
    red, pivots = np_rref(aug, p)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular mod %d" % p)
    return red[:, n:] % p


class NpEchelon:
    """Incremental echelon basis mod p, used by spin-up loops."""

    __slots__ = ("p", "n", "rows", "pivots")

    def __init__(self, p, n):
        self.p = p
        self.n = n
        self.rows = []
        self.pivots = []

    def reduce(self, v):
        v = v % self.p
        for row, col in zip(self.rows, self.pivots):
            c = int(v[col])
            if c:
                v = (v - c * row) % self.p
        return v

    def add(self, v):
        """Reduce v and insert if independent; returns True when rank grew."""
        v = self.reduce(np.asarray(v, dtype=np.int64))
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        col = int(nz[0])
        v = v * pow(int(v[col]), -1, self.p) % self.p
        for row in self.rows:
            c = int(row[col])
            if c:
                row -= c * v
                row %= self.p
        idx = 0
        while idx < len(self.pivots) and self.pivots[idx] < col:
            idx += 1
        self.rows.insert(idx, v)
        self.pivots.insert(idx, col)
        return True

    @property
    def dim(self):
        return len(self.rows)

    def basis_matrix(self):
        if not self.rows:
            return np.zeros((0, self.n), dtype=np.int64)
        return np.vstack(self.rows)
