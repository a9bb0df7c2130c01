"""Exact linear algebra over ring descriptors.

Mat is the boxed matrix of any ring descriptor from exactnum (immutable
row-tuples); rref, kernel and det on it serve Q, Z_(p) and Q(a, b).  Its
kron, sums, differences and apply skip the ring operation when an operand is
zero (tested with ring.is_zero), since a Fraction or Q(a, b) product costs
gcds even then; operator tables are mostly zeros.

Every finite field runs on one numpy int64 kernel instead, through the field
object arrays(F).  An element of F_p is an int64 residue mod p; an element of
F_{p^d} (d > 1) is an int64 array with a trailing axis of d coordinates over
the defining polynomial.  Sums and differences are coordinatewise mod p in
both cases; a product is d^2 F_p products plus one reduction by the defining
polynomial, and pivots are inverted by FiniteField.inv.  The routines np_rref,
np_nullspace, np_inverse, np_charpoly, np_eigenvalues and NpEchelon are
written once against that object and take the field where they once took p.
All arithmetic is integer, so it stays exact below the bound that
check_int64_bound enforces.

tables(ring) is the one place that decides how a module's operator tables
are held: the array kernel over a finite field, Mat over the infinite
rings, with the same operations (zeros, eye, diag, add, neg, mul,
transpose, scale, kron) on both.
"""

from __future__ import annotations

import bisect
import functools
import operator

import numpy as np

from .exactnum import FqElem, PrimeField, _Boxed, _ModP, poly_roots


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
        is_zero = self.ring.is_zero
        rows = zip(self.rows, other.rows)
        return Mat(self.ring, [[b if is_zero(a) else a if is_zero(b) else a + b for a, b in zip(*rs)] for rs in rows])

    def __sub__(self, other):
        is_zero = self.ring.is_zero
        rows = zip(self.rows, other.rows)
        return Mat(self.ring, [[a if is_zero(b) else -b if is_zero(a) else a - b for a, b in zip(*rs)] for rs in rows])

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
        is_zero = self.ring.is_zero
        support = [(j, v) for j, v in enumerate(vec) if not is_zero(v)]
        out = []
        for r in self.rows:
            terms = [r[j] * v for j, v in support if not is_zero(r[j])]
            out.append(functools.reduce(operator.add, terms) if terms else self.ring.zero)
        return out

    def transpose(self):
        return Mat(self.ring, list(zip(*self.rows)))

    def kron(self, other):
        is_zero = self.ring.is_zero
        q = other.shape[1]
        masks = [[is_zero(b) for b in rb] for rb in other.rows]
        out = []
        for ra in self.rows:
            for rb, mb in zip(other.rows, masks):
                row = []
                for a in ra:
                    if is_zero(a):
                        row.extend([a] * q)
                    else:
                        row.extend([b if zb else a * b for b, zb in zip(rb, mb)])
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


class Echelon:
    """Incremental echelon basis over a field descriptor."""

    # no caller left: kept because the benchmark tracer resolves Echelon.add

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


# ---------------------------------------------------------------------------
# the int64 kernel for every finite field
# ---------------------------------------------------------------------------


class _Tables:
    """The operations a module table needs, shared by both array kernels:
    matrices are reduced int64 arrays with the kernel's element tail."""

    def zeros(self, n):
        return np.zeros((n, n) + self.tail, dtype=np.int64)

    def eye(self, n):
        out = self.zeros(n)
        out[np.arange(n), np.arange(n)] = self.unit
        return out

    def diag(self, entries):
        """Diagonal matrix of field elements."""
        out = self.zeros(len(entries))
        for i, e in enumerate(entries):
            out[i, i] = self.from_ring(e)
        return out

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return -a % self.p

    def transpose(self, a):
        return np.ascontiguousarray(a.swapaxes(0, 1))

    def scale(self, a, c):
        """A matrix times the field element c."""
        return self.emul(a, self.from_ring(c))

    def kron(self, a, b):
        out = self.emul(a[:, None, :, None], b[None, :, None, :])
        return out.reshape((a.shape[0] * b.shape[0], a.shape[1] * b.shape[1]) + self.tail)


class _FpArrays(_Tables, _ModP):
    """F_p: an element is an int64 residue, a matrix a 2-axis array."""

    d = 1
    tail = ()
    unit = 1

    def mul(self, a, b):
        """Matrix (or matrix-vector) product, reduced."""
        return a @ b % self.p

    def emul(self, x, y):
        """Elementwise product of broadcastable element arrays, reduced."""
        return x * y % self.p

    def submul(self, x, c, y):
        """x - c*y elementwise, reduced."""
        return (x - c * y) % self.p

    def nz(self, a):
        """Which elements of an element array are nonzero."""
        return a != 0

    def inv_elt(self, x):
        return pow(int(x), -1, self.p)

    def coords(self, s):
        """Scalar (see exactnum.scalars) to array element."""
        return s

    def scalar(self, x):
        """Array element to scalar."""
        return int(x)

    def scalar_rows(self, arr):
        """A matrix as nested lists of scalars."""
        return (arr % self.p).tolist()

    def from_ring(self, e):
        return e.v

    def to_ring(self, x):
        return self.ring(int(x))

    def from_rows(self, rows, shape):
        return np.array([[a.v for a in r] for r in rows], dtype=np.int64).reshape(shape)

    def to_rows(self, arr):
        ring = self.ring
        return [[ring(v) for v in row] for row in (arr % self.p).tolist()]


class _FqArrays(_Tables, _Boxed):
    """A FiniteField F_{p^d}: an element carries a trailing axis of d
    coordinates over the defining polynomial f, lowest power first."""

    def __init__(self, ring):
        super().__init__(ring)
        self.d = ring.d
        self.tail = (ring.d,)
        self.low = np.array(ring.poly[:-1], dtype=np.int64)
        self.unit = self.coords(ring.one)

    def _fold(self, c):
        # coefficients of x^0 .. x^(2d-2) to coordinates: from the top,
        # x^s = x^(s-d) x^d and x^d = -(f_0 + f_1 x + ... + f_(d-1) x^(d-1))
        p, d = self.p, self.d
        c %= p
        for s in range(2 * d - 2, d - 1, -1):
            c[..., s - d : s] = (c[..., s - d : s] - c[..., s, None] * self.low) % p
        return np.ascontiguousarray(c[..., :d])

    def mul(self, a, b):
        d = self.d
        out = None
        for i in range(d):
            for j in range(d):
                t = a[..., i] @ b[..., j]
                if out is None:
                    out = np.zeros(np.shape(t) + (2 * d - 1,), dtype=np.int64)
                out[..., i + j] += t
        return self._fold(out)

    def emul(self, x, y):
        d = self.d
        out = np.zeros(np.broadcast_shapes(x.shape[:-1], y.shape[:-1]) + (2 * d - 1,), dtype=np.int64)
        for i in range(d):
            for j in range(d):
                out[..., i + j] += x[..., i] * y[..., j]
        return self._fold(out)

    def submul(self, x, c, y):
        return (x - self.emul(c, y)) % self.p

    def nz(self, a):
        return a.any(axis=-1)

    def inv_elt(self, x):
        return self.coords(self.inv(self.scalar(x)))

    # the scalars are the field's elements
    def from_ring(self, e):
        return np.array(e.coeffs, dtype=np.int64)

    def to_ring(self, x):
        return FqElem(self.ring, x.tolist())

    coords, scalar = from_ring, to_ring

    def scalar_rows(self, arr):
        return self.to_rows(arr)

    def from_rows(self, rows, shape):
        return np.array([[a.coeffs for a in r] for r in rows], dtype=np.int64).reshape(shape + self.tail)

    def to_rows(self, arr):
        ring = self.ring
        return [[FqElem(ring, v) for v in row] for row in (arr % self.p).tolist()]


_ARRAYS = {}


def arrays(F):
    """The array kernel of a finite field: one object per field."""
    K = _ARRAYS.get(F)
    if K is None:
        K = _ARRAYS[F] = _FpArrays(F) if isinstance(F, PrimeField) else _FqArrays(F)
    return K


class _MatTables:
    """The operations of _Tables on Mat, for the infinite rings."""

    add, neg, mul = operator.add, operator.neg, operator.mul
    transpose, scale, kron = staticmethod(Mat.transpose), staticmethod(Mat.scale), staticmethod(Mat.kron)

    def __init__(self, ring):
        self.ring = ring

    def zeros(self, n):
        return Mat.zeros(self.ring, n, n)

    def eye(self, n):
        return Mat.identity(self.ring, n)

    def diag(self, entries):
        return Mat.diag(self.ring, entries)

    def from_rows(self, rows, shape):
        return Mat(self.ring, rows)


def tables(ring):
    """The representation of a module's tables over ring: the array kernel
    of a finite field, Mat over the infinite rings."""
    return arrays(ring) if ring.card is not None else _MatTables(ring)


def check_int64_bound(F, n):
    """Refuse a field for which the int64 kernel could overflow.  Its longest
    sum is one coordinate of a matrix product with n-term rows: over F_{p^d}
    up to d coordinate products of n terms each add into one coefficient of
    the convolution, so n*d products of residues in [0, p).  The reduction by
    the defining polynomial works on reduced coordinates, one product at a
    time."""
    K = arrays(F)
    terms = n * K.d
    if terms * (K.p - 1) ** 2 >= 2 ** 63:
        raise ValueError(
            "int64 arithmetic mod %d needs n*(p-1)^2 < 2^63; here n = %d" % (K.p, terms)
        )


def to_np(mat):
    return arrays(mat.ring).from_rows(mat.rows, mat.shape)


def from_np(arr, ring):
    return Mat(ring, arrays(ring).to_rows(arr))


def np_rref(a, F):
    """RREF of a matrix over a finite field; returns (rows, pivots) with zero
    rows dropped."""
    K = arrays(F)
    a = a % K.p
    m, n = a.shape[:2]
    r = 0
    pivots = []
    for col in range(n):
        if r == m:
            break
        nz = K.nz(a[r:, col]).nonzero()[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = K.emul(a[r], K.inv_elt(a[r, col]))
        mask = K.nz(a[:, col]).nonzero()[0]
        mask = mask[mask != r]
        if mask.size:
            a[mask] = K.submul(a[mask], a[mask, col][:, None], a[r][None])
        pivots.append(col)
        r += 1
    return a[:r], pivots


def np_charpoly(a, F):
    """Characteristic polynomial det(x I - A) over a finite field, ascending
    coefficients as scalars of arrays(F) (exactnum.scalars).

    A is brought to upper Hessenberg form by similarity, on arrays; the
    characteristic polynomials of its leading principal blocks then follow a
    recurrence along the subdiagonal (Cohen, A Course in Computational
    Algebraic Number Theory, Algorithm 2.2.9), in scalars, which over F_p are
    Python ints.
    """
    K = arrays(F)
    p = K.p
    h = a % p
    n = h.shape[0]
    for j in range(n - 2):
        nz = K.nz(h[j + 1 :, j]).nonzero()[0]
        if nz.size == 0:
            continue
        piv = j + 1 + int(nz[0])
        if piv != j + 1:
            h[[j + 1, piv]] = h[[piv, j + 1]]
            h[:, [j + 1, piv]] = h[:, [piv, j + 1]]
        # rows i > j+1 lose u_i row_{j+1}, then col_{j+1} gains sum u_i col_i
        u = K.emul(h[j + 2 :, j], K.inv_elt(h[j + 1, j]))
        h[j + 2 :] = K.submul(h[j + 2 :], u[:, None], h[j + 1][None])
        h[:, j + 1] = (h[:, j + 1] + K.mul(h[:, j + 2 :], u)) % p
    h = K.scalar_rows(h)
    red = K.red
    polys = [[K.one]]
    for m in range(1, n + 1):
        prev = polys[m - 1]
        cur = [K.zero] + prev
        for i, c in enumerate(prev):
            cur[i] = red(cur[i] - h[m - 1][m - 1] * c)
        t = K.one
        for i in range(1, m):
            t = red(t * h[m - i][m - i - 1])
            c = red(h[m - i - 1][m - 1] * t)
            if c:
                for k, v in enumerate(polys[m - i - 1]):
                    cur[k] = red(cur[k] - c * v)
        polys.append(cur)
    return polys[n]


def np_eigenvalues(a, F):
    """Eigenvalues of a square matrix that lie in the field, as scalars in
    ring.index order: the roots of its characteristic polynomial."""
    return poly_roots(np_charpoly(a, F), arrays(F))


def np_nullspace(a, F):
    """Rows spanning the right kernel."""
    K = arrays(F)
    n = a.shape[1]
    rows, pivots = np_rref(a, F)
    free = [j for j in range(n) if j not in pivots]
    out = np.zeros((len(free), n) + K.tail, dtype=np.int64)
    out[np.arange(len(free)), free] = K.unit
    out[:, pivots] = -rows[:, free].swapaxes(0, 1) % K.p
    return out


def np_inverse(a, F):
    """Inverse of a square matrix (raises when singular)."""
    K = arrays(F)
    n = a.shape[0]
    aug = np.concatenate([a % K.p, K.eye(n)], axis=1)
    red, pivots = np_rref(aug, F)
    if pivots[:n] != list(range(n)):
        raise ZeroDivisionError("matrix is singular over %r" % (F,))
    return red[:, n:]


class NpEchelon:
    """Incremental fully reduced echelon basis over a finite field, used by
    spin-up loops.  No row has an entry at another row's pivot, so a vector
    reduces in one product with its pivot coordinates."""

    __slots__ = ("field", "basis", "pivots")

    def __init__(self, F, n):
        self.field = arrays(F)
        self.basis = np.zeros((0, n) + self.field.tail, dtype=np.int64)
        self.pivots = []

    def reduce(self, v):
        K = self.field
        return (v - K.mul(v[self.pivots], self.basis)) % K.p

    def add(self, v):
        """Reduce v and insert if independent; returns True when rank grew."""
        K = self.field
        v = self.reduce(v)
        nz = K.nz(v).nonzero()[0]
        if nz.size == 0:
            return False
        col = int(nz[0])
        v = K.emul(v, K.inv_elt(v[col]))
        basis = K.submul(self.basis, self.basis[:, col][:, None], v[None])
        idx = bisect.bisect(self.pivots, col)
        self.basis = np.concatenate([basis[:idx], v[None], basis[idx:]])
        self.pivots.insert(idx, col)
        return True

    @property
    def dim(self):
        return len(self.pivots)

    def basis_matrix(self):
        return self.basis
