"""Lattices over the localization of Z at p inside characteristic-zero
modules: closure under the integral form, canonical bases, reduction mod p,
comparison, and the desk workflows built on them.

The ambient module lives over Q with all construction parameters p-units, so
every operator table has p-integral entries and the closure L = U(g~)_A v
stays p-integral.  Canonical form is a Hermite-style echelon over Z_(p):
pivots are the entries of minimal valuation, normalized to powers of p, with
entries above pivots reduced to integer representatives in [0, p^v).

Closure, its invariance check and reduction mod p run on integers.  Each
operator table and the basis are scaled to integer matrices by the least
common denominator of their entries, a p-unit.  The closure applies a
lowering table to the whole basis as one integer product.  One coordinate
map (_coordinates) inverts the pivot block of the canonical basis once and
then takes each operator's images to their coordinates with one product,
an exact span check and a p-power divisibility test: the invariance check
needs only that they pass, the reduction takes the residues.  Python ints
carry every entry, so no size bound applies.
"""

from __future__ import annotations

import functools
from fractions import Fraction

import numpy as np

from . import looppbw, modrep
from .exactnum import QQ, ring_pow, val_p
from .linalg import Mat, rref
from .looppbw import LOWER, RAISE


class LatticeError(ValueError):
    pass


def canonicalize(rows, p, weights=None):
    """Hermite-style canonical form over Z_(p).

    Column order: by (weight descending, index) when weights are given, plain
    index order otherwise.  Pivot policy: entry of minimal valuation in the
    column (ties: earliest remaining row); pivots are normalized to p^v and
    entries above are reduced to nonnegative integer representatives mod p^v.
    """
    work = [list(map(Fraction, r)) for r in rows if any(map(Fraction, r))]
    if not work:
        return []
    n = len(work[0])
    if weights is not None:
        order = sorted(range(n), key=lambda j: (-weights[j], j))
    else:
        order = list(range(n))
    done = []
    for col in order:
        best = None
        for i, r in enumerate(work):
            if r[col] != 0:
                v = val_p(r[col], p)
                if best is None or v < best[1]:
                    best = (i, v)
        if best is None:
            continue
        i0, v0 = best
        assert v0 >= 0, "lattice entries must be p-integral"
        row = work.pop(i0)
        unit = row[col] / Fraction(p) ** v0
        row = [c / unit for c in row]  # pivot becomes exactly p^v0
        support = [j for j in range(n) if row[j]]
        for r in work:
            if r[col] != 0:
                q = r[col] / row[col]
                assert val_p(q, p) >= 0, "pivot was not minimal valuation"
                for j in support:
                    r[j] -= q * row[j]
        for r in done:
            e = r[col]
            if e != 0:
                rep = _canonical_rep(e, p, v0)
                m = (e - rep) / row[col]  # in Z_(p) by construction
                if m:
                    for j in support:
                        r[j] -= m * row[j]
        done.append(row)
    work = [r for r in work if any(r)]
    assert not work, "rows left after elimination"
    return done


def _canonical_rep(e, p, v):
    """Canonical representative of e in Z_(p) modulo p^v Z_(p): the integer
    in [0, p^v); entries above a unit pivot reduce to zero."""
    if v <= 0:
        return Fraction(0)
    assert val_p(e, p) >= 0, "lattice entries must be p-integral"
    pv = p ** v
    binv = pow(e.denominator % pv, -1, pv)
    return Fraction((e.numerator * binv) % pv)


class LatticeBasis:
    """Canonical basis of an A-invariant lattice inside an ambient module."""

    def __init__(self, ambient, p, rows, stable_window):
        self.ambient = ambient
        self.p = p
        self.rows = tuple(tuple(r) for r in rows)
        self.rank = len(self.rows)
        self.stable_window = stable_window
        self._pivots = []
        order = sorted(range(ambient.dim), key=lambda j: (-ambient.weights[j], j))
        used = set()
        for r in self.rows:
            for col in order:
                if r[col] != 0 and col not in used:
                    self._pivots.append(col)
                    used.add(col)
                    break
        self.weights = tuple(ambient.weights[c] for c in self._pivots)

    def coords(self, vec):
        """Coordinates of an ambient vector in the lattice basis over Q, or
        None when the vector is outside the Q-span."""
        v = list(map(Fraction, vec))
        out = []
        for row, col in zip(self.rows, self._pivots):
            c = v[col] / row[col]
            out.append(c)
            if c:
                for j in range(len(v)):
                    v[j] -= c * row[j]
        if any(v):
            return None
        return out

    def contains(self, vec):
        cs = self.coords(vec)
        if cs is None:
            return False
        return all(val_p(c, self.p) >= 0 for c in cs)

    def to_json(self):
        return {
            "ambient": self.ambient.recipe,
            "p": self.p,
            "rank": self.rank,
            "weights": list(self.weights),
            "basis": [[str(Fraction(c)) for c in r] for r in self.rows],
            "stable_window": self.stable_window,
        }


def _check_unit_parameters(m, p):
    """Every parameter in the recipe tree must be a unit in Z_(p)."""

    def walk(node):
        if not isinstance(node, dict):
            return
        for key, val in node.items():
            if key in ("a",) or key == "roots":
                vals = val if isinstance(val, list) else [val]
                for s in vals:
                    q = Fraction(str(s))
                    if q == 0 or val_p(q, p) != 0:
                        raise LatticeError("parameter %s is not a unit in Z_(%d)" % (s, p))
            elif key == "omega":
                lead = Fraction(str(val[-1]))
                if lead == 0 or val_p(lead, p) != 0:
                    raise LatticeError("leading coefficient %s is not a unit in Z_(%d)" % (val[-1], p))
                for s in val:
                    q = Fraction(str(s))
                    if q != 0 and val_p(q, p) < 0:
                        raise LatticeError("coefficient %s is not in Z_(%d)" % (s, p))
            if isinstance(val, dict):
                walk(val)
            elif isinstance(val, list):
                for sub in val:
                    walk(sub)

    walk(m.recipe)


def _integer_rows(rows):
    """(d, integer rows) with rows = integer rows / d, where d is the least
    common denominator of the entries: a p-unit when they are p-integral."""
    from math import lcm

    d = lcm(*(c.denominator for r in rows for c in r))
    return d, [[c.numerator * (d // c.denominator) for c in r] for r in rows]


def _images(rows, table):
    """Row i is the image of rows[i] under the matrix table, on integers."""
    from operator import mul

    return [[sum(map(mul, t, row)) for t in table] for row in rows]


def _table(m, tables, kind, r, k):
    key = (kind, r, k)
    if key not in tables:
        tables[key] = _integer_rows(m.op(kind, r, k).rows)
    return tables[key]


def lattice_closure(m, v, p, max_window=64):
    """L = U(g~)_A v: iterate lowering divided powers over an expanding loop
    window until the canonical form is stable across two increments, then
    verify invariance under raising and Cartan tables as well."""
    if m.ring != QQ:
        raise LatticeError("ambient module must live over the rationals")
    _check_unit_parameters(m, p)
    kmax = max(1, m.max_exponent())
    lam_top = max((abs(w) for w in m.weights), default=0)
    window = max(1, lam_top)
    prev = None
    rows = [list(map(Fraction, v))]
    tables = {}
    while True:
        basis = canonicalize(rows, p, m.weights)
        changed = True
        while changed:
            changed = False
            new_rows = list(basis)
            e, ints = _integer_rows(basis)
            for r in range(-window, window + 1):
                for k in range(1, kmax + 1):
                    d, table = _table(m, tables, LOWER, r, k)
                    for img in _images(ints, table):
                        if any(img):
                            new_rows.append([Fraction(c, e * d) for c in img])
            merged = canonicalize(new_rows, p, m.weights)
            if merged != basis:
                basis = merged
                changed = True
        if prev is not None and basis == prev:
            break
        prev = basis
        window *= 2
        if window > max_window:
            raise LatticeError("closure did not stabilize within window %d" % max_window)
        rows = basis
    lat = LatticeBasis(m, p, prev, window)
    _verify_invariance(m, lat, kmax, tables)
    return lat


def _coordinates(lat):
    """The coordinates of operator images in the lattice basis, on integers.

    Over common denominators the basis B, the inverse T^-1 of its pivot
    block B[:, P] and an operator table M are integer matrices.  The images
    of the basis rows are W = B M^T and their coordinates are
    X = W[:, P] T^-1 (up to the denominators).  Returns a function that maps
    (d, M), the table M / d, to (X, u): the coordinates of the image of
    basis row i are row i of X / u, with u a p-unit.  It raises LatticeError
    when an image leaves the span (X B != W) or a coordinate is not
    p-integral (a p-power does not divide X).
    """
    p = lat.p
    _, basis = _integer_rows(lat.rows)
    pivots = lat._pivots
    n = len(basis)
    # [T | 1] reduces to [1 | T^-1]; T^-1 = inverse / t
    block = [[b[c] for c in pivots] + [int(i == j) for j in range(n)] for i, b in enumerate(basis)]
    t, inverse = _integer_rows([r[n:] for r in rref(block, QQ)[0]])
    inverse_t = list(zip(*inverse))
    basis_t = list(zip(*basis))

    def coordinates(d, table):
        images = _images(basis, table)
        # the coordinates X are coords / (d t)
        coords = _images([[w[c] for c in pivots] for w in images], inverse_t)
        if _images(coords, basis_t) != [[t * c for c in w] for w in images]:
            raise LatticeError("operator leaves the lattice span")
        power = p ** val_p(d * t, p)
        if any(x % power for row in coords for x in row):
            raise LatticeError("operator violates lattice invariance mod %d" % p)
        return [[x // power for x in row] for row in coords], d * t // power

    return coordinates


def _verify_invariance(m, lat, kmax, tables=None):
    """Check that every certified operator maps the lattice into itself:
    the coordinates of the images of the basis rows (_coordinates) lie in
    Z_(p)."""
    if tables is None:
        tables = {}
    window = lat.stable_window
    checks = []
    for kind in (LOWER, RAISE):
        for r in range(-window, window + 1):
            for k in range(1, kmax + 1):
                checks.append(_table(m, tables, kind, r, k))
    for k in range(1, kmax + 1):
        checks.append(_integer_rows(m.cartan_binom(k).rows))
    prec = m.lam_precision()
    for r in range(-prec + 1, prec):
        if r:
            checks.append(_integer_rows(m.lam(r).rows))
    coordinates = _coordinates(lat)
    for d, table in checks:
        try:
            coordinates(d, table)
        except LatticeError:
            raise LatticeError("lattice is not invariant under a certified operator") from None


def reduce_mod_p(lat):
    """L ⊗ F_p as an explicit module: the residues of the coordinates of the
    ambient operators in the lattice basis (_coordinates), each table built
    when it is first asked for.

    The result carries no ratio data, so its r-window is dim^2: expressing
    the ambient tables in the lattice basis can introduce p in denominators
    of the geometric-sequence coefficients, so the residue tables are only
    linearly recurrent in r, not (p-1)-periodic.
    """
    from .exactnum import PrimeField, residue

    m = lat.ambient
    p = lat.p
    F = PrimeField(p)

    coordinates = functools.cache(lambda: _coordinates(lat))

    def residues(mat):
        x, u = coordinates()(*_integer_rows(mat.rows))
        uinv = pow(u, -1, p)
        # column j of the table holds the coordinates of the image of row j
        return np.array([[c * uinv % p for c in col] for col in zip(*x)], dtype=np.int64).reshape(lat.rank, lat.rank)

    def op_fn(kind, r, k):
        return residues(m.op(kind, r, k))

    def lam_fn(r):
        return residues(m.lam(r))

    hw = None
    if m.hw_index is not None:
        coords = lat.coords(m.hw_vector())
        if coords is not None and all(val_p(c, p) >= 0 for c in coords):
            res = [residue(c, p) for c in coords]
            nz = [i for i, c in enumerate(res) if not F.is_zero(c)]
            if len(nz) == 1:
                hw = nz[0]
    return modrep.explicit_module(
        F, list(lat.weights), {"from_lattice": {"ambient": m.recipe, "p": p}}, op_fn, lam_fn, hw_index=hw
    )


class ElementaryDivisors:
    def __init__(self, valuations, direction="L in L'"):
        self.valuations = tuple(sorted(valuations))
        self.direction = direction

    @property
    def total(self):
        return sum(self.valuations)

    def is_equality(self):
        return all(v == 0 for v in self.valuations)

    def to_json(self):
        return {"valuations": list(self.valuations), "total": self.total, "direction": self.direction}


def dvr_smith_valuations(rows, p):
    """Valuations of the Smith normal form over Z_(p) of a matrix of
    rationals with p-integral entries."""
    work = [list(map(Fraction, r)) for r in rows]
    n = len(work)
    mcols = len(work[0]) if work else 0
    out = []
    top = 0
    while top < min(n, mcols):
        best = None
        for i in range(top, n):
            for j in range(top, mcols):
                if work[i][j] != 0:
                    v = val_p(work[i][j], p)
                    if best is None or v < best[2]:
                        best = (i, j, v)
        if best is None:
            break
        i0, j0, v0 = best
        work[top], work[i0] = work[i0], work[top]
        for r in work:
            r[top], r[j0] = r[j0], r[top]
        piv = work[top][top]
        for i in range(top + 1, n):
            if work[i][top] != 0:
                q = work[i][top] / piv
                assert val_p(q, p) >= 0
                for j in range(top, mcols):
                    work[i][j] -= q * work[top][j]
        for j in range(top + 1, mcols):
            if work[top][j] != 0:
                q = work[top][j] / piv
                for i in range(top, n):
                    work[i][j] -= q * work[i][top]
        out.append(v0)
        top += 1
    return out


def compare_lattices(lat1, lat2):
    """Elementary divisor valuations of lat1 inside lat2.

    Requires the same ambient; when lat1 is not contained in lat2 the
    comparison is attempted in the opposite direction.
    """
    if lat1.ambient is not lat2.ambient and lat1.ambient.recipe != lat2.ambient.recipe:
        raise LatticeError("lattices have different ambient modules")
    if lat1.p != lat2.p:
        raise LatticeError("lattices use different primes")
    t = _transition(lat1, lat2)
    if t is not None:
        return ElementaryDivisors(dvr_smith_valuations(t, lat1.p), "L in L'")
    t = _transition(lat2, lat1)
    if t is not None:
        return ElementaryDivisors(dvr_smith_valuations(t, lat1.p), "L' in L")
    raise LatticeError("lattices are not comparable (neither contains the other)")


def _transition(lat1, lat2):
    rows = []
    for r in lat1.rows:
        cs = lat2.coords(list(r))
        if cs is None:
            return None
        if any(val_p(c, lat1.p) < 0 for c in cs):
            return None
        rows.append(cs)
    return rows


def tensor_lattice(lat1, lat2, ambient):
    """L1 ⊗ L2 inside the tensor of the ambient modules, in canonical form."""
    rows = []
    for r1 in lat1.rows:
        for r2 in lat2.rows:
            rows.append([a * b for a in r1 for b in r2])
    basis = canonicalize(rows, lat1.p, ambient.weights)
    return LatticeBasis(ambient, lat1.p, basis, max(lat1.stable_window, lat2.stable_window))


# ---------------------------------------------------------------------------
# desk workflows
# ---------------------------------------------------------------------------


def conjecture_cp0_report(roots, p):
    """Reduction-mod-p test for the Weyl module dimension conjecture.

    roots: distinct units of Z_(p) (as Fractions).  Builds the ambient tensor
    of two-dimensional evaluation Weyl modules (which is W0 of the product
    because the roots are distinct), closes the lattice from the highest
    vector, reduces, and compares the guaranteed lower bound with the
    straightening upper bound for the reduced highest weight.
    """
    from .exactnum import PrimeField, residue

    roots = [Fraction(r) for r in roots]
    if len(set(roots)) != len(roots):
        raise LatticeError("roots must be distinct")
    for r in roots:
        if r == 0 or val_p(r, p) != 0:
            raise LatticeError("roots must be units in Z_(%d)" % p)
    deg = len(roots)
    factors = [modrep.eval_weyl_module(QQ, 1, a) for a in roots]
    ambient = factors[0] if deg == 1 else modrep.tensor(*factors)
    lat = lattice_closure(ambient, ambient.hw_vector(), p)
    lower = lat.rank
    reduced = reduce_mod_p(lat)
    F = PrimeField(p)
    # reduced highest weight: product of (1 - residue(a) u)
    from .exactnum import Poly

    omega_bar = Poly.const(F, F.one)
    for a in roots:
        omega_bar = omega_bar * Poly(F, [F.one, -residue(a, p)])
    sat = looppbw.weyl_upper_bound(list(omega_bar.coeffs), F, max_sweeps=6)
    upper = sat.dimension_bound
    status = "VERIFIED" if (sat.stabilized and upper == lower) else "OPEN"
    report = {
        "omega_roots": [str(r) for r in roots],
        "omega_bar": [F.fmt(c) for c in omega_bar.coeffs],
        "p": p,
        "lower": lower,
        "upper": upper,
        "upper_stabilized": sat.stabilized,
        "status": status,
        "reduced_dim": reduced.dim,
    }
    # part (b): compare U(g~)_A(v1 ⊗ ... ⊗ vm) with the tensor of the factor
    # lattices when the residues are pairwise distinct
    residues = [residue(a, p).v for a in roots]
    if deg >= 2 and len(set(residues)) == len(residues):
        lats = [lattice_closure(f, f.hw_vector(), p) for f in factors]
        big = lats[0]
        amb = factors[0]
        for f, lx in zip(factors[1:], lats[1:]):
            amb = modrep.tensor(amb, f)  # rebuild to keep basis order aligned
            big = tensor_lattice(big, lx, amb)
        # same ambient recipe by construction
        div = compare_lattices(lat, big)
        report["part_b"] = {
            "elementary_divisors": list(div.valuations),
            "equal": div.is_equality(),
        }
    return report


def paper_example_report(p, a_str="1", b_str="2"):
    """The worked example: symbolic unit parameters first, then the numeric
    lattice comparison at the given residues.

    Symbolically (over Q(a, b)): the three-term recursion collapses x-_s v0
    onto {v1, v3}, the degree-two relations collapse products onto v2, both
    3x3 transition matrices have determinant (a-b)^2, and
    (x-_0)^(3)(v0 ⊗ w0) = v2 ⊗ w1.  Numerically (over Z_(p)): L = L' exactly
    when the residues differ; when val(a-b) = 1 the colength is 4.
    """
    from .exactnum import SymField, residue

    K = SymField(("a", "b"))
    a, b = K.var("a"), K.var("b")
    two = K.from_int(2)
    omega = [K.one, -(two * a), a * a]
    w4 = modrep.weyl0_module(K, omega, margin=6)
    assert w4.basis_monomials == [(), ((0, 1),), ((1, 1),), ((0, 2),)]
    v0 = [K.zero] * 4
    v0[0] = K.one

    # (basicrele1): x-_s v0 = s a^{s-1} v3 - (s-1) a^s v1
    rele1 = True
    for s in range(-4, 6):
        img = w4.op(LOWER, s, 1).apply(v0)
        want3 = K.from_int(s) * ring_pow(K, a, s - 1)
        want1 = -(K.from_int(s - 1) * ring_pow(K, a, s))
        if img[2] != want3 or img[1] != want1 or not K.is_zero(img[0]) or not K.is_zero(img[3]):
            rele1 = False
    # x-_1 x-_0 v0 = 2a (x-_0)^(2) v0
    lhs = w4.op(LOWER, 1, 1).apply(w4.op(LOWER, 0, 1).apply(v0))
    rhs = [(two * a) * c for c in w4.op(LOWER, 0, 2).apply(v0)]
    rele3 = lhs == rhs

    m = modrep.tensor(w4, modrep.eval_weyl_module(K, 1, b))
    top = [K.zero] * 8
    top[0] = K.one
    # weight 1 basis rows: v1⊗w0, v3⊗w0, v0⊗w1 -> tensor indices 2, 4, 1
    rows1 = [2, 4, 1]
    cols1 = [m.op(LOWER, r, 1).apply(top) for r in (0, 1, 2)]
    matrix1 = [[cols1[j][i] for j in range(3)] for i in rows1]
    # weight -1 basis rows: v2⊗w0, v1⊗w1, v3⊗w1 -> indices 6, 3, 5
    rows2 = [6, 3, 5]
    images2 = [
        m.op(LOWER, 0, 2).apply(top),
        m.op(LOWER, 1, 1).apply(m.op(LOWER, 0, 1).apply(top)),
        m.op(LOWER, 1, 2).apply(top),
    ]
    matrix2 = [[images2[j][i] for j in range(3)] for i in rows2]
    from .linalg import Mat, det

    det1 = det(Mat(K, matrix1))
    det2 = det(Mat(K, matrix2))
    amb = (a - b) * (a - b)
    # (x-_0)^(3)(v0 ⊗ w0) = v2 ⊗ w1 (tensor index 7)
    final = m.op(LOWER, 0, 3).apply(top)
    final_ok = final[7] == K.one and all(K.is_zero(c) for i, c in enumerate(final) if i != 7)

    report = {
        "symbolic": {
            "basicrele1": rele1,
            "x1x0_equals_2a_x0sq": rele3,
            "matrix1": [[str(c) for c in row] for row in matrix1],
            "matrix2": [[str(c) for c in row] for row in matrix2],
            "det1": str(det1),
            "det2": str(det2),
            "dets_equal_(a-b)^2": det1 == amb and det2 == amb,
            "final_relation_x0cubed": final_ok,
        }
    }

    # numeric lattice comparison over Z_(p)
    av, bv = Fraction(a_str), Fraction(b_str)
    w4n = modrep.weyl0_from_roots(QQ, [av, av], margin=8)
    w2n = modrep.eval_weyl_module(QQ, 1, bv)
    ambn = modrep.tensor(w4n, w2n)
    lat = lattice_closure(ambn, ambn.hw_vector(), p)
    l1 = lattice_closure(w4n, w4n.hw_vector(), p)
    l2 = lattice_closure(w2n, w2n.hw_vector(), p)
    big = tensor_lattice(l1, l2, ambn)
    div = compare_lattices(lat, big)
    from .exactnum import residue as _res

    report["numeric"] = {
        "p": p,
        "a": str(av),
        "b": str(bv),
        "residues_distinct": _res(av, p) != _res(bv, p),
        "val_a_minus_b": (val_p(av - bv, p) if av != bv else None),
        "elementary_divisors": list(div.valuations),
        "colength": div.total,
        "lattices_equal": div.is_equality(),
    }
    return report
