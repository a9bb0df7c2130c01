"""Submodule spin-up, irreducibility testing and composition series over
finite fields.

The irreducibility test is Norton's criterion: pick an algebra element z with
nonzero nullspace, spin up every projective point of null(z) in the module
and one nullvector of z^T in the antipode dual.  If a spin closes on a proper
subspace the module is reducible with an explicit witness; if all module-side
points and the dual-side point spin to everything, irreducibility is
certified (if a proper submodule W existed, either null(z) meets W, or z is
invertible on W and then W = zW forces null(z^T) = (zM)° inside W°).  Random
choices only affect how fast a useful z is found, never the verdict; the
escalation order on failure is retry, brute force when feasible, undecided.

Prime fields run on numpy int64 arithmetic mod p; extensions fall back on the
generic exact path.
"""

from __future__ import annotations

import os
import random
import zlib

import numpy as np

from . import linalg
from .exactnum import PrimeField
from .linalg import Mat, NpEchelon
from .looppbw import LOWER, RAISE
from .modrep import (
    drinfeld_polynomial,
    dual,
    ell_hw_vectors,
    ell_weight_decomposition,
    explicit_module,
    generator_exponents,
    label_classes,
    ratio_window,
)

DEFAULT_BRUTE_BOUND = 300000


def brute_bound():
    return int(os.environ.get("HLX_MAX_BRUTE", DEFAULT_BRUTE_BOUND))


def generator_labels(m, r_window=None):
    """Labels for the image-algebra generators: divided powers of the raising
    and lowering generators at p-power exponents across the certified window,
    plus the binom(h, p^j) diagonals."""
    if r_window is None:
        r_window = m.r_window()
    ks = generator_exponents(m.ring.char, m.max_exponent())
    labels = []
    for kind in (LOWER, RAISE):
        for r in range(-r_window, r_window + 1):
            for k in ks:
                labels.append((kind, r, k))
    for k in ks:
        labels.append(("h", 0, k))
    return labels


def generator_set(m, r_window=None):
    """Labelled exact matrices for the generator labels (zero tables dropped)."""
    gens = []
    for label in generator_labels(m, r_window):
        kind, r, k = label
        mat = m.cartan_binom(k) if kind == "h" else m.op(kind, r, k)
        if not mat.is_zero():
            name = "h" if kind == "h" else ("x-" if kind == LOWER else "x+")
            gens.append(((name, r, k), mat))
    return gens


def np_generator_set(m, r_window=None):
    """The same generators as int64 arrays mod p (prime fields only)."""
    out = []
    for label in generator_labels(m, r_window):
        kind, r, k = label
        arr = m.cartan_binom_np(k) if kind == "h" else m.op_np(kind, r, k)
        if arr.any():
            out.append(arr)
    return out


def _seed_from(label, seed):
    return zlib.crc32(repr((label, seed)).encode()) & 0x7FFFFFFF


# ---------------------------------------------------------------------------
# spin-up
# ---------------------------------------------------------------------------


def spin_up(m, vectors, gens=None):
    """Smallest generator-invariant subspace containing the vectors, as an
    echelonized list of rows."""
    if isinstance(m.ring, PrimeField):
        return _spin_up_np(m, vectors, np_generator_set(m))
    if gens is None:
        gens = generator_set(m)
    return _spin_up_generic(m, vectors, [g for _, g in gens])


def _spin_up_np(m, vectors, np_gens):
    p = m.ring.p
    ech = NpEchelon(p, m.dim)
    frontier = []
    for v in vectors:
        arr = np.array([c.v if hasattr(c, "v") else int(c) for c in v], dtype=np.int64) % p
        if ech.add(arr.copy()):
            frontier.append(arr)
    while frontier:
        fmat = np.vstack(frontier)
        new_frontier = []
        for g in np_gens:
            imgs = (fmat @ g.T) % p
            for w in imgs:
                w = w.astype(np.int64)
                if ech.add(w.copy()):
                    new_frontier.append(w)
        frontier = new_frontier
    return _np_rows_to_ring(ech.basis_matrix(), m.ring)


def _np_rows_to_ring(arr, ring):
    return [[ring(int(x)) for x in row] for row in arr]


def _spin_up_generic(m, vectors, gens):
    ring = m.ring
    ech = linalg.Echelon(ring, m.dim)
    frontier = []
    for v in vectors:
        if ech.add(list(v)):
            frontier.append(list(v))
    while frontier:
        new_frontier = []
        for g in gens:
            for v in frontier:
                w = g.apply(v)
                if ech.add(list(w)):
                    new_frontier.append(w)
        frontier = new_frontier
    return [list(r) for r in ech.rows]


# ---------------------------------------------------------------------------
# random algebra elements
# ---------------------------------------------------------------------------


def _random_element_np(np_gens, p, n, rng, max_len=4):
    acc = np.zeros((n, n), dtype=np.int64)
    words = rng.randint(2, 3)
    for _ in range(words):
        word = np.eye(n, dtype=np.int64)
        for _ in range(rng.randint(1, max_len)):
            word = (word @ rng.choice(np_gens)) % p
        acc = (acc + rng.randint(1, p) * word) % p
    return acc


def _choose_singular_np(np_gens, p, n, rng, tries=24):
    """A singular element of the image algebra with small positive nullity;
    shifting a random element by an eigenvalue in F_p keeps it in the algebra
    (the identity is op(·, ·, 0)).  Eigenvalues come ascending from the
    characteristic polynomial, so no field element is tried in vain."""
    best = None
    for _ in range(tries):
        z = _random_element_np(np_gens, p, n, rng)
        for nu in linalg.np_eigenvalues(z, p):
            shifted = (z - nu * np.eye(n, dtype=np.int64)) % p
            ns = linalg.np_nullspace(shifted, p)
            d = ns.shape[0]
            if 0 < d < n:
                if best is None or d < best[2]:
                    best = (shifted, ns, d)
                if d == 1:
                    return best
    return best


# ---------------------------------------------------------------------------
# irreducibility
# ---------------------------------------------------------------------------


def brute_force_irreducible(m, gens=None, bound=None):
    """Spin up every 1-dimensional subspace; irreducible iff all closures are
    the whole module.  Only feasible when |F|^dim is under the bound."""
    ring = m.ring
    if ring.card is None:
        raise ValueError("brute force needs a finite field")
    if bound is None:
        bound = brute_bound()
    if m.dim == 0:
        return True, None
    if ring.card ** m.dim > bound:
        raise ValueError("brute-force bound exceeded: %d^%d > %d" % (ring.card, m.dim, bound))
    if isinstance(ring, PrimeField):
        np_gens = np_generator_set(m)
        for v in _projective_points_np(ring.p, m.dim):
            ech = NpEchelon(ring.p, m.dim)
            ech.add(v.copy())
            if _spin_np_dim(ech, np_gens, ring.p, m.dim) < m.dim:
                witness = _np_rows_to_ring(ech.basis_matrix(), ring)
                return False, witness
        return True, None
    if gens is None:
        gens = generator_set(m)
    mats = [g for _, g in gens]
    for v in _projective_points_generic(ring, m.dim):
        closure = _spin_up_generic(m, [v], mats)
        if len(closure) < m.dim:
            return False, closure
    return True, None


def _spin_np_dim(ech, np_gens, p, n):
    frontier = [row.copy() for row in ech.rows]
    while frontier and ech.dim < n:
        new_frontier = []
        for g in np_gens:
            for v in frontier:
                w = (g @ v) % p
                if ech.add(w.copy()):
                    new_frontier.append(w)
                    if ech.dim == n:
                        return n
        frontier = new_frontier
    return ech.dim


def _projective_points_np(p, n):
    # one representative per line: first nonzero coordinate equals 1
    for lead in range(n):
        tail = n - lead - 1
        for code in range(p ** tail):
            v = np.zeros(n, dtype=np.int64)
            v[lead] = 1
            c = code
            for i in range(tail):
                v[lead + 1 + i] = c % p
                c //= p
            yield v


def _projective_points_generic(ring, n):
    els = ring.elements()
    for lead in range(n):
        tail = n - lead - 1

        def rec(i, acc):
            if i == tail:
                yield list(acc)
                return
            for e in els:
                yield from rec(i + 1, acc + [e])

        for tail_vals in rec(0, []):
            v = [ring.zero] * n
            v[lead] = ring.one
            for i, e in enumerate(tail_vals):
                v[lead + 1 + i] = e
            yield v


class IrreducibilityResult:
    def __init__(self, verdict, certificate):
        self.verdict = verdict  # True / False / None (undecided)
        self.certificate = certificate

    def __bool__(self):
        if self.verdict is None:
            raise ValueError("undecided irreducibility result")
        return self.verdict


def is_irreducible(m, seed=0, max_retries=16, enum_cap=4096):
    """Norton-style test with certificate; never returns a wrong verdict.

    Certificate records the seed, the witness subspace for reducible verdicts
    and the spin evidence for irreducible ones.
    """
    ring = m.ring
    if ring.card is None:
        raise ValueError("irreducibility testing needs a finite field")
    if m.dim == 0:
        return IrreducibilityResult(False, {"reason": "zero module"})
    if m.dim == 1:
        return IrreducibilityResult(True, {"reason": "dimension 1"})
    if not isinstance(ring, PrimeField):
        return _is_irreducible_generic(m, generator_set(m), seed)

    p = ring.p
    np_gens = np_generator_set(m)
    if not np_gens:
        # every operator acts by zero: any line is a submodule
        witness = [[ring.one if j == 0 else ring.zero for j in range(m.dim)]]
        return IrreducibilityResult(
            False, {"reason": "zero action", "witness": _fmt_rows(witness, ring), "witness_dim": 1}
        )
    d = dual(m)
    dual_gens = None
    rng = random.Random(_seed_from("norton", seed))

    for attempt in range(max_retries):
        picked = _choose_singular_np(np_gens, p, m.dim, rng)
        if picked is None:
            continue
        z, nullrows, nullity = picked
        npoints = (p ** nullity - 1) // (p - 1)
        if npoints > enum_cap:
            continue
        # module side: every projective point of null(z)
        for coeffs in _projective_points_np(p, nullity):
            v = (coeffs @ nullrows) % p
            ech = NpEchelon(p, m.dim)
            ech.add(v.copy())
            if _spin_np_dim(ech, np_gens, p, m.dim) < m.dim:
                witness = _np_rows_to_ring(ech.basis_matrix(), ring)
                return IrreducibilityResult(
                    False,
                    {"seed": seed, "attempt": attempt, "witness_dim": ech.dim, "witness": _fmt_rows(witness, ring)},
                )
        # dual side: one nullvector of z^T spun inside the antipode dual
        ns_t = linalg.np_nullspace(z.T % p, p)
        if ns_t.shape[0] == 0:
            continue
        if dual_gens is None:
            dual_gens = np_generator_set(d)
        w = ns_t[0] % p
        ech = NpEchelon(p, m.dim)
        ech.add(w.copy())
        if _spin_np_dim(ech, dual_gens, p, m.dim) < m.dim:
            witness = _np_rows_to_ring(ech.basis_matrix(), ring)
            return IrreducibilityResult(
                False,
                {"seed": seed, "attempt": attempt, "dual_witness_dim": ech.dim, "witness": _fmt_rows(witness, ring)},
            )
        return IrreducibilityResult(
            True,
            {"seed": seed, "attempt": attempt, "nullity": nullity, "points": npoints},
        )
    # escalation: brute force if feasible, else undecided
    try:
        verdict, witness = brute_force_irreducible(m)
        cert = {"method": "brute-force"}
        if witness is not None:
            cert["witness"] = _fmt_rows(witness, ring)
        return IrreducibilityResult(verdict, cert)
    except ValueError:
        return IrreducibilityResult(None, {"reason": "norton retries exhausted, brute force infeasible"})


def _fmt_rows(rows, ring):
    return [[ring.fmt(c) for c in row] for row in rows]


def _is_irreducible_generic(m, gens, seed):
    # small extension fields: go straight to the oracle
    try:
        verdict, witness = brute_force_irreducible(m, gens)
    except ValueError:
        return IrreducibilityResult(None, {"reason": "brute force infeasible over extension field"})
    cert = {"method": "brute-force"}
    if witness is not None:
        cert["witness"] = _fmt_rows(witness, m.ring)
    return IrreducibilityResult(verdict, cert)


# ---------------------------------------------------------------------------
# composition series
# ---------------------------------------------------------------------------


def _homogenize(m, rows):
    """Replace a subspace basis by one whose rows each lie in one grading
    class, returned with the class labels.  Every submodule is weight
    graded; in a labelled module, where every Lambda_r is diagonal, a
    Lambda-stable subspace is moreover the sum of its intersections with the
    joint eigenspaces, the (weight, label) classes.  Raises if the span is
    not graded."""
    ring = m.ring
    if m.labels() is None:
        classes = [
            (None, {i for i, wi in enumerate(m.weights) if wi == w})
            for w in sorted(set(m.weights), reverse=True)
        ]
    else:
        classes = [(label, set(idxs)) for _, label, idxs in label_classes(m)]
    out = []
    out_labels = []
    for label, idxs in classes:
        proj = []
        for row in rows:
            pr = [c if i in idxs else ring.zero for i, c in enumerate(row)]
            if not linalg.vec_is_zero(pr, ring):
                proj.append(pr)
        if proj:
            ech, _ = linalg.rref(proj, ring)
            out.extend(ech)
            out_labels.extend([label] * len(ech))
    if len(out) != len(rows):
        raise ArithmeticError("subspace is not graded by weight and ell-weight")
    return out, out_labels


def _submodule_and_quotient(m, rows):
    """Explicit modules on a graded invariant subspace and its graded
    complement; factors of a labelled module keep their labels."""
    ring = m.ring
    if ring.card is None:
        raise ValueError("chop needs a finite field")
    rows, sub_labels = _homogenize(m, rows)
    sub_weights = []
    for row in rows:
        idx = next(i for i, c in enumerate(row) if not ring.is_zero(c))
        sub_weights.append(m.weights[idx])
    # complement: standard vectors at non-pivot indices, per weight
    _, pivots = linalg.rref(rows, ring)
    comp_idx = [i for i in range(m.dim) if i not in pivots]
    basis_rows = rows + [_unit_row(ring, m.dim, i) for i in comp_idx]
    quot_weights = [m.weights[i] for i in comp_idx]
    big = Mat(ring, basis_rows).transpose()  # change of basis, columns = new basis

    if isinstance(ring, PrimeField):
        p = ring.p
        big_np = linalg.to_np(big)
        big_inv = linalg.np_inverse(big_np, p)

        def in_new_coords(mat):
            # reduce between the products: a chain of two sums n^2 (p-1)^3
            return linalg.from_np(big_inv @ (linalg.to_np(mat) @ big_np % p) % p, ring)

    else:
        from .linalg import solve_right

        def in_new_coords(mat):
            cols = []
            for col in basis_rows:
                img = mat.apply(list(col))
                coords = solve_right(big, img)
                if coords is None:
                    raise ArithmeticError("basis change failed")
                cols.append(coords)
            return Mat(ring, list(zip(*cols)))

    s = len(rows)

    def split(mat):
        full = in_new_coords(mat)
        sub = Mat(ring, [r[:s] for r in full.rows[:s]])
        for r in full.rows[s:]:
            if any(not ring.is_zero(c) for c in r[:s]):
                raise ArithmeticError("claimed subspace is not invariant")
        quot = Mat(ring, [r[s:] for r in full.rows[s:]])
        return sub, quot

    period = ring.card - 1 if m.r_periodic else None

    def sub_op_fn(kind, r, k):
        return split(m.op(kind, r, k))[0]

    def quot_op_fn(kind, r, k):
        return split(m.op(kind, r, k))[1]

    def sub_lam_fn(r):
        return split(m.lam(r))[0]

    def quot_lam_fn(r):
        return split(m.lam(r))[1]

    # subquotient tables are linear images of m's: the ratios carry over, and
    # so do the labels (the quotient basis is unit vectors of m)
    labels = m.labels()
    quot_labels = None if labels is None else [labels[i] for i in comp_idx]
    sub_mod = explicit_module(
        ring, sub_weights, {}, {},
        {"submodule_of": m.recipe}, r_period=period,
        lam_fn=sub_lam_fn, op_fn=sub_op_fn, ratio_fn=m.op_ratios,
        labels=None if labels is None else sub_labels,
    )
    quot_mod = explicit_module(
        ring, quot_weights, {}, {},
        {"quotient_of": m.recipe}, r_period=period,
        lam_fn=quot_lam_fn, op_fn=quot_op_fn, ratio_fn=m.op_ratios,
        labels=quot_labels,
    )
    return sub_mod, quot_mod


def _unit_row(ring, n, i):
    row = [ring.zero] * n
    row[i] = ring.one
    return row


class UndecidedFactor(RuntimeError):
    """A composition factor whose irreducibility stayed undecided."""

    def __init__(self, module, reason):
        super().__init__("undecidable factor of dimension %d: %s" % (module.dim, reason))
        self.module = module
        self.reason = reason

    def to_json(self):
        weights = sorted(self.module.weights, reverse=True)
        return {"dim": self.module.dim, "weights": weights, "reason": self.reason}


class FactorRecord:
    def __init__(self, module, drinfeld=None, ell_weights=None, character=None):
        self.module = module
        self.dim = module.dim
        self.weights = tuple(sorted(module.weights, reverse=True))
        self.drinfeld = drinfeld
        self.ell_weights = ell_weights
        self.character = character

    def signature(self):
        dr = None
        if self.drinfeld is not None:
            dr = tuple(tuple(self.module.ring.fmt(c) for c in f.coeffs) for f in self.drinfeld.polys)
        return (self.dim, self.weights, dr)

    def to_json(self):
        out = {"dim": self.dim, "weights": list(self.weights)}
        if self.drinfeld is not None:
            out["drinfeld"] = self.drinfeld.fmt()
        if self.character is not None:
            out["spectral_character"] = self.character.fmt()
        return out


def chop(m, seed=0, analyze=True):
    """Composition series by recursive splitting; factors come with ell-weight
    data when requested.  Raises UndecidedFactor on a factor whose
    irreducibility cannot be decided."""
    factors = []
    stack = [m]
    while stack:
        cur = stack.pop()
        if cur.dim == 0:
            continue
        res = is_irreducible(cur, seed=seed)
        if res.verdict is None:
            raise UndecidedFactor(cur, res.certificate["reason"])
        if res.verdict:
            factors.append(_analyze_factor(cur) if analyze else FactorRecord(cur))
            continue
        rows = [[cur.ring.parse(c) for c in row] for row in res.certificate["witness"]]
        if "dual_witness_dim" in res.certificate:
            # witness lives in the dual: its annihilator is a submodule
            rows = _annihilator(cur, rows)
        sub, quot = _submodule_and_quotient(cur, rows)
        stack.append(sub)
        stack.append(quot)
    factors.sort(key=lambda f: (f.dim, f.weights))
    return factors


def _annihilator(m, dual_rows):
    ring = m.ring
    ker = linalg.kernel(Mat(ring, dual_rows))
    return ker


def _analyze_factor(mod):
    drin = None
    ells = None
    character = None
    try:
        blocks = ell_weight_decomposition(mod)
        ells = blocks
        from .cartan import CartanData

        a1 = CartanData("A1")
        chars = []
        for b in blocks:
            if b["ell_weight"] is None:
                chars = None
                break
            chars.append(b["ell_weight"].spectral_character(a1))
        if chars:
            if all(c == chars[0] for c in chars):
                character = chars[0]
    except ValueError:
        pass
    try:
        vs = ell_hw_vectors(mod)
        if len(vs) == 1:
            drin, _ = drinfeld_polynomial(mod, vs[0])
    except (ValueError, ArithmeticError):
        drin = None
    return FactorRecord(mod, drinfeld=drin, ell_weights=ells, character=character)


def iso_ell_hw(m1, m2, seed=0):
    """Isomorphism test for irreducibles via Drinfeld polynomials; falls back
    on weight characters plus an intertwiner search."""
    if m1.dim != m2.dim or m1.ring != m2.ring:
        return False
    try:
        p1, _ = drinfeld_polynomial(m1)
        p2, _ = drinfeld_polynomial(m2)
        return p1 == p2
    except (ValueError, ArithmeticError):
        pass
    if m1.weight_multiplicities() != m2.weight_multiplicities():
        return False
    return _hom_space_nonzero(m1, m2)


def _hom_space_nonzero(m1, m2):
    """Solve T op1(g) = op2(g) T for all generators; nonzero solution plus
    irreducibility implies isomorphism (Schur)."""
    ring = m1.ring
    n = m1.dim
    pairs = []
    for label in generator_labels(m1, ratio_window(m1, m2)):
        kind, r, k = label
        if kind == "h":
            pairs.append((m1.cartan_binom(k), m2.cartan_binom(k)))
        else:
            pairs.append((m1.op(kind, r, k), m2.op(kind, r, k)))
    if isinstance(ring, PrimeField):
        p = ring.p
        blocks = []
        for g1, g2 in pairs:
            a1, a2 = linalg.to_np(g1), linalg.to_np(g2)
            # vec(T g1 - g2 T) = (g1^T ⊗ I - I ⊗ g2) vec(T)
            blocks.append(
                (np.kron(a1.T, np.eye(n, dtype=np.int64)) - np.kron(np.eye(n, dtype=np.int64), a2)) % p
            )
        big = np.concatenate(blocks, axis=0)
        return linalg.np_nullspace(big, p).shape[0] > 0
    rows = []
    for g1, g2 in pairs:
        for i in range(n):
            for j in range(n):
                row = [ring.zero] * (n * n)
                for k in range(n):
                    row[i * n + k] = row[i * n + k] + g1[k, j]
                    row[k * n + j] = row[k * n + j] - g2[i, k]
                rows.append(row)
    ker = linalg.kernel(Mat(ring, rows))
    return len(ker) > 0
