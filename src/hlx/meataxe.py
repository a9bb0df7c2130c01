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

Norton's test runs over prime fields.  Over F_{p^d} the verdict comes from
brute force, spinning up every projective point of every weight space (every
submodule is the sum of its weight spaces), when |F|^dim is within the bound
(HLX_MAX_BRUTE), and is otherwise undecided.  Everything here works on the
int64 array kernel of linalg, one code path for F_p and F_{p^d}; chop cuts
subquotient tables out of the parent's arrays.
"""

from __future__ import annotations

import os
import random
import zlib

import numpy as np

from . import linalg
from .exactnum import PrimeField
from .linalg import NpEchelon, arrays
from .looppbw import LOWER, RAISE
from .modrep import (
    LoopModule,
    common_spectral_character,
    drinfeld_polynomial,
    dual,
    ell_hw_vectors,
    ell_weight_decomposition,
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


def np_generator_set(m, r_window=None):
    """The tables of the generator labels as arrays of the field's int64
    kernel, zero tables dropped."""
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


def spin_up(m, vectors):
    """Smallest generator-invariant subspace containing the vectors, as an
    echelonized list of rows."""
    K = arrays(m.ring)
    ech = NpEchelon(m.ring, m.dim)
    for v in K.from_rows(vectors, (len(vectors), m.dim)):
        ech.add(v)
    _spin_np_dim(ech, np_generator_set(m), K, m.dim)
    return K.to_rows(ech.basis_matrix())


def _spin_np_dim(ech, np_gens, K, n):
    """Spin the echelon's span under the generators until it is invariant
    or reaches dimension n; returns its dimension."""
    frontier = ech.basis_matrix()
    while len(frontier) and ech.dim < n:
        new_frontier = []
        for g in np_gens:
            for w in K.mul(frontier, g.swapaxes(0, 1)):
                if ech.add(w):
                    new_frontier.append(w)
                    if ech.dim == n:
                        return n
        frontier = np.array(new_frontier)
    return ech.dim


def _projective_points_np(K, grades):
    # one representative per line spanned by a vector supported on one grade
    # (grades: a label per coordinate): the first nonzero coordinate equals
    # 1, the later ones of its grade run over the field in index order, the
    # first of them fastest.  Restricted to graded lines this is the order
    # of all lines, so with one grade it enumerates every line.
    n = len(grades)
    table = None
    for lead in range(n):
        tail = [j for j in range(lead + 1, n) if grades[j] == grades[lead]]
        if tail and table is None:
            table = K.from_rows([K.ring.elements()], (1, K.q))[0]
        for code in range(K.q ** len(tail)):
            v = np.zeros((n,) + K.tail, dtype=np.int64)
            v[lead] = K.unit
            c = code
            for j in tail:
                v[j] = table[c % K.q]
                c //= K.q
            yield v


# ---------------------------------------------------------------------------
# random algebra elements
# ---------------------------------------------------------------------------


def _random_element_np(np_gens, K, n, rng):
    acc = K.zeros(n)
    words = rng.randint(2, 3)
    for _ in range(words):
        word = K.eye(n)
        for _ in range(rng.randint(1, 4)):
            word = K.mul(word, rng.choice(np_gens))
        acc = (acc + rng.randint(1, K.p - 1) * word) % K.p
    return acc


def _choose_singular_np(np_gens, F, n, rng):
    """A singular element of the image algebra with small positive nullity;
    shifting a random element by an eigenvalue keeps it in the algebra (the
    identity is op(·, ·, 0)).  Eigenvalues come in field-element order from
    the characteristic polynomial, so no field element is tried in vain."""
    K = arrays(F)
    best = None
    for _ in range(24):
        z = _random_element_np(np_gens, K, n, rng)
        for nu in linalg.np_eigenvalues(z, F):
            shifted = (z - K.emul(K.eye(n), K.coords(nu))) % K.p
            ns = linalg.np_nullspace(shifted, F)
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


def brute_force_irreducible(m, bound=None):
    """Spin up every projective point of every weight space; irreducible iff
    all closures are the whole module.  That is enough: the binom(h, k) lie
    in the hyperalgebra, act diagonally on the basis and separate distinct
    weights, so every submodule is the sum of its weight spaces, and a
    proper nonzero one contains a line of one weight whose spin stays
    proper.  The witness is the one a search over every line finds first:
    the first line there whose spin is proper is a weight vector, since the
    component of its leading coordinate's weight lies in its spin and comes
    no later in that order.  The cost is sum_w (q^{m_w} - 1)/(q - 1) spins
    for weight multiplicities m_w, but feasibility is still |F|^dim within
    the bound, checked before any table is built.  The zero module is not
    irreducible."""
    ring = m.ring
    if ring.card is None:
        raise ValueError("brute force needs a finite field")
    if bound is None:
        bound = brute_bound()
    if m.dim == 0:
        return False, None
    if ring.card ** m.dim > bound:
        raise ValueError("brute-force bound exceeded: %d^%d > %d" % (ring.card, m.dim, bound))
    K = arrays(ring)
    np_gens = np_generator_set(m)
    for v in _projective_points_np(K, m.weights):
        ech = NpEchelon(ring, m.dim)
        ech.add(v)
        if _spin_np_dim(ech, np_gens, K, m.dim) < m.dim:
            return False, K.to_rows(ech.basis_matrix())
    return True, None


class IrreducibilityResult:
    def __init__(self, verdict, certificate):
        self.verdict = verdict  # True / False / None (undecided)
        self.certificate = certificate

    def __bool__(self):
        if self.verdict is None:
            raise ValueError("undecided irreducibility result")
        return self.verdict


def is_irreducible(m, seed=0):
    """Norton-style test with certificate; never returns a wrong verdict.
    Up to 16 singular elements are tried, each with at most 4096 projective
    points in its nullspace.

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
        # no Norton test over extension fields: go straight to the oracle
        return _brute_force_result(m, "brute force infeasible over extension field")

    K = arrays(ring)
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

    for attempt in range(16):
        picked = _choose_singular_np(np_gens, ring, m.dim, rng)
        if picked is None:
            continue
        z, nullrows, nullity = picked
        npoints = (K.q ** nullity - 1) // (K.q - 1)
        if npoints > 4096:
            continue
        # module side: every projective point of null(z)
        for coeffs in _projective_points_np(K, (0,) * nullity):
            ech = NpEchelon(ring, m.dim)
            ech.add(K.mul(coeffs, nullrows))
            if _spin_np_dim(ech, np_gens, K, m.dim) < m.dim:
                witness = K.to_rows(ech.basis_matrix())
                return IrreducibilityResult(
                    False,
                    {"seed": seed, "attempt": attempt, "witness_dim": ech.dim, "witness": _fmt_rows(witness, ring)},
                )
        # dual side: one nullvector of z^T spun inside the antipode dual
        ns_t = linalg.np_nullspace(z.swapaxes(0, 1), ring)
        if ns_t.shape[0] == 0:
            continue
        if dual_gens is None:
            dual_gens = np_generator_set(d)
        ech = NpEchelon(ring, m.dim)
        ech.add(ns_t[0])
        if _spin_np_dim(ech, dual_gens, K, m.dim) < m.dim:
            witness = K.to_rows(ech.basis_matrix())
            return IrreducibilityResult(
                False,
                {"seed": seed, "attempt": attempt, "dual_witness_dim": ech.dim, "witness": _fmt_rows(witness, ring)},
            )
        return IrreducibilityResult(
            True,
            {"seed": seed, "attempt": attempt, "nullity": nullity, "points": npoints},
        )
    # escalation: brute force if feasible, else undecided
    return _brute_force_result(m, "norton retries exhausted, brute force infeasible")


def _brute_force_result(m, infeasible_reason):
    try:
        verdict, witness = brute_force_irreducible(m)
    except ValueError:
        return IrreducibilityResult(None, {"reason": infeasible_reason})
    cert = {"method": "brute-force"}
    if witness is not None:
        cert["witness"] = _fmt_rows(witness, m.ring)
    return IrreducibilityResult(verdict, cert)


def _fmt_rows(rows, ring):
    return [[ring.fmt(c) for c in row] for row in rows]


# ---------------------------------------------------------------------------
# composition series
# ---------------------------------------------------------------------------


def _homogenize(m, rows):
    """Replace a subspace basis (an array) by one whose rows each lie in one
    grading class; returns the rows, their pivot columns and the class
    labels.  Every submodule is weight graded; in a labelled module, where
    every Lambda_r is diagonal, a Lambda-stable subspace is moreover the sum
    of its intersections with the joint eigenspaces, the (weight, label)
    classes.  Raises if the span is not graded."""
    if m.labels() is None:
        classes = [
            (None, [i for i, wi in enumerate(m.weights) if wi == w])
            for w in sorted(set(m.weights), reverse=True)
        ]
    else:
        classes = [(label, idxs) for _, label, idxs in label_classes(m)]
    out = []
    pivots = []
    out_labels = []
    K = arrays(m.ring)
    for label, idxs in classes:
        if not K.nz(rows[:, idxs]).any():
            continue
        proj = np.zeros_like(rows)
        proj[:, idxs] = rows[:, idxs]
        ech, piv = linalg.np_rref(proj, m.ring)
        out.append(ech)
        pivots.extend(piv)
        out_labels.extend([label] * len(piv))
    if len(pivots) != rows.shape[0]:
        raise ArithmeticError("subspace is not graded by weight and ell-weight")
    return np.concatenate(out), pivots, out_labels


class _Subquotient(LoopModule):
    """The submodule (part 0) or the quotient (part 1) of a module on a
    graded invariant subspace.  In the basis of the subspace followed by its
    complement, every table of the parent is block triangular; this module's
    table is a diagonal block, cut on arrays.  The tables are linear images
    of the parent's, so the ratios carry over, and so do the labels."""

    def __init__(self, parent, weights, recipe, change, part, labels):
        super().__init__(parent.ring, weights, recipe)
        self.parent = parent
        self.change = change  # (basis change, its inverse, subspace dim)
        self.part = part
        self.given_labels = labels

    def _cut(self, arr):
        big, big_inv, s = self.change
        K = arrays(self.ring)
        full = K.mul(big_inv, K.mul(arr, big))
        if K.nz(full[s:, :s]).any():
            raise ArithmeticError("claimed subspace is not invariant")
        return full[:s, :s] if self.part == 0 else full[s:, s:]

    def _op(self, kind, r, k):
        if k > self.max_exponent():
            return arrays(self.ring).zeros(self.dim)
        if self.op_ratios(k) is not None:
            # unit ratios: the tables are (q-1)-periodic in r
            r %= self.ring.card - 1
        return self._cut(self.parent.op_table(kind, r, k))

    def _lam(self, r):
        return self._cut(self.parent.lam_table(r))

    def _op_ratios(self, k):
        return self.parent.op_ratios(k)

    def _labels(self):
        return self.given_labels


def _submodule_and_quotient(m, rows):
    """Modules on a graded invariant subspace (rows of ring elements) and on
    its graded complement of unit vectors; factors of a labelled module keep
    their labels."""
    ring = m.ring
    if ring.card is None:
        raise ValueError("chop needs a finite field")
    K = arrays(ring)
    rows, pivots, sub_labels = _homogenize(m, K.from_rows(rows, (len(rows), m.dim)))
    comp_idx = [i for i in range(m.dim) if i not in pivots]
    s = len(pivots)
    basis = np.zeros((m.dim, m.dim) + K.tail, dtype=np.int64)
    basis[:s] = rows
    basis[np.arange(s, m.dim), comp_idx] = K.unit
    big = basis.swapaxes(0, 1)  # change of basis, columns = new basis
    change = (big, linalg.np_inverse(big, ring), s)
    labels = m.labels()
    sub = _Subquotient(
        m, [m.weights[i] for i in pivots], {"submodule_of": m.recipe}, change, 0,
        None if labels is None else sub_labels,
    )
    quot = _Subquotient(
        m, [m.weights[i] for i in comp_idx], {"quotient_of": m.recipe}, change, 1,
        None if labels is None else [labels[i] for i in comp_idx],
    )
    return sub, quot


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
    K = arrays(m.ring)
    return K.to_rows(linalg.np_nullspace(K.from_rows(dual_rows, (len(dual_rows), m.dim)), m.ring))


def _analyze_factor(mod):
    drin = None
    ells = None
    character = None
    try:
        ells = ell_weight_decomposition(mod)
        character = common_spectral_character(ells)
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
    if ring.card is None:
        raise ValueError("the intertwiner search needs a finite field")
    K = arrays(ring)
    eye = K.eye(m1.dim)
    blocks = []
    for kind, r, k in generator_labels(m1, ratio_window(m1, m2)):
        if kind == "h":
            a1, a2 = m1.cartan_binom_np(k), m2.cartan_binom_np(k)
        else:
            a1, a2 = m1.op_np(kind, r, k), m2.op_np(kind, r, k)
        # vec(T g1 - g2 T) = (g1^T ⊗ I - I ⊗ g2) vec(T)
        blocks.append((K.kron(K.transpose(a1), eye) - K.kron(eye, a2)) % K.p)
    return linalg.np_nullspace(np.concatenate(blocks, axis=0), ring).shape[0] > 0
