"""The four benchmark workloads: seeded inputs, one instance runner each, and
expected answers that come from closed forms rather than from hlx.

A workload is a list of instances (plain dicts of parameters plus expected
answers) generated from the seed without importing hlx.  `run_instance`
builds the modules, calls the library, checks every answer and returns True
when the instance was decided, False when the library left it undecided.  A
wrong answer raises `WrongAnswer`.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

# Bound on |F|^dim that the generator uses to place extfield instances.  It is
# the library's default brute-force bound, fixed here so that the inputs do
# not change when the library's bound does.
BRUTE_BOUND = 300000


class WrongAnswer(AssertionError):
    """The library returned an answer that differs from the known one."""


def check(ok, what, inst):
    if not ok:
        raise WrongAnswer("%s: %s" % (what, inst["label"]))


# ---------------------------------------------------------------------------
# closed forms, in plain integers
# ---------------------------------------------------------------------------


def poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def drinfeld_closed_form(pairs, p):
    """Coefficients, constant term first, of prod (1 - a u)^e over (a, e)."""
    out = [1]
    for a, e in pairs:
        for _ in range(e):
            out = poly_mul(out, [1, (-a) % p], p)
    return out


def character_closed_form(pairs):
    """Spectral character of prod omega_{e, a} for sl2: {a: e mod 2}, in the
    form `SpectralCharacter.fmt` prints (zero classes dropped)."""
    acc = {}
    for a, e in pairs:
        acc[a] = acc.get(a, 0) + e
    return {str(a): [e % 2] for a, e in acc.items() if e % 2}


def base_digits(n, p):
    digits = []
    while n:
        digits.append(n % p)
        n //= p
    return digits


def primes_in(lo, hi):
    return [n for n in range(max(lo, 2), hi) if all(n % d for d in range(2, math.isqrt(n) + 1))]


# ---------------------------------------------------------------------------
# grid5: the criterion 4-8 tensor-product grid over F_5
# ---------------------------------------------------------------------------

GRID_P = 5
GRID_SHAPES = [(lam, l) for lam in range(1, GRID_P) for l in (0, 1)]


def _grid_instance(factors):
    p = GRID_P
    irreducible = all(
        (f[1], f[2]) != (g[1], g[2]) for i, f in enumerate(factors) for g in factors[i + 1 :]
    )
    pairs = [(a, lam * p ** l) for lam, l, a in factors]
    return {
        "label": "grid5 %s" % (factors,),
        "factors": factors,
        "dim": math.prod(lam + 1 for lam, _, _ in factors),
        "irreducible": irreducible,
        "drinfeld": drinfeld_closed_form(pairs, p),
        "character": character_closed_form(pairs),
    }


def make_grid5(rng):
    """Every single shape (lambda, l) once, and every unordered pair of
    shapes once, the pairs taking a = b and a != b in turn.  The seed draws
    the parameters a, b in F_5^x and the order of the two factors, so each
    seed samples 44 of the 1056 grid cases with the same mix of dimensions
    and verdicts."""
    units = list(range(1, GRID_P))
    out = []
    for lam, l in GRID_SHAPES:
        out.append(_grid_instance([(lam, l, rng.choice(units))]))
    pairs = [(s1, s2) for i, s1 in enumerate(GRID_SHAPES) for s2 in GRID_SHAPES[i:]]
    for j, (s1, s2) in enumerate(pairs):
        a = rng.choice(units)
        b = a if j % 2 == 0 else rng.choice([u for u in units if u != a])
        pair = [s1 + (a,), s2 + (b,)]
        if rng.random() < 0.5:
            pair.reverse()
        out.append(_grid_instance(pair))
    rng.shuffle(out)
    return out


def run_grid5(inst):
    from hlx import meataxe, modrep
    from hlx.exactnum import PrimeField

    F = PrimeField(GRID_P)
    mods = [
        modrep.frobenius_twist(modrep.eval_weyl_module(F, lam, F(a)), l)
        for lam, l, a in inst["factors"]
    ]
    m = modrep.tensor(*mods) if len(mods) > 1 else mods[0]
    check(m.dim == inst["dim"], "dimension", inst)
    res = meataxe.is_irreducible(m)
    if res.verdict is None:
        return False
    check(res.verdict == inst["irreducible"], "irreducibility verdict", inst)
    _check_one_character(modrep.ell_weight_decomposition(m), inst)
    if inst["irreducible"]:
        _check_drinfeld(modrep.drinfeld_polynomial(m), inst)
        d = modrep.dual(m)
        vs = modrep.ell_hw_vectors(d)
        check(len(vs) == 1, "dual ell-highest-weight space is a line", inst)
        # sl2: the star involution is the identity, so the dual has the same
        # Drinfeld polynomial
        _check_drinfeld(modrep.drinfeld_polynomial(d, vs[0]), inst)
    else:
        factors = meataxe.chop(m)
        check(len(factors) >= 2, "reducible module has several factors", inst)
        check(sum(f.dim for f in factors) == m.dim, "factor dimensions add up", inst)
        for f in factors:
            check(
                f.character is not None and f.character.fmt() == inst["character"],
                "factor spectral character",
                inst,
            )
    return True


def _check_one_character(blocks, inst):
    from hlx.cartan import CartanData

    a1 = CartanData("A1")
    chars = []
    for b in blocks:
        check(b["ell_weight"] is not None, "ell-weight found", inst)
        chars.append(b["ell_weight"].spectral_character(a1).fmt())
    check(bool(chars) and all(c == inst["character"] for c in chars), "one spectral character", inst)


def _check_drinfeld(result, inst):
    poly, checks = result
    check(all(checks.values()), "Drinfeld eigenvalue checks", inst)
    check([c.v for c in poly.polys[0].coeffs] == inst["drinfeld"], "Drinfeld polynomial", inst)


# ---------------------------------------------------------------------------
# bigprime: two-factor tensor products over primes in [100, 500)
# ---------------------------------------------------------------------------

BIG_COUNT = 30
BIG_LO, BIG_HI = 100, 500
BIG_SHAPES = [(l1, l2) for l1 in range(1, 4) for l2 in range(1, 4)]
# instances (by position) whose two factors share their parameter: 12 of 30
BIG_SAME = {i for i in range(BIG_COUNT) if i % 5 in (0, 2)}


def make_bigprime(rng):
    """Thirty W(l1, a) (x) W(l2, b).  Instance i takes its prime from the i-th
    of thirty log-spaced strata of [100, 500), and its shape and whether
    a = b from fixed tables, so every seed has the same mix of window sizes;
    the seed draws the primes and the parameters."""
    out = []
    for i in range(BIG_COUNT):
        lo = round(BIG_LO * (BIG_HI / BIG_LO) ** (i / BIG_COUNT))
        hi = round(BIG_LO * (BIG_HI / BIG_LO) ** ((i + 1) / BIG_COUNT))
        # a stratum narrower than a prime gap offers the next prime instead
        p = rng.choice(primes_in(lo, hi) or primes_in(lo, 2 * lo)[:1])
        l1, l2 = BIG_SHAPES[i % len(BIG_SHAPES)]
        a = rng.randrange(1, p)
        if i in BIG_SAME:
            b = a
            # Clebsch-Gordan: L(l1) (x) L(l2) = sum_j L(l1 + l2 - 2j), as l1 + l2 < p
            tops = [l1 + l2 - 2 * j for j in range(min(l1, l2) + 1)]
            factor_dims = sorted(t + 1 for t in tops)
            factor_drinfeld = sorted(drinfeld_closed_form([(a, t)], p) for t in tops)
        else:
            b = rng.choice([u for u in range(1, p) if u != a])
            factor_dims = [(l1 + 1) * (l2 + 1)]
            factor_drinfeld = [drinfeld_closed_form([(a, l1), (b, l2)], p)]
        out.append(
            {
                "label": "bigprime p=%d W(%d,%d)xW(%d,%d)" % (p, l1, a, l2, b),
                "p": p,
                "factors": [(l1, a), (l2, b)],
                "factor_dims": factor_dims,
                "factor_drinfeld": factor_drinfeld,
                "drinfeld": drinfeld_closed_form([(a, l1), (b, l2)], p),
                "character": character_closed_form([(a, l1), (b, l2)]),
            }
        )
    return out


def run_bigprime(inst):
    from hlx import meataxe, modrep
    from hlx.exactnum import PrimeField

    F = PrimeField(inst["p"])
    (l1, a), (l2, b) = inst["factors"]
    m = modrep.tensor(modrep.eval_weyl_module(F, l1, F(a)), modrep.eval_weyl_module(F, l2, F(b)))
    factors = meataxe.chop(m)
    check(sorted(f.dim for f in factors) == inst["factor_dims"], "composition factor dimensions", inst)
    got = sorted([c.v for c in f.drinfeld.polys[0].coeffs] for f in factors if f.drinfeld is not None)
    check(got == inst["factor_drinfeld"], "factor Drinfeld polynomials", inst)
    _check_one_character(modrep.ell_weight_decomposition(m), inst)
    _check_drinfeld(modrep.drinfeld_polynomial(m), inst)
    return True


# ---------------------------------------------------------------------------
# extfield: Steinberg irreducibles over F_4, F_8, F_9, F_25
# ---------------------------------------------------------------------------

# (p, d, largest lambda) of each field F_q, q = p^d.  Over F_4 the six
# lambda <= 12 of dimension 4 (3, 5, 6, 9, 10, 12) all brute-force the same
# 4^4 vectors at about 1.5 s each; lambda <= 4 keeps one of them.
EXT_FIELDS = ((2, 2, 4), (2, 3, 12), (3, 2, 12), (5, 2, 12))
# |F|^dim in (EXT_CHEAP, BRUTE_BOUND] is left out: brute force there costs
# from 7 s (F_25, lambda=2) to more than 5 min (F_4, lambda=7) per instance
EXT_CHEAP = 1000


def make_extfield(rng):
    """L(lambda, 1) for lambda in 1..12 over F_8, F_9, F_25 and in 1..4
    over F_4, except where 1000 < |F|^dim <= 300000.  Instances above the
    bound are kept: the library leaves them undecided.  The seed only
    orders the instances."""
    out = []
    for p, d, lmax in EXT_FIELDS:
        q = p ** d
        for lam in range(1, lmax + 1):
            dim = math.prod(c + 1 for c in base_digits(lam, p))
            if EXT_CHEAP < q ** dim <= BRUTE_BOUND:
                continue
            out.append(
                {
                    "label": "extfield F_%d L(%d)" % (q, lam),
                    "p": p,
                    "d": d,
                    "lambda": lam,
                    "dim": dim,
                    "drinfeld": drinfeld_closed_form([(1, lam)], p),
                }
            )
    rng.shuffle(out)
    return out


def run_extfield(inst):
    from hlx import meataxe, modrep
    from hlx.exactnum import FiniteField

    F = FiniteField(inst["p"], inst["d"])
    m = modrep.irreducible_module(F, inst["lambda"], F.one)
    check(m.dim == inst["dim"], "dimension from base-p digits", inst)
    res = meataxe.is_irreducible(m)
    check(res.verdict is not False, "Steinberg irreducible reported reducible", inst)
    if res.verdict is None:
        return False
    poly, checks = modrep.drinfeld_polynomial(m)
    check(all(checks.values()), "Drinfeld eigenvalue checks", inst)
    want = [F.from_int(c) for c in inst["drinfeld"]]
    check(list(poly.polys[0].coeffs) == want, "Drinfeld polynomial", inst)
    return True


# ---------------------------------------------------------------------------
# char0: lattices over Z_(p), the worked example, the identity suite
# ---------------------------------------------------------------------------

CHAR0_PRIMES = (2, 3, 5, 7)
CHAR0_DEGMAX = 3
PAPER_MATRIX1 = [["1", "0", "-a**2"], ["0", "1", "2*a"], ["1", "b", "b**2"]]
PAPER_MATRIX2 = [["1", "2*a", "a**2"], ["1", "b", "0"], ["0", "1", "b"]]


def char0_root_sets(p, deg):
    """Root sets per (p, deg): two of degree 1 and 2, and one of degree 3
    at p = 2 and 3 only.  A degree-3 report costs about 1 s at p = 2, 3 and
    about 2 s at p = 5, 7; with the two worked examples (3 s each) the
    latter would make a pass too long to repeat within a run."""
    if deg < CHAR0_DEGMAX:
        return 2
    return 1 if p <= 3 else 0


def make_char0(rng):
    """Conjecture desk tests at p in {2, 3, 5, 7} in degrees 1-2 and at
    p in {2, 3} in degree 3: part (a) roots share one residue, part (b)
    roots have distinct residues (where deg < p).  Roots are r + k p with
    seeded residues r and k in 0..3.  Then the worked example at
    (a, b) = (1, 2) and (1, 4) over p = 3, and the identity suite."""
    out = []
    for p in CHAR0_PRIMES:
        for deg in range(1, CHAR0_DEGMAX + 1):
            shared = [(r, ks) for r in range(1, p) for ks in itertools.combinations(range(4), deg)]
            for j, (r, ks) in enumerate(rng.sample(shared, char0_root_sets(p, deg))):
                out.append(_conjecture_instance(p, [r + k * p for k in ks], part_b=False))
                if 2 <= deg < p and j < 2:
                    rs = rng.sample(range(1, p), deg)
                    roots = [r + rng.randrange(4) * p for r in rs]
                    out.append(_conjecture_instance(p, roots, part_b=True))
    out.append({"label": "char0 paper example (1, 2)", "kind": "paper", "a": "1", "b": "2"})
    out.append({"label": "char0 paper example (1, 4)", "kind": "paper", "a": "1", "b": "4"})
    out.append({"label": "char0 identity suite (5, 2, 6)", "kind": "identities"})
    rng.shuffle(out)
    return out


def _conjecture_instance(p, roots, part_b):
    return {
        "label": "char0 conjecture p=%d roots=%s" % (p, roots),
        "kind": "conjecture",
        "p": p,
        "roots": roots,
        "lower": 2 ** len(roots),
        "part_b": part_b,
    }


def run_char0(inst):
    from hlx import lattice
    from hlx.cli import run_identity_suite

    if inst["kind"] == "conjecture":
        rep = lattice.conjecture_cp0_report([Fraction(r) for r in inst["roots"]], inst["p"])
        check(rep["lower"] == inst["lower"], "lattice rank 2^deg", inst)
        check(rep["upper"] >= rep["lower"], "upper bound above lower bound", inst)
        if inst["part_b"]:
            check(rep.get("part_b", {}).get("equal") is True, "part (b) lattices equal", inst)
        else:
            check("part_b" not in rep, "part (b) only for distinct residues", inst)
        if len(inst["roots"]) <= 2:
            check(rep["status"] == "VERIFIED", "status VERIFIED for deg <= 2", inst)
        return rep["status"] != "OPEN"
    if inst["kind"] == "paper":
        rep = lattice.paper_example_report(3, inst["a"], inst["b"])
        sym = rep["symbolic"]
        check(sym["matrix1"] == PAPER_MATRIX1, "criterion-2 matrix 1", inst)
        check(sym["matrix2"] == PAPER_MATRIX2, "criterion-2 matrix 2", inst)
        check(
            sym["basicrele1"]
            and sym["x1x0_equals_2a_x0sq"]
            and sym["dets_equal_(a-b)^2"]
            and sym["final_relation_x0cubed"],
            "criterion-2 relations and determinant (a-b)^2",
            inst,
        )
        num = rep["numeric"]
        if inst["b"] == "2":
            check(num["residues_distinct"] and num["lattices_equal"], "L = L' for distinct residues", inst)
        else:
            check(num["val_a_minus_b"] == 1 and num["colength"] == 4, "colength 4 when val(a-b) = 1", inst)
        return True
    rep = run_identity_suite(5, 2, 6)
    check(rep["pass"] and len(rep["results"]) > 0, "identity suite passes", inst)
    return True


MAKERS = {"grid5": make_grid5, "bigprime": make_bigprime, "extfield": make_extfield, "char0": make_char0}
RUNNERS = {"grid5": run_grid5, "bigprime": run_bigprime, "extfield": run_extfield, "char0": run_char0}
WORKLOADS = tuple(MAKERS)


def generate(name, seed):
    return MAKERS[name](random.Random("%s:%d" % (name, seed)))


def run_instance(name, inst):
    return RUNNERS[name](inst)


def corrupt(name, inst):
    """The negative control: a copy of the instance with a wrong expected
    answer, which must make the run fail."""
    bad = dict(inst, label=inst["label"] + " (corrupted)")
    if name == "grid5":
        bad["dim"] += 1
    elif name == "bigprime":
        bad["factor_dims"] = sorted(bad["factor_dims"][:-1] + [bad["factor_dims"][-1] + 1])
    elif name == "extfield":
        bad["dim"] += 1
    elif bad["kind"] == "conjecture":
        bad["lower"] += 1
    else:
        return None
    return bad
