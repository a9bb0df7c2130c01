"""Command-line front end: verification suites with deterministic JSON
reports.

Exit codes: 0 all checks pass, 1 mathematical failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import glob as globmod
import json
import os
import sys
from fractions import Fraction

from . import lattice as latmod
from . import looppbw, meataxe, modrep
from .cartan import base_p_digits
from .drinfeld import SpectralCharacter, block_partition
from .exactnum import FiniteField, PrimeField, is_prime, ring_from_json, ring_pow, val_p


def _emit(report, out=None, force_json=False):
    text = json.dumps(report, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
        if not force_json:
            status = report.get("pass")
            suffix = "" if status is None else (" pass" if status else " FAIL")
            text = "wrote %s%s" % (out, suffix)
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (`hlx ... | head`): the unwritten rest goes to
        # devnull, so the interpreter's final flush cannot raise again, and
        # the command keeps its own exit code
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _field(p, ext_degree=1):
    if ext_degree == 1:
        return PrimeField(p)
    return FiniteField(p, ext_degree)


# ---------------------------------------------------------------------------
# verify-identities
# ---------------------------------------------------------------------------


def run_identity_suite(kmax=3, smax=2, rmax=6, inject_mutant=False):
    results = []

    def record(identity, params, residual_zero, detail=""):
        results.append(
            {
                "identity": identity,
                "params": params,
                "residual": "0" if residual_zero else (detail or "nonzero"),
                "pass": bool(residual_zero),
            }
        )

    for k in range(1, kmax + 1):
        for l in range(1, k + 1):
            for s in range(-smax, smax + 1):
                for sign in (1, -1):
                    res = looppbw.verify_basicrel(k, l, s, sign)
                    record(
                        "basicrel",
                        {"k": k, "l": l, "s": s, "sign": sign},
                        res.is_zero(),
                        res.canonical_str(),
                    )
    for k in range(1, kmax + 2):
        for l in range(1, kmax + 2):
            lhs = looppbw.HyperElement.x_plus(0, l) * looppbw.HyperElement.x_minus(0, k)
            diff = lhs - looppbw.koslem_rhs(k, l)
            record("koslem", {"k": k, "l": l}, diff.is_zero(), diff.canonical_str())
    for r in range(-rmax, rmax + 1):
        ev = looppbw.formal_ev(looppbw.lambda_element(r))
        want = looppbw.ev_lambda_expected(r)
        record("evLambda", {"r": r}, ev == want)
        record("lambda_integrality", {"r": r}, looppbw.z_form_member(looppbw.lambda_element(r)))
    for sign in (1, -1):
        for s in range(1, rmax + 1):
            for k in range(1, rmax + 1):
                if s * k > rmax:
                    continue
                diff = looppbw.tau_twist(looppbw.lambda_element(sign * s), k) - looppbw.lambda_element(
                    sign * s * k
                ).scale(k)
                expansion = looppbw.cartan_to_lambda_monomials(diff)
                ok = all(
                    sum(n for _, n in profile) >= 2 and coeff.denominator == 1
                    for profile, coeff in expansion.items()
                )
                record("ht_snot0", {"s": s, "k": k, "sign": sign}, ok)
    if inject_mutant:
        # negative control: a deliberately broken Garland instance (the
        # coefficient term taken with the wrong sign)
        lhs = looppbw.HyperElement.x_plus(0, 1) * looppbw.HyperElement.x_minus(1, 1)
        wrong = lhs - looppbw.basicrel_coefficient_term(1, 1, 0, 1)  # missing (-1)^l
        res = wrong.strip_raise()
        record("basicrel-mutant", {"k": 1, "l": 1, "s": 0, "sign": 1}, res.is_zero(), res.canonical_str())
    passed = all(r["pass"] for r in results)
    return {"suite": "identities", "results": results, "pass": passed}


# ---------------------------------------------------------------------------
# module reports
# ---------------------------------------------------------------------------


def _reason(exc):
    return "%s: %s" % (type(exc).__name__, exc)


def module_report(m):
    """JSON report of a module; a field that cannot be computed is replaced
    by the reason, under drinfeld_error or ell_weights_error."""
    report = m.to_json()
    report["weight_multiplicities"] = {
        str(w): n for w, n in sorted(m.weight_multiplicities().items())
    }
    try:
        poly, checks = modrep.drinfeld_polynomial(m)
        report["drinfeld"] = poly.fmt()
        report["drinfeld_checks"] = checks
    except (ValueError, ArithmeticError, KeyError) as exc:
        report["drinfeld_error"] = _reason(exc)
    if m.ring.card is None:
        report["ell_weights_error"] = "not computed: the ring is not a finite field"
    elif m.dim > 36:
        report["ell_weights_error"] = "not computed: dimension %d exceeds 36" % m.dim
    else:
        try:
            blocks = modrep.ell_weight_decomposition(m)
            report["ell_weights"] = [
                {
                    "weight": b["weight"],
                    "dim": b["dim"],
                    "ell_weight": None if b["ell_weight"] is None else b["ell_weight"].fmt(),
                }
                for b in blocks
            ]
            character = modrep.common_spectral_character(blocks)
            if character is not None:
                report["spectral_character"] = character.fmt()
        except (ValueError, ArithmeticError) as exc:
            report["ell_weights_error"] = _reason(exc)
    return report


def cmd_module(args):
    with open(args.recipe) as fh:
        recipe = json.load(fh)
    try:
        m = modrep.build_module(recipe)
    except (KeyError, ValueError) as exc:
        print("bad recipe: %s" % exc, file=sys.stderr)
        return 2
    if args.action == "drinfeld":
        try:
            poly, checks = modrep.drinfeld_polynomial(m)
        except (ValueError, ArithmeticError, KeyError) as exc:
            _emit({"recipe": recipe, "drinfeld_error": _reason(exc)}, args.out, args.json)
            return 1
        _emit({"recipe": recipe, "drinfeld": poly.fmt(), "checks": checks}, args.out, args.json)
        return 0 if all(checks.values()) else 1
    if args.action == "chop":
        if m.ring.card is None:
            print("chop needs a finite field", file=sys.stderr)
            return 2
        rep = {"recipe": recipe, "dim": m.dim}
        try:
            factors = meataxe.chop(m, seed=args.seed)
        except meataxe.UndecidedFactor as exc:
            rep["undecided_factor"] = exc.to_json()
            rep["pass"] = False
            _emit(rep, args.out, args.json)
            return 1
        rep["factors"] = [f.to_json() for f in factors]
        _emit(rep, args.out, args.json)
        return 0
    if args.action == "dual":
        m = modrep.dual(m)
    elif args.action == "twist":
        if args.twist_a is None and args.frobenius is None:
            print("twist needs --twist-a or --frobenius", file=sys.stderr)
            return 2
        try:
            if args.twist_a is not None:
                m = modrep.psi_twist(m, m.ring.parse(args.twist_a))
            else:
                m = modrep.frobenius_twist(m, args.frobenius)
        except ValueError as exc:
            print("bad twist: %s" % exc, file=sys.stderr)
            return 2
    _emit(module_report(m), args.out, args.json)
    return 0


# ---------------------------------------------------------------------------
# steinberg
# ---------------------------------------------------------------------------


def run_steinberg(p, lmax, seed=0, ext_degree=1):
    F = _field(p, ext_degree)
    rows = []
    ok = True
    for lam in range(0, lmax + 1):
        digits = base_p_digits(lam, p)
        expected_dim = 1
        for d in digits:
            expected_dim *= d + 1
        m = modrep.irreducible_module(F, lam, F.one)
        res = meataxe.is_irreducible(m, seed=seed)
        try:
            bf, _ = meataxe.brute_force_irreducible(m)
        except ValueError:
            agree = None
        else:
            agree = bf == res.verdict
        entry = {
            "lambda": lam,
            "digits": digits,
            "dim": m.dim,
            "expected_dim": expected_dim,
            "irreducible": res.verdict,
            "brute_force_agrees": agree,
        }
        if res.verdict is None:
            entry["reason"] = res.certificate["reason"]
        if m.dim != expected_dim or res.verdict is not True or agree is False:
            ok = False
        rows.append(entry)
    # negative control for the uniqueness clause: same-level twists of
    # restricted factors are reducible
    negative = []
    for lam in range(1, p):
        for mu in range(1, p):
            m = modrep.tensor(
                modrep.eval_weyl_module(F, lam, F.one), modrep.eval_weyl_module(F, mu, F.one)
            )
            res = meataxe.is_irreducible(m, seed=seed)
            entry = {"lambda": lam, "mu": mu, "reducible": None if res.verdict is None else not res.verdict}
            if res.verdict is None:
                entry["reason"] = res.certificate["reason"]
            negative.append(entry)
            if res.verdict is not False:
                ok = False
    return {"suite": "steinberg", "p": p, "rows": rows, "same_level_reducible": negative, "pass": ok}


# ---------------------------------------------------------------------------
# tensor product theorem grid
# ---------------------------------------------------------------------------


def run_tpd_grid(p, seed=0, max_pairs=None, ext_degree=1):
    F = _field(p, ext_degree)
    units = F.units()
    singles = [(lam, l, a) for lam in range(1, p) for l in (0, 1) for a in units]

    def build(factors):
        mods = []
        for lam, l, a in factors:
            ak = ring_pow(F, a, p ** l)
            mods.append(modrep.frobenius_twist(modrep.eval_weyl_module(F, lam, ak), l))
        return modrep.tensor(*mods) if len(mods) > 1 else mods[0]

    cases = [[f] for f in singles]
    for f1 in singles:
        for f2 in singles:
            cases.append([f1, f2])
    if max_pairs is not None:
        cases = cases[:max_pairs]
    results = []
    ok = True
    for factors in cases:
        m = build(factors)
        expected = True
        for i in range(len(factors)):
            for j in range(i + 1, len(factors)):
                if factors[i][1] == factors[j][1] and factors[i][2] == factors[j][2]:
                    expected = False
        res = meataxe.is_irreducible(m, seed=seed)
        match = res.verdict == expected
        if not match:
            ok = False
        results.append(
            {
                "factors": [{"lambda": lam, "l": l, "a": F.fmt(a)} for lam, l, a in factors],
                "dim": m.dim,
                "expected_irreducible": expected,
                "verdict": res.verdict,
                "match": match,
            }
        )
    return {
        "suite": "tpd-grid",
        "p": p,
        "cases": len(results),
        "mismatches": [r for r in results if not r["match"]],
        "pass": ok,
    }


# ---------------------------------------------------------------------------
# conjecture and paper example
# ---------------------------------------------------------------------------


def run_conjecture(p, degmax):
    reports = []
    ok = True
    for deg in range(1, degmax + 1):
        roots = [Fraction(1 + i * p) for i in range(deg)]
        rep = latmod.conjecture_cp0_report(roots, p)
        reports.append(rep)
        if deg <= 2 and rep["status"] != "VERIFIED":
            ok = False
        # part (b) with distinct residues where the field allows it
        if deg >= 2 and deg < p:
            roots_b = [Fraction(1 + i) for i in range(deg)]
            rep_b = latmod.conjecture_cp0_report(roots_b, p)
            reports.append(rep_b)
            if rep_b.get("part_b") and not rep_b["part_b"]["equal"]:
                ok = False
    return {"suite": "conjecture-cp0", "p": p, "reports": reports, "pass": ok}


# ---------------------------------------------------------------------------
# blocks
# ---------------------------------------------------------------------------


class BadReport(ValueError):
    """A module report that `hlx blocks` cannot read."""


def _read_report(path):
    """(ring, spectral character, recipe) of a module report; all three None
    when the report records no character.  Raises BadReport."""
    try:
        with open(path) as fh:
            rep = json.load(fh)
        if not isinstance(rep, dict):
            raise ValueError("not a JSON object")
        if "spectral_character" not in rep or "ring" not in rep:
            return None, None, None
        chars = rep["spectral_character"]
        if not isinstance(chars, dict):
            raise ValueError("spectral_character is not a JSON object")
        ring = ring_from_json(rep["ring"])
        values = []
        for aa, res in sorted(chars.items()):
            if res not in ([0], [1]) or type(res[0]) is not int:
                raise ValueError("residue %r at %s is not [0] or [1]" % (res, aa))
            a = ring.parse(aa)
            if not ring.is_unit(a):
                raise ValueError("parameter %s is not a unit" % aa)
            if any(a == b for b, _ in values):
                raise ValueError("parameter %s repeats an earlier one" % aa)
            values.append((a, res[0]))
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError) as exc:
        raise BadReport("bad report %s: %s" % (path, _reason(exc))) from exc
    return ring, SpectralCharacter(ring, values), rep.get("recipe")


def run_blocks(report_paths):
    entries = []
    recipes = []
    for path in report_paths:
        ring, chi, recipe = _read_report(path)
        if ring is not None:
            recipes.append((path, recipe, ring))
        entries.append((path, chi))
    if not recipes:
        return {"suite": "blocks", "groups": [], "flagged": [lab for lab, _ in entries], "pass": False}
    groups, flagged = block_partition(entries)
    report = {
        "suite": "blocks",
        "groups": [
            {"character": g["character"].fmt(), "members": g["members"]} for g in groups
        ],
        "flagged": flagged,
    }
    # sampled pair checks: tensor additivity and dual negation of characters
    checks = []
    ok = True
    # every recipe must build; the first three take part in the pair checks
    modules = []
    for label, recipe, rg in recipes:
        if recipe is None:
            continue
        try:
            modules.append((label, modrep.build_module({"ring": rg.to_json(), "build": recipe})))
        except (KeyError, ValueError) as exc:
            raise BadReport("bad report %s: bad recipe: %s" % (label, _reason(exc))) from exc
    built = []
    for label, m in modules[:3]:
        chi = _module_character(m)
        if chi is None:
            continue
        built.append((label, m, chi))
        dchi = _module_character(modrep.dual(m))
        dual_ok = dchi is not None and dchi == -chi
        checks.append({"member": label, "dual_negation": dual_ok})
        if not dual_ok:
            ok = False
    for i in range(len(built)):
        for j in range(i + 1, len(built)):
            l1, m1, c1 = built[i]
            l2, m2, c2 = built[j]
            ct = _module_character(modrep.tensor(m1, m2))
            add_ok = ct is not None and ct == c1 + c2
            checks.append({"pair": [l1, l2], "tensor_additive": add_ok})
            if not add_ok:
                ok = False
    report["pair_checks"] = checks
    report["pass"] = ok and not flagged
    return report


def _module_character(m):
    try:
        blocks = modrep.ell_weight_decomposition(m)
    except (ValueError, ArithmeticError):
        return None
    return modrep.common_spectral_character(blocks)


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------


def cmd_lattice(args):
    with open(args.recipe) as fh:
        recipe = json.load(fh)
    try:
        m = modrep.build_module({"ring": {"kind": "Q"}, "build": recipe.get("build", recipe)})
    except (KeyError, ValueError) as exc:
        print("bad recipe: %s" % exc, file=sys.stderr)
        return 2
    try:
        lat = latmod.lattice_closure(m, m.hw_vector(), args.p)
    except ValueError as exc:  # LatticeError, WindowError, or no highest vector
        print("lattice error: %s" % exc, file=sys.stderr)
        return 1
    rep = lat.to_json()
    if args.reduce:
        red = latmod.reduce_mod_p(lat)
        rep["reduction"] = module_report(red)
    _emit(rep, args.out, args.json)
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def make_parser():
    ap = argparse.ArgumentParser(prog="hlx", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_id = sub.add_parser("verify-identities", help="symbolic identity suite")
    p_id.add_argument("--kmax", type=int, default=3)
    p_id.add_argument("--smax", type=int, default=2)
    p_id.add_argument("--rmax", type=int, default=6)
    p_id.add_argument("--seed", type=int, default=0)
    p_id.add_argument("--out")
    p_id.add_argument("--json", action="store_true")
    p_id.add_argument("--inject-mutant", action="store_true")

    p_mod = sub.add_parser("module", help="build and analyze modules from recipes")
    p_mod.add_argument("action", choices=["build", "chop", "drinfeld", "dual", "twist"])
    p_mod.add_argument("--recipe", required=True)
    p_mod.add_argument("--seed", type=int, default=0)
    p_mod.add_argument("--twist-a")
    p_mod.add_argument("--frobenius", type=int)
    p_mod.add_argument("--out")
    p_mod.add_argument("--json", action="store_true")

    p_st = sub.add_parser("steinberg", help="Steinberg factorization table")
    p_st.add_argument("--p", type=int, required=True)
    p_st.add_argument("--ext-degree", type=int, default=1)
    p_st.add_argument("--lmax", type=int, default=8)
    p_st.add_argument("--seed", type=int, default=0)
    p_st.add_argument("--out")
    p_st.add_argument("--json", action="store_true")

    p_tpd = sub.add_parser("tpd-grid", help="tensor product irreducibility grid")
    p_tpd.add_argument("--p", type=int, required=True)
    p_tpd.add_argument("--ext-degree", type=int, default=1)
    p_tpd.add_argument("--seed", type=int, default=0)
    p_tpd.add_argument("--max-pairs", type=int)
    p_tpd.add_argument("--out")
    p_tpd.add_argument("--json", action="store_true")

    p_cj = sub.add_parser("conjecture-cp0", help="reduction mod p dimension test")
    p_cj.add_argument("--p", type=int, required=True)
    p_cj.add_argument("--degmax", type=int, default=3)
    p_cj.add_argument("--out")
    p_cj.add_argument("--json", action="store_true")

    p_pe = sub.add_parser("paper-example", help="the worked lattice example")
    p_pe.add_argument("--p", type=int, default=3)
    p_pe.add_argument("--a", default="1")
    p_pe.add_argument("--b", default="2")
    p_pe.add_argument("--out")
    p_pe.add_argument("--json", action="store_true")

    p_bl = sub.add_parser("blocks", help="group module reports by spectral character")
    p_bl.add_argument("reports", nargs="+")
    p_bl.add_argument("--out")
    p_bl.add_argument("--json", action="store_true")

    p_lat = sub.add_parser("lattice", help="lattice closure and reduction")
    p_lat.add_argument("--recipe", required=True)
    p_lat.add_argument("--p", type=int, required=True)
    p_lat.add_argument("--reduce", action="store_true")
    p_lat.add_argument("--out")
    p_lat.add_argument("--json", action="store_true")
    return ap


def main(argv=None):
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "p", None) is not None and not is_prime(args.p):
        print("--p must be a prime, got %d" % args.p, file=sys.stderr)
        return 2
    # a suite with no cases would pass vacuously, a negative --max-pairs
    # would drop cases from the end and a negative --smax every Garland case
    least = {
        "steinberg": [("lmax", 0)],
        "conjecture-cp0": [("degmax", 1)],
        "tpd-grid": [("max_pairs", 1)],
        "verify-identities": [("kmax", 1), ("smax", 0), ("rmax", 0)],
    }
    for dest, low in least.get(args.command, ()):
        value = getattr(args, dest)
        if value is not None and value < low:
            print("--%s must be at least %d, got %d" % (dest.replace("_", "-"), low, value), file=sys.stderr)
            return 2
    if getattr(args, "ext_degree", 1) not in range(1, 5):
        print("--ext-degree must be in [1, 4], got %d" % args.ext_degree, file=sys.stderr)
        return 2
    if args.command == "paper-example":
        for flag, text in (("a", args.a), ("b", args.b)):
            try:
                unit = val_p(Fraction(text), args.p) == 0
            except (ValueError, ZeroDivisionError):
                unit = False
            if not unit:
                print("--%s must be a unit of Z_(%d), got %s" % (flag, args.p, text), file=sys.stderr)
                return 2
    if args.command == "verify-identities":
        rep = run_identity_suite(args.kmax, args.smax, args.rmax, args.inject_mutant)
        rep["config"] = {"kmax": args.kmax, "smax": args.smax, "rmax": args.rmax, "seed": args.seed}
        _emit(rep, args.out, args.json)
        if not rep["pass"]:
            bad = [r for r in rep["results"] if not r["pass"]]
            print("FAILED: %d identities, first: %s" % (len(bad), json.dumps(bad[0])), file=sys.stderr)
            return 1
        return 0
    if args.command == "module":
        return cmd_module(args)
    if args.command == "steinberg":
        rep = run_steinberg(args.p, args.lmax, args.seed, args.ext_degree)
        rep["config"] = {"p": args.p, "lmax": args.lmax, "seed": args.seed, "ext_degree": args.ext_degree}
        _emit(rep, args.out, args.json)
        return 0 if rep["pass"] else 1
    if args.command == "tpd-grid":
        rep = run_tpd_grid(args.p, args.seed, args.max_pairs, args.ext_degree)
        rep["config"] = {"p": args.p, "seed": args.seed, "ext_degree": args.ext_degree}
        _emit(rep, args.out, args.json)
        return 0 if rep["pass"] else 1
    if args.command == "conjecture-cp0":
        rep = run_conjecture(args.p, args.degmax)
        _emit(rep, args.out, args.json)
        return 0 if rep["pass"] else 1
    if args.command == "paper-example":
        rep = latmod.paper_example_report(args.p, args.a, args.b)
        _emit(rep, args.out, args.json)
        sym = rep["symbolic"]
        good = all(
            sym[k] is True
            for k in ("basicrele1", "x1x0_equals_2a_x0sq", "dets_equal_(a-b)^2", "final_relation_x0cubed")
        )
        return 0 if good else 1
    if args.command == "blocks":
        paths = []
        for pat in args.reports:
            hits = sorted(globmod.glob(pat))
            paths.extend(hits if hits else [pat])
        try:
            rep = run_blocks(paths)
        except BadReport as exc:
            print(exc, file=sys.stderr)
            return 2
        _emit(rep, args.out, args.json)
        return 0 if rep["pass"] else 1
    if args.command == "lattice":
        return cmd_lattice(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
