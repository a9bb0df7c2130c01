"""Per-layer timing of hlx from outside the program.

`Tracer.install()` replaces each traced public function of hlx with a
wrapper that counts calls and times a span around the call.  A span's self
time is its duration minus the spans that ran inside it.  Spans are folded
into per-name totals in memory as they close (keeping every span of a run
would take gigabytes) and read out at the end.  `Tracer.remove()` puts every
original back.

A function bound under its own name in several modules (`meataxe` imports
`drinfeld_polynomial` from `modrep`, `modrep` imports
`factor_poly_unit_roots` from `drinfeld`) is patched in every loaded hlx
module that holds it.  Names imported inside a function body are looked up
on the module at call time and see the patched attribute.  Methods are
patched on their class.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (module, attribute path) of every traced callable; the metric name is
# "<module>.<path>" except for the operator tables, grouped as modrep.tables
SPANS = [
    ("modrep", "LoopModule.op"),
    ("modrep", "LoopModule.op_np"),
    ("modrep", "LoopModule.lam"),
    ("modrep", "LoopModule.lam_np"),
    ("modrep", "LoopModule.cartan_binom"),
    ("modrep", "LoopModule.cartan_binom_np"),
    ("modrep", "drinfeld_polynomial"),
    ("modrep", "ell_weight_decomposition"),
    ("modrep", "ell_hw_vectors"),
    ("drinfeld", "factor_poly_unit_roots"),
    ("linalg", "np_nullspace"),
    ("linalg", "np_rref"),
    ("linalg", "from_np"),
    ("linalg", "to_np"),
    ("linalg", "Echelon.add"),
    ("linalg", "Mat.apply"),
    ("linalg", "NpEchelon.add"),
    ("meataxe", "generator_labels"),
    ("meataxe", "is_irreducible"),
    ("meataxe", "chop"),
    ("meataxe", "brute_force_irreducible"),
    ("lattice", "lattice_closure"),
    ("lattice", "canonicalize"),
    ("lattice", "reduce_mod_p"),
    ("lattice", "compare_lattices"),
    ("lattice", "paper_example_report"),
    ("looppbw", "weyl_upper_bound"),
    ("looppbw", "verify_basicrel"),
]

# counters read from returned values; every one is reported, zeros included
COUNTERS = [
    "modrep.generators",
    "meataxe.cert.trivial",
    "meataxe.cert.norton",
    "meataxe.cert.brute_force",
    "meataxe.cert.undecided",
    "meataxe.norton.attempts",
    "meataxe.norton.points",
    "looppbw.saturation.sweeps",
    "looppbw.saturation.basis",
]


def span_name(module, path):
    if path.startswith("LoopModule."):
        return "modrep.tables." + path.split(".", 1)[1]
    return "%s.%s" % (module, path)


SPAN_NAMES = [span_name(m, p) for m, p in SPANS]


def _cert_kind(res):
    cert = res.certificate
    if res.verdict is None:
        return "undecided"
    if cert.get("method") == "brute-force":
        return "brute_force"
    if "attempt" in cert:
        return "norton"
    return "trivial"


class Tracer:
    def __init__(self):
        self.calls = {name: 0 for name in SPAN_NAMES}
        self.self_s = {name: 0.0 for name in SPAN_NAMES}
        self.counts = {name: 0 for name in COUNTERS}
        self.norton_first_try = 0
        self._stack = []
        self._patches = []

    # -- results of particular calls ------------------------------------------

    def _observe(self, name, result):
        counts = self.counts
        if name == "meataxe.generator_labels":
            counts["modrep.generators"] += len(result)
        elif name == "meataxe.is_irreducible":
            kind = _cert_kind(result)
            counts["meataxe.cert." + kind] += 1
            if kind == "norton":
                attempt = result.certificate["attempt"]
                counts["meataxe.norton.attempts"] += attempt + 1
                counts["meataxe.norton.points"] += result.certificate.get("points", 0)
                self.norton_first_try += attempt == 0
        elif name == "looppbw.weyl_upper_bound":
            counts["looppbw.saturation.sweeps"] += result.sweeps
            counts["looppbw.saturation.basis"] += len(result.basis)

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        observe = self._observe if name in (
            "meataxe.generator_labels", "meataxe.is_irreducible", "looppbw.weyl_upper_bound"
        ) else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                children = stack.pop()
                calls[name] += 1
                self_s[name] += dt - children
                if stack:
                    stack[-1] += dt
            if observe is not None:
                observe(name, result)
            return result

        return traced

    def install(self):
        """Patch every traced callable; hlx must already be imported."""
        mods = {n: importlib.import_module("hlx." + n) for n in {m for m, _ in SPANS}}
        loaded = [mod for key, mod in sys.modules.items() if key == "hlx" or key.startswith("hlx.")]
        for (modname, path), name in zip(SPANS, SPAN_NAMES):
            owner = mods[modname]
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = owner.__dict__[parts[-1]]
            wrapper = self._wrap(name, original)
            self._set(owner, parts[-1], original, wrapper)
            if len(parts) == 1:
                # the same function bound by name in other modules
                for mod in loaded:
                    for attr, value in list(vars(mod).items()):
                        if value is original and mod is not owner:
                            self._set(mod, attr, original, wrapper)

    def _set(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- read-out ----------------------------------------------------------------

    def metrics(self):
        out = {}
        for name in SPAN_NAMES:
            out[name + ".calls"] = (self.calls[name], "count")
            out[name + ".self_s"] = (self.self_s[name], "s")
        for name in COUNTERS:
            out[name] = (self.counts[name], "count")
        norton = self.counts["meataxe.cert.norton"]
        out["meataxe.norton.first_try_frac"] = (self.norton_first_try / norton if norton else 0.0, "ratio")
        return out
