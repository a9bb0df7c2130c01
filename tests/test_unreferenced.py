"""Every function, class and method of src/hlx has a caller there, or a
stated reason to exist without one."""

import ast
import collections
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hlx"

# module.qualified name -> why it stays with no caller in src/hlx
ALLOWED = {
    "linalg.Echelon": "perfbench/tracer.py resolves Echelon.add",
    "modrep.LoopModule.cartan_binom": "perfbench/tracer.py wraps it",
    "linalg.to_np": "perfbench/tracer.py wraps it",
    "meataxe.spin_up": "the tensor product decomposition check planned in ROADMAP.md spins with it",
    "meataxe.iso_ell_hw": "isomorphism testing is a README feature",
    "looppbw.HyperElement.from_word": "tested utility: normal ordering of a raw word",
    "drinfeld.EllWeight.wt": "tested utility: the weight of an ell-weight",
    "lattice.LatticeBasis.contains": "test oracle: lattice membership in the closure tests",
    "exactnum.lucas_binom": "tested utility: binomials mod p by Lucas's theorem, used by drinfeld test oracles",
}


def _names(node):
    """How often each name is read by a Name or Attribute node under node."""
    out = collections.Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
    return out


def _unreferenced():
    """module.qualname of every module-level function or class, and every
    non-dunder method, whose name src/hlx reads nowhere but in its own body
    (a recursive call is no caller)."""
    defs, refs = [], collections.Counter()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        refs += _names(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(("%s.%s" % (path.stem, node.name), node))
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                        defs.append(("%s.%s.%s" % (path.stem, node.name, sub.name), sub))
    return {qual for qual, node in defs if refs[node.name] == _names(node)[node.name]}


def test_every_unreferenced_definition_has_a_stated_reason():
    unreferenced = _unreferenced()
    assert sorted(unreferenced - set(ALLOWED)) == [], "no caller in src/hlx and no reason in ALLOWED"
    assert sorted(set(ALLOWED) - unreferenced) == [], "referenced now, or gone: drop from ALLOWED"
