import random

import numpy as np
import pytest

from hlx import meataxe
from hlx.exactnum import FiniteField, PrimeField
from hlx.linalg import arrays, np_inverse, np_rref
from hlx.looppbw import LOWER, RAISE
from hlx.meataxe import (
    _highest_weight_result,
    _hom_space_nonzero,
    _submodule_and_quotient,
    brute_force_irreducible,
    chop,
    generator_labels,
    is_irreducible,
    iso_ell_hw,
    np_generator_set,
    spin_up,
)
from hlx.modrep import (
    dual,
    eval_weyl_module,
    explicit_module,
    irreducible_module,
    psi_twist,
    raising_kernel_np,
    tensor,
)


def _unit(m, i):
    v = [m.ring.zero] * m.dim
    v[i] = m.ring.one
    return v


def test_spin_up_zero_and_full():
    F = PrimeField(3)
    m = tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(2)))
    assert spin_up(m, [[F.zero] * m.dim]) == []
    closure = spin_up(m, [_unit(m, 0)])
    assert len(closure) == 4  # distinct parameters: cyclic on the top vector


def test_spin_up_degenerate_diagonal_vector():
    # v1 ⊗ w0 - v0 ⊗ w1 in W(1,a) ⊗ W(1,a) spans a trivial submodule
    F = PrimeField(3)
    m = tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(1)))
    v = [F.zero] * 4
    v[2] = F.one       # v1 ⊗ w0
    v[1] = -F.one      # v0 ⊗ w1
    closure = spin_up(m, [v])
    assert len(closure) == 1


def test_brute_force_small():
    F = PrimeField(3)
    triv = eval_weyl_module(F, 0, F(1))
    assert brute_force_irreducible(triv)[0] is True
    m = tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(2)))
    assert brute_force_irreducible(m)[0] is True
    m2 = tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(1)))
    verdict, witness = brute_force_irreducible(m2)
    assert verdict is False and witness
    # W(2) over F_2: the only proper submodule is the trivial line f v_0 of
    # weight 0, so no spin from another weight space finds it
    F2 = PrimeField(2)
    w2 = eval_weyl_module(F2, 2, F2(1))
    assert brute_force_irreducible(w2) == (False, [[F2.zero, F2.one, F2.zero]])


def test_brute_force_zero_module_is_not_irreducible():
    F = PrimeField(3)
    m = eval_weyl_module(F, 1, F(1))
    _, quot = _submodule_and_quotient(m, [_unit(m, 0), _unit(m, 1)])
    assert quot.dim == 0
    assert brute_force_irreducible(quot) == (False, None)
    assert is_irreducible(quot).verdict is False


def test_brute_force_spins_one_line_per_weight_space(monkeypatch):
    # L(3) over F_4 has the four weights 3, 1, -1, -3 once each: 4 spins,
    # not one for each of the (4^4 - 1)/3 = 85 lines of the module
    F4 = FiniteField(2, 2)
    m = irreducible_module(F4, 3, F4.one)
    assert sorted(m.weights) == [-3, -1, 1, 3]
    spins = []
    spin = meataxe._spin_np_dim
    monkeypatch.setattr(meataxe, "_spin_np_dim", lambda *args: spins.append(args) or spin(*args))
    assert brute_force_irreducible(m) == (True, None)
    assert len(spins) == 4


def test_brute_force_bound():
    F = PrimeField(5)
    m = tensor(eval_weyl_module(F, 4, F(1)), eval_weyl_module(F, 4, F(2)))
    with pytest.raises(ValueError):
        brute_force_irreducible(m, bound=100)


def test_is_irreducible_examples():
    F2 = PrimeField(2)
    m = irreducible_module(F2, 3, F2(1))
    res = is_irreducible(m)
    assert res.verdict is True
    # dim 4 over F_2: brute force feasible, must agree
    assert brute_force_irreducible(m)[0] is True

    F3 = PrimeField(3)
    m2 = tensor(eval_weyl_module(F3, 1, F3(1)), eval_weyl_module(F3, 1, F3(1)))
    res2 = is_irreducible(m2)
    assert res2.verdict is False
    assert "witness" in res2.certificate

    w2 = eval_weyl_module(F2, 2, F2(1))
    res3 = is_irreducible(w2)
    assert res3.verdict is False


def test_highest_weight_test_decides_with_a_line_or_a_proper_spin():
    # L(3) over F_2: the raising kernel is the top line, which spins to all
    F2 = PrimeField(2)
    res = is_irreducible(irreducible_module(F2, 3, F2(1)))
    assert (res.verdict, res.certificate) == (True, {"method": "highest weight"})
    # W(1,1) ⊗ W(1,1) over F_3: the raising kernel has the top vector and
    # v1 ⊗ w0 - v0 ⊗ w1 at weight 0, the lowest, which spans a trivial line
    F3 = PrimeField(3)
    res = is_irreducible(tensor(eval_weyl_module(F3, 1, F3(1)), eval_weyl_module(F3, 1, F3(1))))
    assert res.verdict is False
    assert res.certificate == {"method": "highest weight", "witness_dim": 1, "witness": [["0", "1", "2", "0"]]}


def _restrict(arr, F):
    # an (n, n) table over F_{p^2} = F_p + F_p g as a (2n, 2n) table over
    # F_p on the basis v_0, g v_0, v_1, g v_1, ...: the entry c = a + b g
    # becomes the matrix of multiplication by c, where g^2 = -c0 - c1 g
    c0, c1 = F.poly[0], F.poly[1]
    a, b = arr[..., 0], arr[..., 1]
    out = np.zeros((2 * arr.shape[0], 2 * arr.shape[1]), dtype=np.int64)
    out[0::2, 0::2], out[1::2, 0::2] = a, b
    out[0::2, 1::2], out[1::2, 1::2] = -c0 * b, a - c1 * b
    return out % F.p


def test_highest_weight_test_falls_through_on_a_plane_of_highest_weight_vectors():
    # W(1, g) over F_9 seen over F_3 is irreducible, but its raising kernel
    # is the whole top weight space, a plane: the test decides nothing and
    # Norton's certifies the verdict that brute force (3^4 points) gives.
    # Over F_3 the tables satisfy the F_9 recurrence times its conjugate.
    F9 = FiniteField(3, 2)
    F3 = PrimeField(3)
    m9 = eval_weyl_module(F9, 1, F9.gen())
    m = explicit_module(
        F3, [w for w in m9.weights for _ in range(2)], {"restriction_of_scalars": m9.recipe},
        lambda kind, r, k: _restrict(m9.op_np(kind, r, k), F9),
        lambda r: _restrict(m9.lam_np(r), F9),
        order_fn=lambda k: 2 * m9.recurrence_order(k),
    )
    assert len(raising_kernel_np(m)) == 2
    assert _highest_weight_result(m, np_generator_set(m), arrays(F3)) is None
    res = is_irreducible(m)
    assert res.verdict is True and "attempt" in res.certificate
    assert brute_force_irreducible(m) == (True, None)


def test_highest_weight_test_falls_through_when_its_vector_spins_to_everything():
    # W(1,1) ⊕ W(1,2) over F_5 on the basis v0 + w0, v1 + w1, w0, w1: the
    # raising kernel is the plane of v0 and w0, its first row is v0 + w0,
    # and the parameters differ, so v0 + w0 spins to everything although
    # the module is reducible.  Only dim K = 1 licenses an irreducible
    # verdict; here Norton's test finds a submodule.
    F = PrimeField(5)
    parts = [eval_weyl_module(F, 1, F(a)) for a in (1, 2)]
    change = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 1, 0, 1]], dtype=np.int64)
    inverse = np_inverse(change, F)

    def direct_sum(tables):
        out = np.zeros((4, 4), dtype=np.int64)
        out[:2, :2], out[2:, 2:] = tables
        return inverse @ out @ change % 5

    m = explicit_module(
        F, [1, -1, 1, -1], {"direct_sum": [n.recipe for n in parts]},
        lambda kind, r, k: direct_sum([n.op_np(kind, r, k) for n in parts]),
        lambda r: direct_sum([n.lam_np(r) for n in parts]),
        order_fn=lambda k: 2,
    )
    top = raising_kernel_np(m)
    assert top.tolist() == [[1, 0, 0, 0], [0, 0, 1, 0]]
    assert len(spin_up(m, [[F(1), F(0), F(0), F(0)]])) == 4
    assert _highest_weight_result(m, np_generator_set(m), arrays(F)) is None
    res = is_irreducible(m)
    assert res.verdict is False and "attempt" in res.certificate
    assert brute_force_irreducible(m)[0] is False


def test_is_irreducible_agrees_with_brute_force_grid():
    F3 = PrimeField(3)
    F2 = PrimeField(2)
    rng = random.Random(0)
    cases = []
    for p, F in ((2, F2), (3, F3)):
        units = [F(v) for v in range(1, p)]
        for lam in range(1, p):
            for a in units:
                cases.append(irreducible_module(F, lam, a))
        for a in units:
            for b in units:
                cases.append(tensor(eval_weyl_module(F, 1, a), eval_weyl_module(F, 1, b)))
    for m in cases:
        if m.ring.card ** m.dim > 300000:
            continue
        res = is_irreducible(m, seed=1)
        bf, _ = brute_force_irreducible(m)
        assert res.verdict == bf, m.recipe


def test_chop_tensor_same_parameter():
    F = PrimeField(3)
    m = tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(1)))
    factors = chop(m)
    assert sorted(f.dim for f in factors) == [1, 3]
    assert sum(f.dim for f in factors) == m.dim


def test_chop_factors_keep_labels():
    # W(1,1) ⊗ W(1,1)* over F_5 has the factors V(2,1) and the trivial
    # module; both keep labels from the tensor, and their ell-weights are them
    F = PrimeField(5)
    w = eval_weyl_module(F, 1, F(1))
    factors = chop(tensor(w, dual(w)))
    assert [f.dim for f in factors] == [1, 3]
    for f in factors:
        labels = f.module.labels()
        assert labels is not None
        assert [b["ell_weight"] for b in f.ell_weights] == sorted(set(labels), key=lambda e: -e.wt())
    assert [f.drinfeld.fmt() for f in factors] == [[["1"]], [["1", "3", "1"]]]


def test_chop_irreducible_single_factor():
    F = PrimeField(3)
    m = tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(2)))
    factors = chop(m)
    assert len(factors) == 1 and factors[0].dim == 4


def test_chop_weyl2_char2():
    # W(2,1) over F_2 has constituents V(2) and V(0)
    F = PrimeField(2)
    m = eval_weyl_module(F, 2, F(1))
    factors = chop(m)
    assert sorted(f.dim for f in factors) == [1, 2]


def test_chop_order_invariance():
    F = PrimeField(3)
    m = tensor(eval_weyl_module(F, 2, F(1)), eval_weyl_module(F, 1, F(1)))
    sigs = set()
    for seed in (0, 1, 2):
        factors = chop(m, seed=seed)
        sigs.add(tuple(sorted(f.signature() for f in factors)))
    assert len(sigs) == 1


def test_chop_breaks_ties_by_drinfeld_polynomial():
    # the dual of W(2, 1) ⊗ W(2, g) over F_4 has two factors of dimension 2
    # and weights [2, -2]; they come in the order of their Drinfeld
    # polynomials (1 + u^2 before 1 + (1 + g) u^2), whichever witness splits
    # them off first, and without analysis the factors still sort
    F = FiniteField(2, 2)
    m = dual(tensor(eval_weyl_module(F, 2, F.parse("[1,0]")), eval_weyl_module(F, 2, F.parse("[0,1]"))))
    factors = chop(m)
    assert [(f.dim, list(f.weights)) for f in factors] == [(1, [0]), (2, [2, -2]), (2, [2, -2]), (4, [4, 0, 0, -4])]
    assert [f.drinfeld.fmt() for f in factors[1:3]] == [
        [["[1,0]", "[0,0]", "[1,0]"]],
        [["[1,0]", "[0,0]", "[1,1]"]],
    ]
    bare = chop(m, analyze=False)
    assert [f.dim for f in bare] == [1, 2, 2, 4]
    assert all(f.drinfeld is None for f in bare)


def test_iso_ell_hw():
    F = PrimeField(3)
    # same omega via digits vs psi twist route
    m1 = irreducible_module(F, 2, F(2))
    m2 = psi_twist(irreducible_module(F, 2, F(1)), F(2))
    assert iso_ell_hw(m1, m2)
    assert not iso_ell_hw(
        irreducible_module(F, 1, F(1)), irreducible_module(F, 1, F(2))
    )
    m = irreducible_module(F, 3, F(2))
    assert iso_ell_hw(m, dual(m))


def test_hom_space_between_modules_of_different_dimensions():
    # T: M -> N is dim N x dim M; M = W(1,1) ⊗ W(1,1) = L(2) ⊕ L(0) over F_5
    # maps onto and receives the trivial module W(0,1), and shares no
    # weight with W(1,2)
    F = PrimeField(5)
    m = tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(1)))
    trivial, odd = eval_weyl_module(F, 0, F(1)), eval_weyl_module(F, 1, F(2))
    assert _hom_space_nonzero(m, trivial) and _hom_space_nonzero(trivial, m)
    assert not _hom_space_nonzero(m, odd) and not _hom_space_nonzero(odd, m)


def test_generator_set_windows():
    # W(2,2) over F_3: the generator exponents are k = 1 alone, with the
    # single ratio 2, so one loop degree
    F = PrimeField(3)
    m = eval_weyl_module(F, 2, F(2))
    assert generator_labels(m) == [(LOWER, 0, 1), (RAISE, 0, 1), ("h", 0, 1)]


def _table_span(m, kind, k, rs):
    # row space of the flattened tables at every r in rs
    flat = np.stack([m.op_np(kind, r, k).reshape(-1) for r in rs])
    return np_rref(flat, m.ring)[0].tolist()


def test_generator_count_independent_of_p():
    # W(2,2) (x) W(1,3) has the ratios {2, 3} in r at every p >= 5, so its
    # window is r in {0, 1} where [-dim^2, dim^2] takes 73 loop degrees, and
    # the two tables span what the 73 span
    counts = set()
    for p in (5, 101, 10007):
        F = PrimeField(p)
        m = tensor(eval_weyl_module(F, 2, F(2)), eval_weyl_module(F, 1, F(3)))
        assert m.window(1) == range(2)
        wide = range(-m.dim**2, m.dim**2 + 1)
        for kind in (LOWER, RAISE):
            assert _table_span(m, kind, 1, m.window(1)) == _table_span(m, kind, 1, wide)
        counts.add(len(generator_labels(m)))
    assert counts == {5}


def test_extension_field_brute_force():
    F4 = FiniteField(2, 2)
    a = F4.gen()
    m = eval_weyl_module(F4, 1, a)
    res = is_irreducible(m)
    assert res.verdict is True
    m2 = tensor(eval_weyl_module(F4, 1, a), eval_weyl_module(F4, 1, a))
    res2 = is_irreducible(m2)
    assert res2.verdict is False


def test_random_element_weights_are_units():
    # each word of Norton's random element is weighted by a draw from
    # 1..p-1.  A weight of p is 0 mod p and drops its word; over F_2 that
    # made the element 0, whose nullity is the whole space, with probability
    # at least 1/4.  The rng below takes the largest value of every draw: 3
    # words, each the identity, so the element is 3(p-1) times the identity
    from hlx.linalg import arrays
    from hlx.meataxe import _random_element_np

    class _Top(random.Random):
        def randint(self, a, b):
            return b

    for p in (2, 5):
        K = arrays(PrimeField(p))
        z = _random_element_np([K.eye(3)], K, 3, _Top(0))
        assert (z == (3 * (p - 1) % p) * K.eye(3)).all()


# ---------------------------------------------------------------------------
# each module answers once
# ---------------------------------------------------------------------------


def _count_per_module(monkeypatch, owner, name):
    # calls of owner.name, counted per module (the first argument); the
    # modules stay alive in the counter, so their ids stay distinct
    calls = {}
    original = getattr(owner, name)

    def counted(m, *args):
        calls.setdefault(id(m), [m, 0])[1] += 1
        return original(m, *args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_chop_after_is_irreducible_tests_each_module_once(monkeypatch):
    calls = _count_per_module(monkeypatch, meataxe, "_highest_weight_result")
    F = PrimeField(5)
    m = tensor(eval_weyl_module(F, 2, F(3)), eval_weyl_module(F, 1, F(3)))
    res = is_irreducible(m)
    assert res.verdict is False
    factors = chop(m)
    assert sorted(f.dim for f in factors) == [2, 4]
    assert is_irreducible(m) is res
    # m, its submodule and its quotient: one highest-weight test each
    assert len(calls) == 3 and [n for _, n in calls.values()] == [1, 1, 1]


def test_the_raising_kernel_is_built_once_per_module(monkeypatch):
    from hlx import modrep

    calls = _count_per_module(monkeypatch, modrep, "_raising_labels")
    F = PrimeField(7)
    m = tensor(eval_weyl_module(F, 2, F(3)), eval_weyl_module(F, 1, F(5)))
    assert is_irreducible(m).verdict is True
    vs = modrep.ell_hw_vectors(m)
    assert len(vs) == 1
    poly, _ = modrep.drinfeld_polynomial(dual(dual(m)))
    assert [f.dim for f in chop(m)] == [m.dim]
    assert poly == modrep.drinfeld_polynomial(m, vs[0])[0]
    assert raising_kernel_np(m) is raising_kernel_np(m)
    assert all(n == 1 for _, n in calls.values())


def test_lowering_the_brute_force_bound_is_seen_by_a_memoized_module(monkeypatch):
    # L(2) over F_9 has dimension 3 and 9^3 = 729 vectors: brute force
    # decides it under the default bound, and nothing decides it under 100
    monkeypatch.delenv("HLX_MAX_BRUTE", raising=False)
    F9 = FiniteField(3, 2)
    m = irreducible_module(F9, 2, F9.one)
    decided = is_irreducible(m)
    assert decided.verdict is True and decided.certificate == {"method": "brute-force"}
    monkeypatch.setenv("HLX_MAX_BRUTE", "100")
    assert is_irreducible(m).verdict is None
    monkeypatch.delenv("HLX_MAX_BRUTE")
    assert is_irreducible(m) is decided


def test_memoized_tables_and_kernel_are_read_only():
    F = PrimeField(5)
    m = tensor(eval_weyl_module(F, 2, F(3)), eval_weyl_module(F, 1, F(2)))
    for shared in (m.op_np(RAISE, 1, 1), m.lam_np(2), m.cartan_binom_np(1), raising_kernel_np(m)):
        with pytest.raises(ValueError):
            shared[0, 0] = 1
    # computing on them still works, and hands out writable results
    out = arrays(F).mul(m.op_np(LOWER, 0, 1), m.op_np(RAISE, 0, 1))
    out[0, 0] = 1
