import random

import pytest

from hlx import meataxe
from hlx.exactnum import FiniteField, PrimeField
from hlx.meataxe import (
    _submodule_and_quotient,
    brute_force_irreducible,
    chop,
    generator_labels,
    is_irreducible,
    iso_ell_hw,
    spin_up,
)
from hlx.modrep import (
    dual,
    eval_weyl_module,
    irreducible_module,
    psi_twist,
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


def test_generator_set_windows():
    F = PrimeField(3)
    m = eval_weyl_module(F, 2, F(2))
    rs = {r for _, r, _ in generator_labels(m)}
    assert rs <= set(range(-2, 3))


def test_generator_count_independent_of_p():
    # W(2,2) (x) W(1,3) has the ratios {2, 3} in r at every p >= 5, so its
    # window is 2 where min(dim^2, p-1) would give 4 at p=5 and 36 beyond
    counts = set()
    for p in (5, 101, 10007):
        F = PrimeField(p)
        m = tensor(eval_weyl_module(F, 2, F(2)), eval_weyl_module(F, 1, F(3)))
        assert m.r_window() == 2
        counts.add(len(generator_labels(m)))
    assert len(counts) == 1


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
