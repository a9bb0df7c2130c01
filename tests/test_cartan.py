import random
from fractions import Fraction

import pytest

from hlx.cartan import CartanData, RootVector, Weight
from hlx.exactnum import QQ
from hlx.linalg import Mat, det


def test_presets_finite_type():
    for name in ("A1", "A2", "A3", "B2", "C2", "D4"):
        cd = CartanData(name)
        assert cd.rank == len(cd.matrix)


def test_rejects_non_finite_type():
    with pytest.raises(ValueError):
        CartanData([[2, -2], [-2, 2]])  # affine A1^(1)


def test_invariant_factors():
    assert CartanData("A1").weight_mod_root_lattice() == (2,)
    assert CartanData("A2").weight_mod_root_lattice() == (3,)
    assert CartanData("D4").weight_mod_root_lattice() == (2, 2)


def test_invariant_factor_product_is_det():
    for name in ("A1", "A2", "A3", "B2", "C2", "D4"):
        cd = CartanData(name)
        prod = 1
        for f in cd.weight_mod_root_lattice():
            prod *= f
        assert prod == abs(int(det(Mat(QQ, [list(map(Fraction, r)) for r in cd.matrix]))))


def test_projection_kills_roots_and_is_additive():
    for name in ("A1", "A2", "A3", "B2", "C2", "D4"):
        cd = CartanData(name)
        for i in range(cd.rank):
            alpha = cd.simple_root_weight(i)
            assert cd.weight_class(alpha).is_zero()
        rng = random.Random(1)
        for _ in range(50):
            lam = Weight([rng.randint(-4, 4) for _ in range(cd.rank)])
            mu = Weight([rng.randint(-4, 4) for _ in range(cd.rank)])
            assert cd.weight_class(lam + mu) == cd.weight_class(lam) + cd.weight_class(mu)


def test_sl2_projection_values():
    cd = CartanData("A1")
    assert cd.weight_class(Weight([2])).is_zero()
    assert cd.weight_class(Weight([1])).residues == (1,)


def test_class_count_matches_det():
    # independent oracle: count distinct classes over a box of weights
    cd = CartanData("A2")
    classes = set()
    for x in range(-4, 5):
        for y in range(-4, 5):
            classes.add(cd.weight_class(Weight([x, y])).residues)
    assert len(classes) == 3


def test_positive_roots_counts():
    assert len(CartanData("A1").positive_roots()) == 1
    assert len(CartanData("A2").positive_roots()) == 3
    assert len(CartanData("A3").positive_roots()) == 6
    assert len(CartanData("C2").positive_roots()) == 4
    assert len(CartanData("D4").positive_roots()) == 12


def test_coroot_coeffs():
    cd = CartanData("A1")
    assert cd.coroot_coeffs(RootVector([1])).coords == (1,)
    cd = CartanData("A2")
    assert cd.coroot_coeffs(RootVector([1, 1])).coords == (1, 1)
    with pytest.raises(ValueError):
        cd.coroot_coeffs(RootVector([2, 0]))


def test_coroot_coeffs_c2_pairing():
    # cross-check: lambda(h_alpha) = 2 (lambda, alpha)/(alpha, alpha) for all
    # positive roots, with lambda ranging over fundamental weights
    from fractions import Fraction

    for name in ("B2", "C2", "A2", "D4"):
        cd = CartanData(name)
        for alpha in cd.positive_roots():
            mvee = cd.coroot_coeffs(alpha)
            for i in range(cd.rank):
                lam = Weight([1 if j == i else 0 for j in range(cd.rank)])
                lhs = sum(mvee[j] * lam[j] for j in range(cd.rank))
                # (lambda, alpha): expand lambda in terms of the form via
                # (omega_i, alpha_j) = d_j delta_ij
                rhs = Fraction(2 * cd.symmetrizers[i] * alpha[i], cd.bilinear(alpha, alpha))
                assert lhs == rhs


def test_longest_element_action():
    cd = CartanData("A1")
    assert cd.longest_element_action(Weight([3])).coords == (-3,)
    cd2 = CartanData("A2")
    assert cd2.longest_element_action(Weight([1, 0])).coords == (0, -1)
    assert cd2.longest_element_action(Weight([0, 0])).coords == (0, 0)


def test_longest_element_involution():
    rng = random.Random(2)
    for name in ("A2", "A3", "C2", "D4"):
        cd = CartanData(name)
        for _ in range(30):
            lam = Weight([rng.randint(0, 5) for _ in range(cd.rank)])
            w0lam = cd.longest_element_action(lam)
            assert w0lam.is_antidominant()
            # -w0 lam is dominant and w0(-w0 lam) = -lam
            back = cd.longest_element_action(-w0lam)
            assert back == -lam


def test_base_p_digits():
    cd = CartanData("A1")
    assert [d.coords for d in cd.base_p_digits(Weight([3]), 2)] == [(1,), (1,)]
    assert [d.coords for d in cd.base_p_digits(Weight([5]), 3)] == [(2,), (1,)]
    assert [d.coords for d in cd.base_p_digits(Weight([2]), 2)] == [(0,), (1,)]
    with pytest.raises(ValueError):
        cd.base_p_digits(Weight([-1]), 2)


def test_digit_reconstruction():
    rng = random.Random(9)
    for name in ("A1", "A2", "D4"):
        cd = CartanData(name)
        for p in (2, 3, 5):
            for _ in range(20):
                lam = Weight([rng.randint(0, 30) for _ in range(cd.rank)])
                digits = cd.base_p_digits(lam, p)
                acc = Weight([0] * cd.rank)
                for k, d in enumerate(digits):
                    assert all(0 <= c < p for c in d.coords)
                    acc = acc + d.scale(p ** k)
                assert acc == lam


A4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]
B3 = [[2, -1, 0], [-1, 2, -2], [0, -1, 2]]
C3 = [[2, -1, 0], [-1, 2, -1], [0, -2, 2]]
B4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -2], [0, 0, -1, 2]]
C4 = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -2, 2]]


def test_projection_rank_le_4_types_a_to_d():
    for matrix in (A4, B3, C3, B4, C4):
        cd = CartanData(matrix)
        for i in range(cd.rank):
            assert cd.weight_class(cd.simple_root_weight(i)).is_zero()
        rng = random.Random(4)
        for _ in range(25):
            lam = Weight([rng.randint(-3, 3) for _ in range(cd.rank)])
            mu = Weight([rng.randint(-3, 3) for _ in range(cd.rank)])
            assert cd.weight_class(lam + mu) == cd.weight_class(lam) + cd.weight_class(mu)
