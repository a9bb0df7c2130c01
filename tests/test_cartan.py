import random

import pytest

from hlx.cartan import CartanData, base_p_digits


def test_rejects_non_finite_type():
    with pytest.raises(ValueError):
        CartanData([[2, -2], [-2, 2]])  # affine A1^(1)


def test_only_type_a1_is_supported():
    CartanData("A1")
    for name in ("A2", "B2", "D4", "a1"):
        with pytest.raises(ValueError):
            CartanData(name)


def test_invariant_factors():
    # P/Q = Z/2 for sl2: the classes are 0 and 1, and the root 2 is in Q
    cd = CartanData("A1")
    assert {cd.weight_class(mu) for mu in range(-6, 7)} == {0, 1}
    assert cd.weight_class(1) != 0


def test_projection_kills_roots_and_is_additive():
    cd = CartanData("A1")
    assert cd.weight_class(2) == 0  # alpha = 2 omega
    rng = random.Random(1)
    for _ in range(50):
        lam, mu = rng.randint(-9, 9), rng.randint(-9, 9)
        assert cd.weight_class(lam + mu) == (cd.weight_class(lam) + cd.weight_class(mu)) % 2


def test_sl2_projection_values():
    cd = CartanData("A1")
    assert cd.weight_class(2) == 0
    assert cd.weight_class(1) == 1
    assert cd.weight_class(-1) == 1
    assert cd.weight_class(-4) == 0


def test_class_count_matches_det():
    # independent oracle: the number of classes over a box is det C = 2
    cd = CartanData("A1")
    assert len({cd.weight_class(mu) for mu in range(-4, 5)}) == 2


def test_base_p_digits():
    assert base_p_digits(3, 2) == [1, 1]
    assert base_p_digits(5, 3) == [2, 1]
    assert base_p_digits(2, 2) == [0, 1]
    assert base_p_digits(0, 5) == []
    with pytest.raises(ValueError):
        base_p_digits(-1, 2)


def test_digit_reconstruction():
    rng = random.Random(9)
    for p in (2, 3, 5):
        for _ in range(20):
            lam = rng.randint(0, 300)
            digits = base_p_digits(lam, p)
            assert all(0 <= d < p for d in digits)
            assert digits == [] or digits[-1] != 0
            assert sum(d * p ** k for k, d in enumerate(digits)) == lam
