from fractions import Fraction

import pytest

from hlx.exactnum import QQ, FiniteField, PrimeField
from hlx.linalg import Mat, arrays, from_np, to_np
from hlx.looppbw import LOWER, RAISE
from hlx.meataxe import is_irreducible
from hlx.modrep import (
    build_module,
    drinfeld_polynomial,
    dual,
    ell_hw_vectors,
    ell_weight_decomposition,
    eval_weyl_module,
    frobenius_twist,
    irreducible_module,
    psi_twist,
    tensor,
    weyl0_from_roots,
)


def _basis_vec(m, i):
    v = [m.ring.zero] * m.dim
    v[i] = m.ring.one
    return v


def test_eval_weyl_lambda1():
    # x-_r v0 = a^r v1 for all r
    a = Fraction(3)
    m = eval_weyl_module(QQ, 1, a)
    for r in (-2, -1, 0, 1, 3):
        img = m.op(LOWER, r, 1).apply(_basis_vec(m, 0))
        assert img[1] == a ** r and img[0] == 0


def test_eval_weyl_lambda2_lambda_eigenvalues():
    # Lambda_1 v0 = -2a v0 and Lambda_2 v0 = a^2 v0
    a = Fraction(5)
    m = eval_weyl_module(QQ, 2, a)
    v0 = _basis_vec(m, 0)
    assert m.lam(1).apply(v0)[0] == -2 * a
    assert m.lam(2).apply(v0)[0] == a * a


def test_eval_weyl_trivial():
    m = eval_weyl_module(QQ, 0, Fraction(1))
    assert m.dim == 1
    assert m.op(LOWER, 2, 1).is_zero()
    assert m.op(RAISE, -1, 1).is_zero()


def test_weight_grading():
    F = PrimeField(3)
    mods = [
        eval_weyl_module(F, 2, F(2)),
        tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(2))),
        dual(eval_weyl_module(F, 2, F(1))),
        irreducible_module(F, 4, F(1)),
    ]
    for m in mods:
        for kind, shift in ((LOWER, -2), (RAISE, 2)):
            for r in (0, 1):
                for k in (1, 2):
                    mat = m.op(kind, r, k)
                    for i in range(m.dim):
                        for j in range(m.dim):
                            if not m.ring.is_zero(mat[i, j]):
                                assert m.weights[i] == m.weights[j] + shift * k


def test_weyl_symmetry():
    F = PrimeField(5)
    m = tensor(eval_weyl_module(F, 3, F(2)), eval_weyl_module(F, 2, F(1)))
    mult = m.weight_multiplicities()
    for w, n in mult.items():
        assert mult.get(-w, 0) == n


def test_divided_power_consistency():
    # char 0: op(k=1)^k = k! op(k); char p: op(k=1)^p = 0
    import math

    a = Fraction(2)
    m = eval_weyl_module(QQ, 3, a)
    for k in (2, 3):
        lhs = m.op(LOWER, 1, 1)
        acc = Mat.identity(QQ, m.dim)
        for _ in range(k):
            acc = acc * lhs
        assert acc == m.op(LOWER, 1, k).scale(Fraction(math.factorial(k)))
    F = PrimeField(3)
    mp = eval_weyl_module(F, 4, F(2))
    acc = Mat.identity(F, mp.dim)
    for _ in range(3):
        acc = acc * mp.op(LOWER, 0, 1)
    assert acc.is_zero()


def test_tensor_comultiplication_example():
    # x-_0 (v0 ⊗ w0) = v1 ⊗ w0 + v0 ⊗ w1
    a, b = Fraction(2), Fraction(7)
    m = tensor(eval_weyl_module(QQ, 1, a), eval_weyl_module(QQ, 1, b))
    img = m.op(LOWER, 0, 1).apply(_basis_vec(m, 0))
    # basis (i,j) -> 2i + j
    assert img[2] == 1 and img[1] == 1 and img[0] == 0 and img[3] == 0


def test_tensor_lambda_multiplicativity():
    F = PrimeField(5)
    left = eval_weyl_module(F, 2, F(2))
    right = eval_weyl_module(F, 1, F(3))
    m = tensor(left, right)
    for r in (1, 2, 3, -1, -2):
        sign = 1 if r > 0 else -1
        acc = None
        for l in range(abs(r) + 1):
            term = left.lam(sign * l).kron(right.lam(sign * (abs(r) - l)))
            acc = term if acc is None else acc + term
        assert m.lam(r) == acc


def test_paper_tensor_action_with_repeated_root_factor():
    # x-_2 (v0 ⊗ w0) = 2a v3 ⊗ w0 - a^2 v1 ⊗ w0 + b^2 v0 ⊗ w1 inside
    # W0((1-au)^2) ⊗ W0(1-bu); basis monomials of the first factor are
    # [1, x0, x1, x0^(2)] so v1 -> index 1, v3 -> index 2, v2 -> index 3.
    a, b = Fraction(5), Fraction(7)
    w4 = weyl0_from_roots(QQ, [a, a])
    assert w4.dim == 4
    assert w4.basis_monomials == [(), ((0, 1),), ((1, 1),), ((0, 2),)]
    m = tensor(w4, eval_weyl_module(QQ, 1, b))
    img = m.op(LOWER, 2, 1).apply(_basis_vec(m, 0))
    expect = {2 * 2 + 0: 2 * a, 1 * 2 + 0: -a * a, 0 * 2 + 1: b * b}
    for idx in range(m.dim):
        assert img[idx] == expect.get(idx, Fraction(0))


def test_weyl0_matches_eval_for_simple_roots():
    # distinct-root degree-1 straightened module equals the evaluation module
    a = Fraction(3)
    w = weyl0_from_roots(QQ, [a])
    e = eval_weyl_module(QQ, 1, a)
    for kind in (LOWER, RAISE):
        for r in (-2, 0, 1, 2):
            for k in (1, 2):
                assert w.op(kind, r, k) == e.op(kind, r, k)
    for r in (-2, -1, 1, 2):
        assert w.lam(r) == e.lam(r)


def test_weyl0_basicrele1():
    # x-_s v0 = s a^{s-1} v3 - (s-1) a^s v1
    a = Fraction(4)
    w = weyl0_from_roots(QQ, [a, a], margin=8)
    v0 = _basis_vec(w, 0)
    for s in range(-4, 6):
        img = w.op(LOWER, s, 1).apply(v0)
        assert img[2] == s * a ** (s - 1)
        assert img[1] == -(s - 1) * a ** s
        assert img[0] == 0 and img[3] == 0


def test_weyl0_basicrele2():
    # x-_r x-_s v0 = 2 a^{r+s} (x-_0)^(2) v0
    a = Fraction(3)
    w = weyl0_from_roots(QQ, [a, a], margin=8)
    v0 = _basis_vec(w, 0)
    for r in (-2, 0, 1, 3):
        for s in (-1, 0, 2):
            img = w.op(LOWER, r, 1).apply(w.op(LOWER, s, 1).apply(v0))
            assert img[3] == 2 * a ** (r + s)
            assert img[0] == img[1] == img[2] == 0


def test_dual_properties():
    F = PrimeField(3)
    m = irreducible_module(F, 2, F(2))
    d = dual(m)
    assert sorted(d.weights) == sorted(-w for w in m.weights)
    dd = dual(d)
    for kind in (LOWER, RAISE):
        for r in (0, 1):
            for k in (1, 2):
                assert dd.op(kind, r, k) == m.op(kind, r, k)
    for r in (-2, -1, 1, 2):
        assert dd.lam(r) == m.lam(r)
    # antipode on Lambda: dual series is the inverse series, transposed
    for r in (1, 2):
        acc = None
        for l in range(r + 1):
            term = d.lam(l).transpose() * m.lam(r - l)
            acc = term if acc is None else acc + term
        if r:
            assert acc.is_zero()


def test_frobenius_twist():
    F = PrimeField(2)
    base = eval_weyl_module(F, 1, F(1))
    tw = frobenius_twist(base, 1)
    assert tw.weights == (2, -2)
    assert tw.op(LOWER, 1, 1).is_zero()
    assert tw.op(LOWER, 1, 2) == base.op(LOWER, 1, 1)
    assert tw.lam(2) == base.lam(1)
    assert tw.lam(1).is_zero()
    assert frobenius_twist(base, 0) is base


def test_frobenius_consistency_with_steinberg():
    # V(2) over F_2 equals V(1)^phi: dims and Drinfeld agree
    F = PrimeField(2)
    m = irreducible_module(F, 2, F(1))
    assert m.dim == 2
    poly, report = drinfeld_polynomial(m)
    assert report["plus_polynomial"] and report["minus_matches"]
    # (1-u)^2 = 1 + u^2 mod 2
    assert [c.v for c in poly.polys[0].coeffs] == [1, 0, 1]


def test_psi_twist():
    F = PrimeField(5)
    m = eval_weyl_module(F, 2, F(1))
    tw = psi_twist(m, F(3))
    ref = eval_weyl_module(F, 2, F(3))
    for kind in (LOWER, RAISE):
        for r in (0, 1, 2, -1):
            for k in (1, 2):
                assert tw.op(kind, r, k) == ref.op(kind, r, k)
    for r in (-2, -1, 1, 2):
        assert tw.lam(r) == ref.lam(r)
    # identity and inverse twists
    assert psi_twist(m, F(1)).op(LOWER, 1, 1) == m.op(LOWER, 1, 1)
    back = psi_twist(psi_twist(m, F(3)), F.inv(F(3)))
    assert back.op(LOWER, 3, 2) == m.op(LOWER, 3, 2)


def test_irreducible_dims():
    F2, F3 = PrimeField(2), PrimeField(3)
    assert irreducible_module(F2, 3, F2(1)).dim == 4
    assert irreducible_module(F2, 2, F2(1)).dim == 2
    assert irreducible_module(F3, 2, F3(1)).dim == 3


def test_ell_hw_vectors():
    F = PrimeField(3)
    a, b = F(1), F(2)
    m = tensor(eval_weyl_module(F, 1, a), eval_weyl_module(F, 1, b))
    vs = ell_hw_vectors(m)
    assert len(vs) == 1
    v = vs[0]
    assert not F.is_zero(v[0]) and all(F.is_zero(c) for c in v[1:])
    # same parameter: two-dimensional space (weights 2 and 0)
    m2 = tensor(eval_weyl_module(F, 1, a), eval_weyl_module(F, 1, a))
    vs2 = ell_hw_vectors(m2)
    assert len(vs2) == 2
    # trivial module: whole space
    triv = eval_weyl_module(F, 0, F(1))
    assert len(ell_hw_vectors(triv)) == 1


def test_drinfeld_examples():
    F = PrimeField(5)
    a = F(2)
    m = eval_weyl_module(F, 2, a)
    poly, report = drinfeld_polynomial(m)
    # (1 - au)^2 = 1 - 2au + a^2 u^2
    assert poly.polys[0].coeffs == (F.one, F(-4), F(4))
    assert report["plus_polynomial"] and report["minus_matches"]

    b = F(3)
    m2 = tensor(eval_weyl_module(F, 1, a), eval_weyl_module(F, 1, b))
    poly2, _ = drinfeld_polynomial(m2)
    assert poly2.polys[0].coeffs == (F.one, -(a + b), a * b)

    triv = eval_weyl_module(F, 0, F(1))
    poly3, _ = drinfeld_polynomial(triv)
    assert poly3.polys[0].degree() == 0


def test_drinfeld_over_q_on_an_unlabelled_module():
    poly, report = drinfeld_polynomial(weyl0_from_roots(QQ, [Fraction(2), Fraction(2)]))
    assert poly.polys[0].coeffs == (1, -4, 4)
    assert report["plus_polynomial"] and report["minus_matches"]


def test_drinfeld_of_dual_is_star():
    F = PrimeField(3)
    m = irreducible_module(F, 3, F(2))
    poly, _ = drinfeld_polynomial(m)
    d = dual(m)
    vs = ell_hw_vectors(d)
    assert len(vs) == 1
    dpoly, _ = drinfeld_polynomial(d, vs[0])
    assert dpoly == poly  # sl2: -w0(lambda) = lambda


def test_ell_weight_decomposition_eval():
    F = PrimeField(5)
    a = F(2)
    m = eval_weyl_module(F, 1, a)
    blocks = ell_weight_decomposition(m)
    assert sorted(b["weight"] for b in blocks) == [-1, 1]
    for b in blocks:
        assert b["dim"] == 1
        ew = b["ell_weight"]
        assert ew is not None
        assert ew.pairs == ((a, b["weight"]),)


def test_ell_weight_decomposition_tensor_same_parameter():
    F = PrimeField(3)
    m = tensor(eval_weyl_module(F, 1, F(1)), eval_weyl_module(F, 1, F(1)))
    blocks = ell_weight_decomposition(m)
    assert sum(b["dim"] for b in blocks) == 4
    wts = sorted(b["weight"] for b in blocks for _ in range(b["dim"]))
    assert wts == [-2, 0, 0, 2]
    for b in blocks:
        assert b["ell_weight"] is not None
        assert all(ring_a == F(1) for ring_a, _ in b["ell_weight"].pairs)


def test_build_module_recipe():
    recipe = {
        "ring": {"kind": "Fp", "p": 3},
        "build": {
            "tensor": [
                {"eval_weyl": {"lambda": 1, "a": "1"}},
                {"eval_weyl": {"lambda": 1, "a": "2"}},
            ]
        },
    }
    m = build_module(recipe)
    assert m.dim == 4
    assert m.ring == PrimeField(3)


def test_evaluation_compatibility_with_symbolic_identities():
    # specialize verified symbolic identities through the op tables
    from hlx.looppbw import HyperElement, koslem_rhs

    F = PrimeField(5)
    m = eval_weyl_module(F, 3, F(2))

    def elem_matrix(e):
        acc = Mat.zeros(F, m.dim, m.dim)
        for mono, c in e.coeffs.items():
            term = Mat.identity(F, m.dim)
            for kind, r, k in mono:
                if kind == LOWER or kind == RAISE:
                    term = term * m.op(kind, r, k)
                else:
                    if r == 0:
                        term = term * m.cartan_binom(k)
                    else:
                        raise AssertionError("unexpected loop Cartan letter")
            acc = acc + term.scale(F(c.numerator) * F.inv(F(c.denominator)))
        return acc

    for k in (1, 2):
        for l in (1, 2):
            lhs = HyperElement.x_plus(0, l) * HyperElement.x_minus(0, k)
            assert elem_matrix(lhs) == elem_matrix(koslem_rhs(k, l))


def test_basicrel_specialization_on_highest_vector():
    # the Garland relation instance, specialized through the op tables:
    # (x+_{-s})^(l) (x-_{s+1})^(k) v0 = (-1)^l ((X-_{s,+})^(k-l) Λ+(u))_k v0
    from hlx.looppbw import _series_x_divided_coeff
    from hlx.exactnum import PrimeField

    F = PrimeField(5)
    m = eval_weyl_module(F, 2, F(3))
    v0 = _basis_vec(m, 0)
    for (k, l, s) in ((1, 1, 0), (2, 1, 0), (3, 2, 1), (2, 2, -1)):
        lhs = m.op(RAISE, -s, l).apply(m.op(LOWER, s + 1, k).apply(v0))
        rhs = [F.zero] * m.dim
        for mm in range(k + 1):
            series_part = _series_x_divided_coeff(k - l, s, 1, mm)
            lam_eig = m.lam(k - mm).apply(v0)[0]  # scalar on v0
            for mono, coeff in series_part.coeffs.items():
                vec = [lam_eig * c for c in v0]
                for kind, r, kk in mono:
                    vec = m.op(kind, r, kk).apply(vec)
                scal = F(coeff.numerator) * F.inv(F(coeff.denominator))
                rhs = [a + scal * b for a, b in zip(rhs, vec)]
        sign = F(-1) if l % 2 else F(1)
        rhs = [sign * c for c in rhs]
        assert lhs == rhs, (k, l, s)


def test_reduction_of_repeated_root_weyl_ell_weights():
    # reduction of W0((1-u)^2) mod 3 has ell-weights omega_{mu,1}, mu in
    # {2, 0, -2}
    from hlx import lattice as latmod

    w = weyl0_from_roots(QQ, [Fraction(1), Fraction(1)], margin=8)
    lat = latmod.lattice_closure(w, w.hw_vector(), 3)
    red = latmod.reduce_mod_p(lat)
    assert red.dim == 4
    blocks = ell_weight_decomposition(red)
    F = red.ring
    seen = set()
    for b in blocks:
        assert b["ell_weight"] is not None
        pairs = b["ell_weight"].pairs
        if pairs:
            assert len(pairs) == 1
            a, mu = pairs[0]
            assert a == F(1)
            seen.add(mu)
        else:
            seen.add(0)
    assert seen == {2, 0, -2}
    assert sum(b["dim"] for b in blocks) == 4


def test_int64_bound_on_the_numpy_path():
    # n*(p-1)^2 < 2^63 with n = max(dim, Lambda precision) = 6 here
    F = PrimeField(1000000007)
    m = tensor(eval_weyl_module(F, 1, F(2)), eval_weyl_module(F, 1, F(3)))
    poly, checks = drinfeld_polynomial(m)
    assert all(checks.values())
    assert [c.v for c in poly.polys[0].coeffs] == [1, F(-5).v, 6]
    # (p-2)^2 overflows int64.  The Drinfeld data of a labelled module come
    # from its labels in exact integers, so they are right even here ...
    F = PrimeField(4294967291)
    m = tensor(eval_weyl_module(F, 1, F(2)), eval_weyl_module(F, 1, F(3)))
    poly, checks = drinfeld_polynomial(m)
    assert all(checks.values())
    assert [c.v for c in poly.polys[0].coeffs] == [1, F.p - 5, 6]
    # ... while the numpy tables still refuse the prime
    with pytest.raises(ValueError, match=r"n\*\(p-1\)\^2 < 2\^63"):
        m.op_np(LOWER, 1, 1)
    with pytest.raises(ValueError, match=r"n\*\(p-1\)\^2 < 2\^63"):
        is_irreducible(m)


def test_int64_bound_over_an_extension_field():
    # over F_{p^2} one coordinate of a product sums n*d = 12 terms of size
    # (p-1)^2: at p = 1000000007 the F_p tables (6 terms) pass the bound and
    # the F_{p^2} tables must refuse
    Fp = PrimeField(1000000007)
    m = tensor(eval_weyl_module(Fp, 1, Fp(2)), eval_weyl_module(Fp, 1, Fp(3)))
    assert m.op_np(LOWER, 1, 1).any()
    F = FiniteField(1000000007, 2)
    m = tensor(eval_weyl_module(F, 1, F.gen()), eval_weyl_module(F, 1, F.gen() + F.one))
    with pytest.raises(ValueError, match=r"n\*\(p-1\)\^2 < 2\^63"):
        m.op_np(LOWER, 1, 1)
    with pytest.raises(ValueError, match=r"n\*\(p-1\)\^2 < 2\^63"):
        ell_hw_vectors(m)
    # just below the bound the kernel is exact: its tables and products
    # agree with the boxed Kronecker sums and Mat products
    F = FiniteField(536870909, 2)
    left, right = eval_weyl_module(F, 1, F.gen()), eval_weyl_module(F, 1, F.gen() + F.one)
    m = tensor(left, right)
    K = arrays(F)
    for kind in (LOWER, RAISE):
        for r in (-2, 1, 3):
            want = left.op(kind, r, 1).kron(right.op(kind, r, 0)) + left.op(kind, r, 0).kron(right.op(kind, r, 1))
            assert from_np(m.op_np(kind, r, 1), F) == want
            assert from_np(K.mul(m.op_np(kind, r, 1), m.op_np(LOWER, r, 1)), F) == want * from_np(
                m.op_np(LOWER, r, 1), F
            )
    hw = ell_hw_vectors(m)
    assert len(hw) == 1
    for r in (-2, 1, 3):
        assert to_np(m.op(RAISE, r, 1)).any()
        assert all(F.is_zero(c) for c in m.op(RAISE, r, 1).apply(hw[0]))


def test_labelled_analysis_is_exact_at_any_prime():
    # no eigenspace search, no root finding and no int64 tables: the blocks
    # and the Drinfeld data of W(2,2) ⊗ W(1,3)* are read off the labels
    F = PrimeField(4294967291)
    m = tensor(eval_weyl_module(F, 2, F(2)), dual(eval_weyl_module(F, 1, F(3))))
    blocks = ell_weight_decomposition(m)
    assert [b["weight"] for b in blocks] == [3, 1, 1, -1, -1, -3]
    assert all(b["dim"] == 1 for b in blocks)
    for b in blocks:
        i = b["rows"][0].index(F.one)
        assert b["ell_weight"] == m.labels()[i]
    top = blocks[0]["ell_weight"]
    assert top.fmt() == [["2", [2]], ["3", [1]]]
    assert [c.v for c in top.coefficients(3)] == [1, F(-7).v, 16, F(-12).v]
    poly, checks = drinfeld_polynomial(m, blocks[0]["rows"][0])
    assert all(checks.values())
    assert [c.v for c in poly.polys[0].coeffs] == [1, F(-7).v, 16, F(-12).v]


def test_match_ell_weight_checks_the_minus_series():
    # the matrix path solves omega/pi from the plus series alone; the minus
    # series is what tells omega_{g,2} omega_{g+1,-1} from any other
    # ell-weight whose plus series agrees to this precision
    from hlx.modrep import _match_ell_weight

    F = FiniteField(3, 2)
    g = F.gen()
    m = tensor(eval_weyl_module(F, 2, g), dual(eval_weyl_module(F, 1, g + F.one)))
    blocks = ell_weight_decomposition(m)
    assert any(len(b["ell_weight"].pairs) == 2 for b in blocks)
    for b in blocks:
        plus, minus = b["series_plus"], b["series_minus"]
        prec = len(plus)
        assert _match_ell_weight(F, b["weight"], plus, minus, prec, m) == b["ell_weight"]
        for r in range(1, prec):
            bad = list(minus)
            bad[r] = bad[r] + F.one
            assert _match_ell_weight(F, b["weight"], plus, bad, prec, m) is None
