import inspect
import math
import textwrap

import numpy as np
import pytest

from currentlab import group as G
from currentlab.errors import DomainError, NotInGroupError, PointAtInfinityError
from currentlab.specfun import Dimensions


def test_form_matrix_shape():
    s = G.form_matrix(3)
    want = np.array([
        [0.0, 0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
    ])
    assert np.array_equal(s, want)


def z_letter(gamma) -> np.ndarray:
    """The matrix of the translation letter z(gamma)."""
    gamma = np.asarray(gamma, dtype=float)
    return G.TriangularElement(1.0, np.eye(len(gamma)), gamma).matrices()


def d_letter(eps: float, u) -> np.ndarray:
    """The matrix of the diagonal letter d(eps, u)."""
    u = np.atleast_2d(np.asarray(u, dtype=float))
    return G.TriangularElement(eps, u, np.zeros(len(u))).matrices()


def test_z_letter_blocks():
    g = z_letter([1.0, 2.0])
    m = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [-1.0, 1.0, 0.0, 0.0],
        [-2.0, 0.0, 1.0, 0.0],
        [-2.5, 1.0, 2.0, 1.0],
    ])
    assert np.allclose(g, m, atol=1e-15)
    assert G.membership_residuals(g) <= 1e-14


def test_d_letter_blocks_and_domain():
    g = d_letter(2.0, np.eye(1))
    assert np.allclose(g, np.diag([0.5, 1.0, 2.0]), atol=1e-15)
    with pytest.raises(DomainError):
        d_letter(0.0, np.eye(1))


def test_letters_satisfy_form_relation():
    rng = np.random.default_rng(3)
    for n in (2, 3):
        d = n - 1
        for _ in range(20):
            g = G.random_element(Dimensions(n), rng)
            assert G.membership_residuals(g.m) <= 1e-9
            assert g.m @ G.inverse_matrices(g.m) == pytest.approx(np.eye(n + 1), abs=1e-9)
        assert G.membership_residuals(G.make_s(n).m) == 0.0


def test_random_elements_are_words_drawn_as_one_array():
    for n in (2, 3):
        dims = Dimensions(n)
        g = G.random_elements(dims, np.random.default_rng(4), 3000)
        assert g.shape == (3000, n + 1, n + 1)
        assert G.membership_residuals(g).max() <= 1e-9
        # one-letter words are the letters themselves: s, and z(gamma), lower
        # unipotent
        assert np.any(np.all(g == G.form_matrix(n), axis=(1, 2)))
        assert np.any(np.all(np.triu(g) == np.eye(n + 1), axis=(1, 2)))
        # random_element is the batch of one
        one = G.random_element(dims, np.random.default_rng(9))
        assert np.array_equal(one.m, G.random_elements(dims, np.random.default_rng(9), 1)[0])


def _lapack_sign_fixed_q(a):
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def test_sign_fixed_q_closed_forms_are_the_qr_factor():
    # 1x1 and 2x2 factors come in closed form, against LAPACK's sign-fixed QR
    rng = np.random.default_rng(29)
    for d in (1, 2):
        a = rng.standard_normal((10 ** 4, d, d))
        q = G._sign_fixed_q(a)
        assert np.max(np.abs(q - _lapack_sign_fixed_q(a))) <= 1e-15
        qt = np.swapaxes(q, -1, -2)
        assert np.max(np.abs(qt @ q - np.eye(d))) <= 1e-15
        r = qt @ a
        assert np.max(np.abs(np.tril(r, -1))) <= 1e-15
        assert np.all(np.diagonal(r, axis1=-2, axis2=-1) > 0.0)
    # a single matrix, as random_orthogonal draws it
    a = rng.standard_normal((2, 2))
    assert np.max(np.abs(G._sign_fixed_q(a) - _lapack_sign_fixed_q(a))) <= 1e-15
    # from d = 3 on, LAPACK's factor itself
    a = rng.standard_normal((50, 3, 3))
    assert np.array_equal(G._sign_fixed_q(a), _lapack_sign_fixed_q(a))


def test_random_elements_stay_in_the_group():
    for n in (2, 3):
        g = G.random_elements(Dimensions(n), np.random.default_rng(n), 1000)
        assert G.membership_residuals(g).max() < 1e-12


def test_act_and_cocycle_broadcast_over_stacks():
    rng = np.random.default_rng(12)
    for n in (2, 3):
        dims = Dimensions(n)
        g = G.random_elements(dims, rng, 30)
        x = rng.standard_normal((30, dims.d))
        image, beta = G.act(x, g), G.cocycle_beta(x, g)
        kappa = G.action_condition(x, g)
        for k in range(30):
            one = G.GroupElement(g[k], n)
            assert np.allclose(image[k], G.act(x[k], one), rtol=1e-14, atol=0.0)
            assert beta[k] == pytest.approx(G.cocycle_beta(x[k], one), rel=1e-14)
            assert kappa[k] == pytest.approx(G.action_condition(x[k], one), rel=1e-14)
        assert np.all(kappa >= 1.0)
        # one point against a stack of elements, and a stack of points against one element
        assert G.act(x[0], g).shape == (30, dims.d)
        assert G.cocycle_beta(x, G.GroupElement(g[0], n)).shape == (30,)
        # a single point sent to infinity raises for the whole stack
        x[7] = 0.0
        with pytest.raises(PointAtInfinityError):
            G.act(x, G.make_s(n))
    # no cancellation and no large entry: the identity at the origin
    assert G.action_condition([0.0], G.GroupElement(np.eye(3), 2)) == 1.0


def test_inversion_squared_is_identity():
    for n in (2, 3):
        s = G.make_s(n)
        assert np.array_equal((s @ s).m, np.eye(n + 1))


def test_act_special_cases():
    # translation: gamma -> gamma + gamma0
    z = z_letter([0.3, -0.2])
    assert G.act([1.0, 1.0], z) == pytest.approx([1.3, 0.8], abs=1e-14)
    # dilation with rotation: gamma -> eps^{-1} gamma u
    u = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dlt = d_letter(2.0, u)
    assert G.act([1.0, 3.0], dlt) == pytest.approx(
        np.array([1.0, 3.0]) @ u / 2.0, abs=1e-14)
    # inversion: gamma -> -2 gamma / |gamma|^2
    s = G.make_s(3)
    gam = np.array([0.6, -0.8])
    assert G.act(gam, s) == pytest.approx(-2.0 * gam / (gam @ gam), abs=1e-13)


def test_act_point_at_infinity():
    with pytest.raises(PointAtInfinityError):
        G.act([0.0, 0.0], G.make_s(3))


def test_cocycle_beta_special_cases():
    gam = np.array([0.7, -1.1])
    # translations are isometries of the boundary metric
    assert G.cocycle_beta(gam, z_letter([2.0, 3.0])) == pytest.approx(1.0, abs=1e-14)
    # dilations scale by |eps|
    assert G.cocycle_beta(gam, d_letter(-3.0, np.eye(2))) == pytest.approx(3.0, abs=1e-14)
    # inversion gives |gamma|^2 / 2
    assert G.cocycle_beta(gam, G.make_s(3)) == pytest.approx(
        float(gam @ gam) / 2.0, abs=1e-14)


def test_cocycle_law_random_words():
    rng = np.random.default_rng(11)
    for n in (2, 3):
        dims = Dimensions(n)
        done = 0
        while done < 50:
            g1 = G.random_element(dims, rng)
            g2 = G.random_element(dims, rng)
            gam = rng.standard_normal(dims.d)
            try:
                lhs = G.cocycle_beta(gam, g1 @ g2)
                rhs = G.cocycle_beta(gam, g1) * G.cocycle_beta(G.act(gam, g1), g2)
            except PointAtInfinityError:
                continue
            assert lhs == pytest.approx(rhs, rel=1e-9)
            done += 1


def cocycle_beta_variant(gamma, m: np.ndarray) -> float:
    """The alternative reading of beta from the middle column blocks
    (g12, g22, g32) of the matrix m, which the cocycle law rules out."""
    gamma = np.atleast_1d(np.asarray(gamma, dtype=float))
    n = len(m) - 1
    val = (
        -0.5 * float(gamma @ gamma) * m[0, 1:n]
        + gamma @ m[1:n, 1:n]
        + m[n, 1:n]
    )
    return float(np.linalg.norm(np.atleast_1d(val)))


def test_cocycle_beta_variant_fails_for_diagonal_letters():
    # the middle-column reading returns |gamma| for a diagonal letter, not
    # |eps|; keeping both routes distinguishes the two candidate formulas
    gam = np.array([0.7, -1.1])
    dlt = d_letter(3.0, np.eye(2))
    assert cocycle_beta_variant(gam, dlt) == pytest.approx(
        float(np.linalg.norm(gam)), abs=1e-14)
    assert G.cocycle_beta(gam, dlt) == pytest.approx(3.0, abs=1e-14)
    # for a translation it returns the norm of the translated point
    z = z_letter([0.5, 0.5])
    assert cocycle_beta_variant(gam, z) == pytest.approx(
        float(np.linalg.norm(gam + np.array([0.5, 0.5]))), abs=1e-13)


def test_measure_relations():
    rng = np.random.default_rng(5)
    for n in (2, 3):
        dims = Dimensions(n)
        done = 0
        while done < 25:
            g = G.random_element(dims, rng)
            x = rng.standard_normal(dims.d)
            y = rng.standard_normal(dims.d)
            try:
                r1 = G.jacobian_relation_residual(g, x)
                r2 = G.distance_relation_residual(g, x, y)
            except PointAtInfinityError:
                continue
            assert r1 <= 1e-6
            assert r2 <= 1e-6
            done += 1


def test_jacobian_step_is_sized_to_the_pole():
    # s has its pole at 0, where beta = |x|^2 / 2 is computed without
    # cancellation; 1e-5 from it a fixed step of 1e-6 left a relative error
    # of 1e-2 in the Jacobian
    s = G.make_s(2)
    for x in (1e-5, 3e-3, 0.7):
        assert G.jacobian_relation_residual(s, [x]) <= 1e-10
        assert G.distance_relation_residual(s, [x], [-0.4]) <= 1e-14
    # over a stack, the residuals are the per-element ones
    rng = np.random.default_rng(8)
    g = G.random_elements(Dimensions(3), rng, 10)
    x, y = rng.standard_normal((2, 10, 2))
    r1 = G.jacobian_relation_residual(g, x)
    r2 = G.distance_relation_residual(g, x, y)
    for k in range(10):
        one = G.GroupElement(g[k], 3)
        assert (G.jacobian_relation_residual(one, x[k]),
                G.distance_relation_residual(one, x[k], y[k])) == pytest.approx(
                    (r1[k], r2[k]), rel=1e-6, abs=1e-18)


def test_triangular_composition_matches_matrix_product():
    rng = np.random.default_rng(7)
    for n in (2, 3):
        d = n - 1
        for _ in range(10):
            t1 = G.TriangularElement(
                math.exp(rng.uniform(-1, 1)),
                G.random_orthogonal(d, rng), rng.standard_normal(d))
            t2 = G.TriangularElement(
                -math.exp(rng.uniform(-1, 1)),
                G.random_orthogonal(d, rng), rng.standard_normal(d))
            prod = t1.compose(t2).matrices()
            assert np.abs(prod - t1.matrices() @ t2.matrices()).max() <= 1e-12


def test_factor_word_triangular_case():
    t = G.TriangularElement(2.0, np.eye(2), np.array([1.0, -1.0]))
    w = G.factor_word(G.GroupElement(t.matrices(), 3))
    assert len(w.letters) == 1
    assert np.abs(w.evaluate().m - t.matrices()).max() <= 1e-10


def test_factor_word_generic_case():
    rng = np.random.default_rng(23)
    for n in (2, 3):
        dims = Dimensions(n)
        for _ in range(25):
            g = G.random_element(dims, rng)
            w = G.factor_word(g)
            assert len(w.letters) <= 3
            assert np.abs(w.evaluate().m - g.m).max() <= 1e-8


def test_factor_word_near_the_triangular_subgroup():
    # random_element draws whose corner g13 is 1.1e-5 and 1.8e-6 of the
    # largest entry, and an element 1e-12 off the subgroup; the split at g13
    # alone leaves the group for the draws (membership residuals 2.0e-7 and
    # 6.5e-7) and raised "not block lower triangular" for the third
    t = G.TriangularElement(-1.7, np.eye(1), np.array([0.8]))
    s = G.form_matrix(2)
    near = [G.random_element(Dimensions(2), np.random.default_rng(seed))
            for seed in (115268, 805762)]
    _, quotients = G._split(np.stack([g.m for g in near]))
    assert np.all(G.membership_residuals(quotients) > G._QUOTIENT_TOL)
    near.append(G.GroupElement(t.matrices() @ s @ z_letter([1e-6]) @ s, 2))
    for g in near:
        scale = float(np.abs(g.m).max())
        assert 0 < abs(g.m[0, 2]) <= 2e-5 * scale
        w = G.factor_word(g)
        assert len(w.letters) == 4
        assert np.abs(w.evaluate().m - g.m).max() <= 1e-8 * scale


def test_factor_words_is_factor_word_over_a_stack():
    # generic, near-triangular and triangular elements and a non-member in
    # one stack, and a stack that no element splits: each word evaluates as
    # factor_word's, and ok is False exactly where factor_word raises
    for n in (2, 3):
        dims = Dimensions(n)
        t = G.TriangularElement(-1.7, np.eye(n - 1), np.full(n - 1, 0.8))
        s = G.form_matrix(n)
        near = t.matrices() @ s @ z_letter(np.full(n - 1, 1e-6)) @ s
        bad = 2.0 * np.eye(n + 1)
        mixed = np.concatenate((G.random_elements(dims, np.random.default_rng(n), 30),
                                [near, t.matrices(), bad]))
        triangular = np.concatenate(
            (G.random_triangular(dims, np.random.default_rng(n), 20).matrices(), [bad]))
        for m in (mixed, triangular):
            words, ok = G.factor_words(m)
            assert ok[:-1].all() and not ok[-1]
            if m is mixed:
                assert words.lead[-3] and not words.split[-2]
            else:
                assert not (words.split.any() or words.lead.any() or words.shift.any())
            got = words.evaluate()
            for i in range(len(m) - 1):
                w = G.factor_word(G.GroupElement(m[i], n))
                assert len(w.letters) == len(words.word(i).letters)
                assert np.abs(got[i] - w.evaluate().m).max() <= 1e-13 * np.abs(m[i]).max()
                assert np.abs(got[i] - m[i]).max() <= 1e-13 * np.abs(m[i]).max()
            with pytest.raises(NotInGroupError):
                G.factor_word(G.GroupElement(m[-1], n))


def test_triangular_stacks_compose_elementwise():
    t1 = G.random_triangular(Dimensions(3), np.random.default_rng(4), 6)
    t2 = G.random_triangular(Dimensions(3), np.random.default_rng(5), 6)
    both = t1.compose(t2)
    mats = both.matrices()
    assert mats.shape == (6, 4, 4)
    for i in range(6):
        one = G.TriangularElement(float(t1.epsilon[i]), t1.u[i], t1.gamma[i]).compose(
            G.TriangularElement(float(t2.epsilon[i]), t2.u[i], t2.gamma[i]))
        assert np.abs(one.matrices() - mats[i]).max() <= 1e-14
    with pytest.raises(DomainError):
        G.TriangularElement(np.array([1.0, 0.0]), np.stack([np.eye(2)] * 2), np.zeros((2, 2)))


def test_factor_word_rejects_non_members():
    bad = G.GroupElement(np.eye(4) * 2.0, 3)
    with pytest.raises(NotInGroupError):
        G.factor_word(bad)


def test_d_of_gamma_is_the_exchange_coefficient():
    # d(gamma), the first letter of the exchange identity's right side, is
    # diag(-2/|gamma|^2, u_gamma, -|gamma|^2/2) with u_gamma the reflection
    # in gamma
    gam = np.array([1.0, 2.0])
    _, (d_gamma, *_) = G.exchange_words(gam)
    dg = d_gamma.matrices()
    assert dg[3, 3] == pytest.approx(-0.5 * float(gam @ gam), abs=1e-14)
    assert dg[0, 0] == pytest.approx(-2.0 / float(gam @ gam), abs=1e-14)
    assert np.allclose(dg[1:3, 1:3], np.eye(2) - 2.0 * np.outer(gam, gam) / (gam @ gam),
                       atol=1e-15, rtol=0.0)
    assert G.membership_residuals(dg) <= 1e-14
    with pytest.raises(DomainError):
        G.exchange_words([0.0, 0.0])


def test_word_identity():
    rng = np.random.default_rng(31)
    for n in (2, 3):
        for _ in range(20):
            gam = rng.standard_normal(n - 1)
            assert G.word_identity_residual(gam) <= 1e-10
    with pytest.raises(DomainError):
        G.word_identity_residual(np.zeros(2))


def test_word_identity_over_a_stack_is_its_rows():
    rng = np.random.default_rng(32)
    for d in (1, 2):
        gam = rng.standard_normal((20, d))
        got = G.word_identity_residual(gam)
        assert got.shape == (20,)
        assert np.array_equal(got, [G.word_identity_residual(g) for g in gam])
        assert isinstance(G.word_identity_residual(gam[0]), float)
        with pytest.raises(DomainError):
            G.word_identity_residual(np.vstack((gam, np.zeros(d))))
    assert G.word_identity_residual(0.7) == G.word_identity_residual([[0.7]])[0]


def test_exchange_words_over_a_stack_are_the_words_of_each_gamma():
    rng = np.random.default_rng(34)
    for d in (1, 2):
        gam = rng.standard_normal((5, d))
        per_gamma = [G.exchange_words(g) for g in gam]
        for side, stacked in enumerate(G.exchange_words(gam)):
            got = G.GroupWord(d + 1, stacked).matrices()
            assert got.shape == (5, d + 2, d + 2)
            for i, words in enumerate(per_gamma):
                assert np.array_equal(got[i], G.GroupWord(d + 1, words[side]).evaluate().m)
    with pytest.raises(DomainError):
        G.exchange_words([0.0])


def test_word_identity_sees_j_gamma_of_the_wrong_sign():
    source = textwrap.dedent(inspect.getsource(G.exchange_words))
    assert "jg = -2.0 * gamma" in source
    scope = dict(vars(G))
    exec(source.replace("jg = -2.0 * gamma", "jg = 2.0 * gamma"), scope)
    exec(textwrap.dedent(inspect.getsource(G.word_identity_residual)), scope)
    rng = np.random.default_rng(33)
    for d in (1, 2):
        assert scope["word_identity_residual"](rng.standard_normal((20, d))).min() >= 0.1
