"""Tests for the symmetric-function engine."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eigen_oracle import eigen_coefficients, eta_spectrum_from_kappa
from etacurv import symm
from etacurv.errors import ConeViolationError
from sigma_oracle import sigma_brute


def cone_points(n, k, count, rng, margin=0.01):
    """Random points of Gamma_k with a relative distance to the boundary.

    The margin keeps finite-difference oracles valid; G's derivatives blow
    up at the cone boundary.
    """
    out = []
    while len(out) < count:
        lam = rng.standard_normal((8 * count, n)) * 2 + rng.uniform(0.5, 3)
        e = symm.elem_sym_all_batch(lam)
        scale = np.abs(lam).max(axis=1)
        ok = np.ones(len(lam), dtype=bool)
        for j in range(1, k + 1):
            ok &= e[:, j] > margin * scale**j
        out.extend(lam[ok][: count - len(out)])
    return np.asarray(out)


class TestSigma:
    def test_ones_m2(self):
        assert symm.elem_sym_all((1.0, 1.0, 1.0))[2] == 3.0

    def test_full_product(self):
        assert symm.elem_sym_all((1.0, 2.0, 3.0))[3] == 6.0

    def test_vs_brute(self):
        assert symm.elem_sym_all((1.0, 2.0, 3.0))[2] \
            == sigma_brute([1, 2, 3], 2) == 11.0

    def test_sigma_zero(self):
        assert symm.elem_sym_all((4.0, -1.0))[0] == 1.0

    def test_m_out_of_range(self):
        with pytest.raises(ValueError):
            sigma_brute((1.0, 2.0), 3)

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(7)
        for n in range(2, 9):
            vals = rng.standard_normal((200, n)) * 3
            e = symm.elem_sym_all_batch(vals)
            for m in range(n + 1):
                brute = np.array([sigma_brute(v, m) for v in vals])
                scale = np.maximum(np.abs(brute), 1.0)
                assert np.all(np.abs(e[:, m] - brute) / scale < 1e-12)


def sigma_excl(values, m, i):
    """sigma_m of one vector with entry i removed, from the batch kernel."""
    return symm.sigma_excl_batch(np.asarray([values], dtype=float), m)[0, i]


class TestSigmaExcl:
    def test_remove_middle(self):
        assert sigma_excl((1.0, 2.0, 3.0), 1, 1) == 4.0

    def test_m_zero(self):
        assert sigma_excl((5.0, -2.0, 0.3), 0, 2) == 1.0

    def test_remove_first(self):
        assert sigma_excl((5.0, 1.0, 1.0), 2, 0) == 1.0

    def test_vs_brute(self):
        rng = np.random.default_rng(8)
        vals = rng.standard_normal(5)
        for i in range(5):
            rest = np.delete(vals, i)
            for m in range(5):
                assert sigma_excl(vals, m, i) == pytest.approx(
                    sigma_brute(rest, m), rel=1e-13)


def in_cone(values, k):
    """Gamma_k membership of one vector by the cone check of the solvers."""
    e = symm.elem_sym_all_batch(np.asarray([values], dtype=float), k)
    try:
        symm.require_cone_batch(e, k)
    except ConeViolationError:
        return False
    return True


class TestConeMembership:
    def test_positive_orthant(self):
        assert in_cone((1, 1, 1), 3)

    def test_outside(self):
        assert not in_cone((-1, 1, 1), 2)

    def test_mixed_sign_inside(self):
        assert in_cone((3, 3, -1), 2)

    def test_batch_first_fail(self):
        lam = np.array([[1.0, 1.0, 1.0], [-3.0, 1.0, 1.0], [-1.0, 3.0, 3.0]])
        assert [in_cone(row, 2) for row in lam] == [True, False, True]
        with pytest.raises(ConeViolationError) as exc:
            symm.require_cone_batch(symm.elem_sym_all_batch(lam, 2), 2)
        assert exc.value.node == 1
        assert exc.value.j == 1

    def test_require_raises_with_node(self):
        lam = np.array([[1.0, 1.0], [-2.0, 1.0]])
        with pytest.raises(ConeViolationError) as exc:
            symm.require_cone_batch(symm.elem_sym_all_batch(lam), 1)
        assert exc.value.node == 1
        assert exc.value.j == 1

    def test_table_stops_at_the_order_without_overflow(self):
        # sigma_m of 400 entries of 399 passes the float range for large m;
        # a table stopped at k = 1 never forms those orders.
        lam = np.full((3, 400), 399.0)
        with np.errstate(all="raise"):
            e = symm.require_cone_batch(symm.elem_sym_all_batch(lam, 1), 1)
        assert e.shape == (3, 2)
        assert np.all(e[:, 1] == 400 * 399.0)


class TestEtaSpectrum:
    """The eta spectrum oracle of eigen_oracle."""

    def test_n2_swap(self):
        es = eta_spectrum_from_kappa([1.0, 1.0])
        assert np.allclose(es.values, [1.0, 1.0])

    def test_sorted_sums(self):
        es = eta_spectrum_from_kappa([1.0, 2.0, 3.0])
        assert np.allclose(es.values, [3.0, 4.0, 5.0])
        # ascending lambda pairs with descending kappa
        assert list(es.permutation) == [2, 1, 0]

    def test_round(self):
        r = 2.0
        es = eta_spectrum_from_kappa(np.full(4, 1 / r))
        assert np.allclose(es.values, 3 / r)

    def test_trace_identity(self):
        rng = np.random.default_rng(9)
        kappa = rng.standard_normal(5)
        es = eta_spectrum_from_kappa(kappa)
        assert es.values.sum() == pytest.approx(4 * kappa.sum(), rel=1e-12)


class TestOperatorCoefficients:
    def test_symmetric_point(self):
        n, k = 4, 2
        co = symm.operator_coefficients(
            symm.SpectrumVector(np.ones(n), k))
        assert co.value == pytest.approx(6.0**0.5, rel=1e-14)
        assert np.allclose(co.gradient, co.gradient[0])

    def test_cone_violation_reports_first_j(self):
        with pytest.raises(ConeViolationError) as exc:
            symm.operator_coefficients(
                symm.SpectrumVector((-1.0, 1.0, 1.0), k=2))
        assert exc.value.j == 2

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(10)
        for n, k in ((2, 2), (3, 2), (4, 3), (5, 4)):
            for lam in cone_points(n, k, 20, rng):
                co = symm.operator_coefficients(symm.SpectrumVector(lam, k))
                hs = 1e-5 * (1 + np.abs(lam))
                fd = np.empty(n)
                for i in range(n):
                    e = np.zeros(n)
                    e[i] = hs[i]
                    gp = symm.elem_sym_all(lam + e)[k] ** (1 / k)
                    gm = symm.elem_sym_all(lam - e)[k] ** (1 / k)
                    fd[i] = (gp - gm) / (2 * hs[i])
                rel = np.abs(fd - co.gradient).max() / np.abs(fd).max()
                assert rel < 1e-6

    def test_euler_identity(self):
        rng = np.random.default_rng(11)
        for n, k in ((3, 2), (4, 2), (5, 3)):
            for lam in cone_points(n, k, 50, rng, margin=0.0):
                co = symm.operator_coefficients(symm.SpectrumVector(lam, k))
                assert np.dot(co.gradient, lam) == pytest.approx(
                    co.value, rel=1e-10)

    def test_homogeneity(self):
        rng = np.random.default_rng(12)
        for lam in cone_points(4, 3, 30, rng, margin=0.0):
            g1 = symm.operator_coefficients(
                symm.SpectrumVector(lam, 3)).value
            for t in (0.5, 2.0, 7.3):
                gt = symm.operator_coefficients(
                    symm.SpectrumVector(t * lam, 3)).value
                assert gt == pytest.approx(t * g1, rel=1e-10)

    def test_hessian_negative_semidefinite(self):
        rng = np.random.default_rng(13)
        for n, k in ((3, 2), (4, 3), (5, 2)):
            for lam in cone_points(n, k, 30, rng, margin=0.0):
                co = symm.operator_coefficients(symm.SpectrumVector(lam, k))
                ev = np.linalg.eigvalsh(co.hessian)
                assert ev.max() <= 1e-10 * max(1.0, abs(ev.min()))

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(14)
        for n, k in ((3, 2), (4, 3)):
            pts = cone_points(n, k, 60, rng, margin=0.0)
            for a, b in zip(pts[:30], pts[30:]):
                gm = symm.elem_sym_all((a + b) / 2)[k] ** (1 / k)
                ga = symm.elem_sym_all(a)[k] ** (1 / k)
                gb = symm.elem_sym_all(b)[k] ** (1 / k)
                assert gm >= 0.5 * (ga + gb) - 1e-12

    def test_ordering_and_f_coeffs(self):
        rng = np.random.default_rng(15)
        for lam in cone_points(4, 2, 40, rng, margin=0.0):
            lam = np.sort(lam)
            co = symm.operator_coefficients(symm.SpectrumVector(lam, 2))
            # ascending lambda gives nonincreasing G^ii, nondecreasing F^ii
            assert np.all(np.diff(co.gradient) <= 1e-12)
            assert np.all(np.diff(co.f_coeffs) >= -1e-12)
            assert np.allclose(co.f_coeffs,
                               co.gradient.sum() - co.gradient)

    def test_maclaurin(self):
        rng = np.random.default_rng(16)
        import math
        for n, k in ((3, 2), (4, 3), (5, 4)):
            for lam in cone_points(n, k, 30, rng, margin=0.0):
                e = symm.elem_sym_all(lam)
                lhs = (e[k] / math.comb(n, k)) ** (1 / k)
                rhs = (e[k - 1] / math.comb(n, k - 1)) ** (1 / (k - 1))
                assert lhs <= rhs * (1 + 1e-12)

    def test_f22_lower_bound(self):
        rng = np.random.default_rng(17)
        for n, k in ((3, 2), (4, 2), (5, 3)):
            for lam in cone_points(n, k, 30, rng, margin=0.0):
                lam = np.sort(lam)
                co = symm.operator_coefficients(symm.SpectrumVector(lam, k))
                assert co.f_coeffs[1] >= co.f_coeffs.sum() / (n * (n - 1)) \
                    - 1e-12 * co.f_coeffs.sum()

    def test_pair_second_tie_limit(self):
        # The divided difference (G^ii - G^jj) / (lam_i - lam_j) of the
        # gradient must approach the analytic tie limit G^ii,ii - G^ii,jj
        # of the Hessian.
        base = np.array([2.0, 2.0, 5.0])
        co0 = symm.operator_coefficients(symm.SpectrumVector(base, 2))
        tie = co0.hessian[0, 0] - co0.hessian[0, 1]
        eps = 1e-6
        lam = base + np.array([0.0, eps, 0.0])
        co1 = symm.operator_coefficients(symm.SpectrumVector(lam, 2))
        pair = (co1.gradient[0] - co1.gradient[1]) / (lam[0] - lam[1])
        assert pair == pytest.approx(tie, rel=1e-5)


class TestSpectrumVector:
    def test_bad_k(self):
        with pytest.raises(ValueError):
            symm.SpectrumVector((1.0, 2.0), k=3)

    def test_bad_length(self):
        with pytest.raises(ValueError):
            symm.SpectrumVector((1.0,), k=1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-50, 50), min_size=2, max_size=8),
       st.integers(0, 8))
def test_sigma_recurrence_matches_enumeration(values, m):
    vals = np.asarray(values)
    if m > vals.size:
        m = vals.size
    got = symm.elem_sym_all(vals)[m]
    want = sigma_brute(vals, m)
    assert abs(got - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-20, 20), min_size=2, max_size=6))
def test_eta_spectrum_sum_rule(kappa):
    kappa = np.asarray(kappa)
    es = eta_spectrum_from_kappa(kappa)
    n = kappa.size
    assert abs(es.values.sum() - (n - 1) * kappa.sum()) \
        <= 1e-10 * max(1.0, abs(kappa).sum())
    # ascending order
    assert np.all(np.diff(es.values) >= 0)
    # permutation recovers the unsorted spectrum
    unsorted = kappa.sum() - kappa
    assert np.allclose(es.values, unsorted[es.permutation])


# The batch kernels are the only implementation: the one-vector entry
# point is a one-row call into them, and every row of a batch is computed
# on its own.
vectors = st.integers(2, 8).flatmap(
    lambda n: st.lists(st.lists(st.floats(-20, 20), min_size=n, max_size=n),
                       min_size=1, max_size=4))


@settings(max_examples=100, deadline=None)
@given(vectors)
def test_scalar_entry_points_are_one_row_batch_calls(rows):
    lam = np.asarray(rows)
    n = lam.shape[1]
    table = symm.elem_sym_all_batch(lam)
    excl = [symm.sigma_excl_batch(lam, m) for m in range(n)]
    for p, row in enumerate(lam):
        assert np.array_equal(symm.elem_sym_all(row), table[p])
        for m in range(n):
            assert np.array_equal(symm.sigma_excl_batch(row[None, :], m)[0],
                                  excl[m][p])


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=8),
       st.integers(0, 7))
def test_sigma_excl_batch_matches_enumeration(values, m):
    vals = np.asarray(values)
    n = vals.size
    m = min(m, n - 1)
    got = symm.sigma_excl_batch(vals[None, :], m)[0]
    for i in range(n):
        want = sigma_brute(np.delete(vals, i), m)
        assert abs(got[i] - want) <= 1e-12 * max(1.0, abs(want))


@settings(max_examples=150, deadline=None)
@given(vectors, st.integers(1, 8), st.booleans())
def test_require_cone_batch_returns_table_or_names_first_row(rows, k,
                                                             with_ids):
    lam = np.asarray(rows)
    k = min(k, lam.shape[1])
    table = symm.elem_sym_all_batch(lam)
    node_ids = 100 + np.arange(len(lam)) if with_ids else None
    inside = (table[:, 1 : k + 1] > 0.0).all(axis=1)
    if inside.all():
        got = symm.require_cone_batch(table, k, node_ids=node_ids)
        assert got is table
        return
    p = int(np.argmin(inside))
    j = 1 + int(np.argmax(table[p, 1 : k + 1] <= 0.0))
    with pytest.raises(ConeViolationError) as exc:
        symm.require_cone_batch(table, k, node_ids=node_ids)
    assert exc.value.j == j
    assert exc.value.sigma_value == table[p, j]
    assert exc.value.node == (p if node_ids is None else node_ids[p])


def rotated(lam, seed):
    """Symmetric matrices Q diag(lam) Q^T, one per row of lam, for random
    orthogonal Q."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal(lam.shape + lam.shape[-1:]))
    m = np.einsum("nij,nj,nkj->nik", q, lam, q)
    return 0.5 * (m + m.transpose(0, 2, 1))


# Rows of spectra in Gamma_d (all entries positive), d = 2..7, and an order.
spectra = st.integers(2, 7).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.floats(1e-3, 1e3), min_size=d, max_size=d),
             min_size=1, max_size=4),
    st.integers(1, d)))


@settings(max_examples=200, deadline=None)
@given(spectra, st.integers(0, 2**32 - 1))
def test_newton_tensor_sigma_matches_the_eigenvalue_table(case, seed):
    rows, k = case
    m = rotated(np.asarray(rows), seed)
    e, _ = symm.newton_tensor_batch(m, k)
    want = symm.elem_sym_all_batch(np.linalg.eigvalsh(m), k)
    assert e.shape == want.shape and np.all(e[:, 0] == 1.0)
    # In units of sigma_1^j, which bounds sigma_j on Gamma_d.
    s1 = want[:, 1:2] ** np.arange(k + 1)
    assert np.all(np.abs(e - want) <= 1e-14 * s1)


@settings(max_examples=200, deadline=None)
@given(spectra, st.integers(0, 2**32 - 1))
def test_newton_tensor_coefficients_match_the_eigen_path(case, seed):
    rows, k = case
    m = rotated(np.asarray(rows), seed)
    d = m.shape[-1]
    # M = (tr H) I - H, so H = (tr M / (d - 1)) I - M.
    hess = (np.einsum("naa->n", m) / (d - 1))[:, None, None] * np.eye(d) - m
    _, t = symm.newton_tensor_batch(m, k)
    coef = np.einsum("naa->n", t)[:, None, None] * np.eye(d) - t
    want = eigen_coefficients(hess, k)
    s1 = np.einsum("naa->n", m)[:, None, None] ** (k - 1)
    assert np.all(np.abs(coef - want) <= 1e-13 * s1)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 7).flatmap(lambda d: st.tuples(
    st.lists(st.lists(st.integers(-6, 6), min_size=d, max_size=d),
             min_size=1, max_size=5),
    st.integers(1, d))), st.integers(0, 2**32 - 1))
def test_newton_tensor_cone_check_names_the_first_bad_node(case, seed):
    rows, k = case
    lam = np.asarray(rows, dtype=float)
    exact = symm.elem_sym_all_batch(lam, k)     # integers: exact
    # Off the boundary, so that roundoff in Q cannot flip a sign.
    assume(np.all(exact[:, 1:] != 0.0))
    e, _ = symm.newton_tensor_batch(rotated(lam, seed), k)
    inside = (exact[:, 1:] > 0.0).all(axis=1)
    if inside.all():
        assert symm.require_cone_batch(e, k) is e
        return
    p = int(np.argmin(inside))
    with pytest.raises(ConeViolationError) as exc:
        symm.require_cone_batch(e, k)
    assert exc.value.node == p
    assert exc.value.j == 1 + int(np.argmax(exact[p, 1:] <= 0.0))
