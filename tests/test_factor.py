"""Tests for the fill-reducing orders the grids store and ``newton.factor``.

A flat grid orders its unknowns by nested dissection of the lattice, a
full-2d sphere grid by SuperLU's minimum degree on its Jacobian pattern;
``factor`` solves in that order and must agree with ``spsolve`` in the
natural one.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import splu, spsolve

from etacurv import flatcase, geometry, solver
from etacurv.errors import NewtonDiverged
from etacurv.newton import NewtonConfig, damped_newton, factor

FLATS = {
    "ball2d": lambda: flatcase.build_flat_grid(2, "ball", h=1 / 16),
    "ball3d": lambda: flatcase.build_flat_grid(3, "ball", h=1 / 6),
    # Faces off the lattice: every boundary stencil is snapped.
    "rect3d": lambda: flatcase.build_flat_grid(
        3, "rect", h=1 / 6, bounds=[(-1.0, 1.0), (0.0, 0.5), (-0.25, 1.3)]),
}
SPHERES = {
    "full16x16": lambda: geometry.build_grid(2, "full-2d", (16, 16)),
    "full128x64": lambda: geometry.build_grid(2, "full-2d", (128, 64)),
}


def pattern(grid):
    s = grid.slots
    return sp.csr_matrix((np.ones(s.indices.size), s.indices, s.indptr),
                         shape=s.shape)


def grad_sq(x, phi, grad):
    return 1.0 + np.einsum("ni,ni->n", grad, grad)


def flat_jacobian(grid):
    phi = flatcase._initial_guess(grid, grad_sq, 2)
    return flatcase.flat_jacobian(flatcase.build_flat_state(grid, phi),
                                  grad_sq, 2)


def sphere_jacobian(grid):
    data = solver.PrescribedData(
        f=lambda x, nu: (1.25 * (1.0 + 0.2 * nu[..., 2])
                         * np.linalg.norm(x, axis=-1) ** -3.0),
        r1=0.5, r2=2.0)
    rho = (1.2 + 0.05 * np.sin(grid.theta) * np.cos(grid.phi)
           + 0.03 * np.cos(grid.theta))
    return solver.assemble_jacobian(grid, rho, data, 2)


def lu_fill(jac, perm=None):
    """L + U nonzeros of the LU factor() makes, or of COLAMD's without
    perm."""
    if perm is None:
        lu = splu(jac.tocsc())
    else:
        lu = splu(jac.tocsc()[perm][:, perm], permc_spec="NATURAL")
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("build", [*FLATS.values(), *SPHERES.values()],
                         ids=[*FLATS, *SPHERES])
def test_order_is_a_reproducible_bijection(build):
    grid = build()
    n = grid.slots.shape[0]
    assert np.array_equal(np.sort(grid.perm), np.arange(n))
    again = build().perm
    assert again.dtype == grid.perm.dtype
    assert again.tobytes() == grid.perm.tobytes()


def test_min_degree_order_is_superlus():
    # The incomplete factorization gives the order a complete one does.
    grid = SPHERES["full16x16"]()
    pat = pattern(grid)
    sym = (pat + pat.T).tocsc()
    sym.setdiag(100.0)
    lu = splu(sym, permc_spec="MMD_AT_PLUS_A",
              options={"SymmetricMode": True})
    assert np.array_equal(grid.perm, np.argsort(lu.perm_c))


def test_axisym_grid_has_no_order():
    assert geometry.build_grid(3, "axisym-1d", 32).perm is None


@pytest.mark.parametrize("name", sorted(FLATS))
def test_dissection_cuts_separate_the_pattern(name):
    grid = FLATS[name]()
    node = np.rint(grid.pts / grid.h).astype(int)
    cuts = []
    perm = flatcase.lattice_dissection(node, cuts=cuts)
    assert np.array_equal(perm, grid.perm)
    assert len(cuts) >= 3
    pat = pattern(grid)
    pos = np.argsort(perm)
    for below, above in cuts:
        assert below.size and above.size
        assert pat[below][:, above].nnz == 0
        assert pat[above][:, below].nnz == 0
        # Each half comes first as a block, and the plane after both.
        assert pos[below].max() < pos[above].min()
        span = np.arange(pos[below].min(), pos[above].max() + 1)
        assert np.array_equal(np.sort(pos[np.concatenate([below, above])]),
                              span)


def test_small_sets_keep_their_order():
    node = np.indices((4, 4, 4)).reshape(3, -1).T
    assert np.array_equal(flatcase.lattice_dissection(node),
                          np.arange(64))


@pytest.mark.parametrize("grid,jacobian", [
    (FLATS["ball3d"], flat_jacobian),
    (FLATS["rect3d"], flat_jacobian),
    (SPHERES["full128x64"], sphere_jacobian),
], ids=["ball3d", "rect3d", "full128x64"])
def test_factor_solves_like_spsolve(grid, jacobian):
    grid = grid()
    jac = jacobian(grid)
    b = np.random.default_rng(7).standard_normal(jac.shape[0])
    ref = spsolve(jac.tocsc(), b)
    x = factor(jac, grid.perm)(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # Without an order, factor is spsolve in SuperLU's default order.
    assert factor(jac)(b).tobytes() == ref.tobytes()


def test_dense_jacobian_is_solved_densely():
    # The "fd" oracle's Jacobian is dense and ignores the order.
    jac = sphere_jacobian(SPHERES["full16x16"]()).toarray()
    b = np.random.default_rng(7).standard_normal(jac.shape[0])
    assert (factor(jac, np.arange(b.size)[::-1])(b).tobytes()
            == np.linalg.solve(jac, b).tobytes())


def test_flat_order_halves_the_fill():
    grid = flatcase.build_flat_grid(3, "ball", h=1 / 12)
    jac = flat_jacobian(grid)
    assert lu_fill(jac, grid.perm) <= 0.5 * lu_fill(jac)


def test_sphere_order_cuts_the_fill():
    grid = SPHERES["full128x64"]()
    jac = sphere_jacobian(grid)
    assert lu_fill(jac, grid.perm) < lu_fill(jac)


def test_singular_jacobian_ends_newton():
    def res(x):
        return x - 1.0

    def jac(x):
        return sp.csr_matrix((2, 2))

    cfg = NewtonConfig(perm=np.array([1, 0]))
    with pytest.raises(NewtonDiverged, match="Jacobian not factored"):
        damped_newton(np.zeros(2), res, jac, cfg)
