"""Tests for the LU plans the grids store and their ``factor``.

A flat grid orders its unknowns by nested dissection of the lattice and
factors by the multifrontal plan over that dissection's tree; a full-2d
sphere grid's ``SuperLUPlan`` orders them by SuperLU's minimum degree on
its Jacobian pattern; an axisym grid's ``TridiagonalPlan`` factors its
tridiagonal Jacobians by LAPACK's banded LU. Each plan's ``factor`` must
agree with ``spsolve`` in the natural order. With an order, a
``SuperLUPlan`` factors the transpose, so each test checks that it solves
J x = b and not Jᵀ x = b.
"""

import re

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu, spsolve

from etacurv import _multifrontal, flatcase, geometry, solver
from etacurv.errors import NewtonDiverged
from etacurv.newton import (NewtonConfig, SlotTable, SuperLUPlan,
                            TridiagonalPlan, damped_newton)

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


def subtrees(sizes, parent):
    """Range [first, end) of each front's subtree in the order."""
    ends = np.cumsum(sizes)
    first = (ends - sizes).tolist()
    for f, p in enumerate(parent):     # postorder: children come first
        if p >= 0:
            first[p] = min(first[p], first[f])
    return list(zip(first, ends.tolist()))


def pattern(grid):
    s = grid.slots
    return sp.csr_matrix((np.ones(s.indices.size), s.indices, s.indptr),
                         shape=s.shape)


def grad_sq(x, phi, grad):
    return 1.0 + np.einsum("ni,ni->n", grad, grad)


def flat_jacobian(grid, k=2):
    phi = flatcase._initial_guess(grid, grad_sq, k)
    return flatcase.flat_jacobian(flatcase.build_flat_state(grid, phi),
                                  grad_sq, k)


def sphere_jacobian(grid):
    data = solver.PrescribedData(
        f=lambda x, nu: (1.25 * (1.0 + 0.2 * nu[..., 2])
                         * np.linalg.norm(x, axis=-1) ** -3.0),
        r1=0.5, r2=2.0)
    # x on a full grid; an axisym profile must be even at the poles, so
    # there z^2 stands in for it.
    wave = (np.sin(grid.theta) * np.cos(grid.phi) if grid.mode == "full-2d"
            else np.cos(grid.theta) ** 2)
    rho = 1.2 + 0.05 * wave + 0.03 * np.cos(grid.theta)
    return solver.assemble_jacobian(grid, rho, data, 2)


def nonzeros(jac):
    """A copy of jac with its exact zeros dropped: what SuperLU factors."""
    jac = jac.copy()
    jac.eliminate_zeros()
    return jac


def lu_fill(jac, perm=None):
    """L + U nonzeros of SuperLU's LU of jac's nonzeros: of the transposed
    jac[perm][:, perm] with a permutation perm, as a SuperLUPlan makes it, of
    COLAMD's without."""
    jac = nonzeros(jac)
    if perm is None:
        lu = splu(jac.tocsc())
    else:
        lu = splu(jac.tocsr()[perm][:, perm].T, permc_spec="NATURAL")
    return lu.L.nnz + lu.U.nnz


@pytest.mark.parametrize("build", [*FLATS.values(), *SPHERES.values()],
                         ids=[*FLATS, *SPHERES])
def test_order_is_a_reproducible_bijection(build):
    grid = build()
    n = grid.slots.shape[0]
    order = grid.plan.order
    assert np.array_equal(np.sort(order), np.arange(n))
    again = build().plan.order
    assert again.dtype == order.dtype
    assert again.tobytes() == order.tobytes()


def test_min_degree_order_is_superlus():
    # The incomplete factorization gives the order a complete one does.
    grid = SPHERES["full16x16"]()
    pat = pattern(grid)
    sym = (pat + pat.T).tocsc()
    sym.setdiag(100.0)
    lu = splu(sym, permc_spec="MMD_AT_PLUS_A",
              options={"SymmetricMode": True})
    assert np.array_equal(grid.plan.order, np.argsort(lu.perm_c))


def test_axisym_grid_stores_a_tridiagonal_plan():
    grid = geometry.build_grid(3, "axisym-1d", 32)
    assert isinstance(grid.plan, TridiagonalPlan)
    indptr, indices = grid.plan.pattern
    assert np.array_equal(indptr, grid.slots.indptr)
    assert np.array_equal(indices, grid.slots.indices)


def band(n):
    """The full tridiagonal band of n unknowns, in CSR."""
    return sp.diags([np.ones(n - 1), np.ones(n), np.ones(n - 1)],
                    [-1, 0, 1], format="csr")


@pytest.mark.parametrize("ntheta", [8, 9, 128])
@pytest.mark.parametrize("n", range(2, 7))
def test_axisym_pattern_is_the_full_band(n, ntheta):
    # The pole rows' ghost is the node itself: no entry leaves the band.
    slots = geometry.build_grid(n, "axisym-1d", ntheta).slots
    want = band(ntheta)
    assert slots.indices.size == 3 * ntheta - 2
    assert np.array_equal(slots.indptr, want.indptr)
    assert np.array_equal(slots.indices, want.indices)


def test_tridiagonal_plan_refuses_other_patterns():
    full = SPHERES["full16x16"]().slots
    short = SlotTable([sp.identity(8, format="csr")])
    for slots in (full, short):
        with pytest.raises(ValueError, match="not the full tridiagonal band"):
            TridiagonalPlan(slots)


@st.composite
def band_systems(draw):
    """(grid, J, b): an axisym grid of drawn n and ntheta, J on its slot
    pattern with explicit zeros in some draws, and b a random right-hand
    side. Rows of disjoint pairs (i, i + 1) hold [[d, c], [c', e]] with a
    zero or tiny d and |c|, |c'| in [2, 3]: partial pivoting must swap
    the rows. The other rows are diagonally dominant, so J stays well
    conditioned."""
    grid = geometry.build_grid(draw(st.integers(2, 6)), "axisym-1d",
                               draw(st.integers(8, 200)))
    n = grid.ntheta
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = sp.diags([rng.uniform(-0.3, 0.3, n - 1), np.zeros(n),
                  rng.uniform(-0.3, 0.3, n - 1)], [-1, 0, 1]).toarray()
    a[np.abs(a) < draw(st.sampled_from([0.0, 0.1]))] = 0.0
    weak = np.zeros(n, dtype=bool)
    pairs = draw(st.sampled_from([0.0, 0.2, 0.5]))
    i = 0
    while i < n - 1:
        if rng.random() < pairs:
            a[i, i] = rng.choice([0.0, rng.uniform(-1e-3, 1e-3)])
            a[i, i + 1], a[i + 1, i] = rng.choice([-1, 1], 2) * rng.uniform(
                2.0, 3.0, 2)
            a[i + 1, i + 1] = rng.uniform(-0.5, 0.5)
            weak[i:i + 2] = True
            i += 2
        else:
            i += 1
    dominant = np.abs(a).sum(axis=1) + rng.uniform(1.0, 2.0, n)
    a[~weak, ~weak] = dominant[~weak]
    s = grid.slots
    rows = np.repeat(np.arange(n), s.counts)
    return grid, s.matrix(a[rows, s.indices]), rng.standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(band_systems())
def test_tridiagonal_plan_solves_like_spsolve(system):
    grid, jac, b = system
    before = [a.copy() for a in (jac.data, jac.indices, jac.indptr)]
    ref = spsolve(jac.tocsc(), b)
    x = grid.plan.factor(jac)(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # The factors are taken from copies: jac is as it was.
    assert all(p.tobytes() == q.tobytes()
               for p, q in zip(before, (jac.data, jac.indices, jac.indptr)))


def test_tridiagonal_plan_refuses_any_other_pattern():
    grid = geometry.build_grid(3, "axisym-1d", 16)
    s, n = grid.slots, grid.ntheta
    jac = s.matrix(np.random.default_rng(2).uniform(1.0, 2.0, s.indices.size))
    solve = grid.plan.factor(jac)
    assert np.allclose(jac @ solve(np.ones(n)), 1.0)
    added = jac.tolil()
    added[0, n - 1] = 1.0
    removed = jac.copy()
    removed.data[s.indptr[1]] = 0.0
    removed.eliminate_zeros()
    for other in (added.tocsr(), removed):
        assert abs(other.nnz - jac.nnz) == 1
        with pytest.raises(ValueError, match="differs from the plan's"):
            grid.plan.factor(other)


def test_singular_band_is_not_factored():
    # Row 5 is all explicit zeros, the rest the identity.
    grid = geometry.build_grid(2, "axisym-1d", 12)
    jac = grid.slots.matrix(np.zeros(grid.slots.indices.size))
    jac.setdiag(1.0)
    jac.data[jac.indptr[5]:jac.indptr[6]] = 0.0
    assert jac.nnz == 3 * 12 - 2
    with pytest.raises(RuntimeError, match="exactly singular"):
        grid.plan.factor(jac)
    with pytest.raises(NewtonDiverged, match="Jacobian not factored"):
        damped_newton(np.zeros(12), lambda x: (jac @ x - 1.0, x),
                      lambda x: jac, NewtonConfig(plan=grid.plan))


@pytest.mark.parametrize("name", sorted(FLATS))
def test_dissection_cuts_separate_the_pattern(name):
    grid = FLATS[name]()
    node = np.rint(grid.pts / grid.h).astype(int)
    perm, sizes, parent = flatcase.lattice_dissection(node)
    assert np.array_equal(perm, grid.plan.order)
    # Each plane's two subtrees are the halves of its cut.
    span = subtrees(sizes, parent)
    kids = [np.flatnonzero(parent == f) for f in range(len(sizes))]
    cuts = [tuple(perm[slice(*span[c])] for c in k) for k in kids if k.size]
    assert all(k.size in (0, 2) for k in kids)
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
    order, sizes, parent = flatcase.lattice_dissection(node)
    assert np.array_equal(order, np.arange(64))
    assert sizes.tolist() == [64] and parent.tolist() == [-1]


# On the 2-d ball at h = 1/64, two children's boundaries span all but two
# of the positions between their first and last in the parent's front:
# their updates move by an index array of columns, not by a slice.
@pytest.mark.parametrize("grid,jacobian", [
    (FLATS["ball3d"], flat_jacobian),
    (FLATS["ball3d"], lambda grid: flat_jacobian(grid, 3)),
    (lambda: flatcase.build_flat_grid(4, "ball", h=1 / 5), flat_jacobian),
    (FLATS["rect3d"], flat_jacobian),
    (lambda: flatcase.build_flat_grid(2, "ball", h=1 / 64), flat_jacobian),
    (SPHERES["full128x64"], sphere_jacobian),
    (lambda: geometry.build_grid(2, "axisym-1d", 128), sphere_jacobian),
], ids=["ball3d", "ball3d_k3", "ball4d", "rect3d", "ball2d_h64",
        "full128x64", "axisym128"])
def test_factor_solves_like_spsolve(grid, jacobian):
    grid = grid()
    jac = jacobian(grid)
    b = np.random.default_rng(7).standard_normal(jac.shape[0])
    ref = spsolve(nonzeros(jac).tocsc(), b)
    x = grid.plan.factor(jac)(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)
    # Without an order, a SuperLUPlan is spsolve of jac's nonzeros in
    # SuperLU's default order.
    assert SuperLUPlan().factor(jac)(b).tobytes() == ref.tobytes()


@st.composite
def unsymmetric_systems(draw):
    """(J, perm, b): J row diagonally dominant with a pattern that is not
    symmetric, perm a random order and b a random right-hand side."""
    n = draw(st.integers(2, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    off = sp.random(n, n, density=draw(st.floats(0.05, 0.4)), format="csr",
                    random_state=rng, data_rvs=lambda m: rng.uniform(-1, 1, m))
    off.setdiag(0.0)
    # One entry without its mirror, so that J and Jᵀ differ.
    i, j = rng.choice(n, 2, replace=False)
    off = off.tolil()
    off[i, j], off[j, i] = 1.0, 0.0
    off = off.tocsr()
    off.eliminate_zeros()
    diag = np.abs(off).sum(axis=1).A1 + rng.uniform(1.0, 2.0, n)
    jac = (off + sp.diags(diag)).tocsr()
    return jac, rng.permutation(n), rng.standard_normal(n)


@settings(max_examples=60, deadline=None)
@given(unsymmetric_systems(), st.sampled_from(["csr", "csc", "dense"]))
def test_factor_solves_j_not_its_transpose(system, kind):
    jac, perm, b = system
    assert (jac != jac.T).nnz > 0
    given_as = {"csr": jac, "csc": jac.tocsc(), "dense": jac.toarray()}[kind]
    x = SuperLUPlan(perm).factor(given_as)(b)
    assert np.max(np.abs(jac @ x - b)) <= 1e-12 * np.max(np.abs(b))


FLAT_H = {2: (1 / 20, 1 / 3), 3: (1 / 8, 1 / 3), 4: (1 / 4, 1 / 2)}


@st.composite
def flat_systems(draw):
    """(grid, J, b): a flat grid of dimension 2 to 4, a ball or a box, at
    a drawn h; J random on the grid's slot pattern and row diagonally
    dominant, with explicit zeros on the pattern in some draws."""
    dim = draw(st.integers(2, 4))
    grid = flatcase.build_flat_grid(dim, draw(st.sampled_from(["ball",
                                                               "rect"])),
                                    h=draw(st.floats(*FLAT_H[dim])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    s = grid.slots
    data = rng.uniform(-1.0, 1.0, s.indices.size)
    data[rng.random(data.size) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    n = s.shape[0]
    rows = np.repeat(np.arange(n), s.counts)
    diag = rows == s.indices
    data[diag] = 0.0
    data[diag] = (np.bincount(rows, np.abs(data), n)
                  + rng.uniform(1.0, 2.0, n))
    return grid, s.matrix(data), rng.standard_normal(n)


@settings(max_examples=25, deadline=None)
@given(flat_systems())
def test_plan_solves_flat_systems_like_spsolve(system):
    grid, jac, b = system
    ref = spsolve(jac.tocsc(), b)
    x = grid.plan.factor(jac)(b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind", ["csc", "csr"])
@pytest.mark.parametrize("ordered", [False, True], ids=["colamd", "perm"])
def test_factor_leaves_its_input_as_it_was(kind, ordered):
    # SuperLU drops the exact zeros on its copy, not on jac.
    grid = FLATS["ball3d"]()
    jac = flat_jacobian(grid).asformat(kind)
    assert np.any(jac.data == 0.0)
    before = [a.copy() for a in (jac.data, jac.indices, jac.indptr)]
    SuperLUPlan(grid.plan.order if ordered else None).factor(jac)
    after = (jac.data, jac.indices, jac.indptr)
    assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
               for a, b in zip(before, after))


@pytest.mark.parametrize("name", sorted(FLATS))
def test_plan_pattern_is_the_grid_slot_pattern(name):
    # The plan is complete when the grid is built: its pattern, the
    # storage position of each entry and the extend-add moves.
    grid = FLATS[name]()
    plan = grid.plan
    indptr, indices = plan.pattern
    assert np.array_equal(indptr, grid.slots.indptr)
    assert np.array_equal(indices, grid.slots.indices)
    assert plan.dest.size == indices.size
    assert np.unique(plan.dest).size == plan.dest.size
    assert 0 <= plan.dest.min() and plan.dest.max() < plan.storage
    assert [m is None for m in plan.maps] == [p < 0 for p in plan.parent]


def test_plan_refuses_any_other_pattern():
    grid = FLATS["ball3d"]()
    s, n = grid.slots, grid.ninterior
    jac = s.matrix(np.random.default_rng(2).uniform(1.0, 2.0, s.indices.size))
    solve = grid.plan.factor(jac)
    assert np.allclose(jac @ solve(np.ones(n)), 1.0)
    # One entry added, outside the pattern: row 0 reaches the last unknown.
    assert n - 1 not in s.indices[s.indptr[0]:s.indptr[1]]
    added = jac.tolil()
    added[0, n - 1] = 1.0
    # One entry removed.
    removed = jac.copy()
    removed.data[s.indptr[1]] = 0.0
    removed.eliminate_zeros()
    for other in (added.tocsr(), removed):
        assert abs(other.nnz - jac.nnz) == 1
        with pytest.raises(ValueError, match="differs from the plan's"):
            grid.plan.factor(other)


def test_small_grid_is_one_front():
    # At most 64 points: the dissection makes one leaf, and the plan one
    # dense LU of the whole matrix.
    grid = flatcase.build_flat_grid(2, "ball", h=0.25)
    n = grid.ninterior
    assert n <= 64
    assert grid.plan.storage == n * n and len(grid.plan.bnd) == 1
    jac = flat_jacobian(grid)
    b = np.random.default_rng(3).standard_normal(n)
    x = grid.plan.factor(jac)(b)
    ref = spsolve(jac.tocsc(), b)
    assert np.linalg.norm(x - ref) <= 1e-12 * np.linalg.norm(ref)


def test_singular_front_is_not_factored():
    # The plan pivots inside each front only. Here the first unknown of
    # the first leaf couples to one boundary unknown alone: the leaf's own
    # block is exactly singular, though the matrix is not.
    grid = FLATS["ball3d"]()
    plan = grid.plan
    own = plan.order[:plan.ends[0]]
    later = pattern(grid)[own][:, plan.order[plan.bnd[0]]].tocoo()
    p, q = own[later.row[0]], plan.order[plan.bnd[0][later.col[0]]]
    jac = grid.slots.matrix(np.zeros(grid.slots.indices.size))
    jac.setdiag(1.0)
    jac[p, p], jac[q, q], jac[p, q], jac[q, p] = 0.0, 0.0, 1.0, 1.0
    assert jac.nnz == grid.slots.indices.size
    b = np.ones(grid.ninterior)
    assert np.allclose(jac @ spsolve(jac.tocsc(), b), b)
    with pytest.raises(RuntimeError, match="exactly singular"):
        plan.factor(jac)
    cfg = NewtonConfig(plan=plan)
    with pytest.raises(NewtonDiverged, match="Jacobian not factored"):
        damped_newton(np.zeros(grid.ninterior), lambda x: (jac @ x - b, x),
                      lambda x: jac, cfg)


def test_plan_refuses_a_tree_that_does_not_separate():
    # Three unknowns in a chain 0 - 1 - 2: unknown 1 separates the others.
    jac = sp.csr_matrix(np.diag([2.0, 2.0, 2.0]) + np.diag([1.0, 1.0], 1)
                        + np.diag([1.0, 1.0], -1))
    table = np.array([[-1, 0, 1], [0, 1, 2], [1, 2, -1]])

    def plan(order):
        return _multifrontal.FrontalPlan(np.array(order), np.ones(3, int),
                                         np.array([2, 2, -1]), table)

    x = plan([0, 2, 1]).factor(jac)(np.ones(3))
    assert np.allclose(jac @ x, 1.0)
    # The constructor refuses the tree: no plan exists to factor with.
    with pytest.raises(ValueError, match="does not separate"):
        plan([0, 1, 2])


def test_lu_guard_fires_before_the_operators(monkeypatch):
    grid = FLATS["ball3d"]()
    need = 8 * grid.plan.storage
    sizes = flatcase.lattice_dissection(
        np.rint(grid.pts / grid.h).astype(int))[1]
    own = 8 * int(np.sum(sizes**2))
    # With scipy.sparse gone, assembling any operator raises; with the
    # extend-add moves gone, placing the plan's entries does.
    monkeypatch.setattr(flatcase, "sp", None)
    monkeypatch.setattr(_multifrontal, "_moves", None)
    monkeypatch.setattr(_multifrontal, "MAX_LU_BYTES", need - 1)
    with pytest.raises(ValueError, match=re.escape(
            f"LU of {grid.ninterior} unknowns needs {need:.4g} bytes of "
            f"factors, past the limit of {need - 1}")):
        FLATS["ball3d"]()
    # Own blocks past the limit are refused before the plan is built.
    monkeypatch.setattr(_multifrontal, "FrontalPlan", None)
    monkeypatch.setattr(_multifrontal, "MAX_LU_BYTES", own - 1)
    with pytest.raises(ValueError,
                       match=re.escape(f"needs at least {own:.4g} bytes")):
        FLATS["ball3d"]()
    monkeypatch.undo()
    monkeypatch.setattr(_multifrontal, "MAX_LU_BYTES", need)
    assert FLATS["ball3d"]().plan.storage == grid.plan.storage


def test_flat_plan_stores_less_than_colamds_fill():
    # The multifrontal factors are dense fronts: 3.13 M doubles at
    # h = 1/12, where SuperLU's COLAMD LU of the nonzeros holds 5.57 M
    # entries.
    grid = flatcase.build_flat_grid(3, "ball", h=1 / 12)
    jac = flat_jacobian(grid)
    assert grid.plan.storage <= 0.6 * lu_fill(jac)


def test_sphere_order_cuts_the_fill():
    grid = SPHERES["full128x64"]()
    jac = sphere_jacobian(grid)
    assert lu_fill(jac, grid.plan.order) < lu_fill(jac)


def test_singular_jacobian_ends_newton():
    def res(x):
        return x - 1.0, x

    def jac(x):
        return sp.csr_matrix((2, 2))

    cfg = NewtonConfig(plan=SuperLUPlan(np.array([1, 0])))
    with pytest.raises(NewtonDiverged, match="Jacobian not factored"):
        damped_newton(np.zeros(2), res, jac, cfg)
