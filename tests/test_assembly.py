"""Tests for SlotTable, the pattern every analytic Jacobian is built on.

The oracle is the sparse sum the Jacobians used to be written as,
sum_s diag(c_s) @ M_s with scipy's products and sums; the table must give
the same CSC arrays byte for byte: the same entries, explicit zeros
included, in the same positions, which is the matrix the linear solve
factors.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from etacurv import flatcase, geometry, solver
from etacurv.newton import SlotTable


def sparse_sum(coefs, mats):
    return sum(sp.diags(c) @ m for c, m in zip(coefs, mats))


def same_csc(a, b):
    a, b = a.tocsc(), b.tocsc()
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.data, b.data), (a.indices, b.indices),
                            (a.indptr, b.indptr)))


def sphere_slots(grid):
    ops = [grid.ops[d] for d in ("t", "p", "tt", "tp", "pp") if d in grid.ops]
    return [sp.identity(grid.nnodes, format="csr")] + ops


def flat_slots(grid):
    return (grid.d2 + list(grid.dmix.values()) + grid.d1
            + [sp.identity(grid.ninterior, format="csr")])


SPHERES = {
    "full16x16": lambda: geometry.build_grid(2, "full-2d", (16, 16)),
    "full128x64": lambda: geometry.build_grid(2, "full-2d", (128, 64)),
    "axisym8": lambda: geometry.build_grid(3, "axisym-1d", 8),
    "axisym9": lambda: geometry.build_grid(4, "axisym-1d", 9),
    "axisym128": lambda: geometry.build_grid(2, "axisym-1d", 128),
}

FLATS = {
    "ball2d": lambda: flatcase.build_flat_grid(2, "ball", h=1 / 16),
    "ball3d": lambda: flatcase.build_flat_grid(3, "ball", h=1 / 6),
    "rect3d": lambda: flatcase.build_flat_grid(
        3, "rect", h=1 / 6, bounds=[(-1.0, 1.0), (0.0, 0.5), (-0.25, 1.3)]),
}

CASES = ([(name, build, sphere_slots) for name, build in SPHERES.items()]
         + [(name, build, flat_slots) for name, build in FLATS.items()])


@pytest.mark.parametrize("name,build,slots_of", CASES,
                         ids=[c[0] for c in CASES])
class TestSlotTable:
    def test_grid_table_is_its_slots(self, name, build, slots_of):
        grid = build()
        mats = slots_of(grid)
        assert len(grid.slots.slots) == len(mats)
        rng = np.random.default_rng(7)
        coefs = [rng.standard_normal(m.shape[0]) for m in mats]
        got = grid.slots.matrix(grid.slots.accumulate(coefs))
        assert same_csc(got, sparse_sum(coefs, mats))

    def test_any_slot_order_and_subset(self, name, build, slots_of):
        grid = build()
        mats = slots_of(grid)
        rng = np.random.default_rng(11)
        order = rng.permutation(len(mats))[: max(2, len(mats) - 2)]
        table = SlotTable(mats)
        coefs = [rng.standard_normal(mats[0].shape[0]) * 10.0 ** s
                 for s in range(len(order))]
        got = table.matrix(table.accumulate(coefs, slots=order))
        assert same_csc(got, sparse_sum(coefs, [mats[s] for s in order]))

    def test_row_factors(self, name, build, slots_of):
        # diag(a) @ A - diag(b) @ B, the root form of the residual.
        grid = build()
        mats = slots_of(grid)
        table = grid.slots
        rng = np.random.default_rng(3)
        ca = [rng.standard_normal(m.shape[0]) for m in mats]
        cb = [rng.standard_normal(m.shape[0]) for m in mats[:2]]
        a, b = rng.uniform(0.5, 2.0, (2, mats[0].shape[0]))
        got = table.matrix(table.row_scale(a) * table.accumulate(ca)
                           - table.row_scale(b) * table.accumulate(cb))
        want = (sp.diags(a) @ sparse_sum(ca, mats)
                - sp.diags(b) @ sparse_sum(cb, mats[:2]))
        assert same_csc(got, want)

    def test_zero_coefficients_leave_no_explicit_zeros(self, name, build,
                                                       slots_of):
        grid = build()
        mats = slots_of(grid)
        rng = np.random.default_rng(5)
        coefs = []
        for m in mats:
            c = rng.standard_normal(m.shape[0])
            c[rng.random(c.size) < 0.5] = 0.0
            coefs.append(c)
        coefs[0][:] = 0.0
        got = grid.slots.matrix(grid.slots.accumulate(coefs))
        assert np.all(got.data != 0.0)
        assert same_csc(got, sparse_sum(coefs, mats))
        empty = grid.slots.matrix(grid.slots.accumulate(
            [np.zeros(m.shape[0]) for m in mats]))
        assert empty.nnz == 0


def test_repeated_entries_rejected():
    m = sp.csr_matrix((np.ones(2), np.array([0, 0]), np.array([0, 2, 2])),
                      shape=(2, 2))
    with pytest.raises(ValueError):
        SlotTable([m])


def test_round_sphere_jacobian_has_no_explicit_zeros():
    # At rho = 1 and t = 0 the gradient terms vanish identically.
    g = geometry.build_grid(2, "full-2d", (16, 16))
    data = solver.homotopy_f(solver.PrescribedData(
        f=lambda x, nu: 1.25 * np.linalg.norm(x, axis=-1) ** -3,
        r1=0.5, r2=2.0), 2, 2, 0.01, 0.0)
    jac = solver.assemble_jacobian(g, np.ones(g.nnodes), data, 2)
    assert jac.nnz < g.slots.indices.size
    assert np.all(jac.data != 0.0)


@pytest.mark.parametrize("mode,sizes,n", [("full-2d", (16, 16), 2),
                                          ("axisym-1d", 9, 3)])
def test_operators_untouched(mode, sizes, n):
    """Building the tables and assembling Jacobians never edit grid.ops.

    ops["tp"] is a product with unsorted column indices; sorting it in
    place would change how ops["tp"] @ rho rounds and so every jet.
    """
    g = geometry.build_grid(n, mode, sizes)
    fresh = geometry._build_ops(g.ntheta, g.nphi, np.pi / g.ntheta,
                                2 * np.pi / g.nphi)
    data = solver.PrescribedData(
        f=lambda x, nu: 3.0 * np.linalg.norm(x, axis=-1) ** -3,
        r1=0.5, r2=2.0)
    rho = 1.0 + 0.05 * np.cos(g.theta) ** 2
    solver.assemble_jacobian(g, rho, data, 2)
    assert fresh.keys() == g.ops.keys()
    for key, op in fresh.items():
        for attr in ("data", "indices", "indptr"):
            a, b = getattr(op, attr), getattr(g.ops[key], attr)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), key
