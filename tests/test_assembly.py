"""Tests for SlotTable, the pattern every analytic Jacobian is built on.

The oracle is the sparse sum the Jacobians used to be written as,
sum_s diag(c_s) @ M_s with scipy's products and sums. The table's matrix
always has the grid's whole pattern: it holds the sum's values bit for
bit, and an explicit zero exactly where the sum, which drops exact zeros,
has no entry. The copy SuperLU factors drops those zeros, and is the
sum's CSC arrays byte for byte.
"""

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp

from etacurv import flatcase, geometry, newton, solver
from etacurv.newton import SlotTable, SuperLUPlan


def sparse_sum(coefs, mats):
    return sum(sp.diags(c) @ m for c, m in zip(coefs, mats))


def same_arrays(a, b):
    return all(x.dtype == y.dtype and x.tobytes() == y.tobytes()
               for x, y in ((a.data, b.data), (a.indices, b.indices),
                            (a.indptr, b.indptr)))


def same_csc(a, b):
    return same_arrays(a.tocsc(), b.tocsc())


def has_pattern(jac, table):
    return (np.array_equal(jac.indptr, table.indptr)
            and np.array_equal(jac.indices, table.indices))


def on_the_pattern(got, want, table):
    """got has the table's pattern and want's values bit for bit, with
    data 0 exactly where want has no entry."""
    want = want.tocsr()
    rows = np.repeat(np.arange(got.shape[0]), np.diff(got.indptr))
    held = sp.csr_matrix((np.ones(want.nnz), want.indices, want.indptr),
                         shape=want.shape)[rows, got.indices]
    return (has_pattern(got, table)
            and got.toarray().tobytes() == want.toarray().tobytes()
            and np.array_equal(got.data == 0.0, np.ravel(held) == 0.0))


def superlu_inputs(monkeypatch):
    """The list of matrices a ``SuperLUPlan`` hands SuperLU from now on;
    none is factored."""
    seen = []
    monkeypatch.setattr(newton, "splu", lambda a, **kw: seen.append(a)
                        or SimpleNamespace(solve=None))
    return seen


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
        assert on_the_pattern(got, sparse_sum(coefs, [mats[s] for s in order]),
                              table)

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

    def test_zero_coefficients_keep_the_slot_pattern(self, name, build,
                                                     slots_of):
        grid = build()
        mats = slots_of(grid)
        table = grid.slots
        coefs = half_zero_coefficients(mats)
        got = table.matrix(table.accumulate(coefs))
        assert np.any(got.data == 0.0)
        assert on_the_pattern(got, sparse_sum(coefs, mats), table)
        empty = table.matrix(table.accumulate(
            [np.zeros(m.shape[0]) for m in mats]))
        assert has_pattern(empty, table)
        assert empty.nnz == table.indices.size
        assert not np.any(empty.data)

    def test_zero_coefficients_leave_no_explicit_zeros(self, name, build,
                                                       slots_of, monkeypatch):
        # ... in the copies SuperLU factors, with and without an order.
        grid = build()
        mats = slots_of(grid)
        table = grid.slots
        coefs = half_zero_coefficients(mats)
        jac = table.matrix(table.accumulate(coefs))
        want = sparse_sum(coefs, mats).tocsr()
        perm = np.random.default_rng(5).permutation(table.shape[0])
        seen = superlu_inputs(monkeypatch)
        SuperLUPlan().factor(jac)
        SuperLUPlan(perm).factor(jac)
        plain, ordered = seen
        assert np.all(plain.data != 0.0) and np.all(ordered.data != 0.0)
        assert same_csc(plain, want)
        nonzeros = jac.copy()
        nonzeros.eliminate_zeros()
        assert same_csc(nonzeros, want)
        assert same_arrays(ordered, nonzeros[perm][:, perm].T)
        SuperLUPlan().factor(table.matrix(table.accumulate(
            [np.zeros(m.shape[0]) for m in mats])))
        assert seen[-1].nnz == 0


def half_zero_coefficients(mats):
    """Coefficients of which about half are zero, and all of the first."""
    rng = np.random.default_rng(5)
    coefs = []
    for m in mats:
        c = rng.standard_normal(m.shape[0])
        c[rng.random(c.size) < 0.5] = 0.0
        coefs.append(c)
    coefs[0][:] = 0.0
    return coefs


def test_repeated_entries_rejected():
    m = sp.csr_matrix((np.ones(2), np.array([0, 0]), np.array([0, 2, 2])),
                      shape=(2, 2))
    with pytest.raises(ValueError, match="must not repeat an entry"):
        SlotTable([m])


def test_repeated_entry_in_an_unsorted_row_rejected():
    # Row 0 holds columns 1, 0, 1: the repeat is not adjacent.
    m = sp.csr_matrix((np.ones(3), np.array([1, 0, 1]), np.array([0, 3, 3])),
                      shape=(2, 2))
    with pytest.raises(ValueError, match="must not repeat an entry"):
        SlotTable([sp.identity(2, format="csr"), m])


def round_data(t):
    return solver.homotopy_f(solver.PrescribedData(
        f=lambda x, nu: 1.25 * np.linalg.norm(x, axis=-1) ** -3,
        r1=0.5, r2=2.0), 2, 2, 0.01, t)


def test_round_sphere_zeros_are_dropped_only_for_superlu(monkeypatch):
    # At rho = 1 and t = 0 the gradient terms vanish identically.
    g = geometry.build_grid(2, "full-2d", (16, 16))
    jac = solver.assemble_jacobian(g, np.ones(g.nnodes), round_data(0.0), 2)
    assert has_pattern(jac, g.slots)
    assert np.any(jac.data == 0.0)
    seen = superlu_inputs(monkeypatch)
    g.plan.factor(jac)
    assert np.all(seen[0].data != 0.0)
    assert seen[0].nnz == np.count_nonzero(jac.data)


@pytest.mark.parametrize("mode,sizes", [("full-2d", (16, 16)),
                                        ("axisym-1d", 9)])
def test_sphere_jacobians_have_the_grid_pattern(mode, sizes):
    g = geometry.build_grid(2, mode, sizes)
    rho = 1.0 + 0.05 * np.cos(g.theta) ** 2
    if mode == "full-2d":
        rho = rho + 0.02 * np.sin(g.theta) * np.cos(g.phi)
    for r, t in ((np.ones(g.nnodes), 0.0), (rho, 1.0)):
        jac = solver.assemble_jacobian(g, r, round_data(t), 2)
        assert has_pattern(jac, g.slots)


def test_flat_jacobians_have_the_grid_pattern():
    g = flatcase.build_flat_grid(3, "ball", h=1 / 6)

    def f(x, phi, grad):
        return 1.0 + np.einsum("ni,ni->n", grad, grad)

    start = flatcase.build_flat_state(g, flatcase._initial_guess(g, f, 2))
    done, report = flatcase.dirichlet_solve(g, f, 2)
    assert report.converged
    for state in (start, done):
        assert has_pattern(flatcase.flat_jacobian(state, f, 2), g.slots)


@pytest.mark.parametrize("mode,sizes,n", [("full-2d", (16, 16), 2),
                                          ("axisym-1d", 9, 3)])
def test_operators_untouched(mode, sizes, n):
    """Building the tables and assembling Jacobians never edit grid.ops.

    ops["tp"] is a product with unsorted column indices; sorting it in
    place would change how ops["tp"] @ rho rounds and so every jet.
    """
    g = geometry.build_grid(n, mode, sizes)
    if "tp" in g.ops:       # the table took it as an unsorted slot
        tp = g.ops["tp"]
        rows = np.repeat(np.arange(tp.shape[0]), np.diff(tp.indptr))
        step = np.diff(tp.indices)
        assert np.any((step <= 0) & (rows[1:] == rows[:-1]))
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
