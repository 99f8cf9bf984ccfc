"""Multifrontal LU over a dissection tree, on LAPACK's dense kernels.

A plan is built once per pattern and factors any matrix on exactly that
pattern, explicit zeros included, whose entries it reads by position
(Duff and Reid, The multifrontal solution of unsymmetric sets of linear
equations, SIAM J. Sci. Stat. Comput. 5, 1984). Each node of the tree is a front:
its own unknowns, consecutive in the order, and its boundary, the later
unknowns that its subtree couples to. Entry (i, j) of the matrix belongs
to the front that owns the earlier of i and j. In postorder, a front
holds its entries and its children's Schur updates, factors its own
block F11 by ``dgetrf`` (partial pivoting inside the block), forms
X = F11^-1 F12 and F22 - F21 X by ``dtrsm`` and ``dgemm``, and adds that
update into its parent's front. A solve runs forward through the fronts
by ``dgetrs`` and y_bnd -= F21 y_own, then backward by y_own -= X y_bnd.

Each front keeps [LU of F11, X] and F21ᵀ in one flat array of
sum k^2 + 2 k b doubles over fronts of k own and b boundary unknowns,
which the plan sizes, and places every entry in, when it is built.
"""

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dgetrf, dgetrs

from .newton import on_pattern


# Largest LU, in bytes of its factors, a flat grid's plan may call for.
MAX_LU_BYTES = 2**30
NOT_SEPARATED = ("a child's boundary leaves its parent's front: the tree "
                 "does not separate the pattern")


def refuse_lu(n, doubles, least=""):
    """Raise ValueError if factors of ``least`` the given doubles, for an
    LU of n unknowns, pass MAX_LU_BYTES."""
    if doubles * 8 > MAX_LU_BYTES:
        raise ValueError(f"LU of {n} unknowns needs {least}"
                         f"{doubles * 8:.4g} bytes of factors, past the "
                         f"limit of {MAX_LU_BYTES}")


def _unique(x):
    """The sorted distinct values of x (np.unique hashes first, which costs
    more than a sort on these small integer arrays)."""
    x = np.sort(x)
    return x[np.concatenate(([True], x[1:] != x[:-1]))] if x.size else x


def _moves(runs, own, out, k):
    """The moves that add a child's update into its parent's front.

    ``runs`` are the (parent position, update start, length) runs of the
    child's boundary in the parent's front, those at the parent's own
    positions first; ``own`` and ``out`` are the own and boundary
    positions themselves, and k the parent's own size. Each move is
    (block, rows, columns, update rows, update columns, transposed), one
    per run of rows of a block of the parent: [F11 F12], then F21ᵀ, then
    F22. A block's columns are a slice if they form one run, else an index
    array. F21 is kept transposed, so its block takes the transposed
    update.
    """
    r, m = own.size, own.size + out.size
    if not m:
        return []
    rows = [(slice(d, d + n), slice(u, u + n)) for d, u, n in runs]
    split = sum(u < r for _, u, _ in runs)
    own_rows, out_rows = rows[:split], rows[split:]
    out_cols = (out_rows[0][0] if len(out_rows) == 1 else out)
    # [F11 F12] takes whole update rows, at the own then the boundary
    # columns.
    wide = np.concatenate((own, k + out))
    wide = (slice(wide[0], wide[0] + m) if wide[-1] - wide[0] == m - 1
            else wide)
    moves = [(0, dst, wide, src, slice(0, m), False) for dst, src in own_rows]
    moves += [(1, dst, out_cols, slice(r, m), src, True)
              for dst, src in own_rows if m > r]
    moves += [(2, dst, out_cols, src, slice(r, m), False)
              for dst, src in out_rows]
    return moves


class FrontalPlan:
    """The symbolic multifrontal LU of matrices on one structurally
    symmetric pattern, in the order of a dissection tree.

    ``order`` is the permutation (new -> old) the tree numbers the
    unknowns in; ``sizes`` gives the own unknowns of each front in
    postorder and ``parent`` each front's parent (-1 at the root).
    ``table`` (n, s) lists each unknown's neighbors in the pattern, itself
    included, -1 where absent; along a row, the columns increase with the
    table's column, and column s - 1 - t is the mirror of column t, so
    that (i, table[i, t]) and (table[i, t], i) are mirror entries. A
    child's boundary must lie in its parent's front (else ValueError), as
    it does when every path between two subtrees crosses an ancestor's
    own unknowns.

    The constructor sizes the fronts and ``storage``, the doubles the
    factors take, refuses them past MAX_LU_BYTES, derives the pattern's
    CSR arrays from the table, places each entry in the storage and maps
    each child's update into its parent; ``factor`` reads every matrix by
    position on that pattern.
    """

    def __init__(self, order, sizes, parent, table):
        n, s, nf = *table.shape, len(sizes)
        self.order = order.astype(np.int32)
        self.parent = parent.tolist()
        k = np.asarray(sizes, dtype=np.int64)
        ends = np.cumsum(k)
        starts = ends - k
        self.starts, self.ends = starts.tolist(), ends.tolist()
        ipos = np.empty(n + 1, dtype=np.int32)
        ipos[self.order] = np.arange(n, dtype=np.int32)
        ipos[n] = -1
        # Neighbors in the new numbering, rows in the new order.
        nbr = ipos[table[self.order]]
        owner = np.repeat(np.arange(nf, dtype=np.int32), k)

        # Boundaries: the later neighbors of a front's rows, and those of
        # its children's boundaries that lie past the front.
        far_r, far_t = np.nonzero(nbr >= ends[owner][:, None])
        far_q, far_f = nbr[far_r, far_t], owner[far_r]
        direct = _unique(far_f.astype(np.int64) * n + far_q)
        cut = np.searchsorted(direct, np.arange(nf + 1) * n).tolist()
        direct = (direct % n).astype(np.int32)
        children = [[] for _ in range(nf)]
        for f, p in enumerate(self.parent):
            if p >= 0:
                children[p].append(f)
        self.bnd = []
        for f in range(nf):
            bnd = direct[cut[f]:cut[f + 1]]
            if children[f]:
                e = self.ends[f]
                bnd = _unique(np.concatenate(
                    [bnd] + [self.bnd[c][self.bnd[c] >= e]
                             for c in children[f]]))
            self.bnd.append(bnd)
        b = np.array([x.size for x in self.bnd], dtype=np.int64)
        self.offsets = np.concatenate(([0], np.cumsum(k * k + 2 * k * b)))
        self.storage = int(self.offsets[-1])
        refuse_lu(n, self.storage)

        old = nbr[ipos[:n]]             # rows in the old order
        present = old >= 0
        self.pattern = (np.concatenate(([0], np.cumsum(present.sum(axis=1)))),
                        self.order[old[present]])
        # A boundary unknown's index in its front's boundary, by its
        # (front, position) key, which every lookup finds.
        bptr = np.concatenate(([0], np.cumsum(b)))
        bkey = np.repeat(np.arange(nf, dtype=np.int64) * n, b)
        bkey += np.concatenate(self.bnd)

        def slot(f, q):
            return np.searchsorted(bkey, f.astype(np.int64) * n + q) - bptr[f]

        # Positions in the table's layout, rows in the new order. An own
        # row and own column go to F11 of the row's front, an own row and
        # later column to its F12; each F12 entry's mirror, found in the
        # boundary row at the mirrored table column, goes to F21ᵀ.
        s_r, k_r = starts[owner], k[owner]
        at = (self.offsets[owner] + np.arange(n) - s_r - s_r * k_r)[:, None]
        at = at + nbr * k_r[:, None]
        f12 = (self.offsets[far_f] + k[far_f] ** 2 + far_r - starts[far_f]
               + slot(far_f, far_q) * k[far_f])
        at[far_r, far_t] = f12
        at[far_q, s - 1 - far_t] = f12 + k[far_f] * b[far_f]
        self.dest = at[ipos[:n]][present].astype(
            np.int32 if self.storage < 2**31 else np.int64)

        # Where each child's boundary sits in its parent's front, in runs
        # of consecutive positions.
        kids = [c for c in range(nf) if self.parent[c] >= 0]
        cb = [self.bnd[c] for c in kids]
        lens = np.array([x.size for x in cb], dtype=np.int64)
        first = np.concatenate(([0], np.cumsum(lens)))
        pf = np.repeat(np.array([self.parent[c] for c in kids],
                                dtype=np.int32), lens)
        val = np.concatenate(cb) if cb else np.empty(0, dtype=np.int32)
        mine = val < ends[pf]
        local = val - starts[pf]
        if np.any(local < 0):
            raise ValueError(NOT_SEPARATED)
        local[~mine] = slot(pf[~mine], val[~mine])
        brk = np.ones(val.size, dtype=bool)
        brk[1:] = (np.diff(local) != 1) | (mine[1:] != mine[:-1])
        brk[first[:-1]] = True
        run = np.flatnonzero(brk)
        bounds = np.searchsorted(run, first).tolist()
        run_dst = local[run].tolist()
        run_len = np.diff(np.append(run, val.size)).tolist()
        run, first = run.tolist(), first.tolist()
        self.maps = [None] * nf
        for j, c in enumerate(kids):
            a, z = first[j], first[j + 1]
            r = int(np.count_nonzero(mine[a:z]))
            runs = [(run_dst[i], run[i] - a, run_len[i])
                    for i in range(bounds[j], bounds[j + 1])]
            p = self.parent[c]
            self.maps[c] = _moves(runs, local[a:a + r], local[a + r:z],
                                  self.ends[p] - self.starts[p])

    def _blocks(self, store, f):
        """Views of front f's [F11 F12], which become [LU of F11, X], and
        of its F21ᵀ."""
        k = self.ends[f] - self.starts[f]
        b = self.bnd[f].size
        o = self.offsets[f]
        o2 = o + k * (k + b)
        return (store[o:o2].reshape((k, k + b), order="F"),
                store[o2:o2 + k * b].reshape((k, b), order="F"))

    def factor(self, jac):
        """The solver of jac x = b, factored once: a function of b.

        jac is a sparse matrix with exactly the plan's pattern: in CSR
        form, the plan's indptr and indices, explicit zeros included.
        Raises ValueError on any other pattern, and RuntimeError where a
        front's own block is exactly singular.
        """
        jac = on_pattern(jac, self.pattern)
        store = np.zeros(self.storage)
        store[self.dest] = jac.data
        # Each update is added into its parent as soon as it is made; a
        # front's F22 is allocated when its first child's update arrives.
        pivots, f22 = [], {}
        for f, moves in enumerate(self.maps):
            wide, w21 = self._blocks(store, f)
            k, b = w21.shape
            update = f22.pop(f, None)
            if update is None:
                update = np.zeros((b, b), order="F")
            piv = None
            if k:
                # One LU of the k x (k + b) [F11 F12] pivots inside F11
                # and leaves L^-1 P F12 beside it, mostly by dgemm.
                _, piv, info = dgetrf(wide, overwrite_a=True)
                if info > 0:
                    raise RuntimeError("Factor is exactly singular")
                if b:
                    x = dtrsm(1.0, wide[:, :k], wide[:, k:], overwrite_b=1)
                    update = dgemm(-1.0, w21, x, 1.0, update, trans_a=1,
                                   overwrite_c=True)
            pivots.append(piv)
            if moves:
                p = self.parent[f]
                if p not in f22:
                    f22[p] = np.zeros((self.bnd[p].size,) * 2, order="F")
                blocks = (*self._blocks(store, p), f22[p])
                for blk, rows, cols, src_rows, src_cols, tr in moves:
                    part = update[src_rows, src_cols]
                    blocks[blk][rows, cols] += part.T if tr else part
            del update
        return self._solver(store, pivots)

    def _solver(self, store, pivots):
        fronts = []
        for f, piv in enumerate(pivots):
            s, e = self.starts[f], self.ends[f]
            wide, w21 = self._blocks(store, f)
            fronts.append((s, e, self.bnd[f], piv, wide[:, :e - s],
                           wide[:, e - s:], w21))
        order = self.order

        def solve(rhs):
            y = rhs[order]
            for s, e, bnd, piv, lu, _, w21 in fronts:
                if s < e:
                    y[s:e] = dgetrs(lu, piv, y[s:e])[0]
                    if bnd.size:
                        y[bnd] -= y[s:e] @ w21
            for s, e, bnd, _, _, x, _ in reversed(fronts):
                if s < e and bnd.size:
                    y[s:e] -= x @ y[bnd]
            out = np.empty_like(y)
            out[order] = y
            return out
        return solve
