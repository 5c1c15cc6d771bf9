"""Block-structured LDU factorization and back-substitution.

Two solvers live here:

- A dense in-place LDU over an explicit matrix partitioned into blocks
  (scalar entries are the all-ones partition).  O(N^3) in the number of
  blocks; used as the reference solver in tests and as the timing
  baseline.
- A graph-ordered sparse LDU, split into a :class:`SymbolicLayout` built
  once per pattern (elimination order, node rows, neighbours with fill,
  relieved nodes, levels, and where each block lives in a system's
  storage) from one :class:`SymbolicElimination` of the pattern's graph,
  and a numeric sweep over a :class:`NodeSystem`'s storage.  The
  sweep goes one level at a time, a level being a run of consecutive
  nodes of the order that share no block, so they are eliminated
  together with a few batched numpy calls and nothing loops over nodes.
  Its work is that of the block eliminations: on a tree in
  children-first order each node has one later neighbour and there is
  no fill, O(N) work; the step's level order (``mechanism``) trades
  linear fill for O(log N) levels.  The loop-closure constraints of each
  independent cycle (cycles sharing a body or joint count as one) are
  stacked into one relieved node eliminated after the cycle's nodes
  (Baraff, "Linear-time dynamics using Lagrange multipliers", SIGGRAPH
  1996); fill then stays near that cycle, and a chain of k disjoint
  loops factors in O(k) work.  :class:`BlockSystem` dicts are a view of
  a NodeSystem for tests and the dense oracle; :meth:`BlockSystem.on_layout`
  puts one on a layout.

The Newton system reaches the sweep through one builder
(``integrator.eliminate_bodies``) under an elimination plan: the step
eliminates the bodies with at most three joints first and hands the
sweep the joints and the remaining hub bodies, whose diagonal block is
non-zero where a joint meets a body eliminated first; the full
bodies-and-joints system eliminates no body first.  Constraint nodes
with an exactly zero diagonal (a joint between hubs or from a hub to the
world, or any joint of the full system) become invertible through the
Schur updates of their eliminated neighbours; a constraint node reaching
its pivot without any update is reported as a modeling error (dangling
constraint).  Neither solver pivots across blocks.

Pivot blocks are inverted with LAPACK under one conditioning rule,
checked for all pivots in one batched pass: the inverse must be finite
and max|A| * max|A^-1| below 1/_SINGULAR_RTOL (:func:`check_pivots`).
When a batched inverse raises, :func:`name_failure` inverts its pivots
one at a time to name the first failure; the body pass in
``integrator`` shares both.  A relieved node's pivot is rank-deficient
by construction, since closed loops of parallel-axis joints carry
structurally redundant constraint rows (the 5 rows of each planar
parallelogram have rank 2), so it gets :func:`relieved_inverse`, a
truncated-SVD pseudo-inverse: one batched SVD of a level's relieved
pivots, whose singular values at or below a small multiple of their
block's scale get weight 0.  This selects one multiplier solution out
of the affine family, stably under rounding, without affecting body
motion (null-space components of the multipliers do not enter the
equations of motion); the iteration still drives the true residual to
tolerance.  The redundancy of a cycle involves only its own joints, all
eliminated before its relieved node, so the nodes after it see an exact
Schur complement through the pseudo-inverse; this is why cycles that
share a body or joint must share one relieved node.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .errors import DanglingConstraintError, SingularBlockError

# Key of the relieved node nearest the root; the others are (LOOP_NODE, smallest loop joint id).
LOOP_NODE = "loop"

# An unrelieved block fails once max|A| * max|A^-1| reaches 1/_SINGULAR_RTOL.
_SINGULAR_RTOL = 1e-13

# A relieved pivot's one cut, relative to max|A|: singular values at or below it get weight 0.
_LOOP_PIVOT_RELIEF = 1e-10


# ---------------------------------------------------------------------------
# pivot-block inverse


def _singular(node, reason: str) -> SingularBlockError:
    """The error of a pivot at ``node`` failing for ``reason``; a node None (the dense LDU) gives the bare reason."""
    return SingularBlockError(reason if node is None else f"singular diagonal block at node {node!r}: {reason}")


def check_pivots(pivots: np.ndarray, inverses: np.ndarray, starts, checked, nodes, sizes) -> None:
    """The conditioning rule over the pivots ``checked`` (ascending indices or a slice), in one batched pass.

    Pivot j holds the cells of the flat ``pivots`` from starts[j] up to the
    next start (the last to the end), its inverse the same cells of
    ``inverses``; padding must be zero.  It fails unless max|A| * max|A^-1|
    is below 1/_SINGULAR_RTOL; a NaN in its inverse fails too.  Raises
    SingularBlockError for the first failing one, naming nodes[j] and its
    block size sizes[j].
    """
    growth = (np.maximum.reduceat(np.abs(pivots), starts) * np.maximum.reduceat(np.abs(inverses), starts))[checked]
    if growth.max() * _SINGULAR_RTOL < 1.0:
        return
    j = np.flatnonzero(~(growth * _SINGULAR_RTOL < 1.0))[0]
    k = np.arange(len(starts))[checked][j]
    raise _singular(nodes[k], f"ill-conditioned {sizes[k]}x{sizes[k]} block (max|A| max|A^-1| {growth[j]:.3e})")


def name_failure(pivots: np.ndarray, sizes, nodes, relieved, unreached, err: Exception) -> None:
    """Raise the error of the first failing pivot, inverted one at a time, once their batched inverse raised ``err``.

    Pivot j is the leading sizes[j] rows and columns of pivots[j], at node
    nodes[j].  Those at ``relieved`` must pass :func:`relieved_inverse`, a
    zero one at ``unreached`` (no update reached it) raises
    DanglingConstraintError, and the others must pass :func:`ldu_inverse`.
    Re-raises ``err`` when none fails.
    """
    for j, (block, k, node) in enumerate(zip(pivots, sizes, nodes)):
        block = block[:k, :k]
        if j in relieved:
            try:
                relieved_inverse(block)
            except np.linalg.LinAlgError:
                raise SingularBlockError(f"loop pivot at node {node!r}: SVD did not converge on its {k}x{k} block") from err
        elif j in unreached and not block.any():
            raise DanglingConstraintError(
                f"constraint node {node!r} reached its pivot with a zero diagonal and no coupling updates"
            ) from err
        else:
            try:
                ldu_inverse(block)
            except SingularBlockError as fail:
                raise _singular(node, str(fail)) from err
    raise err


def ldu_inverse(block: np.ndarray) -> np.ndarray:
    """Invert one pivot block with LAPACK under the conditioning rule.

    Raises SingularBlockError for an exactly singular block or one failing
    the rule (:func:`check_pivots`).
    """
    k = block.shape[0]
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"exactly singular {k}x{k} block") from err
    check_pivots(block.ravel(), inv.ravel(), [0], slice(None), [None], [k])
    return inv


def relieved_inverse(block: np.ndarray) -> np.ndarray:
    """The truncated-SVD pseudo-inverse of a relieved pivot block, or of a stack of them along leading axes.

    The stack is decomposed in one batched SVD.  Each block has one cut,
    ``_LOOP_PIVOT_RELIEF * max|A|`` of that block: its singular values at
    or below the cut get weight 0, so deficient directions (zero padding
    among them) contribute nothing.  An SVD that does not converge raises
    LinAlgError.
    """
    cut = _LOOP_PIVOT_RELIEF * np.abs(block).max(axis=(-2, -1), initial=0.0)[..., None]
    u, sig, vt = np.linalg.svd(block, full_matrices=False)
    weight = np.divide(1.0, sig, out=np.zeros_like(sig), where=sig > cut)
    return np.swapaxes(vt, -1, -2) * weight[..., None, :] @ np.swapaxes(u, -1, -2)


# ---------------------------------------------------------------------------
# dense LDU


@dataclass
class DenseFactor:
    """In-place LDU factors of a block-partitioned dense matrix.

    ``matrix`` holds L strictly below the block diagonal (unit diagonal
    implied), the D blocks on the diagonal, and U strictly above (unit
    diagonal implied)."""

    matrix: np.ndarray
    offsets: list[int]
    diag_inv: list[np.ndarray]

    def _blk(self, i: int, j: int) -> np.ndarray:
        o = self.offsets
        return self.matrix[o[i] : o[i + 1], o[j] : o[j + 1]]


def dense_ldu_factorize(
    matrix: np.ndarray,
    sizes: list[int] | None = None,
    relieved: bool = False,
) -> DenseFactor:
    """Factorize a square matrix in place as L·D·U over a block partition.

    ``sizes`` lists the block sizes along the diagonal; omitted means a
    scalar (all-ones) partition.  Processes the diagonal top-left to
    bottom-right with no pivoting; raises SingularBlockError on a singular
    pivot block, or, when ``relieved``, inverts every pivot with
    :func:`relieved_inverse`.
    """
    f = np.array(matrix, dtype=float)
    if f.ndim != 2 or f.shape[0] != f.shape[1]:
        raise ValueError("expected a square matrix")
    if sizes is None:
        sizes = [1] * f.shape[0]
    if sum(sizes) != f.shape[0]:
        raise ValueError("block sizes do not cover the matrix")
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    nb = len(sizes)

    def blk(i, j):
        return f[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]]

    def setblk(i, j, val):
        f[offsets[i] : offsets[i + 1], offsets[j] : offsets[j + 1]] = val

    diag_inv: list[np.ndarray] = []
    for n in range(nb):
        for i in range(n):
            for j in range(i):
                setblk(n, i, blk(n, i) - blk(n, j) @ blk(j, j) @ blk(j, i))
                setblk(i, n, blk(i, n) - blk(i, j) @ blk(j, j) @ blk(j, n))
            setblk(n, i, blk(n, i) @ diag_inv[i])
            setblk(i, n, diag_inv[i] @ blk(i, n))
        for j in range(n):
            setblk(n, n, blk(n, n) - blk(n, j) @ blk(j, j) @ blk(j, n))
        diag_inv.append(relieved_inverse(blk(n, n)) if relieved else ldu_inverse(blk(n, n)))
    return DenseFactor(matrix=f, offsets=offsets, diag_inv=diag_inv)


def dense_ldu_solve(fact: DenseFactor, b: np.ndarray) -> np.ndarray:
    """Back-substitute a factorized system: returns x with L·D·U·x = b."""
    o = fact.offsets
    nb = len(o) - 1
    x = np.array(b, dtype=float)

    def seg(i):
        return x[o[i] : o[i + 1]]

    for n in range(nb):
        for j in range(n):
            seg(n)[:] -= fact._blk(n, j) @ seg(j)
    for n in range(nb - 1, -1, -1):
        seg(n)[:] = fact.diag_inv[n] @ seg(n)
        for j in range(n + 1, nb):
            seg(n)[:] -= fact._blk(n, j) @ seg(j)
    return x


# ---------------------------------------------------------------------------
# sparse graph-ordered LDU


def _cells(rows: np.ndarray, cols: np.ndarray, *maps):
    """The cells first + stride a + b of rectangles of ``rows`` × ``cols``, per map (first, stride) of them.

    The rectangles are expanded into rows and columns once.  A map gives
    the first cell and row stride of the first rectangles, all or some,
    and its cells are theirs, rectangle by rectangle, row by row.  Yields
    them map by map, so a caller can drop one before the next is made.
    """
    rect = np.arange(len(rows)).repeat(rows)
    a = np.arange(len(rect)) - _starts(rows).repeat(rows)
    width = cols[rect]
    cells_before = np.append(0, width.cumsum())
    b = np.arange(cells_before[-1]) - cells_before[:-1].repeat(width)
    rows_before = np.append(0, rows.cumsum())
    for first, stride in maps:
        r = rows_before[len(first)]
        yield (first[rect[:r]] + stride[rect[:r]] * a[:r]).repeat(width[:r]) + b[: cells_before[r]]


def _where(storage: tuple, p: np.ndarray, q: np.ndarray) -> tuple:
    """(first cell, row stride, block key) of the blocks (p, q) of positions, in a layout's ``storage``.

    A diagonal block lies in its pivot, one with p < q in p's row panel, one
    with p > q in q's column panel (:class:`Level`).  ``storage`` holds the
    position count n, the sorted keys k n + p of the entries (a position k,
    a later neighbour p), the entries' offsets in k's panels, then per
    position its pivot's, row panel's and column panel's first cells, its
    padded block size and its row panel's width.  Keys number the blocks:
    the entries' (k, p), then their (p, k), then the diagonal.
    """
    n, ekey, eoff, piv, up, lo, m, w = storage
    e = np.searchsorted(ekey, np.minimum(p, q) * n + np.maximum(p, q))
    off = np.append(eoff, 0)[e]
    diag, upper = p == q, p < q
    return (
        np.where(diag, piv[p], np.where(upper, up[p] + off, lo[q] + off * m[q])),
        np.where(diag, m[p], np.where(upper, w[p], m[q])),
        np.where(diag, 2 * len(ekey) + p, e + len(ekey) * (p > q)),
    )


def _starts(counts: np.ndarray) -> np.ndarray:
    """Where each of consecutive runs of ``counts`` items starts."""
    return counts.cumsum() - counts


@dataclass
class Level:
    """A run of mutually non-adjacent positions, ``start`` to ``stop``, eliminated together.

    Position j of the run owns three stretches of a :class:`NodeSystem`'s
    storage, stacked over the run with m its largest block: an m×m pivot
    in ``pivots`` (padded with the identity, a relieved one with zeros),
    an m×W row panel in ``upper`` (its blocks to its later neighbours in
    ascending position, zeros, and its right-hand side as the last column)
    and an H×m column panel in ``lower`` (the later neighbours' blocks to
    it, in the same rows; None when no position has a later neighbour),
    H + 1 = W.  ``regular`` indexes the pivots LAPACK inverts and
    ``relieved`` the others, which one :func:`relieved_inverse` call
    inverts at size m.  ``schur``, ``sums``, ``later`` and ``rows`` are the
    run's stretches of the layout's index arrays of those names
    (:class:`SymbolicLayout`).
    """

    start: int
    stop: int
    pivots: slice
    pivot_shape: tuple
    regular: slice | np.ndarray
    relieved: np.ndarray
    upper: slice
    upper_shape: tuple
    lower: slice | None
    lower_shape: tuple
    schur: slice
    sums: slice
    later: slice
    rows: slice


@dataclass
class SymbolicLayout:
    """Topology-only structure of a sparse block system, built once per pattern.

    Positions number the nodes of ``order``, the elimination order, which
    holds the relieved nodes where they are eliminated.  ``sizes[k]`` is
    position k's block size, ``segments[k]`` its rows in elimination
    order, and ``perm`` maps those to the rows of the vector the layout
    was given.  ``later[k]`` lists the later neighbours of k (ascending,
    fill included).  Blocks are numbered too: each position's diagonal,
    then the pattern's off-diagonal blocks (node ids in ``pairs``), then
    the fill blocks (``fill_events``), and :attr:`places` says where each
    block lies in the storage that ``storage`` describes (:func:`_where`).
    ``levels`` splits the positions into maximal runs of consecutive,
    mutually non-adjacent positions (:class:`Level`), each of which the
    sweep eliminates at once.  A
    level's Schur product cells add into the storage cells
    ``targets[sums][ids[schur]]``, its last target taking the padding.
    ``gathered[later]`` holds, per position of a level, its later
    neighbours' solution rows, then -1 against the right-hand side, and
    ``own[rows]`` its own rows; both index the solution vector extended by
    the values 0 (for padding) and -1 and a last cell for padding rows.
    ``relieved`` lists the positions of the relieved nodes, ascending, and
    ``loop_layout`` maps each relieved node to the (node id, rows) stacked
    into it.  A system's storage holds ``cells`` cells, zero but 1 at
    ``ones`` (the unrelieved pivots' padding) and the sources' blocks at
    ``scatter``; its right-hand side goes to ``rhs_at`` (the rows no node
    holds to the last cell).  ``checked`` lists the positions of the other pivots,
    which the conditioning rule checks, and ``pivot_at`` where each
    position's pivot starts.
    """

    order: list
    sizes: list
    segments: list
    perm: np.ndarray
    later: list
    relieved: list
    pairs: list
    fill_events: list
    loop_layout: dict
    levels: list
    ids: np.ndarray
    targets: np.ndarray
    gathered: np.ndarray
    own: np.ndarray
    storage: tuple
    cells: int
    ones: np.ndarray
    scatter: np.ndarray
    rhs_at: np.ndarray
    checked: np.ndarray
    pivot_at: np.ndarray

    @property
    def fill_count(self) -> int:
        return len(self.fill_events)

    def system(self, blocks: list, rhs: np.ndarray) -> NodeSystem:
        """A system on this layout from ``blocks``, the blocks of its sources in order; those of one pair add up.

        Blocks without a source are zero.  ``rhs`` is in the rows of the vector the layout was given.
        """
        vals = np.bincount(self.scatter, np.concatenate(blocks, axis=None), self.cells)
        vals[self.ones] = 1.0
        return NodeSystem(layout=self, vals=vals, rhs=rhs)

    def blocks(self, vals: np.ndarray, count: int) -> list:
        """Copies of the first ``count`` blocks of the storage ``vals``, in block numbering."""
        return [vals[base + stride * np.arange(r)[:, None] + np.arange(c)] for base, stride, r, c in self.places[:count]]

    @cached_property
    def places(self) -> np.ndarray:
        """Each block's (first cell, row stride, rows, columns) in the storage, in block numbering."""
        at = {node: k for k, node in enumerate(self.order)}
        pq = np.array([(k, k) for k in range(len(self.order))] + [(at[i], at[j]) for i, j in self.pairs + self.fill_events], dtype=np.intp)
        size = np.array(self.sizes, dtype=np.intp)
        return np.stack([*_where(self.storage, pq[:, 0], pq[:, 1])[:2], size[pq[:, 0]], size[pq[:, 1]]], axis=1)


class SymbolicElimination:
    """A block pattern's graph eliminated one vertex at a time: the symbolic factorization (George & Liu, 1981).

    A vertex stands for each node of ``order``, numbered by its place
    there; a key of ``stacks`` (a relieved node) stands for the nodes it
    maps to, stacked in ascending id.  ``sizes`` gives each other node's
    block size and ``sources`` the (row node, column node) of each block a
    system supplies, an edge where it joins two vertices; the pattern is
    symmetric.  ``adj`` maps each vertex not yet eliminated to its
    neighbours, fill included.  Whatever rule picks the vertices,
    :meth:`eliminate` lists them in ``taken`` and each one's neighbours
    then, its later neighbours, in ``later``.  ``nodes`` numbers the nodes
    vertex by vertex; ``vertex`` and ``node_sizes`` give each one's vertex
    and block size, and ``ends`` each source's (row, column) node numbers.
    """

    def __init__(self, order, sizes, sources, stacks):
        self.keys = list(order)
        self.sizes = sizes
        self.stacks = {key: sorted(ids) for key, ids in stacks.items()}
        stacked = [self.stacks.get(key, [key]) for key in self.keys]
        self.nodes = [node for ids in stacked for node in ids]
        if len(self.nodes) != len(sizes) or set(self.nodes) != set(sizes):
            raise ValueError("elimination order does not cover all nodes")
        self.node_sizes = np.array([sizes[node] for node in self.nodes], dtype=np.intp)
        self.vertex = np.arange(len(self.keys)).repeat([len(ids) for ids in stacked])
        number = {node: t for t, node in enumerate(self.nodes)}
        self.ends = np.fromiter(map(number.__getitem__, chain.from_iterable(sources)), np.intp, 2 * len(sources)).reshape(-1, 2)
        a, b = self.vertex[self.ends.T]
        self.adj = {v: set() for v in range(len(self.keys))}
        for i, j in zip(a[a != b].tolist(), b[a != b].tolist()):  # (j, i) is a source too
            self.adj[i].add(j)
        self.taken, self.later = [], []

    def eliminate(self, v) -> set:
        """Take vertex ``v`` out of the graph and join its neighbours pairwise; returns those neighbours."""
        nbrs = self.adj.pop(v)
        for a in nbrs:
            joined = self.adj[a]
            joined |= nbrs
            joined -= {a, v}
        self.taken.append(v)
        self.later.append(nbrs)
        return nbrs


def in_order(order, sizes, sources, stacks) -> SymbolicElimination:
    """The :class:`SymbolicElimination` of a pattern taking its vertices in ``order``."""
    elim = SymbolicElimination(order, sizes, sources, stacks)
    for v in range(len(order)):
        elim.eliminate(v)
    return elim


def symbolic_layout(elim: SymbolicElimination, rows, dim) -> SymbolicLayout:
    """Lay out the storage of a block pattern in the order its symbolic elimination ``elim`` took its vertices.

    The later neighbours are the elimination's; the fill (each pair of a
    position's later neighbours that no source joins, added by the first
    position to hold both) and the levels are read from them in array
    passes, and the cells of the Schur products' target blocks and of the
    sources' blocks come from one expansion (:func:`_cells`).  Each
    relieved node's pivot goes to :func:`relieved_inverse`.  ``rows``
    gives each node's rows of a vector of ``dim`` rows; the rows no node
    holds read zero in the solution.  A source pair may repeat, and its
    blocks then add up; blocks without a source are zero.  The pattern
    must be symmetric.
    """
    n = len(elim.taken)
    taken = np.array(elim.taken, dtype=np.intp)
    at = np.empty(len(elim.keys), dtype=np.intp)  # each vertex's position in the elimination order
    at[taken] = np.arange(n)
    order = [elim.keys[v] for v in elim.taken]
    stacks = elim.stacks
    is_relieved = np.array([key in stacks for key in order], dtype=bool)
    relieved = np.flatnonzero(is_relieved).tolist()

    # nodes, numbered vertex by vertex: position, row offset in it; rows per position
    node_at = at[elim.vertex]
    rows_before = np.concatenate([[0], elim.node_sizes.cumsum()])
    vertex_first = np.searchsorted(elim.vertex, np.arange(len(elim.keys) + 1))
    node_offset = rows_before[:-1] - rows_before[vertex_first[elim.vertex]]
    size = (rows_before[vertex_first[1:]] - rows_before[vertex_first[:-1]])[taken]

    # Entries e list each k's later neighbours ep (owner ek, ascending)
    # with their row offset eoff in k's column panel.  A level ends before
    # a later neighbour of one of its positions: before each position k
    # whose last earlier neighbour is in k's level.
    deg = np.fromiter(map(len, elim.later), np.intp, n)
    ek = np.arange(n).repeat(deg)
    ekey = ek * n + at[np.fromiter(chain.from_iterable(elim.later), np.intp, deg.sum())]
    ekey.sort()
    ep = ekey - ek * n
    estart = _starts(deg)
    cum = np.concatenate([[0], size[ep].cumsum()])
    eoff = cum[:-1] - cum[estart].repeat(deg)
    width = cum[estart + deg] - cum[estart]
    points = ep.tolist()
    later = [points[s : s + d] for s, d in zip(estart.tolist(), deg.tolist())]
    last = np.full(n, -1, dtype=np.intp)
    np.maximum.at(last, ep, ek)
    bounds = [0]
    for k, j in enumerate(last.tolist()):
        if j >= bounds[-1]:
            bounds.append(k)
    bounds = list(dict.fromkeys(bounds + [n]))

    # Per level: its positions c, padded block m and row-panel width h + 1,
    # and the cells of its pivots, row panels, column panels, Schur
    # products, gathered rows and own rows; the storage holds every level's
    # pivots, then row panels, then column panels, then one cell for
    # padding.  Per position k: its level, m, h and where each of its six
    # stretches starts.
    size_at, width_at = size.tolist(), width.tolist()
    dims = [(b - a, max(size_at[a:b]), max(width_at[a:b])) for a, b in zip(bounds, bounds[1:])]
    stretch = [(m * m, m * (h + 1), h * m, h * (h + 1), h + 1, m) for _, m, h in dims]
    region = [[c * x for x in st] for (c, _, _), st in zip(dims, stretch)]
    totals = [sum(r) for r in zip(*region)] or [0] * 6
    cursor, first = [], [0, totals[0], totals[0] + totals[1], 0, 0, 0]
    for reg in region:
        cursor.append(first)
        first = [x + r for x, r in zip(first, reg)]
    lev = np.arange(len(dims)).repeat(np.diff(bounds))
    st = np.array(stretch, dtype=np.intp).reshape(-1, 6)[lev]
    piv_at, up_at, lo_at, s_at, g_at, r_at = (np.array(cursor, dtype=np.intp).reshape(-1, 6)[lev] + (np.arange(n) - np.array(bounds)[lev])[:, None] * st).T
    w, m = st[:, 4], st[:, 5]
    h = w - 1
    pad = np.where(is_relieved, 0, m - size)  # a relieved pivot's zero padding gets singular values 0, which weigh 0
    ones = (piv_at + (m + 1) * size).repeat(pad) + (m + 1).repeat(pad) * (np.arange(pad.sum()) - _starts(pad).repeat(pad))
    trash = sum(totals[:3])
    row0 = _starts(size)

    # per source: its row node's position, offset and rows, then its column node's
    src = np.array([node_at, node_offset, elim.node_sizes])[:, elim.ends.T].swapaxes(0, 1).reshape(6, -1)
    pattern = dict.fromkeys((src[0] * n + src[3]).tolist())  # (row position p, column position q) as p n + q, first seen first

    # one lookup for the Schur blocks and the sources' blocks
    E = len(ep)
    storage = (n, ekey, eoff, piv_at, up_at, lo_at, m, w)
    pp = deg * deg
    tk = np.arange(n).repeat(pp)
    pair = np.arange(len(tk)) - _starts(pp).repeat(pp)
    e1, e2 = estart[tk] + pair // deg[tk], estart[tk] + pair % deg[tk]
    p1, p2 = ep[e1], ep[e2]
    base, stride, block = _where(storage, np.concatenate([p1, src[0]]), np.concatenate([p2, src[3]]))

    # Fill: the pairs of k's later neighbours that no source joins, each
    # added by the first k to hold both, by k and then the pair's positions.
    fill = dict.fromkeys(pq for pq in (p1 * n + p2)[p1 != p2].tolist() if pq not in pattern)

    # Schur cells: per eliminated k, the blocks (p, q) of its later
    # neighbours, then their right-hand sides.  Numbers go level by level
    # to the distinct target blocks' cells, then to the level's padding:
    # slot K - 1 of a level's K slots of block keys.  The sources' blocks
    # follow; their cells are the scatter map.
    owner = np.concatenate([tk, ek])
    nr = size[np.concatenate([p1, ep])]
    nc = np.concatenate([size[p2], np.ones_like(ep)])
    K = 2 * E + 2 * n + 1
    slot = lev[owner] * K + np.concatenate([block[: len(tk)], 2 * E + n + ep])
    count = np.zeros(len(dims) * K, dtype=np.intp)
    count[slot] = nr * nc  # a block targeted twice in a level is numbered once
    count[K - 1 :: K] = 1
    number = count.cumsum() - count
    level_at = np.append(number[::K], count.sum())  # a level's numbers, its padding's last
    # one expansion: the Schur blocks' storage cells, then the sources'
    # (the scatter map), numbers, S cells and numbers within the level
    s_first = s_at[owner] + np.concatenate([eoff[e1] * w[tk] + eoff[e2], eoff * w[ek] + h[ek]])
    maps = _cells(
        np.concatenate([nr, src[2]]),
        np.concatenate([nc, src[5]]),
        (
            np.concatenate([base[: len(tk)], up_at[ep] + w[ep] - 1, base[len(tk) :] + stride[len(tk) :] * src[1] + src[4]]),
            np.concatenate([stride[: len(tk)], w[ep], stride[len(tk) :]]),
        ),
        (number[slot], nc),
        (s_first, w[owner]),
        (number[slot] - level_at[lev[owner]], nc),
    )
    cell = next(maps)
    targets = np.full(level_at[-1], trash, dtype=np.intp)
    numbers = next(maps)
    targets[numbers] = cell[: len(numbers)]
    scatter = cell[len(numbers) :].copy()
    del cell, numbers
    numbered = (np.diff(level_at) - 1).astype(np.int32).repeat([r[3] for r in region])  # bincount's input: half the memory, as fast
    spot = next(maps)
    numbered[spot] = next(maps)
    del spot

    # solution rows: the vector's, then the cells 0, -1 and padding
    covered = [node for key in order for node in stacks.get(key, [key])]
    perm = np.fromiter(chain.from_iterable(rows[node] for node in covered), dtype=np.intp)
    extended = np.concatenate([perm, dim + np.arange(3)])
    row_of = np.arange(n).repeat(size)
    row_in = np.arange(len(perm)) - row0[row_of]
    gathered = np.full(totals[4], len(perm), dtype=np.intp)
    gathered[g_at + h] = len(perm) + 1
    row_at = size[ep]  # each entry's rows: its later neighbour's
    within = np.arange(row_at.sum()) - _starts(row_at).repeat(row_at)
    gathered[(g_at[ek] + eoff).repeat(row_at) + within] = row0[ep].repeat(row_at) + within
    gathered = extended[gathered]
    own = np.full(totals[5], len(perm) + 2, dtype=np.intp)
    own[r_at[row_of] + row_in] = np.arange(len(perm))
    own = extended[own]

    levels = []
    numbers_at = level_at.tolist()
    for lv, (start, stop, first, reg, (_, mm, hh)) in enumerate(zip(bounds, bounds[1:], cursor, region, dims)):
        spans = [slice(a, a + r) for a, r in zip(first, reg)]
        plain = ~is_relieved[start:stop]
        levels.append(Level(
            start=start,
            stop=stop,
            pivots=spans[0],
            pivot_shape=(stop - start, mm, mm),
            regular=slice(None) if plain.all() else np.flatnonzero(plain),
            relieved=np.flatnonzero(~plain),
            upper=spans[1],
            upper_shape=(stop - start, mm, hh + 1),
            lower=spans[2] if hh else None,
            lower_shape=(stop - start, hh, mm),
            schur=spans[3],
            sums=slice(numbers_at[lv], numbers_at[lv + 1]),
            later=spans[4],
            rows=spans[5],
        ))

    rhs_at = np.full(dim, trash, dtype=np.intp)
    rhs_at[perm] = (up_at + w - 1)[row_of] + w[row_of] * row_in
    row_ends = np.cumsum(size).tolist()
    return SymbolicLayout(
        order=order,
        sizes=size.tolist(),
        segments=[slice(e - s, e) for s, e in zip(size.tolist(), row_ends)],
        perm=perm,
        later=later,
        relieved=relieved,
        pairs=[(order[pq // n], order[pq % n]) for pq in pattern if pq // n != pq % n],
        fill_events=[(order[pq // n], order[pq % n]) for pq in fill],
        loop_layout={key: [(node, elim.sizes[node]) for node in ids] for key, ids in stacks.items()},
        levels=levels,
        ids=numbered,
        targets=targets,
        gathered=gathered,
        own=own,
        storage=storage,
        cells=trash + 1,
        ones=ones,
        scatter=scatter,
        rhs_at=rhs_at,
        checked=np.flatnonzero(~is_relieved),
        pivot_at=piv_at,
    )


@dataclass
class NodeSystem:
    """One block system's numbers on a :class:`SymbolicLayout`.

    ``vals`` is the storage the layout's levels address and ``rhs`` the
    right-hand side in the rows of the vector the layout was given.
    Factorizing reads them and never writes them.
    """

    layout: SymbolicLayout
    vals: np.ndarray
    rhs: np.ndarray

    @property
    def order(self) -> list:
        return self.layout.order

    @property
    def blocks(self) -> list:
        return self.layout.blocks(self.vals, len(self.layout.places))

    @property
    def diag(self) -> dict:
        return dict(zip(self.layout.order, self.layout.blocks(self.vals, len(self.layout.order))))

    def as_block_system(self) -> BlockSystem:
        """The same system as block dicts without the fill, with copies of the blocks."""
        lay = self.layout
        blocks = lay.blocks(self.vals, len(lay.order) + len(lay.pairs))
        offdiag = dict(zip(lay.pairs, blocks[len(lay.order) :]))
        rhs = {node: self.rhs[lay.perm[seg]] for node, seg in zip(lay.order, lay.segments)}
        return BlockSystem(dict(zip(lay.order, blocks)), offdiag, list(lay.order), rhs, lay.loop_layout or None)


@dataclass
class BlockSystem:
    """A block matrix and right-hand side as dicts over a graph's nodes.

    The dict view of a system for tests and oracles: :meth:`on_layout`
    puts it on a layout of its own pattern for the sparse solver.  ``diag``
    maps node id to its square diagonal block, ``offdiag`` maps ordered
    pairs (i, j) to the coupling block in row i, column j; a pair is
    present exactly when its transpose pair is (symmetric pattern,
    asymmetric values).  ``order`` is the elimination order, children
    before parents.  ``rhs`` maps node id to its residual segment.
    """

    diag: dict
    offdiag: dict
    order: list
    rhs: dict
    # per relieved node, the [(constraint id, rows)] stacked into it in stacking order
    loop_layout: dict | None = None

    def on_layout(self, loop_ids) -> NodeSystem:
        """This system on a layout of its own pattern, ``loop_ids`` stacked into one relieved node last.

        Its vector is the nodes' segments in ``order``.
        """
        sizes = {n: blk.shape[0] for n, blk in self.diag.items()}
        ends = np.cumsum([sizes[n] for n in self.order]).tolist()
        rows = {n: range(end - sizes[n], end) for n, end in zip(self.order, ends)}
        order = [n for n in self.order if n not in loop_ids] + [LOOP_NODE] * bool(loop_ids)
        sources = [(n, n) for n in self.diag] + list(self.offdiag)
        elim = in_order(order, sizes, sources, {LOOP_NODE: loop_ids} if loop_ids else {})
        layout = symbolic_layout(elim, rows, sum(sizes.values()))
        return layout.system([*self.diag.values(), *self.offdiag.values()], np.concatenate([self.rhs[n] for n in self.order]))


def augment_loop_node(system: BlockSystem, loop_ids) -> BlockSystem:
    """Stack loop-closure constraint nodes into a single final relieved node.

    The nodes in ``loop_ids`` are replaced by one node keyed
    :data:`LOOP_NODE`, placed last in the elimination order, whose rows are
    theirs in ascending id (``loop_layout[LOOP_NODE]``), as
    :func:`symbolic_layout` stacks them.  Returns the system unchanged when
    ``loop_ids`` is empty.
    """
    if not loop_ids:
        return system
    return system.on_layout(loop_ids).as_block_system()


@dataclass
class SparseFactor:
    """The factors of a NodeSystem, ``vals`` in its layout's storage.

    The storage holds D on the diagonal, U = D[k]^-1 A[k, p] above it and
    A[p, k], Schur-updated, below it (L = A[p, k] D[k]^-1 is never formed),
    and U's last column per position: the right-hand side, carried
    through the sweep, so the forward substitution is done.
    """

    system: NodeSystem
    vals: np.ndarray

    @property
    def fill_count(self) -> int:
        return self.system.layout.fill_count

    @property
    def blocks(self) -> list:
        return self.system.layout.blocks(self.vals, len(self.system.layout.places))


def _check_pivots(lay: SymbolicLayout, vals: np.ndarray, inverses: np.ndarray, stop: int) -> None:
    """:func:`check_pivots` over the unrelieved pivots before position ``stop`` of a sweep's storage."""
    positions = lay.checked[: lay.checked.searchsorted(stop)]
    if positions.size:
        vals[lay.ones] = inverses[lay.ones] = 0.0  # the padding takes no part; only the solve reads this storage on
        check_pivots(vals[: len(inverses)], inverses, lay.pivot_at, positions, lay.order, lay.sizes)


def sparse_ldu_factorize(system: NodeSystem) -> SparseFactor:
    """Graph-ordered LDU factorization: the numeric sweep over a layout, one level at a time.

    A level's positions share no block, so they are eliminated together:
    one batched inverse of its pivots (the relieved ones in one
    :func:`relieved_inverse` call), one batched product for its row panels
    U = D^-1 [A[k, later] | b_k] and one for the Schur updates
    A[later, k] U, summed into their target blocks.  The right-hand side
    rides along as the panels' last column, so the forward substitution
    is done here.  The work is the Schur updates': on a tree in
    children-first order each node has at most two later neighbours
    (with the bodies of at most three joints eliminated before the sweep,
    a joint's two ends), which already couple, so the sweep is O(N)
    without fill; the step's level order (``mechanism.elimination_plan``)
    adds linear fill and needs O(log N) levels.  A relieved node comes
    after its cycle's nodes, so the cross updates land in fill on that
    cycle.

    Pivots are checked together after the sweep under the conditioning
    rule; an exactly singular pivot stops the sweep once the pivots before
    it pass, naming the first failing node in elimination order.  A zero
    pivot that no update reached raises DanglingConstraintError.
    """
    lay = system.layout
    vals = system.vals.copy()
    vals[lay.rhs_at] = system.rhs
    inverses = np.zeros(lay.levels[-1].pivots.stop if lay.levels else 0)  # the check reads unmade ones on the error path
    for level in lay.levels:
        pivots = vals[level.pivots].reshape(level.pivot_shape)
        inv = inverses[level.pivots].reshape(level.pivot_shape)
        try:
            inv[level.regular] = np.linalg.inv(pivots[level.regular])
            if len(level.relieved):
                inv[level.relieved] = relieved_inverse(pivots[level.relieved])
        except np.linalg.LinAlgError as err:  # name the first failure in elimination order
            _check_pivots(lay, vals, inverses, level.start)  # the later pivots' inverses are not made yet
            span = range(level.start, level.stop)
            name_failure(
                pivots, lay.sizes[level.start : level.stop], lay.order[level.start : level.stop],
                set(level.relieved.tolist()),
                {j for j, k in enumerate(span) if all(k not in lk for lk in lay.later[:k])},
                err,
            )
        upper = vals[level.upper].reshape(level.upper_shape)
        upper[...] = inv @ upper
        if level.lower is not None:
            schur = vals[level.lower].reshape(level.lower_shape) @ upper
            targets = lay.targets[level.sums]
            vals[targets] -= np.bincount(lay.ids[level.schur], schur.ravel(), len(targets))
    _check_pivots(lay, vals, inverses, len(lay.order))
    return SparseFactor(system=system, vals=vals)


def sparse_ldu_solve(fact: SparseFactor) -> np.ndarray:
    """Back-substitute a factored system; returns the solution in the rows of the vector the layout was given.

    The factorization did the forward substitution; the levels, last
    first, give x_k = z_k - U[k, later] x_later in one batched product
    each, written straight to the vector's rows; the rows no node holds
    are zero.
    """
    lay, vals = fact.system.layout, fact.vals
    x = np.zeros(len(lay.rhs_at) + 3)
    x[-2] = -1.0
    for level in reversed(lay.levels):
        c, _, w = level.upper_shape
        x[lay.own[level.rows]] = -(vals[level.upper].reshape(level.upper_shape) @ x[lay.gathered[level.later]].reshape(c, w, 1)).ravel()
    return x[:-3]


def pattern_report(layout: SymbolicLayout) -> str:
    """Readable dump of a layout: nodes, neighbours, levels, relieved nodes and fill."""
    order = layout.order
    neighbours: list = [[] for _ in order]
    for k, lk in enumerate(layout.later):
        for p in lk:
            neighbours[k].append(order[p])
            neighbours[p].append(order[k])
    lines = ["block system", f"  nodes: {len(order)}", f"  order: {order}"]
    for node, seg, nbrs in zip(order, layout.segments, neighbours):
        size = seg.stop - seg.start
        lines.append(f"  node {node!r}: size {size}, coupled to {nbrs} (fill included)")
    lines.append(f"  levels: {len(layout.levels)}")
    for i, level in enumerate(layout.levels, 1):
        count = level.stop - level.start
        lines.append(f"    level {i}: {count} node{'s' * (count > 1)} {order[level.start : level.stop]}")
    if layout.relieved:
        lines.append(f"  relieved nodes: {len(layout.relieved)}")
    for k in layout.relieved:
        stack = layout.loop_layout[order[k]]
        lines.append(f"    relieved node {order[k]!r}: {sum(r for _, r in stack)} rows, loop joints {[i for i, _ in stack]}")
    lines.append(f"  fill events: {layout.fill_count}")
    lines += [f"    fill at ({i!r}, {j!r})" for i, j in layout.fill_events]
    return "\n".join(lines)
