"""Block-structured LDU factorization and back-substitution.

Two solvers live here:

- A dense in-place LDU over an explicit matrix partitioned into blocks
  (scalar entries are the all-ones partition).  O(N^3) in the number of
  blocks; used as the reference solver in tests and as the timing
  baseline.
- A graph-ordered sparse LDU, split into a :class:`SymbolicLayout` built
  once per pattern (elimination order, node rows, neighbours with fill,
  relieved nodes, where each block lands) and a numeric sweep over a
  :class:`NodeSystem`'s node-indexed block lists.  When the pattern is a
  tree and the order places children before parents, the sweep touches
  each node a constant number of times, runs in O(N), and creates no
  fill.  The loop-closure constraints of each independent cycle (cycles
  sharing a body or joint count as one) are stacked into one relieved
  node placed right after the cycle's highest node (Baraff, "Linear-time
  dynamics using Lagrange multipliers", SIGGRAPH 1996); fill then stays
  on that cycle, and a chain of k disjoint loops factors in O(k).
  :class:`BlockSystem` dicts are a view of a NodeSystem for tests and the
  dense oracle; :meth:`BlockSystem.on_layout` puts one on a layout.

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

Pivot blocks are inverted with LAPACK under one conditioning rule, checked
in one batched pass per block size: the inverse must be finite and
max|A| * max|A^-1| below 1/_SINGULAR_RTOL.  A relieved node's pivot
instead uses a truncated-SVD pseudo-inverse under one cut, a small
multiple of the block scale: closed loops of parallel-axis joints carry
structurally redundant constraint rows, so its Schur complement is
rank-deficient by construction, its redundant rows and columns zero to
rounding.  Those at or below the cut are deflated first (3 of the 5 of
each planar parallelogram), the SVD decomposes only the rest, and its
singular values at or below the same cut are dropped.  This selects one
multiplier solution out of the affine family, stably under rounding,
without affecting body motion (null-space components of the multipliers
do not enter the equations of motion); the iteration still drives the
true residual to tolerance.  The redundancy of a cycle involves only its
own joints, all eliminated before its relieved node, so the nodes after
it see an exact Schur complement through the pseudo-inverse; this is why
cycles that share a body or joint must share one relieved node.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import DanglingConstraintError, SingularBlockError

# Key of the relieved node nearest the root; the others are (LOOP_NODE, smallest loop joint id).
LOOP_NODE = "loop"

# An unrelieved block fails once max|A| * max|A^-1| reaches 1/_SINGULAR_RTOL.
_SINGULAR_RTOL = 1e-13

# A relieved pivot's one cut, relative to max|A|: rows, columns and singular values at or below it go.
_LOOP_PIVOT_RELIEF = 1e-10


# ---------------------------------------------------------------------------
# pivot-block inverse


def _pivot_failures(blocks: list) -> list:
    """(index, reason) of each pivot failing the conditioning rule, in one batched pass.

    ``blocks`` holds m pivots of one size followed by their m inverses.  A
    NaN in an inverse makes its growth NaN, which fails like a growth at or
    above 1/_SINGULAR_RTOL.
    """
    scale = np.abs(np.array(blocks)).max(axis=(1, 2), initial=0.0)
    growth = scale[: len(blocks) // 2] * scale[len(blocks) // 2 :]
    if growth.max() * _SINGULAR_RTOL < 1.0:
        return []
    k = blocks[0].shape[0]
    return [
        (j, f"ill-conditioned {k}x{k} block (max|A| max|A^-1| {growth[j]:.3e})")
        for j in np.flatnonzero(~(growth * _SINGULAR_RTOL < 1.0))
    ]


def ldu_inverse(block: np.ndarray, pivot_relief: float = 0.0) -> np.ndarray:
    """Invert one pivot block with LAPACK.

    Without relief, raises SingularBlockError for an exactly singular block
    or one failing the conditioning rule.  With ``pivot_relief`` > 0,
    returns the truncated-SVD pseudo-inverse under one cut,
    ``pivot_relief * max|A|``: rows and columns of 2-norm at or below the
    cut are deflated first, the SVD decomposes the rest, and its singular
    values at or below the cut get weight 0, so deficient directions
    contribute nothing.  Deflation moves a singular value by at most
    sqrt(m) cuts (Weyl), so only values in the rounding band of the cut can
    change.  An SVD that does not converge raises LinAlgError naming both
    sizes.
    """
    if pivot_relief > 0.0:
        cut = pivot_relief * np.abs(block).max(initial=0.0)
        square = block * block
        rows = np.sqrt(square.sum(axis=1)) > cut  # the 2-norms, as np.linalg.norm computes them
        cols = np.sqrt(square.sum(axis=0)) > cut
        try:
            u, sig, vt = np.linalg.svd(block[rows][:, cols], full_matrices=False)
        except np.linalg.LinAlgError as err:
            raise np.linalg.LinAlgError(
                f"SVD did not converge on the {rows.sum()}x{cols.sum()} part above the relief cut "
                f"of a {block.shape[0]}x{block.shape[1]} block"
            ) from err
        rank = np.count_nonzero(sig > cut)  # sig is descending
        left = np.zeros((block.shape[0], rank))
        left[rows] = u[:, :rank]
        right = np.zeros((block.shape[1], rank))
        right[cols] = vt[:rank].T / sig[:rank]
        return right @ left.T
    k = block.shape[0]
    try:
        inv = np.linalg.inv(block)
    except np.linalg.LinAlgError as err:
        raise SingularBlockError(f"exactly singular {k}x{k} block") from err
    for _, reason in _pivot_failures([block, inv]):
        raise SingularBlockError(reason)
    return inv


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

    @property
    def n_blocks(self) -> int:
        return len(self.offsets) - 1


def dense_ldu_factorize(
    matrix: np.ndarray,
    sizes: list[int] | None = None,
    pivot_relief: float = 0.0,
) -> DenseFactor:
    """Factorize a square matrix in place as L·D·U over a block partition.

    ``sizes`` lists the block sizes along the diagonal; omitted means a
    scalar (all-ones) partition.  Processes the diagonal top-left to
    bottom-right with no pivoting; raises SingularBlockError on a singular
    pivot block.
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
        diag_inv.append(ldu_inverse(blk(n, n), pivot_relief=pivot_relief))
    return DenseFactor(matrix=f, offsets=offsets, diag_inv=diag_inv)


def dense_ldu_solve(fact: DenseFactor, b: np.ndarray) -> np.ndarray:
    """Back-substitute a factorized system: returns x with L·D·U·x = b."""
    o = fact.offsets
    nb = fact.n_blocks
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


@dataclass
class SymbolicLayout:
    """Topology-only structure of a sparse block system, built once per pattern.

    Positions number the nodes of ``order``, the elimination order
    (children before parents), which holds the relieved nodes where
    they are eliminated.  Blocks are numbered too: each position's
    diagonal, then the pattern's off-diagonal blocks (node ids in
    ``pairs``), then the fill blocks (``fill_events``).  ``segments[k]``
    are position k's rows in elimination order and ``perm`` maps them to
    the stacked vector's rows.  ``elimination[k]`` lists, per later
    neighbour p of k (ascending, fill included), the blocks (p, k) and
    (k, p) and the Schur updates as (block (k, q), target block (p, q))
    pairs.  ``relieved`` lists the positions of the relieved nodes,
    ascending, and ``pivot_groups`` the positions of the other pivots per
    block size.  ``loop_layout`` maps each relieved node to the (node id,
    rows) stacked into it.  ``sources``, ``stacked`` and ``zeros`` say
    where :meth:`system` takes each block from.
    """

    order: list
    segments: list
    perm: np.ndarray
    elimination: list
    relieved: list
    pivot_groups: list
    pairs: list
    fill_events: list
    loop_layout: dict
    sources: list
    stacked: list
    zeros: list

    @property
    def fill_count(self) -> int:
        return len(self.fill_events)

    def system(self, blocks: list, rhs: np.ndarray) -> NodeSystem:
        """A system on this layout from ``blocks`` in the order of its sources.

        The blocks are used as given (a skipped source keeps its place); the
        relieved nodes' blocks are assembled anew, and blocks without a
        source are read-only zeros.  ``rhs`` is in the stacked vector's rows.
        """
        src = blocks + self.zeros
        out = [src[i] for i in self.sources]
        for b, shape, parts in self.stacked:
            out[b] = np.zeros(shape)
            for i, rows, cols in parts:
                out[b][rows, cols] = src[i]
        return NodeSystem(layout=self, blocks=out, rhs=rhs)


def symbolic_layout(order, sizes, rows, sources, stacks) -> SymbolicLayout:
    """Eliminate a block pattern symbolically, in the numeric sweep's order.

    ``order`` is the elimination order.  Each key of ``stacks`` in it is a
    relieved node: the nodes it maps to are stacked into it in ascending
    id and its pivot is inverted under relief.  ``sizes`` and ``rows``
    give each other node's block size and its rows in the stacked vector.
    ``sources`` lists the (row node, column node) of each block a system
    supplies, or None for one to skip; other blocks are zero.  The pattern
    must be symmetric.
    """
    stacks = {key: sorted(ids) for key, ids in stacks.items()}
    covered = [node for key in order for node in stacks.get(key, [key])]
    if len(covered) != len(sizes) or set(covered) != set(sizes):
        raise ValueError("elimination order does not cover all nodes")
    n = len(order)
    place, block_sizes = {}, []  # node -> (position, row offset in it); rows per position
    for k, key in enumerate(order):
        offset = 0
        for node in stacks.get(key, [key]):
            place[node] = (k, offset)
            offset += sizes[node]
        block_sizes.append(offset)
    relieved = [k for k, key in enumerate(order) if key in stacks]
    at_relieved = set(relieved)

    slot = {(k, k): k for k in range(n)}  # (row position, column position) -> block
    direct: dict = {}
    parts: dict = {}  # the relieved nodes' blocks: [(source, rows, cols)]
    for s, pair in enumerate(sources):
        if pair is None:
            continue
        i, j = pair
        (p, ri), (q, rj) = place[i], place[j]
        b = slot.setdefault((p, q), len(slot))
        if p in at_relieved or q in at_relieved:
            parts.setdefault(b, []).append((s, slice(ri, ri + sizes[i]), slice(rj, rj + sizes[j])))
        else:
            direct[b] = s
    pairs = [(order[p], order[q]) for p, q in list(slot)[n:]]

    neighbours = [set() for _ in range(n)]
    for p, q in slot:
        neighbours[p].add(q)
    elimination, fill_events = [], []
    for k in range(n):
        later = sorted(p for p in neighbours[k] if p > k)
        for p, q in product(later, later):
            if (p, q) not in slot:
                slot[(p, q)] = len(slot)
                fill_events.append((order[p], order[q]))
                neighbours[p].add(q)
        updates = {p: [(slot[(k, q)], slot[(p, q)]) for q in later] for p in later}
        elimination.append([(p, slot[(p, k)], slot[(k, p)], updates[p]) for p in later])

    shapes = [(block_sizes[p], block_sizes[q]) for p, q in slot]
    zero_at = {shape: len(sources) + i for i, shape in enumerate(dict.fromkeys(shapes))}
    pivots = [k for k in range(n) if k not in at_relieved]
    ends = np.cumsum(block_sizes).tolist()
    return SymbolicLayout(
        order=list(order),
        segments=[slice(end - size, end) for size, end in zip(block_sizes, ends)],
        perm=np.array([r for node in covered for r in rows[node]], dtype=int),
        elimination=elimination,
        relieved=relieved,
        pivot_groups=[[k for k in pivots if block_sizes[k] == size] for size in set(block_sizes)],
        pairs=pairs,
        fill_events=fill_events,
        loop_layout={key: [(node, sizes[node]) for node in ids] for key, ids in stacks.items()},
        sources=[direct.get(b, zero_at[shape]) for b, shape in enumerate(shapes)],
        stacked=[(b, shapes[b], bparts) for b, bparts in parts.items()],
        zeros=[np.broadcast_to(0.0, shape) for shape in zero_at],
    )


@dataclass
class NodeSystem:
    """One block system's numbers on a :class:`SymbolicLayout`.

    ``blocks`` follows the layout's block numbering and ``rhs`` the stacked
    vector's rows.  Factorizing reads the blocks and never writes them.
    """

    layout: SymbolicLayout
    blocks: list
    rhs: np.ndarray

    @property
    def order(self) -> list:
        return self.layout.order

    @property
    def diag(self) -> dict:
        return dict(zip(self.layout.order, self.blocks))

    def as_block_system(self) -> BlockSystem:
        """The same system as block dicts without the fill, sharing the blocks."""
        lay = self.layout
        offdiag = dict(zip(lay.pairs, self.blocks[len(lay.order) :]))
        rhs = {node: self.rhs[lay.perm[seg]] for node, seg in zip(lay.order, lay.segments)}
        return BlockSystem(self.diag, offdiag, list(lay.order), rhs, lay.loop_layout or None)


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

    def assembled(self) -> tuple[np.ndarray, dict]:
        """Materialize the dense matrix in the system's node order.

        Returns the matrix and a map node -> slice of its rows/columns.
        """
        order = self.order
        sizes = [self.diag[n].shape[0] for n in order]
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        slices = {n: slice(offsets[k], offsets[k + 1]) for k, n in enumerate(order)}
        dim = offsets[-1]
        full = np.zeros((dim, dim))
        for n in order:
            full[slices[n], slices[n]] = self.diag[n]
        for (i, j), blk in self.offdiag.items():
            full[slices[i], slices[j]] = blk
        return full, slices

    def assembled_rhs(self) -> np.ndarray:
        return np.concatenate([self.rhs[n] for n in self.order])

    def on_layout(self, loop_ids) -> NodeSystem:
        """This system on a layout of its own pattern, ``loop_ids`` stacked into one relieved node last.

        Its stacked vector is the nodes' segments in ``order``.
        """
        sizes = {n: blk.shape[0] for n, blk in self.diag.items()}
        ends = np.cumsum([sizes[n] for n in self.order])
        rows = {n: np.arange(end - sizes[n], end) for n, end in zip(self.order, ends)}
        order = [n for n in self.order if n not in loop_ids] + [LOOP_NODE] * bool(loop_ids)
        sources = [(n, n) for n in self.diag] + list(self.offdiag)
        layout = symbolic_layout(order, sizes, rows, sources, {LOOP_NODE: loop_ids} if loop_ids else {})
        return layout.system([*self.diag.values(), *self.offdiag.values()], self.assembled_rhs())


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
    """The factors of a NodeSystem in its layout's block numbering.

    ``blocks`` holds D on the diagonal and L = A[p, k] D[k]^-1, U =
    D[k]^-1 A[k, p] off it; ``inverses`` holds the pivot inverses.
    """

    system: NodeSystem
    blocks: list
    inverses: list

    @property
    def fill_count(self) -> int:
        return self.system.layout.fill_count


def _check_pivots(lay: SymbolicLayout, blocks: list, inverses: list) -> None:
    """The conditioning rule over the pivots inverted so far, one batch per block size.

    Raises SingularBlockError naming the first failing node in elimination order.
    """
    failures = []
    for positions in lay.pivot_groups:
        done = positions[: bisect_left(positions, len(inverses))]
        if done:
            found = _pivot_failures([blocks[k] for k in done] + [inverses[k] for k in done])
            failures += [(done[j], reason) for j, reason in found[:1]]
    if failures:
        k, reason = min(failures)
        raise SingularBlockError(f"singular diagonal block at node {lay.order[k]!r}: {reason}")


def sparse_ldu_factorize(system: NodeSystem) -> SparseFactor:
    """Graph-ordered LDU factorization: the numeric sweep over a layout.

    Eliminates nodes in the layout's order; each eliminated node divides
    its couplings by its own diagonal and pushes a Schur update onto the
    blocks of its later neighbours.  On a tree pattern in children-first
    order every node has at most one later neighbour (its parent), so the
    cost is linear in the number of nodes.  The Newton loop's pattern,
    with the bodies of at most three joints eliminated before the sweep,
    gives a joint at most two later neighbours on a tree, which already
    couple to each other, so it stays linear without fill.  A relieved
    node sits right after the highest node of its cycles, so a node on a
    cycle gains one more later neighbour and the cross updates land in
    the layout's fill blocks on that cycle.

    Pivots are inverted with ``np.linalg.inv`` (relieved ones by
    truncated SVD) and checked together after the sweep; an exactly
    singular pivot stops the sweep once the pivots before it pass.  A zero
    pivot that no update reached raises DanglingConstraintError.
    """
    lay = system.layout
    blocks = list(system.blocks)
    inverses: list = []
    relieved = set(lay.relieved)
    k = 0
    try:
        # ndarray.dot: the same BLAS products as @, with less overhead per call
        for k, steps in enumerate(lay.elimination):
            d = blocks[k]
            if k in relieved:
                d_inv = ldu_inverse(d, pivot_relief=_LOOP_PIVOT_RELIEF)
            else:
                d_inv = np.linalg.inv(d)
            inverses.append(d_inv)
            for _, lo, up, _ in steps:
                blocks[lo] = blocks[lo].dot(d_inv)
                blocks[up] = d_inv.dot(blocks[up])
            for _, lo, _, updates in steps:
                ld = blocks[lo].dot(d)
                for up, target in updates:
                    blocks[target] = blocks[target] - ld.dot(blocks[up])
    except np.linalg.LinAlgError as err:
        _check_pivots(lay, blocks, inverses)
        node, size = lay.order[k], blocks[k].shape[0]
        if not blocks[k].any() and all(p != k for steps in lay.elimination[:k] for p, *_ in steps):
            raise DanglingConstraintError(
                f"constraint node {node!r} reached its pivot with a zero diagonal "
                "and no coupling updates"
            ) from err
        if k in relieved:  # the relieved pivot's SVD did not converge; ldu_inverse names the sizes
            raise SingularBlockError(f"loop pivot at node {node!r}: {err}") from err
        raise SingularBlockError(
            f"singular diagonal block at node {node!r}: exactly singular {size}x{size} block"
        ) from err
    _check_pivots(lay, blocks, inverses)
    return SparseFactor(system=system, blocks=blocks, inverses=inverses)


def sparse_ldu_solve(fact: SparseFactor) -> np.ndarray:
    """Back-substitute a factored system; returns the stacked solution.

    The forward sweep pushes each node's value into its later neighbours,
    the reverse sweep applies the pivot inverses and the couplings to the
    later neighbours, and one scatter puts the result in the stacked
    vector's rows.
    """
    system, blocks = fact.system, fact.blocks
    lay = system.layout
    y = np.asarray(system.rhs, dtype=float)[lay.perm]
    ys = [y[seg] for seg in lay.segments]
    for yk, steps in zip(ys, lay.elimination):
        for p, lo, _, _ in steps:
            ys[p] -= blocks[lo].dot(yk)
    for k in range(len(ys) - 1, -1, -1):
        yk = fact.inverses[k].dot(ys[k])
        for p, _, up, _ in lay.elimination[k]:
            yk -= blocks[up].dot(ys[p])
        ys[k] = yk
    x = np.empty(len(y))
    x[lay.perm] = np.concatenate(ys)
    return x


def pattern_report(layout: SymbolicLayout) -> str:
    """Readable dump of a layout: nodes, neighbours, relieved nodes and fill."""
    order = layout.order
    neighbours: list = [[] for _ in order]
    for k, steps in enumerate(layout.elimination):
        for p, *_ in steps:
            neighbours[k].append(order[p])
            neighbours[p].append(order[k])
    lines = ["block system", f"  nodes: {len(order)}", f"  order: {order}"]
    for node, seg, nbrs in zip(order, layout.segments, neighbours):
        size = seg.stop - seg.start
        lines.append(f"  node {node!r}: size {size}, coupled to {nbrs} (fill included)")
    if layout.relieved:
        lines.append(f"  relieved nodes: {len(layout.relieved)}")
    for k in layout.relieved:
        stack = layout.loop_layout[order[k]]
        lines.append(f"    relieved node {order[k]!r}: {sum(r for _, r in stack)} rows, loop joints {[i for i, _ in stack]}")
    lines.append(f"  fill events: {layout.fill_count}")
    lines += [f"    fill at ({i!r}, {j!r})" for i, j in layout.fill_events]
    return "\n".join(lines)
