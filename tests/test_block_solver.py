import numpy as np
import pytest
from numpy.testing import assert_allclose

import mcdyn.block_solver as block_solver
import mcdyn.integrator
from conftest import far_hinged_segmented_chain, make_closed_chain, make_segmented_chain, rotated_segmented_chain
from mcdyn.block_solver import (
    LOOP_NODE,
    BlockSystem,
    augment_loop_node,
    dense_ldu_factorize,
    dense_ldu_solve,
    in_order,
    ldu_inverse,
    pattern_report,
    relieved_inverse,
    sparse_ldu_factorize,
    sparse_ldu_solve,
    symbolic_layout,
)
from mcdyn.errors import DanglingConstraintError, SingularBlockError
from mcdyn.integrator import StepContext, step
from oracles import assembled, assembled_rhs, d_matrix, l_matrix, reconstruct, u_matrix


def random_tree_system(rng, n_nodes, min_size=2, max_size=6):
    """Well-conditioned random block system over a random tree.

    Node i > 0 couples to a random earlier node; eliminating nodes in
    reverse creation order therefore processes children before parents.
    """
    sizes = [int(rng.integers(min_size, max_size + 1)) for _ in range(n_nodes)]
    diag = {i: rng.normal(size=(sizes[i], sizes[i])) + 4.0 * np.eye(sizes[i]) for i in range(n_nodes)}
    offdiag = {}
    for i in range(1, n_nodes):
        p = int(rng.integers(0, i))
        offdiag[(i, p)] = rng.normal(size=(sizes[i], sizes[p]))
        offdiag[(p, i)] = rng.normal(size=(sizes[p], sizes[i]))
    rhs = {i: rng.normal(size=sizes[i]) for i in range(n_nodes)}
    order = list(range(n_nodes - 1, -1, -1))
    return BlockSystem(diag=diag, offdiag=offdiag, order=order, rhs=rhs)


def random_loop_system(rng, n_nodes, n_attach=3):
    """Random tree plus a stacked node appended last, coupled to several nodes."""
    system = random_tree_system(rng, n_nodes)
    k = int(rng.integers(3, 7))
    system.diag[LOOP_NODE] = rng.normal(size=(k, k)) + 4.0 * np.eye(k)
    attach = rng.choice(n_nodes, size=min(n_attach, n_nodes), replace=False)
    for a in attach:
        sa = system.diag[int(a)].shape[0]
        system.offdiag[(LOOP_NODE, int(a))] = rng.normal(size=(k, sa))
        system.offdiag[(int(a), LOOP_NODE)] = rng.normal(size=(sa, k))
    system.rhs[LOOP_NODE] = rng.normal(size=k)
    system.order = system.order + [LOOP_NODE]
    return system


def solve_dense_reference(system):
    full, _ = assembled(system)
    return np.linalg.solve(full, assembled_rhs(system))


def sparse_solution_vector(system):
    """The sparse solution of a BlockSystem, its nodes' segments in ``order``."""
    fact = sparse_ldu_factorize(system.on_layout(()))
    return sparse_ldu_solve(fact), fact


class TestLduInverse:
    def test_matches_numpy(self, rng):
        for k in (1, 2, 4, 6, 11):
            a = rng.normal(size=(k, k)) + 3.0 * np.eye(k)
            assert_allclose(ldu_inverse(a), np.linalg.inv(a), atol=1e-11)

    def test_zero_leading_minor_is_fine(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert_allclose(ldu_inverse(a), a, atol=1e-14)

    def test_singular_raises(self):
        with pytest.raises(SingularBlockError):
            ldu_inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))

    def test_relief_suppresses_deficient_directions(self):
        a = np.diag([2.0, 0.0])
        inv = relieved_inverse(a)
        assert_allclose(inv[0, 0], 0.5)
        # relieved direction contributes at most ~1/scale, not 1/epsilon
        assert abs(inv[1, 1]) <= 1.0

    def test_ill_conditioned_raises(self):
        with pytest.raises(SingularBlockError):
            ldu_inverse(np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]))

    def test_relief_is_truncated_pseudo_inverse(self, rng):
        a = rng.normal(size=(6, 4)) @ rng.normal(size=(4, 6))
        # minimum-norm least-squares solutions for every unit right-hand side
        pinv = np.linalg.lstsq(a, np.eye(6), rcond=1e-10)[0]
        assert_allclose(relieved_inverse(a), pinv, atol=1e-12)

    @pytest.mark.parametrize("build", [lambda: make_closed_chain(4), lambda: make_segmented_chain(3)])
    def test_relief_stable_under_rounding_noise(self, rng, monkeypatch, build):
        # the loop-node pivots of a real step are rank-deficient; noise at
        # the level of rounding must not change which inverse is chosen
        blocks = []
        inner = block_solver.relieved_inverse

        def capture(block):
            blocks.append(block.copy())
            return inner(block)

        monkeypatch.setattr(block_solver, "relieved_inverse", capture)
        step(build(), StepContext(h=0.01))
        monkeypatch.undo()
        assert blocks
        for a in blocks:
            inv = relieved_inverse(a)
            for _ in range(20):
                noise = rng.normal(size=a.shape) * 1e-15 * np.abs(a).max()
                moved = relieved_inverse(a + noise) - inv
                assert np.linalg.norm(moved) <= 1e-8 * np.linalg.norm(inv)


RELIEF = 1e-10


@pytest.fixture
def svd_shapes(monkeypatch):
    """Shapes of the matrices np.linalg.svd receives while the test runs."""
    shapes, svd = [], np.linalg.svd

    def recording(a, *args, **kwargs):
        shapes.append(a.shape)
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(block_solver.np.linalg, "svd", recording)
    return shapes


def assert_truncated_pinv(inv, a):
    """``inv`` equals pinv and lstsq of ``a`` truncated at relieved_inverse's cut, to 1e-12 relative."""
    rcond = RELIEF * np.abs(a).max() / np.linalg.norm(a, 2)  # the same absolute cut
    for ref in (np.linalg.pinv(a, rcond=rcond), np.linalg.lstsq(a, np.eye(len(a)), rcond=rcond)[0]):
        assert np.linalg.norm(inv - ref) <= 1e-12 * np.linalg.norm(ref)


def planted(rng, n, rows, cols, rank):
    """An n×n block, exactly zero outside rows × cols, where it has the given rank."""
    a = np.zeros((n, n))
    a[np.ix_(rows, cols)] = rng.normal(size=(len(rows), rank)) @ rng.normal(size=(rank, len(cols)))
    return a


class TestDeflatedPseudoInverse:
    """The relieved inverse decomposes the whole block in one SVD and weighs values at or below the cut 0."""

    @pytest.mark.parametrize("n,rows,cols,rank", [
        (10, [0, 2, 5, 7], [1, 2, 5, 8], 2),
        (10, [0, 2, 5, 7], [1, 2, 5, 8], 4),
        (12, [1, 3, 4, 6, 9, 11], [0, 3, 4, 6, 9, 10], 3),
    ])
    def test_planted_zero_rows_and_columns(self, rng, svd_shapes, n, rows, cols, rank):
        a = planted(rng, n, rows, cols, rank)
        inv = relieved_inverse(a)
        assert svd_shapes == [(n, n)]
        assert_truncated_pinv(inv, a)

    def test_rows_and_columns_just_below_and_just_above_the_cut(self, rng, svd_shapes):
        # rank-3 block in rows 0-3, columns 0-4; the near-cut lines above it lie
        # in its row or column space, those below it are orthogonal to both and
        # so are singular vectors of singular value 0.99·cut
        a = planted(rng, 8, range(4), range(5), 3)
        cut = RELIEF * np.abs(a).max()
        u, _, vt = np.linalg.svd(a[:4, :5])
        a[4, :5] = 1.01 * cut * vt[0]  # kept: it changes the inverse by ~1e-10 relative
        a[5, :5] = 0.99 * cut * vt[3]  # weight 0
        a[:4, 5] = 1.01 * cut * u[:, 0]  # kept
        a[:4, 6] = 0.99 * cut * u[:, 3]  # weight 0
        svd_shapes.clear()
        inv = relieved_inverse(a)
        assert svd_shapes == [(8, 8)]
        assert_truncated_pinv(inv, a)
        scale = np.linalg.norm(inv)
        assert np.linalg.norm(inv[:, 5]) <= 1e-14 * scale and np.linalg.norm(inv[6]) <= 1e-14 * scale

    def test_singular_values_at_the_cut_inside_kept_lines_get_weight_zero(self, rng, svd_shapes):
        # a 45-degree rotation spreads singular values 2·cut and 0.9·cut over
        # two rows and columns of norm ~1.55·cut: none is deflated, the SVD drops one
        a = planted(rng, 6, range(4), range(4), 4)
        cut = RELIEF * np.abs(a).max()
        rot = np.array([[1.0, -1.0], [1.0, 1.0]]) / np.sqrt(2.0)
        a[4:, 4:] = rot @ np.diag([2.0 * cut, 0.9 * cut]) @ rot.T
        svd_shapes.clear()
        inv = relieved_inverse(a)
        assert svd_shapes == [(6, 6)]
        assert np.linalg.norm(inv, 2) == pytest.approx(1.0 / (2.0 * cut), rel=1e-3)

    @pytest.mark.parametrize("rows,cols", [([0, 3, 4, 6, 8], [1, 2, 7]), ([2, 5], [0, 1, 3, 4])])
    def test_kept_row_and_column_counts_differ(self, rng, svd_shapes, rows, cols):
        a = planted(rng, 9, rows, cols, min(len(rows), len(cols)))
        inv = relieved_inverse(a)
        assert svd_shapes == [(9, 9)]
        assert_truncated_pinv(inv, a)

    def test_each_block_of_a_stack_has_its_own_cut(self, rng, svd_shapes):
        # singular value 1e-6 of a unit-scale block: far above its own cut, below that of a block 1e6 times larger
        q1, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        q2, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        small = q1 @ np.diag([1.0, 0.5, 1e-6, 0.0, 0.0]) @ q2.T
        large = 1e6 * (rng.normal(size=(5, 5)) + 4.0 * np.eye(5))
        inv = relieved_inverse(np.stack([small, large]))
        assert svd_shapes == [(2, 5, 5)]
        assert np.linalg.norm(inv[0], 2) == pytest.approx(1e6, rel=1e-6)
        for one, a in zip(inv, (small, large)):
            assert np.linalg.norm(one - relieved_inverse(a)) <= 1e-12 * np.linalg.norm(one)

    @pytest.mark.parametrize("n", [1, 5, 30])
    def test_all_zero_block_gives_zeros(self, n):
        inv = relieved_inverse(np.zeros((n, n)))
        assert inv.shape == (n, n) and not inv.any()

    def test_rotated_block_is_not_deflated(self, rng, svd_shapes):
        q, _ = np.linalg.qr(rng.normal(size=(10, 10)))
        a = q @ planted(rng, 10, [0, 2, 5, 7], [1, 2, 5, 8], 3) @ q.T
        inv = relieved_inverse(a)
        assert svd_shapes == [(10, 10)]
        assert_truncated_pinv(inv, a)


def captured_loop_pivots(monkeypatch, mech, steps=3):
    """The relieved pivots that ``steps`` steps of ``mech`` invert, one by one."""
    blocks, inner = [], block_solver.relieved_inverse

    def capture(block):  # a level's relieved pivots come as one stack
        blocks.extend(block.reshape(-1, *block.shape[-2:]).copy())
        return inner(block)

    monkeypatch.setattr(block_solver, "relieved_inverse", capture)
    for _ in range(steps):
        step(mech, StepContext(h=0.01))
    monkeypatch.undo()
    return blocks


class TestLoopPivotDeflation:
    """Planar loop pivots: a level's relieved pivots reach the SVD whole, in one batched call."""

    @pytest.mark.parametrize("build,per_factorization", [
        (lambda: make_segmented_chain(6), 6),  # one 5x5 pivot per parallelogram
        (lambda: make_closed_chain(4), 1),
    ])
    def test_step_makes_one_svd_of_whole_pivots_per_relieved_call(self, monkeypatch, svd_shapes, build, per_factorization):
        factorizations, factorize = [], mcdyn.integrator.sparse_ldu_factorize
        calls, inner = [], block_solver.relieved_inverse

        def counted(system):
            factorizations.append(system)
            return factorize(system)

        def capture(block):
            calls.append(block.shape)
            return inner(block)

        monkeypatch.setattr(mcdyn.integrator, "sparse_ldu_factorize", counted)
        monkeypatch.setattr(block_solver, "relieved_inverse", capture)
        mech = build()
        for _ in range(3):
            step(mech, StepContext(h=0.01))
        assert svd_shapes == calls and {s[-2:] for s in svd_shapes} == {(5, 5)}
        assert sum(int(np.prod(s[:-2])) for s in svd_shapes) == per_factorization * len(factorizations)

    @pytest.mark.parametrize("build", [
        lambda: make_segmented_chain(2),
        lambda: make_segmented_chain(6),
        lambda: make_closed_chain(4),
        rotated_segmented_chain,  # 5x5 pivots with 3 rows and columns above the cut, of rank 2
        far_hinged_segmented_chain,  # one 25x25 pivot with 10 rows and columns above the cut, of rank 10
    ])
    def test_captured_pivots_match_the_full_truncated_svd(self, monkeypatch, build):
        blocks = captured_loop_pivots(monkeypatch, build())
        assert blocks
        for a in blocks:
            u, sig, vt = np.linalg.svd(a)
            keep = sig > RELIEF * np.abs(a).max()
            full = (vt[keep].T / sig[keep]) @ u[:, keep].T
            inv = relieved_inverse(a)
            assert np.linalg.norm(inv - full) <= 1e-12 * np.linalg.norm(full)

    @pytest.mark.parametrize("build", [rotated_segmented_chain, far_hinged_segmented_chain])
    def test_kicked_run_converges_on_the_position_constraints(self, build):
        # the golden kick: steps 0-9 push each body with a force drawn per axis from N(0, (m g)^2)
        mech, ctx = build(), StepContext(h=0.01)
        rng = np.random.default_rng(1)
        kick = {b: rng.normal(0.0, mech.bodies[b].mass * ctx.gravity, 3) for b in mech.body_ids}
        for k in range(30):
            ctx.forces = kick if k < 10 else {}
            assert step(mech, ctx, tol=1e-10).residual_norm < 1e-10
            assert mech.max_constraint_violation(at=2) <= 1e-9

    def test_svd_failure_names_the_loop_pivot_and_its_size(self, monkeypatch):
        def no_convergence(a, *args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        mech = make_segmented_chain(6)
        monkeypatch.setattr(block_solver.np.linalg, "svd", no_convergence)
        with pytest.raises(SingularBlockError) as err:
            step(mech, StepContext(h=0.01))
        # the deepest parallelogram's relieved node is the first to reach its pivot
        assert str(err.value) == "loop pivot at node ('loop', 52): SVD did not converge on its 5x5 block"


class TestDenseLdu:
    def test_identity(self):
        fact = dense_ldu_factorize(np.eye(5))
        assert_allclose(l_matrix(fact), np.eye(5))
        assert_allclose(d_matrix(fact), np.eye(5))
        assert_allclose(u_matrix(fact), np.eye(5))
        b = np.arange(5.0)
        assert_allclose(dense_ldu_solve(fact, b), b)

    def test_two_by_two_hand_elimination(self):
        fact = dense_ldu_factorize(np.array([[4.0, 2.0], [1.0, 3.0]]))
        assert_allclose(l_matrix(fact), [[1.0, 0.0], [0.25, 1.0]])
        assert_allclose(d_matrix(fact), np.diag([4.0, 2.5]))
        assert_allclose(u_matrix(fact), [[1.0, 0.5], [0.0, 1.0]])

    def test_reconstruction_scalarwise(self, rng):
        f = rng.normal(size=(6, 6)) + 4.0 * np.eye(6)
        fact = dense_ldu_factorize(f)
        assert np.abs(reconstruct(fact) - f).max() < 1e-10

    def test_reconstruction_blockwise(self, rng):
        sizes = [3, 2, 4, 1]
        n = sum(sizes)
        f = rng.normal(size=(n, n)) + 4.0 * np.eye(n)
        fact = dense_ldu_factorize(f, sizes)
        assert np.abs(reconstruct(fact) - f).max() < 1e-10

    def test_block_and_scalar_partitions_agree(self, rng):
        sizes = [2, 3, 2]
        n = sum(sizes)
        f = rng.normal(size=(n, n)) + 4.0 * np.eye(n)
        b = rng.normal(size=n)
        x_block = dense_ldu_solve(dense_ldu_factorize(f, sizes), b)
        x_scalar = dense_ldu_solve(dense_ldu_factorize(f), b)
        assert_allclose(x_block, x_scalar, atol=1e-11)

    def test_solve_residual(self, rng):
        f = rng.normal(size=(12, 12)) + 5.0 * np.eye(12)
        b = rng.normal(size=12)
        x = dense_ldu_solve(dense_ldu_factorize(f), b)
        assert np.linalg.norm(f @ x - b) / np.linalg.norm(b) < 1e-10

    def test_zero_rhs(self, rng):
        f = rng.normal(size=(4, 4)) + 4.0 * np.eye(4)
        assert_allclose(dense_ldu_solve(dense_ldu_factorize(f), np.zeros(4)), np.zeros(4))

    def test_scalar_zero_pivot_raises(self):
        # scalar partition cannot recover from a zero leading pivot
        with pytest.raises(SingularBlockError):
            dense_ldu_factorize(np.array([[0.0, 1.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("matrix,sizes,message", [
        (np.ones((2, 3)), None, "expected a square matrix"),
        (np.ones(4), None, "expected a square matrix"),
        (np.eye(4), [2, 1], "block sizes do not cover the matrix"),
        (np.eye(4), [2, 3], "block sizes do not cover the matrix"),
    ])
    def test_bad_shape_or_partition_rejected(self, matrix, sizes, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            dense_ldu_factorize(matrix, sizes)


class TestSymbolicLayoutInput:
    # a two-node chain 0 - 1, one row each
    SIZES, ROWS, SOURCES = {0: 1, 1: 1}, {0: range(0, 1), 1: range(1, 2)}, [(0, 0), (1, 1), (0, 1), (1, 0)]

    @pytest.mark.parametrize("order", [[0], [0, 1, 1], [0, 2], []])
    def test_order_must_cover_every_node_once(self, order):
        with pytest.raises(ValueError, match="^elimination order does not cover all nodes$"):
            in_order(order, self.SIZES, self.SOURCES, {})

    def test_relieved_node_covers_its_stack(self):
        with pytest.raises(ValueError, match="^elimination order does not cover all nodes$"):
            in_order([LOOP_NODE, 1], self.SIZES, self.SOURCES, {LOOP_NODE: [0, 1]})
        assert symbolic_layout(in_order([LOOP_NODE], self.SIZES, self.SOURCES, {LOOP_NODE: [0, 1]}), self.ROWS, 2).order


class TestSparseLdu:
    def test_single_node(self, rng):
        d = rng.normal(size=(6, 6)) + 4.0 * np.eye(6)
        b = rng.normal(size=6)
        system = BlockSystem(diag={0: d.copy()}, offdiag={}, order=[0], rhs={0: b})
        sol, _ = sparse_solution_vector(system)
        assert_allclose(system.diag[0], d)
        assert_allclose(sol, np.linalg.solve(d, b), atol=1e-11)

    @pytest.mark.parametrize("n_nodes", [2, 5, 9, 17])
    def test_tree_matches_dense_reference(self, rng, n_nodes):
        for _ in range(5):
            system = random_tree_system(rng, n_nodes)
            x_ref = solve_dense_reference(system)
            x_sparse, fact = sparse_solution_vector(system)
            rel = np.linalg.norm(x_sparse - x_ref) / np.linalg.norm(x_ref)
            assert rel < 1e-9
            assert fact.fill_count == 0

    def test_matches_in_package_dense_ldu(self, rng):
        system = random_tree_system(rng, 8)
        full, _ = assembled(system)
        sizes = [system.diag[n].shape[0] for n in system.order]
        x_dense = dense_ldu_solve(dense_ldu_factorize(full, sizes), assembled_rhs(system))
        x_sparse, _ = sparse_solution_vector(system)
        assert np.linalg.norm(x_sparse - x_dense) / np.linalg.norm(x_dense) < 1e-10

    def test_hundred_node_tree_no_fill(self, rng):
        system = random_tree_system(rng, 100, min_size=1, max_size=3)
        _, fact = sparse_solution_vector(system)
        assert fact.fill_count == 0

    def test_loop_system_matches_dense_reference(self, rng):
        for _ in range(5):
            system = random_loop_system(rng, 7)
            x_ref = solve_dense_reference(system)
            x_sparse, fact = sparse_solution_vector(system)
            rel = np.linalg.norm(x_sparse - x_ref) / np.linalg.norm(x_ref)
            assert rel < 1e-9
            # fill is confined to the stacked node's row and column
            for (i, j) in fact.system.layout.fill_events:
                assert LOOP_NODE in (i, j)

    def test_sibling_permutation_invariance(self, rng):
        # two children under the root, each with one grandchild
        sizes = {0: 3, 1: 2, 2: 2, 3: 3, 4: 3}
        diag = {i: rng.normal(size=(s, s)) + 4.0 * np.eye(s) for i, s in sizes.items()}
        offdiag = {}
        for child, parent in [(1, 0), (2, 0), (3, 1), (4, 2)]:
            offdiag[(child, parent)] = rng.normal(size=(sizes[child], sizes[parent]))
            offdiag[(parent, child)] = rng.normal(size=(sizes[parent], sizes[child]))
        rhs = {i: rng.normal(size=s) for i, s in sizes.items()}
        sol_a = {}
        sol_b = {}
        for order, out in (([3, 1, 4, 2, 0], sol_a), ([4, 2, 3, 1, 0], sol_b)):
            x, _ = sparse_solution_vector(BlockSystem(diag=diag, offdiag=offdiag, order=order, rhs=rhs))
            out.update(zip(order, np.split(x, np.cumsum([sizes[i] for i in order])[:-1])))
        for i in sizes:
            assert_allclose(sol_a[i], sol_b[i], atol=1e-12)

    def test_deterministic_bitwise(self, rng):
        system = random_tree_system(rng, 10)
        x1, fact1 = sparse_solution_vector(system)
        x2, fact2 = sparse_solution_vector(system)
        assert np.array_equal(x1, x2)
        for blk1, blk2 in zip(fact1.blocks, fact2.blocks, strict=True):
            assert np.array_equal(blk1, blk2)

    def test_blocks_of_a_repeated_source_pair_add_up(self, rng):
        system = random_tree_system(rng, 6)
        sizes = {n: blk.shape[0] for n, blk in system.diag.items()}
        ends = np.cumsum([sizes[n] for n in system.order]).tolist()
        rows = {n: range(end - sizes[n], end) for n, end in zip(system.order, ends)}
        pair = next(iter(system.offdiag))
        extra = rng.normal(size=system.offdiag[pair].shape)
        sources = [(n, n) for n in system.diag] + list(system.offdiag) + [pair]
        layout = symbolic_layout(in_order(system.order, sizes, sources, {}), rows, ends[-1])
        blocks = [*system.diag.values(), *system.offdiag.values(), extra]
        on_layout = layout.system(blocks, assembled_rhs(system))
        summed = BlockSystem(system.diag, system.offdiag | {pair: system.offdiag[pair] + extra}, system.order, system.rhs)
        view = on_layout.as_block_system()
        assert view.offdiag.keys() == summed.offdiag.keys()
        for key, block in summed.offdiag.items():
            np.testing.assert_array_equal(view.offdiag[key], block)
        x_ref = solve_dense_reference(summed)
        assert np.linalg.norm(sparse_ldu_solve(sparse_ldu_factorize(on_layout)) - x_ref) <= 1e-9 * np.linalg.norm(x_ref)

    def test_dangling_constraint_detected(self, rng):
        # zero-diagonal node eliminated before receiving any update
        diag = {0: np.zeros((3, 3)), 1: rng.normal(size=(6, 6)) + 4 * np.eye(6)}
        offdiag = {
            (0, 1): rng.normal(size=(3, 6)),
            (1, 0): rng.normal(size=(6, 3)),
        }
        system = BlockSystem(diag=diag, offdiag=offdiag, order=[0, 1], rhs={0: np.zeros(3), 1: np.zeros(6)})
        with pytest.raises(DanglingConstraintError):
            sparse_ldu_factorize(system.on_layout(()))


def chain_system(pivots):
    """A chain 0-1-...-n with zero couplings on its layout: each pivot reaches its elimination unchanged."""
    n = len(pivots)
    diag = {k: np.array(p, dtype=float) for k, p in enumerate(pivots)}
    offdiag = {}
    for k in range(n - 1):
        offdiag[(k, k + 1)] = np.zeros((diag[k].shape[0], diag[k + 1].shape[0]))
        offdiag[(k + 1, k)] = offdiag[(k, k + 1)].T.copy()
    rhs = {k: np.ones(d.shape[0]) for k, d in diag.items()}
    return BlockSystem(diag=diag, offdiag=offdiag, order=list(range(n)), rhs=rhs).on_layout(())


GOOD = 2.0 * np.eye(2)
ILL = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]  # max|A| max|A^-1| ~ 9e14
SINGULAR = [[1.0, 2.0], [2.0, 4.0]]


class TestPivotCheck:
    def test_earlier_ill_conditioned_pivot_is_reported_before_a_later_singular_one(self):
        system = chain_system([GOOD, ILL, GOOD, SINGULAR, GOOD])
        with pytest.raises(SingularBlockError, match=r"at node 1: ill-conditioned 2x2") as err:
            sparse_ldu_factorize(system)
        assert isinstance(err.value.__context__, np.linalg.LinAlgError)  # raised mid-sweep

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_single_ill_conditioned_pivot_raises_after_the_sweep(self, k):
        pivots = [GOOD] * 5
        pivots[k] = ILL
        with pytest.raises(SingularBlockError, match=f"at node {k}: ill-conditioned") as err:
            sparse_ldu_factorize(chain_system(pivots))
        assert err.value.__context__ is None  # no LinAlgError: found by the batched check

    def test_first_failure_in_elimination_order_across_block_sizes(self):
        big_ill = np.eye(3)
        big_ill[2, 2] = 1e-14
        system = chain_system([GOOD, np.eye(3), big_ill, ILL, GOOD])
        with pytest.raises(SingularBlockError, match="at node 2: ill-conditioned 3x3"):
            sparse_ldu_factorize(system)

    def test_singular_pivot_alone_names_its_node(self):
        system = chain_system([GOOD, GOOD, SINGULAR, GOOD])
        with pytest.raises(SingularBlockError, match="at node 2: exactly singular 2x2"):
            sparse_ldu_factorize(system)


def star_system(leaves):
    """Leaves 1..n around node 0, all eliminated in one level before it; zero couplings keep each pivot as planted."""
    diag = {k + 1: np.array(p, dtype=float) for k, p in enumerate(leaves)} | {0: 3.0 * np.eye(2)}
    offdiag = {}
    for k in range(1, len(leaves) + 1):
        offdiag[(k, 0)] = np.zeros((diag[k].shape[0], 2))
        offdiag[(0, k)] = offdiag[(k, 0)].T.copy()
    rhs = {k: np.ones(d.shape[0]) for k, d in diag.items()}
    system = BlockSystem(diag=diag, offdiag=offdiag, order=[*range(1, len(leaves) + 1), 0], rhs=rhs).on_layout(())
    assert [level.stop - level.start for level in system.layout.levels] == [len(leaves), 1]
    return system


class TestPivotCheckInsideALevel:
    """One batched inverse per level; a failure names the first failing node in elimination order."""

    def test_ill_conditioned_pivot_before_a_singular_one(self):
        system = star_system([GOOD, ILL, GOOD, SINGULAR, GOOD])
        with pytest.raises(SingularBlockError, match=r"^singular diagonal block at node 2: ill-conditioned 2x2") as err:
            sparse_ldu_factorize(system)
        assert isinstance(err.value.__cause__, np.linalg.LinAlgError)  # the level's batched inverse raised

    def test_singular_pivot_before_an_ill_conditioned_one(self):
        system = star_system([GOOD, GOOD, SINGULAR, ILL, GOOD])
        with pytest.raises(SingularBlockError, match=r"^singular diagonal block at node 3: exactly singular 2x2 block$"):
            sparse_ldu_factorize(system)

    @pytest.mark.parametrize("k", [1, 3, 5])
    def test_ill_conditioned_pivot_alone_is_found_after_the_sweep(self, k):
        leaves = [GOOD] * 5
        leaves[k - 1] = ILL
        with pytest.raises(SingularBlockError, match=f"^singular diagonal block at node {k}: ill-conditioned 2x2") as err:
            sparse_ldu_factorize(star_system(leaves))
        assert err.value.__context__ is None

    def test_first_of_two_ill_conditioned_pivots_of_different_sizes(self):
        big_ill = np.eye(3)
        big_ill[2, 2] = 1e-14
        with pytest.raises(SingularBlockError, match="at node 2: ill-conditioned 3x3"):
            sparse_ldu_factorize(star_system([np.eye(3), big_ill, ILL, GOOD]))

    def test_zero_pivot_without_updates_is_a_dangling_constraint(self):
        with pytest.raises(DanglingConstraintError, match="constraint node 2 "):
            sparse_ldu_factorize(star_system([GOOD, np.zeros((2, 2)), SINGULAR]))


def two_size_relieved_level(rng):
    """Leaves 1-4 of a star around node 0; 1 and 2 + 3 stacked into relieved nodes of sizes 2 and 5 in its first level."""
    sizes = {0: 3, 1: 2, 2: 2, 3: 3, 4: 3}
    diag = {n: rng.normal(size=(k, k)) + 4.0 * np.eye(k) for n, k in sizes.items()}
    offdiag = {}
    for leaf in range(1, 5):
        offdiag[(leaf, 0)] = rng.normal(size=(sizes[leaf], 3))
        offdiag[(0, leaf)] = rng.normal(size=(3, sizes[leaf]))
    system = BlockSystem(diag=diag, offdiag=offdiag, order=[1, 2, 3, 4, 0], rhs={n: rng.normal(size=k) for n, k in sizes.items()})
    rows = dict(zip(system.order, np.split(np.arange(13), [2, 4, 7, 10])))
    stacks = {(LOOP_NODE, 1): [1], LOOP_NODE: [2, 3]}
    sources = [(n, n) for n in diag] + list(offdiag)
    layout = symbolic_layout(in_order([(LOOP_NODE, 1), LOOP_NODE, 4, 0], sizes, sources, stacks), rows, 13)
    assert [(level.start, level.stop) for level in layout.levels] == [(0, 3), (3, 4)]
    assert layout.sizes == [2, 5, 3, 3]
    return system, layout.system([*diag.values(), *offdiag.values()], assembled_rhs(system))


class TestRelievedLevel:
    """A level's relieved pivots, whatever their sizes, are padded with zeros and inverted in one call."""

    def test_one_relieved_inverse_call_for_two_block_sizes(self, rng, monkeypatch):
        system, on_layout = two_size_relieved_level(rng)
        calls, inner = [], block_solver.relieved_inverse

        def capture(block):
            calls.append(block.shape)
            return inner(block)

        monkeypatch.setattr(block_solver, "relieved_inverse", capture)
        x = sparse_ldu_solve(sparse_ldu_factorize(on_layout))
        assert calls == [(2, 5, 5)]
        x_ref = solve_dense_reference(system)
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)

    def test_relieved_padding_is_zero_and_regular_padding_the_identity(self, rng):
        _, on_layout = two_size_relieved_level(rng)
        level = on_layout.layout.levels[0]
        assert level.relieved.tolist() == [0, 1] and level.regular.tolist() == [2]
        pivots = on_layout.vals[level.pivots].reshape(level.pivot_shape)
        assert not pivots[0, 2:].any() and not pivots[0, :, 2:].any()
        assert_allclose(pivots[2, 3:, 3:], np.eye(2), atol=0)
        assert not pivots[2, 3:, :3].any() and not pivots[2, :3, 3:].any()


class TestAugmentLoopNode:
    def test_empty_set_is_identity(self, rng):
        system = random_tree_system(rng, 4)
        assert augment_loop_node(system, set()) is system

    def test_stacking_layout(self, rng):
        system = random_tree_system(rng, 5)
        # pretend nodes 3 and 4 are loop constraints
        merged = augment_loop_node(system, {3, 4})
        assert merged.order[-1] == LOOP_NODE
        assert 3 not in merged.diag and 4 not in merged.diag
        assert merged.loop_layout == {LOOP_NODE: [(3, system.diag[3].shape[0]), (4, system.diag[4].shape[0])]}
        total = sum(r for _, r in merged.loop_layout[LOOP_NODE])
        assert merged.diag[LOOP_NODE].shape == (total, total)
        assert_allclose(
            merged.rhs[LOOP_NODE], np.concatenate([system.rhs[3], system.rhs[4]])
        )

    def test_relieved_nodes_may_sit_inside_the_order(self, rng):
        # two stacks relieved mid-order, each right after the nodes stacked into it
        system = random_tree_system(rng, 9)
        sizes = {n: blk.shape[0] for n, blk in system.diag.items()}
        ends = np.cumsum([sizes[n] for n in system.order])
        rows = {n: np.arange(end - sizes[n], end) for n, end in zip(system.order, ends)}
        stacks = {(LOOP_NODE, 7): [8, 7], LOOP_NODE: [3]}  # order is 8, 7, ..., 0
        order = [(LOOP_NODE, 7), 6, 5, 4, LOOP_NODE, 2, 1, 0]
        sources = [(n, n) for n in system.diag] + list(system.offdiag)
        layout = symbolic_layout(in_order(order, sizes, sources, stacks), rows, ends[-1])
        assert layout.relieved == [0, 4]
        assert layout.loop_layout == {(LOOP_NODE, 7): [(7, sizes[7]), (8, sizes[8])], LOOP_NODE: [(3, sizes[3])]}
        fact = sparse_ldu_factorize(layout.system([*system.diag.values(), *system.offdiag.values()], assembled_rhs(system)))
        x_ref = solve_dense_reference(system)
        assert np.linalg.norm(sparse_ldu_solve(fact) - x_ref) <= 1e-9 * np.linalg.norm(x_ref)

    def test_report_mentions_fill(self, rng):
        _, fact = sparse_solution_vector(random_loop_system(rng, 6))
        text = pattern_report(fact.system.layout)
        assert "fill events" in text
        assert "order" in text
        assert "relieved" not in text
        stacked = random_tree_system(rng, 6).on_layout({4, 5})
        rows = stacked.blocks[len(stacked.order) - 1].shape[0]
        assert pattern_report(stacked.layout).endswith(
            f"  relieved nodes: 1\n    relieved node 'loop': {rows} rows, loop joints [4, 5]\n"
            f"  fill events: {stacked.layout.fill_count}"
            + "".join(f"\n    fill at ({i!r}, {j!r})" for i, j in stacked.layout.fill_events)
        )
