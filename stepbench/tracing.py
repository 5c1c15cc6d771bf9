"""Span and call-count wrappers swapped onto mcdyn's public functions.

Both collectors patch a function under the name its caller looks it up by
and restore the original when their ``with`` block ends, so a run that
installs neither executes mcdyn exactly as shipped.  Nothing in ``src/``
knows about them.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from time import perf_counter


def _targets(mcdyn):
    """(owner, attribute, span name) of every function the traced pass times.

    ``integrator`` imports the solver kernels by name, so they are patched
    on ``mcdyn.integrator``; ``ldu_inverse`` is looked up inside
    ``block_solver`` and patched there.
    """
    integ, solver = mcdyn.integrator, mcdyn.block_solver
    return [
        (mcdyn.scenarios, "generate_scenario", "scenarios.generate_scenario"),
        (mcdyn.mechanism, "load_mechanism", "mechanism.load_mechanism"),
        (mcdyn.mechanism.Mechanism, "initialize", "mechanism.initialize"),
        (integ, "step", "integrator.step"),
        (integ, "newton_solve", "integrator.newton_solve"),
        (integ, "position_jacobian_blocks", "integrator.position_jacobian_blocks"),
        (integ, "assemble_residual", "integrator.assemble_residual"),
        (integ, "assemble_jacobian", "integrator.assemble_jacobian"),
        (integ, "augment_loop_node", "block_solver.augment_loop_node"),
        (integ, "sparse_ldu_factorize", "block_solver.sparse_ldu_factorize"),
        (integ, "sparse_ldu_solve", "block_solver.sparse_ldu_solve"),
        (solver, "ldu_inverse", "block_solver.ldu_inverse"),
    ]


def _count_targets(mcdyn):
    """(owner, attribute, counter name) of every function the count pass counts."""
    quat = mcdyn.quaternions
    out = [
        (mcdyn.integrator, "joint_residual", "mechanism.joint_residual"),
        (mcdyn.mechanism, "joint_jacobian_raw", "mechanism.joint_jacobian_raw"),
        (mcdyn.block_solver, "ldu_inverse", "block_solver.ldu_inverse"),
    ]
    for name, fn in sorted(vars(quat).items()):
        if callable(fn) and not name.startswith("_") and fn.__module__ == quat.__name__:
            out.append((quat, name, f"quaternions.{name}"))
    return out


@contextmanager
def _patched(targets, wrap):
    saved = []
    try:
        for owner, attr, name in targets:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, wrap(name, orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


class SpanTracer:
    """Records one span per call: name, start, end, parent span, step id.

    Spans are kept in memory as tuples ``(name, start, end, parent, step)``
    (``parent`` is an index into ``spans`` or -1; ``step`` is whatever the
    caller last assigned to :attr:`step`) and written out by :meth:`dump`
    after the run.  Tuples of plain values drop out of the cyclic garbage
    collector's scans, so a long trace does not slow later collections.
    """

    def __init__(self):
        self.spans: list = []
        self.step = None
        self._stack: list = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1] if stack else -1
            step = self.step
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, step)

        return traced

    def installed(self, mcdyn):
        return _patched(_targets(mcdyn), self._wrap)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for name, t0, t1, parent, step in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": t0, "end": t1, "parent": parent, "step": step}
                    )
                    + "\n"
                )

    def per_step(self, steps) -> dict:
        """Per-step layer totals over the step ids in ``steps``.

        Returns ``{step id: {name: [ms, calls, self_ms]}}``; self time is a
        span's duration minus its direct children's.
        """
        wanted = set(steps)
        child_s = [0.0] * len(self.spans)
        for name, t0, t1, parent, step in self.spans:
            if parent >= 0:
                child_s[parent] += t1 - t0
        out = {s: {} for s in wanted}
        for idx, (name, t0, t1, parent, step) in enumerate(self.spans):
            if step not in wanted:
                continue
            acc = out[step].setdefault(name, [0.0, 0, 0.0])
            acc[0] += 1e3 * (t1 - t0)
            acc[1] += 1
            acc[2] += 1e3 * (t1 - t0 - child_s[idx])
        return out


class CallCounter:
    """Counts calls to mcdyn's fine-grained public functions while ``active``.

    The count pass also records the block structure of every sparse
    factorization (fill blocks, loop-node rows, nodes).
    """

    def __init__(self):
        self.calls: dict = {}
        self.factorizations: list = []
        self.active = False

    def _wrap(self, name, fn):
        calls = self.calls
        calls.setdefault(name, 0)

        def counted(*args, **kwargs):
            if self.active:
                calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _structure(self, fn, loop_node):
        def factorize(system):
            fact = fn(system)
            if self.active:
                loop = fact.system.diag.get(loop_node)
                self.factorizations.append(
                    (fact.fill_count, 0 if loop is None else loop.shape[0], len(fact.system.order))
                )
            return fact

        return factorize

    @contextmanager
    def installed(self, mcdyn):
        integ = mcdyn.integrator
        orig = integ.sparse_ldu_factorize
        integ.sparse_ldu_factorize = self._structure(orig, mcdyn.block_solver.LOOP_NODE)
        try:
            with _patched(_count_targets(mcdyn), self._wrap):
                yield
        finally:
            integ.sparse_ldu_factorize = orig
