"""Step benchmark: times mcdyn's implicit step end to end and layer by layer.

Usage, from the repository root:

    python3 stepbench/run.py --workload tree --seed 1 --seconds 30 --trace 0
    python3 stepbench/run.py --smoke

Each run builds the workload's mechanism from ``src/`` and steps it in
this one process.  ``--trace 0`` measures the end-to-end metrics with no
wrapper installed; ``--trace 1`` traces every other step (spans around
mcdyn's public layer functions), then makes a separate count pass, and
reports the per-layer metrics.  Every committed step is checked; the
last stdout line is the JSON result.  Spans and a result record with the
run environment go to ``.stepbench/``.  See README.md in this directory
for the workloads and metrics.
"""

from __future__ import annotations

import os

# One BLAS/OpenMP thread: the benchmark times a single-threaded simulator.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".stepbench"
sys.path.insert(0, str(HERE))

from tracing import CallCounter, SpanTracer  # noqa: E402

H = 0.01
TOL = 1e-10
KICK_STEPS = 10
QUAT_NORM_TOL = 1e-12
# Joint rows are part of the Newton residual, so a converged step leaves
# every constraint below the solver tolerance.
VIOLATION_TOL = TOL
# Share of the mean traced step time by which one step's layer sums may
# miss its traced time before the trace counts as inconsistent.
RESIDUE_TOL = 1e-6
# Seconds that calibrate() takes at full speed on the reference host (2-vCPU
# KVM guest, Xeon, Python 3.11.7, numpy 2.4.6); scaled times read as wall
# times on that host.
CAL_REF_S = 4.2e-4

_CAL_Q = np.array([0.9, 0.1, 0.3, 0.2])
_CAL_V = np.array([0.3, -0.2, 0.5])


def _cal_work(reps: int) -> None:
    q, v = _CAL_Q, _CAL_V
    for _ in range(reps):
        w, u = q[0], q[1:]
        c = np.array([u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]])
        r = (w * w - u @ u) * v + 2.0 * (u @ v) * u + 2.0 * w * c
        lm = np.array(
            [[w, -u[0], -u[1], -u[2]], [u[0], w, -u[2], u[1]], [u[1], u[2], w, -u[0]], [u[2], -u[1], u[0], w]]
        )
        lm @ q + np.concatenate([[r[0]], r])
        m = np.zeros((6, 6))
        m[:3, :3] = np.eye(3)
        m[3:, 3:] = lm[1:, 1:] @ lm[1:, 1:].T


def calibrate() -> float:
    """Wall seconds of a fixed slice of small-array numpy work.

    The work has the shape of mcdyn's inner loops (quaternion algebra on
    3- and 4-vectors, small matrix products) but is frozen here, so a
    change to mcdyn does not change it.  Timed next to a step, it measures
    how fast the host runs this kind of code at that moment.  A short
    untimed warm-up first refills the caches the step evicted, so the
    figure does not depend on the step's memory footprint.
    """
    _cal_work(5)
    t0 = perf_counter()
    _cal_work(25)
    return perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    kind: str
    n: int
    joint: str
    episode_steps: int  # committed steps per episode, the set-up step included
    count_steps: int  # steps after set-up that the count pass covers


WORKLOADS = {
    # Loop-free: per-body/per-joint Python in the integrator dominates and
    # the solver creates no fill.  Steps 1-12 take 3 Newton iterations on
    # every seed; a seed-dependent stretch of 2-iteration steps follows.
    "tree": Workload("pendulum", 80, "revolute", episode_steps=13, count_steps=6),
    # 48 parallelogram loops stacked into one 240-row loop node: the
    # sparse factorization dominates.
    "loops": Workload("segmented_chain", 48, "revolute", episode_steps=6, count_steps=3),
    # Five ball-jointed links: per-call overhead dominates; the guard for
    # batched rewrites, and the only workload with 3-row joints.
    "small": Workload("pendulum", 5, "ball", episode_steps=300, count_steps=100),
}

# The same shapes at minimal size, for --smoke.
SMOKE = {
    "tree": Workload("pendulum", 3, "revolute", episode_steps=4, count_steps=2),
    "loops": Workload("segmented_chain", 2, "revolute", episode_steps=4, count_steps=2),
    "small": Workload("pendulum", 2, "ball", episode_steps=4, count_steps=2),
}

# Direct children of integrator.newton_solve; with the two self times they
# make up the step.
LAYERS = (
    "integrator.position_jacobian_blocks",
    "integrator.assemble_residual",
    "integrator.assemble_jacobian",
    "block_solver.augment_loop_node",
    "block_solver.sparse_ldu_factorize",
    "block_solver.sparse_ldu_solve",
)
SETUP_SPANS = ("scenarios.generate_scenario", "mechanism.load_mechanism", "mechanism.initialize")
COUNTED = (
    "mechanism.joint_jacobian_raw",
    "mechanism.joint_residual",
    "quaternions.cross",
    "quaternions.rotate_jacobian",
    "quaternions.orientation_update",
    "quaternions.orientation_update_jacobian",
)

END_TO_END = {
    "step_ms": "ms",
    "step_ms_p90": "ms",
    "realtime_factor": "s/s",
    "newton_iters_per_step": "iter/step",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_step_share": "ratio",
}


def import_mcdyn():
    src = ROOT / "src"
    if not (src / "mcdyn" / "__init__.py").is_file():
        sys.exit(f"stepbench: no mcdyn sources under {src}")
    sys.path.insert(0, str(src))
    import mcdyn

    return mcdyn


def draw_kick(desc: dict, seed: int, gravity: float) -> dict:
    """Per-body world force, each axis drawn from N(0, (m g)^2)."""
    rng = np.random.default_rng(seed)
    return {
        b["id"]: rng.normal(0.0, b["mass"] * gravity, 3)
        for b in sorted(desc["bodies"], key=lambda b: b["id"])
    }


def check_step(mech, info) -> str | None:
    """Why a committed step is wrong, or None when it passes every check."""
    if not info.residual_norm < TOL:
        return f"residual {info.residual_norm:.3e} not below tol"
    for body in mech.bodies.values():
        st = body.state
        for knot in ("x1", "q1", "x2", "q2", "v1", "w1", "v2", "w2"):
            if not np.isfinite(getattr(st, knot)).all():
                return f"non-finite {knot} on body {body.id}"
        drift = abs(float(np.linalg.norm(st.q2)) - 1.0)
        if not drift <= QUAT_NORM_TOL:
            return f"quaternion norm drift {drift:.3e} on body {body.id}"
    viol = mech.max_constraint_violation(at=2)
    if not viol <= VIOLATION_TOL:
        return f"constraint violation {viol:.3e}"
    return None


@dataclass
class Samples:
    """Timed steps (every committed step after an episode's set-up step).

    ``raw_ms`` and ``setup_raw_s`` are wall times as measured; ``cal_at``
    and ``setup_cal_at`` index the calibration taken just before each.
    :meth:`Bench.scale_times` fills in the scaled times and factors.
    """

    raw_ms: list = field(default_factory=list)
    cal_at: list = field(default_factory=list)
    step_ids: list = field(default_factory=list)
    iterations: list = field(default_factory=list)
    setup_raw_s: list = field(default_factory=list)
    setup_cal_at: list = field(default_factory=list)
    step_ms: list = field(default_factory=list)
    scale: list = field(default_factory=list)
    setup_s: list = field(default_factory=list)


class Bench:
    def __init__(self, mcdyn, wl: Workload, seed: int):
        self.mcdyn = mcdyn
        self.wl = wl
        self.scenario = mcdyn.Scenario(kind=wl.kind, n_links=wl.n, joint_kind=wl.joint)
        gravity = mcdyn.StepContext(h=H).gravity
        self.kick = draw_kick(mcdyn.generate_scenario(self.scenario), seed, gravity)
        self.attempted = 0
        self.failed = 0
        self.failures: list = []
        self._next_id = 0
        self._episodes = 0
        self.cals: list = []  # every calibrate() time of the run, in order

    def _attempt(self, mech, ctx, k, tracer, counter):
        m = self.mcdyn
        ctx.forces = self.kick if k < KICK_STEPS else {}
        step_id = self._next_id
        self._next_id += 1
        self.attempted += 1
        if tracer is not None:
            tracer.step = step_id
        if counter is not None:
            counter.active = True
        t0 = perf_counter()
        try:
            info = m.integrator.step(mech, ctx, tol=TOL)
        except m.SimulationError as err:
            info, problem = None, f"{type(err).__name__}: {err}"
        t1 = perf_counter()
        if counter is not None:
            counter.active = False
        if tracer is not None:
            tracer.step = None
        if info is not None:
            problem = check_step(mech, info)
        if problem is not None:
            self.failed += 1
            self.failures.append({"step_id": step_id, "episode_step": k, "problem": problem})
        return step_id, t1, t1 - t0, info, problem

    def _traced(self, tracer):
        return nullcontext() if tracer is None else tracer.installed(self.mcdyn)

    def _setup(self, out: Samples, tracer):
        """Scenario description to first committed step; None if that step fails."""
        m = self.mcdyn
        self.cals.append(calibrate())
        with self._traced(tracer):
            t0 = perf_counter()
            desc = m.scenarios.generate_scenario(self.scenario)
            mech = m.mechanism.load_mechanism(desc)
            ctx = m.integrator.StepContext(h=H)
            mech.initialize(H)
            _, t1, _, _, problem = self._attempt(mech, ctx, 0, tracer, None)
        self.cals.append(calibrate())
        if problem is not None:
            return None
        out.setup_raw_s.append(t1 - t0)
        out.setup_cal_at.append(len(self.cals) - 2)
        return mech, ctx

    def episode(self, out: Samples, deadline=None, steps=None, counter=None, tracer=None,
                traced: Samples | None = None):
        """Set up from the scenario description, then step.

        Stops after the workload's episode length, after ``steps`` timed
        steps, at ``deadline`` once every sink holds a timed step, or at the
        first failed step (counted; the next episode starts fresh).  With
        ``tracer``, the set-up and every other timed step run traced and go
        to ``traced``; which steps alternates between episodes, so traced
        and untraced samples cover the same steps.
        """
        self._episodes += 1
        started = self._setup(out if tracer is None else traced, tracer)
        if started is None:
            return
        mech, ctx = started
        last = self.wl.episode_steps if steps is None else steps + 1
        for k in range(1, last):
            sampled = out.raw_ms and (tracer is None or traced.raw_ms)
            if deadline is not None and sampled and perf_counter() >= deadline:
                return
            tr = tracer if (k + self._episodes) % 2 else None
            sink = out if tr is None else traced
            with self._traced(tr):
                step_id, _, dt, info, problem = self._attempt(mech, ctx, k, tr, counter)
            self.cals.append(calibrate())
            if problem is not None:
                return
            sink.raw_ms.append(1e3 * dt)
            sink.cal_at.append(len(self.cals) - 2)
            sink.step_ids.append(step_id)
            sink.iterations.append(info.iterations)

    def scale_times(self, s: Samples) -> None:
        """Scale wall times to reference host speed.

        An item's factor is CAL_REF_S over the mean of four calibrate()
        times around it: the ones just before and just after, and one more
        on each side.  The outer two follow the host through long steps
        better than the adjacent pair alone.
        """

        def factor(j):
            window = self.cals[max(j - 1, 0) : j + 3]
            return CAL_REF_S * len(window) / sum(window)

        s.scale = [factor(j) for j in s.cal_at]
        s.step_ms = [ms * f for ms, f in zip(s.raw_ms, s.scale)]
        s.setup_s = [t * factor(j) for t, j in zip(s.setup_raw_s, s.setup_cal_at)]


def tail_percentile(values: list) -> tuple[float, float]:
    """The 90th percentile, or the highest one with ten samples beyond it.

    Nearest rank; below 21 samples this falls back to the median.
    Returns (percentile used, value).
    """
    xs = sorted(values)
    n = len(xs)
    rank = max(min(math.ceil(0.9 * n), n - 10), math.ceil(n / 2))
    return 100.0 * rank / n, xs[rank - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(bench: Bench, s: Samples) -> tuple[dict, list]:
    pct, p_tail = tail_percentile(s.step_ms)
    values = {
        "step_ms": statistics.median(s.step_ms),
        "step_ms_p90": p_tail,
        "realtime_factor": H * len(s.step_ms) / (1e-3 * sum(s.step_ms)),
        "newton_iters_per_step": statistics.fmean(s.iterations),
        "setup_s": statistics.median(s.setup_s),
        "peak_rss_mb": peak_rss_mb(),
        "ok_step_share": 1.0 - bench.failed / bench.attempted,
    }
    notes = [
        f"times scaled to reference host speed; median host speed "
        f"{statistics.median(s.scale):.4g} of reference",
        f"step_ms: median of {len(s.step_ms)} timed steps; unscaled "
        f"{statistics.median(s.raw_ms):.6g} ms",
        f"step_ms_p90: p{pct:.1f} (nearest rank) of {len(s.step_ms)} timed steps",
        f"realtime_factor unscaled: {H * len(s.raw_ms) / (1e-3 * sum(s.raw_ms)):.6g} s/s",
        f"setup_s: median of {len(s.setup_s)} set-ups; unscaled "
        f"{statistics.median(s.setup_raw_s):.6g} s",
        f"failed_step_share: {bench.failed}/{bench.attempted} = "
        f"{bench.failed / bench.attempted:.6g}",
    ]
    return {k: (v, END_TO_END[k]) for k, v in values.items()}, notes


def per_layer(
    tracer: SpanTracer, traced: Samples, untraced: Samples, counter: CallCounter, counted: Samples
) -> tuple[dict, list, bool]:
    steps = tracer.per_step(traced.step_ids)
    n = len(traced.step_ids)
    # Per-step residues come from the raw spans; layer times are then
    # scaled by their step's host-speed factor, like the step times.
    residues = []
    for per in steps.values():
        parts = sum(per.get(name, (0.0,))[0] for name in LAYERS)
        parts += per["integrator.newton_solve"][2] + per["integrator.step"][2]
        residues.append(abs(per["integrator.step"][0] - parts))
    worst_residue = max(residues)
    raw_traced_ms = sum(per["integrator.step"][0] for per in steps.values()) / n
    for step_id, scale in zip(traced.step_ids, traced.scale):
        for acc in steps[step_id].values():
            acc[0] *= scale
            acc[2] *= scale

    def total(name, i=0):
        return sum(per.get(name, (0.0, 0, 0.0))[i] for per in steps.values())

    setups = len(traced.setup_s)
    setup_scale = statistics.median(
        scaled / raw for scaled, raw in zip(traced.setup_s, traced.setup_raw_s)
    )
    setup_ms = {name: 0.0 for name in SETUP_SPANS}
    for name, t0, t1, _parent, step in tracer.spans:
        if step is None and name in setup_ms:
            setup_ms[name] += 1e3 * (t1 - t0) * setup_scale

    # A failed count pass is already counted in `failed`; report zeros.
    c_steps = max(len(counted.step_ids), 1)
    calls = counter.calls
    fact = np.array(counter.factorizations or [(0, 0, 0)], dtype=float)
    residual_calls = total("integrator.assemble_residual", 1)
    untraced_ms = statistics.median(untraced.step_ms)
    traced_median = statistics.median(traced.step_ms)

    values = {
        "integrator.assemble_jacobian.ms": (total("integrator.assemble_jacobian") / n, "ms"),
        "integrator.assemble_jacobian.calls": (total("integrator.assemble_jacobian", 1) / n, "count"),
        "integrator.assemble_residual.ms": (total("integrator.assemble_residual") / n, "ms"),
        "integrator.assemble_residual.calls": (residual_calls / n, "count"),
        "integrator.position_jacobian_blocks.ms": (
            total("integrator.position_jacobian_blocks") / n,
            "ms",
        ),
        "integrator.newton_solve.self_ms": (total("integrator.newton_solve", 2) / n, "ms"),
        "integrator.step.self_ms": (total("integrator.step", 2) / n, "ms"),
        # one residual per Newton iteration plus the initial one when every
        # full step is accepted
        "integrator.line_search.accept_ratio": (
            sum(traced.iterations) / (residual_calls - n) if residual_calls > n else 1.0,
            "ratio",
        ),
        "block_solver.sparse_ldu_factorize.ms": (
            total("block_solver.sparse_ldu_factorize") / n,
            "ms",
        ),
        "block_solver.sparse_ldu_factorize.ms_per_call": (
            total("block_solver.sparse_ldu_factorize")
            / max(total("block_solver.sparse_ldu_factorize", 1), 1),
            "ms",
        ),
        "block_solver.ldu_inverse.ms": (total("block_solver.ldu_inverse") / n, "ms"),
        "block_solver.ldu_inverse.calls": (calls["block_solver.ldu_inverse"] / c_steps, "count"),
        "block_solver.sparse_ldu_solve.ms": (total("block_solver.sparse_ldu_solve") / n, "ms"),
        "block_solver.augment_loop_node.ms": (total("block_solver.augment_loop_node") / n, "ms"),
        "block_solver.fill_blocks": (float(fact[:, 0].mean()), "count"),
        "block_solver.loop_node_rows": (float(fact[:, 1].mean()), "count"),
        "block_solver.nodes": (float(fact[:, 2].mean()), "count"),
        "quaternions.calls": (
            sum(v for k, v in calls.items() if k.startswith("quaternions.")) / c_steps,
            "count",
        ),
        "trace.step_ms": (traced_median, "ms"),
        "trace.untraced_step_ms": (untraced_ms, "ms"),
        "trace.overhead_ms": (traced_median - untraced_ms, "ms"),
        "trace.residue_share": (worst_residue / raw_traced_ms, "ratio"),
        "trace.steps": (float(n), "count"),
        "trace.count_steps": (float(c_steps), "count"),
    }
    for name in SETUP_SPANS:
        values[f"{name}.ms"] = (setup_ms[name] / setups, "ms")
    for name in COUNTED:
        values[f"{name}.calls"] = (calls[name] / c_steps, "count")

    consistent = worst_residue <= RESIDUE_TOL * raw_traced_ms and (fact == fact[0]).all()
    notes = [
        f"per-layer ms: mean per timed step over {n} traced steps; counts: mean per step "
        f"over {c_steps} count-pass steps ({len(fact)} factorizations)",
        f"trace consistency: worst per-step residue {worst_residue:.3g} ms of "
        f"{raw_traced_ms:.4g} ms mean traced step, unscaled "
        f"({'ok' if consistent else 'FAILED'})",
        f"tracing overhead: traced {traced_median:.4g} ms - untraced {untraced_ms:.4g} ms "
        f"= {traced_median - untraced_ms:.4g} ms per step (medians, "
        f"{len(traced.step_ms)} vs {len(untraced.step_ms)} steps)",
    ]
    return values, notes, bool(consistent)


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "seed": seed,
        "platform": platform.platform(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run(mcdyn, name: str, wl: Workload, seed: int, seconds: float, trace: bool):
    """One benchmark run; returns (result line dict, human-readable lines, record)."""
    bench = Bench(mcdyn, wl, seed)
    untraced = Samples()
    deadline = perf_counter() + seconds
    # Past the deadline, keep trying for a first timed sample for at most
    # one more budget; a program whose steps all fail ends the run.
    give_up = deadline + max(seconds, 10.0)

    def more(*sinks):
        now = perf_counter()
        return now < deadline or (not all(x.raw_ms for x in sinks) and now < give_up)

    if not trace:
        while more(untraced):
            bench.episode(untraced, deadline)
        if not untraced.raw_ms:
            raise SystemExit(f"stepbench: no timed step succeeded: {bench.failures[:3]}")
        bench.scale_times(untraced)
        metrics, notes = end_to_end(bench, untraced)
        consistent = True
    else:
        tracer, counter = SpanTracer(), CallCounter()
        traced, counted = Samples(), Samples()
        while more(untraced, traced):
            bench.episode(untraced, deadline, tracer=tracer, traced=traced)
        if not (untraced.raw_ms and traced.raw_ms):
            raise SystemExit(f"stepbench: no timed step succeeded: {bench.failures[:3]}")
        bench.scale_times(untraced)
        bench.scale_times(traced)
        with counter.installed(mcdyn):
            bench.episode(counted, steps=wl.count_steps, counter=counter)
        metrics, notes, consistent = per_layer(tracer, traced, untraced, counter, counted)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.dump(OUT_DIR / f"{name}-seed{seed}.spans.jsonl")
    env = environment(seed)
    result = {
        "correct": bench.failed == 0 and consistent,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    lines = [
        f"workload {name}: {wl.kind} n={wl.n} {wl.joint}, h={H}, tol={TOL}, "
        f"kick for {KICK_STEPS} steps, {wl.episode_steps}-step episodes",
        "env " + json.dumps(env),
        *notes,
        *(f"{k} = {v:.6g} {u}" for k, (v, u) in metrics.items()),
        *(f"FAILED step {f['step_id']}: {f['problem']}" for f in bench.failures[:20]),
    ]
    record = {
        "workload": name,
        "config": vars(wl) | {"h": H, "tol": TOL, "kick_steps": KICK_STEPS},
        "seconds": seconds,
        "trace": int(trace),
        "env": env,
        "notes": notes,
        "failures": bench.failures,
        # untraced timed steps: (scaled ms, unscaled ms, Newton iterations)
        "samples": [
            [round(ms, 4), round(raw, 4), it]
            for ms, raw, it in zip(untraced.step_ms, untraced.raw_ms, untraced.iterations)
        ],
        "setup_s": untraced.setup_s,
        "setup_raw_s": untraced.setup_raw_s,
        **result,
    }
    return result, lines, record


def smoke(mcdyn) -> int:
    """Each workload shape at minimal size through every path; 0 when all pass."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    ok = True
    for name, wl in SMOKE.items():
        results = [run(mcdyn, name, wl, seed=1, seconds=0.0, trace=t)[0] for t in (False, True)]
        e2e, layers = (r["metrics"] for r in results)
        fill = layers["block_solver.fill_blocks"]["value"]
        checks = {
            "outputs correct": all(r["correct"] and r["failed"] == 0 for r in results),
            "end-to-end metrics": set(e2e) == {m["name"] for m in declared["end_to_end"]},
            "per-layer metrics": set(layers) == {m["name"] for m in declared["per_layer"]},
            "fill pattern": (fill > 0) == (name == "loops"),
            "loop node": (layers["block_solver.loop_node_rows"]["value"] > 0) == (name == "loops"),
            "counts": layers["quaternions.calls"]["value"] > 0,
        }
        bad = [k for k, passed in checks.items() if not passed]
        print(f"smoke {name}: {'PASS' if not bad else 'FAIL ' + ', '.join(bad)}")
        ok = ok and not bad
    return 0 if ok else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny run of every workload shape")
    args = ap.parse_args(argv)
    mcdyn = import_mcdyn()
    if args.smoke:
        return smoke(mcdyn)
    if args.workload is None:
        ap.error("--workload is required")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    wl = WORKLOADS[args.workload]
    result, lines, record = run(
        mcdyn, args.workload, wl, args.seed, args.seconds, bool(args.trace)
    )
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
