"""Projected-gradient ascent of smooth robustness over acceleration sequences.

Decision variables are the per-drone, per-axis acceleration samples.
State gradients from the robustness module are pulled back through the
double-integrator recursion; accelerations are projected into their
boxes after every step, so acceleration bounds hold exactly. Velocity
bounds are not projected (velocity is a derived state): they enter the
objective as conjoined always-clauses over velocity-box predicates, and
the demanded margin then covers them too.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import stl
from .dynamics import Trace, rollout, steer_to_state
from .errors import NonFiniteObjective, SeedTooShort, ValidationError
from .robustness import (MIN_SHARPNESS, Program, RobustnessReport, eval_exact, eval_smooth,
                         eval_weighted_smooth, gradient_smooth, make_report)

SATISFIED_WITH_MARGIN = "satisfied_with_margin"
SATISFIED_NO_MARGIN = "satisfied_no_margin"
VIOLATED = "violated"
ITERATION_CAP = "iteration_cap"


# line search: first step, shrink on a failed trial, growth after an
# accepted step, and the smallest step tried
_STEP_INIT = 0.25
_STEP_SHRINK = 0.5
_STEP_GROW = 1.4
_STEP_MIN = 1e-7
_OBJECTIVE_TOL = 1e-7  # an accepted step improving less than this ends the run
# m/s margins are worth much less than meter margins at mission scale;
# scaling them up stops the velocity clauses from dominating the
# objective while leaving a genuine speed reserve demanded
_VELOCITY_MARGIN_SCALE = 8.0
# moment smoothing for the adaptive ascent direction; the direction is
# still subjected to a monotone line search, so the objective history
# stays non-decreasing whatever the moments do
_MOMENTUM_DECAY = 0.9
_CURVATURE_DECAY = 0.999
_RESTART_NOISE = 0.05  # stddev as a fraction of each drone's a_max


@dataclass
class OptimizerConfig:
    sharpness: float = None        # None: take the scenario value
    margin: float = None           # demanded smooth-robustness buffer; None: scenario
    max_iters: int = 300
    rng_seed: int = 0

    def __post_init__(self):
        # each message names the planner flag that sets the field
        if self.sharpness is not None and not MIN_SHARPNESS <= self.sharpness < np.inf:
            raise ValidationError(f"--lambda (sharpness) must be finite and >= "
                                  f"{MIN_SHARPNESS:g}, got {self.sharpness}")
        if self.margin is not None and not np.isfinite(self.margin):
            raise ValidationError(f"--zeta (margin) must be finite, got {self.margin}")
        if self.max_iters < 1:
            raise ValidationError(f"--max-iters must be >= 1, got {self.max_iters}")
        if self.rng_seed < 0:
            raise ValidationError(f"--seed must be >= 0, got {self.rng_seed}")


@dataclass
class PlanResult:
    trace: Trace
    report: RobustnessReport
    status: str
    iterations: int
    objective_history: list
    smooth_objective: float        # smooth value of the augmented objective
    restarts_used: int = 0
    # the compiled mission that judged the iterates, for re-checks of the trace
    monitor: Program = field(default=None, repr=False, compare=False)

    def history_csv(self) -> str:
        lines = ["iteration,objective"]
        lines += [f"{i},{v:.12g}" for i, v in enumerate(self.objective_history)]
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "iterations": self.iterations,
            "smooth_objective": self.smooth_objective,
            "restarts_used": self.restarts_used,
            "report": self.report.to_dict(),
        }


def pullback_gradient(dpos, dvel, ts: float) -> np.ndarray:
    """Pull state gradients back to acceleration gradients.

    Reverse accumulation through p' = p + v ts + a ts^2 / 2, v' = v + a ts:
    the adjoint of a_k collects the immediate effect on sample k+1 plus
    all downstream influence through the state recursion.
    """
    dpos = np.asarray(dpos, float)
    dvel = np.asarray(dvel, float)
    n_drones, n_samples, _ = dpos.shape
    n = n_samples - 1
    if n == 0:
        return np.zeros((n_drones, 0, 3))
    # Reverse-time sequential cumulative sums add in the order of the
    # backward recursion adj_p += dpos_k, adj_v += ts adj_p + dvel_k, so
    # the result is bit for bit that recursion. Column j is step n-1-j.
    adj_p = np.cumsum(dpos[:, :0:-1], axis=1)
    adj_v = np.empty((n_drones, n, 3))
    adj_v[:, 0] = dvel[:, n]
    adj_v[:, 1:] = ts * adj_p[:, :-1] + dvel[:, n - 1:0:-1]
    np.cumsum(adj_v, axis=1, out=adj_v)
    return np.ascontiguousarray((0.5 * ts * ts * adj_p + ts * adj_v)[:, ::-1])


def _velocity_clauses(n_samples, ts, limits, scale):
    clauses = []
    duration = (n_samples - 1) * ts
    for d, lim in enumerate(limits):
        v_max = np.asarray(lim.v_max)
        pred = stl.Predicate.velocity_box(f"vel_box[{d}]", d, -v_max, v_max, scale=scale)
        clauses.append(stl.always(stl.Interval(0.0, duration), stl.atom(pred),
                                  label=f"velocity[{d}]"))
    return clauses


def _augment(formula, n_samples, ts, limits, scale):
    clauses = _velocity_clauses(n_samples, ts, limits, scale)
    return stl.land(formula, *clauses, label="objective")


def _assigned(formula, monitor, seed_trace):
    """``formula`` with each task choice cut to the operand under which the
    seed's exact robustness of the task, at t = 0, is highest, if that value
    is positive; ties go to the first operand. A task choice is an operand
    of the root conjunction that is an eventually over an Or. No Not sits
    above such an Or, its exact value is the max of its operands and every
    node above it is monotone, so the cut formula's exact robustness never
    exceeds ``formula``'s. One exact pass of ``monitor``, the program of
    ``formula``, scores every operand; nodes keep their ids."""
    if formula.kind != stl.AND:
        return formula
    ops = monitor.ops
    tasks = [(i, ops[arg]) for i, (child, arg) in enumerate(zip(formula.children, ops[-1].args))
             if child.kind == stl.EVENTUALLY and child.children[0].kind == stl.OR]
    if not tasks:
        return formula
    values = monitor._forward(seed_trace)
    children = list(formula.children)
    for i, clause in tasks:
        scores = [monitor.node(values, arg)[clause.lo:clause.hi + 1].max()
                  for arg in ops[clause.args[0]].args]
        best = int(np.argmax(scores))
        if scores[best] > 0:
            task = children[i]
            children[i] = stl.Formula(task.kind, (task.children[0].children[best],),
                                      task.interval, None, task.node_id)
    if all(new is old for new, old in zip(children, formula.children)):
        return formula
    return stl.Formula(formula.kind, tuple(children), None, None, formula.node_id)


class _Objective:
    """Smooth objective and gradient as a function of accelerations.

    The objective formula is compiled once here and reused by every
    trial and gradient; each evaluation starts from a fresh rollout. The
    gradient at an accepted trial rolls out the same bits, so the program
    reuses that trial's smooth forward pass and runs only the reverse sweep.

    The variables are clipped into the box ``caps``. With a window
    ``(drone, k, e)`` they are that drone's accelerations on [k, e), rolled
    out from the seed's state at k; all other samples are the seed's. The
    projection adds the least-norm correction onto the seed's state at e,
    an orthogonal projection that the gradient gets too, and draws a trial
    that then leaves the box (or the seed's larger magnitudes) toward the
    seed's accelerations until it fits.
    """

    def __init__(self, formula, seed, ts, sharpness, weights, caps, window=None):
        self.program = Program(formula, ts, weights)
        self.weights = weights
        self.seed = seed
        self.ts = ts
        self.sharpness = sharpness
        self.caps = caps
        self.window = window
        self.start = seed.acc  # the variables at the seed
        if window is not None:
            drone, k, end = window
            self.steps = end - k
            # ts^2 (steps - j - 1/2): the end position's lever on a_j
            self.lever = ts * ts * (self.steps - np.arange(self.steps) - 0.5)
            self.coast = (seed.pos[drone, end] - seed.pos[drone, k]
                          - self.steps * ts * seed.vel[drone, k],
                          seed.vel[drone, end] - seed.vel[drone, k])
            self.start = seed.acc[drone:drone + 1, k:end]
            self.bound = np.maximum(caps, np.abs(self.start))

    def _steer(self, acc, pos_err, vel_err):
        return acc + steer_to_state(pos_err - self.lever @ acc,
                                    vel_err - self.ts * acc.sum(axis=0), self.steps, self.ts)

    @np.errstate(divide="ignore", invalid="ignore")
    def project(self, acc) -> np.ndarray:
        acc = np.clip(acc, -self.caps, self.caps)
        if self.window is None:
            return acc
        step = self._steer(acc[0], *self.coast) - self.start
        room = np.where(step != 0, (np.copysign(self.bound, step) - self.start) / step, np.inf)
        return self.start + min(1.0, room.min()) * step

    def trace(self, acc) -> Trace:
        seed = self.seed
        if self.window is None:
            return rollout(seed.pos[:, 0], seed.vel[:, 0], acc, self.ts)
        drone, k, end = self.window
        part = rollout(seed.pos[drone, k], seed.vel[drone, k], acc, self.ts)
        trace = seed.copy()
        trace.pos[drone, k:end + 1] = part.pos[0]
        trace.vel[drone, k:end + 1] = part.vel[0]
        trace.acc[drone, k:end] = part.acc[0]
        return trace

    def _checked(self, value, acc) -> float:
        if not np.isfinite(value):
            raise NonFiniteObjective(f"objective became {value}", accelerations=acc)
        return value

    def value(self, acc) -> float:
        """Objective at a line-search trial, unchecked: the search rejects a
        non-finite value as it rejects any step that does not improve."""
        trace = self.trace(acc)
        if self.weights is None:
            return eval_smooth(self.program, trace, 0, self.sharpness)
        return eval_weighted_smooth(self.program, self.weights, trace, 0,
                                    self.sharpness, soft_combine=True)

    def value_and_gradient(self, acc):
        value, dpos, dvel = gradient_smooth(self.program, self.trace(acc), self.sharpness,
                                            weights=self.weights)
        grad = pullback_gradient(dpos, dvel, self.ts)
        if self.window is not None:  # the projection cancels what samples after e add
            drone, k, end = self.window
            grad = self._steer(grad[drone, k:end], 0.0, 0.0)[None]
        return self._checked(value, acc), grad


def optimize(formula, seed_trace: Trace, scenario, config: OptimizerConfig = None,
             weights: stl.WeightMap = None, window: tuple = None) -> PlanResult:
    """Maximize (weighted) smooth robustness from a warm-start trace.

    ``window=(drone, k, e)`` frees only that drone's accelerations on
    [k, e) (see ``_Objective``), under its relaxed limits; elsewhere the
    returned trace is the seed.

    The ascent climbs the formula cut to the seed's task assignment (see
    ``_assigned``) and accepts only improving iterates, so the objective
    history is non-decreasing; the returned trace is the accepted iterate
    with the best exact robustness of the original formula among those at
    the margin, if any reach it, re-verified with the exact monitor. The
    monitor judges an iterate only where that choice reads it: a run ends
    at its first iterate at the margin, whose key beats every iterate
    below the margin, so iterates whose smooth value lies strictly between
    0 and the margin are judged after the run, and only when it ends below
    the margin. When the chosen iterate's smooth value is not positive,
    one noise-perturbed restart from the seed is attempted.

    The status follows the exact robustness of the returned trace: above
    zero it is satisfied, with margin when the smooth objective reached
    the demanded margin; otherwise iteration_cap when the ascent ran out
    of iterations, else violated.
    """
    config = config or OptimizerConfig()
    sharpness = config.sharpness if config.sharpness is not None else scenario.sharpness
    margin = config.margin if config.margin is not None else scenario.margin
    ts = seed_trace.ts
    monitor = Program(formula, ts, weights)  # exact checks and the final report
    needed = monitor.ops[-1].steps + 1
    if seed_trace.n_samples < needed:
        raise SeedTooShort(
            f"seed has {seed_trace.n_samples} samples, formula horizon needs {needed}")

    limits = list(scenario.limits[:seed_trace.n_drones])
    if window is not None:
        limits[window[0]] = limits[window[0]].relaxed()
    a_caps = np.stack([np.asarray(lim.a_max) for lim in limits])

    # the ascent climbs the seed's own task assignment; every verdict stays on
    # the whole mission
    objective_formula = _augment(_assigned(formula, monitor, seed_trace), seed_trace.n_samples,
                                 ts, limits, _VELOCITY_MARGIN_SCALE)
    caps = (a_caps if window is None else a_caps[window[0]][None])[:, None, :]
    objective = _Objective(objective_formula, seed_trace, ts, sharpness, weights, caps, window)
    monitor._borrow_atoms(objective.program)  # the accepted trial's atom rows
    project = objective.project

    seed_acc = project(objective.start)
    rng = np.random.default_rng(config.rng_seed)

    def run(start_acc):
        # best iterate by (at the margin, exact, smooth), so the reported
        # status stays consistent with the returned trace. Smooth values rise
        # along a run, and a run ends at its first iterate at the margin,
        # whose key beats every key below it: iterates strictly between 0 and
        # the margin wait in ``pending``, judged only if the run ends below
        # the margin. The others are judged at once, an accepted trial while
        # its smooth pass can still lend the exact pass its atom rows
        best, pending = None, []

        def judge(value, acc):
            nonlocal best
            key = (value >= margin, eval_exact(monitor, objective.trace(acc), 0), value)
            if best is None or key > best[:3]:
                best = (*key, acc)

        def consider(value, acc):
            if 0 < value < margin:
                pending.append((value, acc))
            else:
                judge(value, acc)

        acc = start_acc
        current, grad = objective.value_and_gradient(acc)
        history = [current]
        consider(current, acc)
        step = _STEP_INIT
        iterations = 0
        capped = False
        moment = np.zeros_like(acc)
        curvature = np.zeros_like(acc)
        b1, b2 = _MOMENTUM_DECAY, _CURVATURE_DECAY
        while iterations < config.max_iters:
            iterations += 1
            moment = b1 * moment + (1 - b1) * grad
            curvature = b2 * curvature + (1 - b2) * grad * grad
            mhat = moment / (1 - b1 ** iterations)
            vhat = curvature / (1 - b2 ** iterations)
            adaptive = mhat / (np.sqrt(vhat) + 1e-12)
            accepted = False
            for direction in (adaptive, grad):
                trial_step = step
                while trial_step >= _STEP_MIN:
                    trial = project(acc + trial_step * direction)
                    value = objective.value(trial)
                    if np.isfinite(value) and value > current:
                        accepted = True
                        break
                    trial_step *= _STEP_SHRINK
                if accepted:
                    break
            if not accepted:
                break  # converged: no ascent direction at the smallest step
            improvement = value - current
            acc, current, step = trial, value, trial_step
            history.append(current)
            consider(current, acc)
            grad = objective.value_and_gradient(acc)[1]
            step = min(step * _STEP_GROW, 10.0 * _STEP_INIT)
            if current >= margin:
                break
            if improvement < _OBJECTIVE_TOL:
                break
        else:
            capped = True
        if current < margin:
            for iterate in pending:
                judge(*iterate)
        return best, history, iterations, capped

    best, history, iterations, capped = run(seed_acc)
    restarts_used = 0
    # a run that stalls without positive smooth robustness gets one
    # noise-perturbed retry from the seed; ascent is local and the seed
    # decides which basin it lands in. The retry's run is kept only for a
    # better (exact, smooth), whether or not it reached the margin
    if best[2] <= 0:
        restarts_used = 1
        noise = rng.normal(scale=1.0, size=seed_acc.shape) * (_RESTART_NOISE * caps)
        retry = run(project(seed_acc + noise))
        if retry[0][1:3] > best[1:3]:
            best, history, iterations, capped = retry

    at_margin, exact_best, smooth_best, acc_best = best
    final_trace = objective.trace(acc_best)
    if exact_best > 0:
        status = SATISFIED_WITH_MARGIN if at_margin else SATISFIED_NO_MARGIN
    else:
        status = ITERATION_CAP if capped else VIOLATED
    objective.program._kept = None  # no gradient follows the last trial
    report = make_report(monitor, final_trace, sharpness, weights=weights)
    return PlanResult(trace=final_trace, report=report, status=status,
                      iterations=iterations, objective_history=history,
                      smooth_objective=smooth_best, restarts_used=restarts_used,
                      monitor=monitor)
