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

import json
from dataclasses import dataclass

import numpy as np

from . import stl
from .dynamics import Trace, rollout
from .errors import NonFiniteObjective, SeedTooShort
from .robustness import (Program, RobustnessReport, eval_exact, eval_smooth,
                         eval_weighted_smooth, gradient_smooth, make_report)

SATISFIED_WITH_MARGIN = "satisfied_with_margin"
SATISFIED_NO_MARGIN = "satisfied_no_margin"
VIOLATED = "violated"
ITERATION_CAP = "iteration_cap"


@dataclass
class OptimizerConfig:
    sharpness: float = None        # None: take the scenario value
    margin: float = None           # demanded smooth-robustness buffer; None: scenario
    max_iters: int = 300
    step_init: float = 0.25
    step_shrink: float = 0.5
    step_grow: float = 1.4
    step_min: float = 1e-7
    objective_tol: float = 1e-7
    # m/s margins are worth much less than meter margins at mission scale;
    # scaling them up stops the velocity clauses from dominating the
    # objective while leaving a genuine speed reserve demanded
    velocity_margin_scale: float = 8.0
    # moment smoothing for the adaptive ascent direction; the direction is
    # still subjected to a monotone line search, so the objective history
    # stays non-decreasing whatever the moments do
    momentum_decay: float = 0.9
    curvature_decay: float = 0.999
    rng_seed: int = 0
    perturb_restarts: int = 1
    restart_noise: float = 0.05    # stddev as a fraction of each drone's a_max

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.objective_tol <= 0 or self.step_init <= 0:
            raise ValueError("tolerances and steps must be positive")


@dataclass
class PlanResult:
    trace: Trace
    report: RobustnessReport
    status: str
    iterations: int
    objective_history: list
    smooth_objective: float        # smooth value of the augmented objective
    restarts_used: int = 0

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

    def to_json(self, indent=2) -> str:
        return json.dumps(self.to_dict(), indent=indent)


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


class _Objective:
    """Smooth objective and gradient as a function of accelerations.

    The objective formula is compiled once here and reused by every
    trial and gradient; each evaluation starts from a fresh rollout. The
    gradient at an accepted trial rolls out the same bits, so the program
    reuses that trial's smooth forward pass and runs only the reverse sweep.
    """

    def __init__(self, formula, pos0, vel0, ts, sharpness, weights):
        self.program = Program(formula, ts, weights)
        self.weights = weights
        self.pos0 = pos0
        self.vel0 = vel0
        self.ts = ts
        self.sharpness = sharpness

    def trace(self, acc) -> Trace:
        return rollout(self.pos0, self.vel0, acc, self.ts)

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
        return self._checked(value, acc), pullback_gradient(dpos, dvel, self.ts)


def optimize(formula, seed_trace: Trace, scenario, config: OptimizerConfig = None,
             weights: stl.WeightMap = None, free_drones=None,
             limits_override: dict = None, augment_velocity: bool = True) -> PlanResult:
    """Maximize (weighted) smooth robustness from a warm-start trace.

    The ascent accepts only improving iterates, so the objective history
    is non-decreasing; the returned trace is the accepted iterate with
    the best exact robustness of the original formula, re-verified with
    the exact monitor. On an iteration-capped run that stays negative,
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
    needed = int(round(stl.horizon(formula) / ts))
    if seed_trace.n_samples < needed + 1:
        raise SeedTooShort(
            f"seed has {seed_trace.n_samples} samples, formula horizon needs {needed + 1}")

    limits = [limits_override.get(d, scenario.limits[d]) if limits_override
              else scenario.limits[d] for d in range(seed_trace.n_drones)]
    a_caps = np.stack([np.asarray(limits[d].a_max) for d in range(seed_trace.n_drones)])

    objective_formula = (_augment(formula, seed_trace.n_samples, ts, limits,
                                  config.velocity_margin_scale)
                         if augment_velocity else formula)
    objective = _Objective(objective_formula, seed_trace.pos[:, 0].copy(),
                           seed_trace.vel[:, 0].copy(), ts, sharpness, weights)
    monitor = Program(formula, ts, weights)  # exact checks and the final report
    monitor._borrow_atoms(objective.program)  # the accepted trial's atom rows

    if free_drones is None:
        free = np.ones(seed_trace.n_drones, dtype=bool)
    else:
        free = np.zeros(seed_trace.n_drones, dtype=bool)
        free[list(free_drones)] = True

    # a frozen drone's infinite caps leave its values, NaN included, as they are
    caps = np.where(free[:, None], a_caps, np.inf)[:, None, :]

    def project(acc):
        return np.clip(acc, -caps, caps)

    seed_acc = project(seed_trace.acc.copy())
    rng = np.random.default_rng(config.rng_seed)

    def run(start_acc):
        acc = start_acc
        current, grad = objective.value_and_gradient(acc)
        history = [current]
        # best iterate by exact robustness, preferring those at the margin
        # so the reported status stays consistent with the returned trace
        best = (eval_exact(monitor, objective.trace(acc), 0), current, acc)
        best_margin = best if current >= margin else None
        step = config.step_init
        iterations = 0
        capped = False
        moment = np.zeros_like(acc)
        curvature = np.zeros_like(acc)
        b1, b2 = config.momentum_decay, config.curvature_decay
        while iterations < config.max_iters:
            iterations += 1
            moment = b1 * moment + (1 - b1) * grad
            curvature = b2 * curvature + (1 - b2) * grad * grad
            mhat = moment / (1 - b1 ** iterations)
            vhat = curvature / (1 - b2 ** iterations)
            adaptive = mhat / (np.sqrt(vhat) + 1e-12)
            accepted = False
            for direction in (adaptive, grad):
                masked = np.where(free[:, None, None], direction, 0.0)
                trial_step = step
                while trial_step >= config.step_min:
                    trial = project(acc + trial_step * masked)
                    value = objective.value(trial)
                    if np.isfinite(value) and value > current:
                        accepted = True
                        break
                    trial_step *= config.step_shrink
                if accepted:
                    break
            if not accepted:
                break  # converged: no ascent direction at the smallest step
            improvement = value - current
            acc, current, step = trial, value, trial_step
            history.append(current)
            exact_here = eval_exact(monitor, objective.trace(acc), 0)
            if (exact_here, current) > (best[0], best[1]):
                best = (exact_here, current, acc)
            if current >= margin and (best_margin is None
                                      or (exact_here, current) > best_margin[:2]):
                best_margin = (exact_here, current, acc)
            grad = objective.value_and_gradient(acc)[1]
            step = min(step * config.step_grow, 10.0 * config.step_init)
            if current >= margin:
                break
            if improvement < config.objective_tol:
                break
        else:
            capped = True
        return best_margin or best, history, iterations, capped

    best, history, iterations, capped = run(seed_acc)
    restarts_used = 0
    # a run that stalls without positive smooth robustness gets one
    # noise-perturbed retry from the seed; ascent is local and the seed
    # decides which basin it lands in
    if best[1] <= 0 and config.perturb_restarts > 0:
        for _ in range(config.perturb_restarts):
            restarts_used += 1
            noise = rng.normal(scale=1.0, size=seed_acc.shape) * (
                config.restart_noise * a_caps[:, None, :])
            noise[~free] = 0.0
            retry = run(project(seed_acc + noise))
            if retry[0][:2] > best[:2]:
                best, history, iterations, capped = retry

    exact_best, smooth_best, acc_best = best
    final_trace = objective.trace(acc_best)
    if exact_best > 0:
        status = SATISFIED_WITH_MARGIN if smooth_best >= margin else SATISFIED_NO_MARGIN
    else:
        status = ITERATION_CAP if capped else VIOLATED
    report = make_report(monitor, final_trace, sharpness, weights=weights)
    return PlanResult(trace=final_trace, report=report, status=status,
                      iterations=iterations, objective_history=history,
                      smooth_objective=smooth_best, restarts_used=restarts_used)
