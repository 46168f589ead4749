"""Independent learning dynamics: natural policy gradient in logit space,
multiplicative weights in policy space, and vanilla softmax policy gradient,
plus the theoretical step-size guard and the iteration loop.

All agents update simultaneously each iteration.  The natural-gradient and
multiplicative-weights updates are two parametrizations of the same map, and
the test suite holds them to entrywise agreement.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import JointPolicy, Logits, softmax_policy
from .exact import evaluate, mismatch_bound
from .sampling import SampleConfig, _StreamBank, estimate_eval

log = logging.getLogger("mpglearn")

ALGORITHMS = ("inpg", "mwu", "ipg")


@dataclass(frozen=True)
class AlgoConfig:
    """How to run a learning loop.

    guard=None resolves to "enforce" in exact mode and "warn" in sampled mode
    (the step-size theory does not cover sampling noise, and benchmark
    environments with a point-mass start distribution have no finite
    analytic mismatch bound anyway).
    """
    algorithm: str
    eta: float
    eval_mode: str = "exact"
    sample_cfg: SampleConfig | None = None
    max_iters: int = 1000
    convergence_threshold: float = 1e-15
    guard: str | None = None

    def check(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.convergence_threshold <= 0:
            raise ValueError("convergence_threshold must be positive")
        if self.eval_mode not in ("exact", "sampled"):
            raise ValueError(f"unknown eval_mode {self.eval_mode!r}")
        if self.eval_mode == "sampled" and self.sample_cfg is None:
            raise ValueError("sampled mode needs a SampleConfig")
        if self.guard not in (None, "enforce", "warn", "off"):
            raise ValueError(f"unknown guard mode {self.guard!r}")

    def resolved_guard(self):
        if self.guard is not None:
            return self.guard
        return "enforce" if self.eval_mode == "exact" else "warn"


@dataclass
class RunTrace:
    """Per-iteration record of a learning run.

    Row k describes update k (0-based): the potential of the pre-update
    policy, the largest per-agent L1 policy change the update caused, and the
    Nash gap when it was computed that iteration.  `snapshots`, when enabled,
    holds the pre-update policy of each recorded iteration plus the final
    policy, so its length is one more than the number of rows.
    """
    iterations: np.ndarray
    step_l1: np.ndarray
    potential: np.ndarray           # nan where unavailable
    nash_gap: np.ndarray            # nan where not computed
    status: str
    final_policy: JointPolicy
    final_logits: Logits | None
    snapshots: list | None

    @property
    def n_iterations(self):
        """Number of updates performed (= converged_at + 1 when converged)."""
        return len(self.iterations)


def _check_finite_advantages(report):
    """Raise on the first non-finite marginal advantage, naming its index."""
    # a NaN or infinity anywhere makes the total non-finite; one sum per
    # agent is the cheap common case, the scan below finds the index
    if math.isfinite(sum(float(adv.sum()) for adv in report.adv_marginal)):
        return
    for i, adv in enumerate(report.adv_marginal):
        if not np.all(np.isfinite(adv)):
            s, a = np.unravel_index(int(np.argmin(np.isfinite(adv))), adv.shape)
            raise ValueError(f"non-finite advantage at agent {i}, state {s}, "
                             f"action {a}")


def inpg_step(theta, report, eta, gamma):
    """Natural-gradient logit update: add eta/(1-gamma) times the advantage."""
    _check_finite_advantages(report)
    scale = eta / (1.0 - gamma)
    return Logits([t + scale * adv
                   for t, adv in zip(theta.theta, report.adv_marginal)],
                  validate=False)


def mwu_step(policy, report, eta, gamma):
    """Multiplicative weights on the simplex, renormalized per (agent, state).

    Requires a strictly positive input policy; zero mass cannot be revived.
    Computed in log space with max subtraction, so it matches the logit-space
    natural-gradient update to machine precision.
    """
    _check_finite_advantages(report)
    scale = eta / (1.0 - gamma)
    new = []
    for i, (p, adv) in enumerate(zip(policy.probs, report.adv_marginal)):
        if p.min() <= 0.0:
            s, a = np.unravel_index(int(np.argmin(p)), p.shape)
            raise ValueError(f"agent {i}: zero probability at (state {s}, "
                             f"action {a}); multiplicative update cannot "
                             f"revive zero mass")
        z = np.log(p) + scale * adv
        z -= z.max(axis=1, keepdims=True)
        e = np.exp(z)
        new.append(e / e.sum(axis=1, keepdims=True))
    return JointPolicy(new, validate=False)


def ipg_step(theta, report, eta, gamma, policy=None):
    """Softmax policy-gradient ascent on each agent's own value.

    Coordinate update: eta * d(s) * pi_i(a|s) * advbar_i(s,a) / (1 - gamma),
    the exact gradient of V_i(mu) in the softmax parametrization.  `policy`,
    when given, must be softmax_policy(theta); it saves recomputing it.
    """
    _check_finite_advantages(report)
    if policy is None:
        policy = softmax_policy(theta)
    scale = eta / (1.0 - gamma)
    new = []
    for t, p, adv in zip(theta.theta, policy.probs, report.adv_marginal):
        new.append(t + scale * report.visitation[:, None] * p * adv)
    return Logits(new, validate=False)


def max_step_size(mdp, mismatch=None):
    """Largest step size covered by the convergence theory:

        (1 - gamma)^3 / (27 * n^2 * A_max^2 * M)

    with M the analytic upper bound on the distribution mismatch coefficient.
    """
    if mismatch is None:
        mismatch = mismatch_bound(mdp)
    if mismatch.upper is None:
        raise ValueError(
            "mismatch bound unavailable (" + mismatch.note + "); "
            "supply a MismatchBound with a manual upper value")
    n, amax, gamma = mdp.n_agents, mdp.a_max(), mdp.gamma
    return (1.0 - gamma) ** 3 / (27.0 * n ** 2 * amax ** 2 * mismatch.upper)


def check_step_size(mdp, cfg):
    """Apply cfg's step-size guard to cfg.eta on mdp.

    "enforce" raises when eta is not below max_step_size (or the mismatch
    bound is unavailable), "warn" logs that instead, and "off" does nothing.
    """
    guard = cfg.resolved_guard()
    if guard == "off":
        return
    bound = mismatch_bound(mdp)
    if bound.upper is None:
        msg = f"step-size guard: mismatch bound unavailable ({bound.note})"
        if guard == "enforce":
            raise ValueError(msg + "; pass guard='warn' or 'off', or use "
                             "a full-support initial distribution")
        log.warning(msg)
        return
    limit = max_step_size(mdp, bound)
    if cfg.eta >= limit:
        msg = (f"eta = {float(cfg.eta)!r} is not below the "
               f"theoretical bound {float(limit)!r}")
        if guard == "enforce":
            raise ValueError(msg)
        log.warning(msg)


def _initial_state(mdp, cfg, initial):
    if initial is None:
        initial = Logits([np.zeros((mdp.n_states, a)) for a in mdp.n_actions],
                         validate=False)
    if cfg.algorithm in ("inpg", "ipg"):
        if isinstance(initial, JointPolicy):
            if not initial.is_interior():
                raise ValueError("logit-space dynamics need an interior policy")
            initial = Logits([np.log(p) for p in initial.probs], validate=False)
        theta = initial
        policy = softmax_policy(theta)
    else:
        if isinstance(initial, Logits):
            policy = softmax_policy(initial)
        else:
            policy = initial
        theta = None
        if not policy.is_interior():
            raise ValueError("multiplicative weights needs an interior policy")
    return theta, policy


def run(env, cfg, initial=None, nash_gap_every=0, snapshot_every=0,
        on_iteration=None):
    """Iterate a learning dynamic until the policy stops moving.

    `env` may be an Environment or a bare MultiAgentMDP.  Stops when the
    largest per-agent L1 distance between consecutive policy tables falls
    below cfg.convergence_threshold, or after cfg.max_iters updates.  The
    potential of the pre-update policy is recorded in exact mode when the
    environment has a stage potential; the exact Nash gap is recorded every
    `nash_gap_every` iterations (0 = never).  `snapshot_every` > 0 keeps
    every k-th pre-update policy plus the final one for post-hoc accuracy
    computation.  `on_iteration(record_dict)` streams rows to the caller.
    The step-size guard (check_step_size) is applied before the first
    update.  In sampled mode update k estimates from episodes
    k*batch .. (k+1)*batch - 1, drawn from one _StreamBank for the run.
    """
    cfg.check()
    has_env = hasattr(env, "mdp")
    mdp = env.mdp if has_env else env
    track_potential = (has_env and env.stage_potential is not None
                       and cfg.eval_mode == "exact")

    check_step_size(mdp, cfg)
    theta, policy = _initial_state(mdp, cfg, initial)
    target = env if track_potential else mdp
    bank = (_StreamBank(mdp, cfg.sample_cfg)
            if cfg.eval_mode == "sampled" else None)

    iters, steps, pots, gaps = [], [], [], []
    snapshots = [] if snapshot_every else None
    status = "max_iters"

    for k in range(cfg.max_iters):
        if cfg.eval_mode == "exact":
            report = evaluate(target, policy)
        else:
            report = estimate_eval(mdp, policy, cfg.sample_cfg,
                                   episode_offset=k * cfg.sample_cfg.batch,
                                   bank=bank)
        if cfg.algorithm == "inpg":
            theta = inpg_step(theta, report, cfg.eta, mdp.gamma)
            new_policy = softmax_policy(theta)
        elif cfg.algorithm == "ipg":
            theta = ipg_step(theta, report, cfg.eta, mdp.gamma, policy)
            new_policy = softmax_policy(theta)
        else:
            new_policy = mwu_step(policy, report, cfg.eta, mdp.gamma)
        step = float(policy.per_agent_l1(new_policy).max())
        phi = report.potential_mu if track_potential else np.nan
        gap = np.nan
        if nash_gap_every and k % nash_gap_every == 0:
            from .verify import nash_gap as _nash_gap
            gap = _nash_gap(mdp, policy).overall_gap
        iters.append(k)
        steps.append(step)
        pots.append(phi if phi is not None else np.nan)
        gaps.append(gap)
        if snapshots is not None and k % snapshot_every == 0:
            snapshots.append(policy)
        if on_iteration is not None:
            on_iteration({"iteration": k, "max_policy_step_l1": step,
                          "potential": phi, "nash_gap": gap})
        policy = new_policy
        if step < cfg.convergence_threshold:
            status = "converged"
            break

    if snapshots is not None:
        snapshots.append(policy)
    return RunTrace(
        iterations=np.array(iters, dtype=np.int64),
        step_l1=np.array(steps),
        potential=np.array(pots),
        nash_gap=np.array(gaps),
        status=status,
        final_policy=policy,
        final_logits=theta,
        snapshots=snapshots)
