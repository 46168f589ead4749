"""Independent learning dynamics: natural policy gradient in logit space,
multiplicative weights in policy space, and vanilla softmax policy gradient,
plus the theoretical step-size guard and the iteration loop.

All agents update simultaneously each iteration.  The natural-gradient and
multiplicative-weights updates are two parametrizations of the same map, and
the test suite holds them to entrywise agreement.

Every update rule is one array operation on the stacked (..., n, S, A_max)
tables of `core.AgentTables`, for all agents at once: logits padded with
-inf, policies and advantages with 0, so padding stays padding.  The rules
take tables with or without a leading run axis: `run` steps R runs of one
configuration in lockstep on (R, n, S, A_max) tables, and every operation
on them acts on each run's rows as it would on that run's own tables, so
each run's trace is bit-identical to running it alone.  A rule hands the
array it computed to the new Logits or JointPolicy, which shares it.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .core import (EvalReport, JointPolicy, Logits, _softmax, softmax_policy,
                   uniform_logits)
from .exact import Scratch, evaluate, mismatch_bound
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
    Nash gap when it was computed that iteration.
    """
    iterations: np.ndarray
    step_l1: np.ndarray
    potential: np.ndarray           # nan where unavailable
    nash_gap: np.ndarray            # nan where not computed
    status: str
    final_policy: JointPolicy
    final_logits: Logits | None

    @property
    def n_iterations(self):
        """Number of updates performed (= converged_at + 1 when converged)."""
        return len(self.iterations)


class _RunError(ValueError):
    """An update failed at one entry of its tables; `run` is the entry's
    index on the leading run axis, or None for tables without one."""

    def __init__(self, run, detail):
        super().__init__(detail if run is None else f"run axis index {run}: "
                         f"{detail}")
        self.run, self.detail = run, detail


def _raise_at(bad, detail):
    """Raise a _RunError at the first true entry of a stacked (n, S, A_max)
    or (R, n, S, A_max) mask, agent by agent; detail(i, s, a) describes
    it."""
    i, *run, s, a = (int(x) for x in np.argwhere(np.moveaxis(bad, -3, 0))[0])
    raise _RunError(run[0] if run else None, detail(i, s, a))


def _check_finite_advantages(report):
    """Raise on the first non-finite marginal advantage, naming its index."""
    # a NaN or infinity anywhere makes the total non-finite; one sum is the
    # cheap common case, the scan below finds the index
    adv = report.adv_marginal.stacked
    if math.isfinite(adv.sum()):
        return
    bad = ~np.isfinite(adv)
    if bad.any():
        _raise_at(bad, lambda i, s, a: f"non-finite advantage at agent {i}, "
                                       f"state {s}, action {a}")


def _log(probs):
    """The log of a stacked policy table, -inf on its padding."""
    return np.log(probs.stacked, out=np.full(probs.stacked.shape, -np.inf),
                  where=probs.valid)


def inpg_step(theta, report, eta, gamma):
    """Natural-gradient logit update: add eta/(1-gamma) times the advantage."""
    _check_finite_advantages(report)
    scale = eta / (1.0 - gamma)
    return Logits(theta.theta.like(
        theta.theta.stacked + scale * report.adv_marginal.stacked),
        validate=False)


def mwu_step(policy, report, eta, gamma):
    """Multiplicative weights on the simplex, renormalized per (agent, state).

    Requires a strictly positive input policy; zero mass cannot be revived.
    Computed in log space with max subtraction, so it matches the logit-space
    natural-gradient update to machine precision.
    """
    _check_finite_advantages(report)
    scale = eta / (1.0 - gamma)
    probs = policy.probs
    bad = (probs.stacked <= 0.0) & probs.valid
    if bad.any():
        _raise_at(bad, lambda i, s, a: (
            f"agent {i}: zero probability at (state {s}, action {a}); "
            f"multiplicative update cannot revive zero mass"))
    z = _log(probs)
    z += scale * report.adv_marginal.stacked
    return JointPolicy(probs.like(_softmax(z)), validate=False)


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
    visitation = report.visitation[..., None, :, None]     # (..., 1, S, 1)
    return Logits(theta.theta.like(
        theta.theta.stacked + scale * visitation * policy.probs.stacked
        * report.adv_marginal.stacked), validate=False)


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


def _rows(x, index):
    """Rows `index` (an integer or an index array) of the run axis of a
    stacked JointPolicy or Logits, taken into a new array, so that a
    finished run does not keep the whole stack alive."""
    if isinstance(x, JointPolicy):
        return JointPolicy(x.probs.like(x.probs.stacked.take(index, axis=0)),
                           validate=False)
    return Logits(x.theta.like(x.theta.stacked.take(index, axis=0)),
                  validate=False)


def _report_row(report, j):
    """Row j of the run axis of an exact report: the values, marginal
    advantages and visitation that `nash_gap` reads."""
    adv = report.adv_marginal
    return EvalReport(v=report.v[j], adv_marginal=adv.like(adv.stacked[j]),
                      visitation=report.visitation[j])


def _initial_state(mdp, cfg, initial):
    """Stacked (theta, policy) of the runs' initial states; theta is None
    for multiplicative weights.  Each entry of `initial` is None (uniform),
    a Logits or a JointPolicy."""
    logit_space = cfg.algorithm in ("inpg", "ipg")
    starts = []
    for r, x in enumerate(initial):
        if x is None:
            x = uniform_logits(mdp)
        if logit_space and isinstance(x, JointPolicy):
            if not x.is_interior():
                raise ValueError(f"run {r}: logit-space dynamics need an "
                                 f"interior policy")
            x = Logits(x.probs.like(_log(x.probs)), validate=False)
        elif not logit_space:
            if isinstance(x, Logits):
                x = softmax_policy(x)
            if not x.is_interior():
                raise ValueError(f"run {r}: multiplicative weights needs an "
                                 f"interior policy")
        starts.append(x.theta if logit_space else x.probs)
    tables = starts[0].like(np.stack([t.stacked for t in starts]))
    if logit_space:
        theta = Logits(tables, validate=False)
        return theta, softmax_policy(theta)
    return None, JointPolicy(tables, validate=False)


def run(env, cfg, initial=None, nash_gap_every=0, snapshot_every=0,
        on_iteration=None, seeds=None):
    """Iterate a learning dynamic until the policy stops moving.

    `env` may be an Environment or a bare MultiAgentMDP.  Stops when the
    largest per-agent L1 distance between consecutive policy tables falls
    below cfg.convergence_threshold, or after cfg.max_iters updates.  The
    potential of the pre-update policy is recorded in exact mode when the
    environment has a stage potential; the exact Nash gap is recorded every
    `nash_gap_every` iterations (0 = never).  The step-size guard
    (check_step_size) is applied before the first update.  In sampled mode
    update k estimates from episodes k*batch .. (k+1)*batch - 1.

    `on_iteration(record)` streams one dict per update: run, iteration,
    max_policy_step_l1, potential, nash_gap, and policy, which holds the
    run's pre-update policy tables (one (S, A_i) array per agent) every
    `snapshot_every` iterations (0 = never) and is None otherwise.

    Without `seeds` this is one run from `initial` (None = uniform logits),
    its sampler keyed by cfg.sample_cfg.seed, and a RunTrace is returned.
    With `seeds`, a sequence of R run seeds, the R runs step together in
    lockstep along a leading run axis and a list of R RunTraces is returned;
    `initial` is then None or a sequence of R initial states, and run r's
    sampler is keyed by seeds[r].  A run that converges leaves the active
    set.  Each update evaluates all active runs in one call: `estimate_eval`
    from one _StreamBank in sampled mode, `evaluate` in exact mode.  That
    exact report skips the potential's marginal advantages, which no update
    rule reads, and an exact-mode Nash gap reuses its row of the report
    instead of evaluating the policy again.  Every exact evaluation of the
    run, best responses included, writes its tables into one
    `exact.Scratch` that the run makes once.
    Every run's records and final policy are bit-identical to running it
    alone, and an error in one run names its index and seed.
    """
    if seeds is None:
        seed = cfg.sample_cfg.seed if cfg.sample_cfg is not None else None
        return run(env, cfg, [initial], nash_gap_every, snapshot_every,
                   on_iteration, seeds=[seed])[0]
    cfg.check()
    if len(seeds) == 0:
        raise ValueError("no run seed given: seeds is empty")
    has_env = hasattr(env, "mdp")
    mdp = env.mdp if has_env else env
    track_potential = (has_env and env.stage_potential is not None
                       and cfg.eval_mode == "exact")
    sampled = cfg.eval_mode == "sampled"
    initial = [None] * len(seeds) if initial is None else list(initial)
    if len(initial) != len(seeds):
        raise ValueError(f"{len(initial)} initial states for {len(seeds)} "
                         f"runs")

    check_step_size(mdp, cfg)
    theta, policy = _initial_state(mdp, cfg, initial)
    target = env if track_potential else mdp
    bank = _StreamBank(mdp, cfg.sample_cfg, seeds) if sampled else None
    # one scratch serves every exact evaluate and Nash-gap best response of
    # the run (a sampled run's Nash gaps evaluate one policy at a time); it
    # allocates a buffer only when a call first uses it
    scratch = Scratch(mdp, 1 if sampled else len(seeds))

    runs = np.arange(len(seeds))        # the run of each row of the tables
    rows = [[] for _ in seeds]          # per run: (step, potential, gap)
    traces = [None] * len(seeds)

    def finish(j, status):
        steps, pots, gaps = zip(*rows[runs[j]])
        traces[runs[j]] = RunTrace(
            iterations=np.arange(len(steps), dtype=np.int64),
            step_l1=np.array(steps), potential=np.array(pots),
            nash_gap=np.array(gaps), status=status,
            final_policy=_rows(policy, j),
            final_logits=_rows(theta, j) if theta is not None else None)

    for k in range(cfg.max_iters):
        if sampled:
            report = estimate_eval(mdp, policy, cfg.sample_cfg,
                                   episode_offset=k * cfg.sample_cfg.batch,
                                   bank=bank, seeds=bank.seeds)
            phis = [np.nan] * len(runs)
        else:
            report = evaluate(target, policy, want_adv_potential=False,
                              scratch=scratch)
            phis = (report.potential_mu if track_potential
                    else [np.nan] * len(runs))
        try:
            if cfg.algorithm == "inpg":
                theta = inpg_step(theta, report, cfg.eta, mdp.gamma)
                new_policy = softmax_policy(theta)
            elif cfg.algorithm == "ipg":
                theta = ipg_step(theta, report, cfg.eta, mdp.gamma, policy)
                new_policy = softmax_policy(theta)
            else:
                new_policy = mwu_step(policy, report, cfg.eta, mdp.gamma)
        except _RunError as exc:
            r = runs[exc.run]
            seed = "" if seeds[r] is None else f" (seed {seeds[r]})"
            raise ValueError(f"run {r}{seed}: {exc.detail}") from None
        steps = policy.per_agent_l1(new_policy).max(axis=-1)
        snapshot = bool(snapshot_every) and k % snapshot_every == 0
        for j, (r, step) in enumerate(zip(runs.tolist(), steps.tolist())):
            gap = np.nan
            if nash_gap_every and k % nash_gap_every == 0:
                from .verify import nash_gap as _nash_gap
                gap = _nash_gap(mdp, _rows(policy, j), report=None if sampled
                                else _report_row(report, j),
                                scratch=scratch).overall_gap
            rows[r].append((step, phis[j], gap))
            if on_iteration is not None:
                on_iteration({
                    "run": r, "iteration": k, "max_policy_step_l1": step,
                    "potential": phis[j], "nash_gap": gap,
                    "policy": policy.probs.like(policy.probs.stacked[j])
                    if snapshot else None})
        policy = new_policy
        done = steps < cfg.convergence_threshold
        if done.any():
            for j in np.flatnonzero(done):
                finish(j, "converged")
            keep = np.flatnonzero(~done)
            runs = runs[keep]
            if not runs.size:
                break
            policy = _rows(policy, keep)
            if theta is not None:
                theta = _rows(theta, keep)
            if bank is not None:
                bank.keep(keep)

    for j in range(len(runs)):
        finish(j, "max_iters")
    return traces
