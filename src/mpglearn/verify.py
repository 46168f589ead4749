"""Oracles and checkers for the theory: best responses and Nash gaps,
potential-difference checks, finite-difference gradients, the smoothness
inequality, and fixed-point residuals.

Best responses are Howard policy iteration in which every round is one
`exact.evaluate` call, so learning runs, Nash gaps and environment
verification share a single evaluation core.  All checkers are pure
functions of their inputs; per-agent best responses may run in parallel
without changing results.
"""

from dataclasses import dataclass

import numpy as np

from .core import JointPolicy, Logits, softmax_policy
from .exact import (Scratch, backup, evaluate, joint_policy_table,
                    mismatch_bound)


@dataclass(frozen=True)
class NashReport:
    """Best-response gaps V_i^BR(s) - V_i^pi(s), per agent and state.

    overall_gap maximizes over agents and states (the strong, per-state
    notion); mu_gap weights states by the initial distribution.  Gaps are
    nonnegative up to solver tolerance.
    """
    gaps: np.ndarray            # (n_agents, n_states)
    overall_gap: float
    mu_gap: float
    epsilon: float | None = None

    @property
    def satisfies_epsilon(self):
        if self.epsilon is None:
            return None
        return self.overall_gap <= self.epsilon


@dataclass(frozen=True)
class SmoothnessReport:
    lhs: float
    rhs: float
    gradient_term: float
    quadratic_term: float
    weighted_norm_sq: float     # displacement norm under the d*pi weighting
    lipschitz: float
    ratio_min: float
    ratio_max: float
    ratio_lower_bound: float
    ratio_upper_bound: float
    ratios_ok: bool

    @property
    def passed(self):
        return self.lhs <= self.rhs + 1e-9


def best_response(mdp, policy, agent, tol=1e-12, max_rounds=500,
                  scratch=None):
    """Optimal deterministic reply of one agent against the others.

    Howard policy iteration on the induced single-agent MDP: each round runs
    `evaluate` on the policy with the agent's table replaced by its current
    deterministic reply, then improves greedily on the agent's marginal Q.
    The returned values are simultaneously optimal for every starting state,
    with Bellman residual below `tol`.  Ties break toward the lowest action
    index.  `scratch`, an `exact.Scratch` of the MDP (one is made when none
    is given), serves every round.
    """
    scratch = Scratch(mdp) if scratch is None else scratch
    S, A_i = mdp.n_states, mdp.n_actions[agent]
    rows = np.arange(S)
    act = np.zeros(S, dtype=np.int64)
    for _ in range(max_rounds):
        rep = evaluate(mdp, policy.replace_agent(agent, np.eye(A_i)[act]),
                       agents=[agent], scratch=scratch)
        v, q = rep.v[agent], rep.q_marginal[agent]
        greedy = np.argmax(q, axis=1)
        improved = q[rows, greedy] > q[rows, act] + tol
        if not improved.any():
            residual = np.abs(q.max(axis=1) - v).max()
            if residual > 100 * max(tol, 1e-14):
                raise ArithmeticError(f"best response residual {residual}")
            return act, v
        act = np.where(improved, greedy, act)
    raise ArithmeticError("policy iteration failed to settle")


def exhaustive_best_response_value(mdp, policy, agent):
    """Max over all deterministic policies of the agent's value vector.

    Brute-force oracle for best_response; exponential in the state count, so
    only usable on tiny instances.
    """
    from itertools import product as iproduct
    S, A_i = mdp.n_states, mdp.n_actions[agent]
    best = np.full(S, -np.inf)
    for assignment in iproduct(range(A_i), repeat=S):
        table = np.zeros((S, A_i))
        table[np.arange(S), assignment] = 1.0
        v = evaluate(mdp, policy.replace_agent(agent, table),
                     agents=[agent]).v[agent]
        best = np.maximum(best, v)
    return best


def nash_gap(mdp, policy, epsilon=None, report=None, scratch=None):
    """Best-response improvement available to each agent at each state.

    `report`, when given, must be an exact evaluation of `policy` with every
    agent active (an Environment's report serves as well); its values and
    marginal advantages stand in for a fresh `evaluate` call.  The Bellman
    residual is checked either way.  `scratch`, an `exact.Scratch` of the
    MDP (one is made when none is given), serves that call and every best
    response.
    """
    scratch = Scratch(mdp) if scratch is None else scratch
    rep = evaluate(mdp, policy, scratch=scratch) if report is None else report
    # q_marginal = r + gamma P V: the mean advantage is the Bellman residual
    residual = np.abs((policy.probs.stacked * rep.adv_marginal.stacked)
                      .sum(axis=-1)).max()
    if residual > 1e-8:
        raise ArithmeticError(f"value solve residual {residual}")
    gaps = np.empty((mdp.n_agents, mdp.n_states))
    for i in range(mdp.n_agents):
        _, v_br = best_response(mdp, policy, i, scratch=scratch)
        gaps[i] = v_br - rep.v[i]
    return NashReport(gaps=gaps, overall_gap=float(gaps.max()),
                      mu_gap=float((gaps @ mdp.mu).max()), epsilon=epsilon)


def check_potential(env, trials=100, seed=0, rng=None):
    """Largest |delta Phi - delta V_i| over random unilateral deviations.

    Base profiles are drawn from the environment's certified class (see the
    environments module docstring); the deviating agent's replacement policy
    is unrestricted.  Both differences are evaluated exactly at every state.
    """
    if env.stage_potential is None:
        raise ValueError(f"environment {env.label!r} has no stage potential")
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    mdp = env.mdp
    worst = 0.0
    for _ in range(trials):
        base = env.sample_base_profile(rng)
        i = int(rng.integers(mdp.n_agents))
        deviation = rng.dirichlet(np.ones(mdp.n_actions[i]), size=mdp.n_states)
        changed = base.replace_agent(i, deviation)
        rep_a = evaluate(env, base, agents=[i])
        rep_b = evaluate(env, changed, agents=[i])
        mismatch = np.abs((rep_b.potential - rep_a.potential)
                          - (rep_b.v[i] - rep_a.v[i])).max()
        worst = max(worst, float(mismatch))
    return worst


def finite_diff_grad(f, logits, h=1e-5):
    """Central differences of a scalar field over logits, per coordinate."""
    if h <= 0:
        raise ValueError("h must be positive")
    grads = []
    for i, t in enumerate(logits.theta):
        g = np.zeros_like(t)
        for s in range(t.shape[0]):
            for a in range(t.shape[1]):
                bump = [u.copy() for u in logits.theta]
                bump[i] = bump[i].copy()
                bump[i][s, a] += h
                up = f(Logits(bump, validate=False))
                bump[i][s, a] -= 2 * h
                down = f(Logits(bump, validate=False))
                if not (np.isfinite(up) and np.isfinite(down)):
                    raise ArithmeticError(
                        f"non-finite field value at agent {i}, ({s}, {a})")
                g[s, a] = (up - down) / (2 * h)
        grads.append(g)
    return grads


def value_gradients(mdp, logits, report=None):
    """Closed-form softmax policy gradients of each agent's own value at mu.

        dV_i/dtheta_{i,s,a} = d(s) * pi_i(a|s) * advbar_i(s,a) / (1 - gamma)
    """
    policy = softmax_policy(logits)
    if report is None:
        report = evaluate(mdp, policy)
    scale = 1.0 / (1.0 - mdp.gamma)
    return [scale * report.visitation[:, None] * policy.probs[i]
            * report.adv_marginal[i] for i in range(mdp.n_agents)]


def potential_gradients(env, logits, report=None):
    """Closed-form gradient of the potential objective at mu.

    Uses the potential's own marginal advantages, so it is the true gradient
    of Phi for any environment with a stage potential, whether or not the
    game is an exact potential game over the policies at hand.
    """
    policy = softmax_policy(logits)
    if report is None:
        report = evaluate(env, policy)
    scale = 1.0 / (1.0 - env.mdp.gamma)
    return [scale * report.visitation[:, None] * policy.probs[i]
            * report.adv_potential[i] for i in range(env.mdp.n_agents)]


def check_smoothness(env, theta, theta_tilde, eta, mismatch_upper=None):
    """Evaluate the descent-style smoothness inequality between two logit points.

        -Phi(tilde) <= -Phi(theta) + <-grad Phi(theta), tilde - theta>
                       + (L/2) * ||tilde - theta||^2_D

    with D the diagonal d(s)*pi_i(a|s) weighting at theta and
    L = 27 n^2 A_max^2 M / (1-gamma)^3.  Requires the displacement hypothesis
    ||tilde - theta||_inf <= eta / (1-gamma); also reports the policy ratio
    bounds 1 - 2eta/(1-gamma) <= pi_theta/pi_tilde <= 1 + 4eta/(1-gamma).
    """
    mdp = env.mdp
    box = eta / (1.0 - mdp.gamma)
    for i, (t, u) in enumerate(zip(theta.theta, theta_tilde.theta)):
        over = np.abs(u - t) > box + 1e-15
        if over.any():
            s, a = np.unravel_index(int(np.argmax(over)), t.shape)
            raise ValueError(
                f"displacement hypothesis violated at agent {i}, state {s}, "
                f"action {a}: |delta| = {abs(u[s, a] - t[s, a])!r} > {box!r}")
    if mismatch_upper is None:
        bound = mismatch_bound(mdp)
        if bound.upper is None:
            raise ValueError("mismatch bound unavailable: " + bound.note)
        mismatch_upper = bound.upper
    n, amax, gamma = mdp.n_agents, mdp.a_max(), mdp.gamma
    lipschitz = 27.0 * n ** 2 * amax ** 2 * mismatch_upper / (1 - gamma) ** 3

    pol = softmax_policy(theta)
    pol_t = softmax_policy(theta_tilde)
    rep = evaluate(env, pol)
    rep_t = evaluate(env, pol_t, agents=[])
    grads = potential_gradients(env, theta, report=rep)

    gradient_term = 0.0
    norm_sq = 0.0
    for i in range(n):
        delta = theta_tilde.theta[i] - theta.theta[i]
        gradient_term += float((-grads[i] * delta).sum())
        weight = rep.visitation[:, None] * pol.probs[i]
        norm_sq += float((weight * delta ** 2).sum())
    lhs = -rep_t.potential_mu
    quadratic = 0.5 * lipschitz * norm_sq
    rhs = -rep.potential_mu + gradient_term + quadratic

    ratio_min, ratio_max = np.inf, -np.inf
    for p, q in zip(pol.probs, pol_t.probs):
        r = p / q
        ratio_min = min(ratio_min, float(r.min()))
        ratio_max = max(ratio_max, float(r.max()))
    lo = 1.0 - 2.0 * box
    hi = 1.0 + 4.0 * box
    ratios_ok = bool(ratio_min >= lo - 1e-12 and ratio_max <= hi + 1e-12)
    return SmoothnessReport(
        lhs=lhs, rhs=rhs, gradient_term=gradient_term, quadratic_term=quadratic,
        weighted_norm_sq=norm_sq, lipschitz=lipschitz, ratio_min=ratio_min,
        ratio_max=ratio_max, ratio_lower_bound=lo, ratio_upper_bound=hi,
        ratios_ok=ratios_ok)


def fixed_point_residual(mdp, policy, report=None):
    """max over (agent, state, action) of min(pi_i(a|s), |advbar_i(s,a)|).

    Zero exactly at the multiplicative-weights fixed points, where every
    action either has no mass or no advantage.
    """
    if report is None:
        report = evaluate(mdp, policy)
    return float(np.minimum(policy.probs.stacked,
                            np.abs(report.adv_marginal.stacked)).max())


# --- composite verification ----------------------------------------------------

@dataclass
class VerificationReport:
    lines: list
    passed: bool

    def text(self):
        state = "PASS" if self.passed else "FAIL"
        return "\n".join(self.lines + [f"overall: {state}"]) + "\n"


def _certified_logits(env, rng):
    """Random logits whose softmax lies in the environment's certified class."""
    base = env.sample_base_profile(rng)
    return Logits([np.log(np.clip(p, 1e-12, None)) for p in base.probs],
                  validate=False)


def verify_environment(env, seed=0, potential_trials=100, gradient_points=3,
                       smoothness_pairs=20, tol_potential=1e-9,
                       tol_gradient=1e-9):
    """Run every applicable checker against an environment and collect a report.

    Checks: the potential difference identity on certified profiles, the
    gradient identity for Phi and V_i, the smoothness inequality with ratio
    bounds, and (on tiny instances) a brute-force cross-check of the
    best-response values.  Returns a VerificationReport whose `passed` flag
    is suitable for a process exit status.

    The gradient identity compares the closed-form gradients, at each of
    `gradient_points` certified logits and along a random direction delta
    on each agent in turn, with the exact directional derivative

        sum_{s,a} d(s) djt(s,a) (stage(s,a) + gamma (P V)(s,a)) / (1 - gamma)

    for V_i and for Phi, where djt is the joint table with that agent's
    policy replaced by its derivative pi * (delta - <pi, delta>); the error
    is relative to max(1, |derivative|).  It takes no differences, so it
    holds to round-off at every instance size.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    mdp = env.mdp
    lines = [f"environment: {env.label}"]
    ok = True

    if env.stage_potential is None:
        lines.append("potential identity: skipped (no stage potential)")
    else:
        dev = check_potential(env, trials=potential_trials, rng=rng)
        good = dev <= tol_potential
        ok &= good
        lines.append(f"potential identity: max |dPhi - dV| = {dev:.3e} over "
                     f"{potential_trials} deviations "
                     f"[{'ok' if good else 'FAIL'}]")

    if env.stage_potential is not None:
        worst = 0.0
        for _ in range(gradient_points):
            theta = _certified_logits(env, rng)
            policy = softmax_policy(theta)
            rep = evaluate(env, policy)
            closed_v = value_gradients(mdp, theta, report=rep)
            closed_p = potential_gradients(env, theta, report=rep)
            for i in range(mdp.n_agents):
                delta = rng.normal(size=closed_v[i].shape)
                p = policy.probs[i]
                dp = p * (delta - (p * delta).sum(axis=1, keepdims=True))
                djt = joint_policy_table(mdp, JointPolicy(
                    policy.probs[:i] + (dp,) + policy.probs[i + 1:],
                    validate=False))
                for stage, values, closed in (
                        (mdp.rewards[i], rep.v[i], closed_v[i]),
                        (env.stage_potential, rep.potential, closed_p[i])):
                    q = backup(mdp, stage, values)
                    exact = float(rep.visitation @ (djt * q).sum(axis=1)
                                  / (1.0 - mdp.gamma))
                    err = abs(exact - float((closed * delta).sum()))
                    worst = max(worst, err / max(1.0, abs(exact)))
        good = worst <= tol_gradient
        ok &= good
        lines.append(f"gradient identity: max relative error = {worst:.3e} "
                     f"over {gradient_points} points [{'ok' if good else 'FAIL'}]")

    bound = mismatch_bound(mdp)
    if env.stage_potential is not None and bound.upper is not None:
        eta = 0.9 * (1 - mdp.gamma) ** 3 / (27 * mdp.n_agents ** 2
                                            * mdp.a_max() ** 2 * bound.upper)
        box = eta / (1 - mdp.gamma)
        fails = 0
        for _ in range(smoothness_pairs):
            theta = _certified_logits(env, rng)
            delta = [rng.uniform(-box, box, size=t.shape) for t in theta.theta]
            tilde = Logits([t + d for t, d in zip(theta.theta, delta)],
                           validate=False)
            rep = check_smoothness(env, theta, tilde, eta,
                                   mismatch_upper=bound.upper)
            if not (rep.passed and rep.ratios_ok):
                fails += 1
        good = fails == 0
        ok &= good
        lines.append(f"smoothness inequality: {smoothness_pairs - fails}/"
                     f"{smoothness_pairs} pairs pass [{'ok' if good else 'FAIL'}]")
    else:
        lines.append("smoothness inequality: skipped "
                     "(no potential or mismatch bound unavailable)")

    from .exact import deterministic_policy_count
    if deterministic_policy_count(mdp) <= 4096 and mdp.n_states <= 16:
        policy = env.sample_base_profile(rng)
        worst = 0.0
        for i in range(mdp.n_agents):
            _, v_br = best_response(mdp, policy, i)
            v_enum = exhaustive_best_response_value(mdp, policy, i)
            worst = max(worst, float(np.abs(v_br - v_enum).max()))
        good = worst <= 1e-9
        ok &= good
        lines.append(f"best response vs enumeration: max |diff| = {worst:.3e} "
                     f"[{'ok' if good else 'FAIL'}]")
    else:
        lines.append("best response vs enumeration: skipped (instance too large)")

    return VerificationReport(lines=lines, passed=bool(ok))
