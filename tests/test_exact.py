"""Exact evaluation against independent oracles: truncated-horizon chain
sums, exhaustive enumeration, and closed-form special cases."""

import copy
import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import linalg

import mpglearn as m
from mpglearn import exact
from mpglearn.exact import joint_policy_table

from conftest import (assert_same_bytes, chain_of, pairwise_mismatch,
                      random_mdp, random_policy, sparse_mdp, transition_matrix,
                      truncated_values, truncated_visitation)


def others_product(mdp, policy, agent):
    """(S, n_joint) product of every agent's policy except `agent`'s, gathered
    per joint action: the brute-force weights of a marginal expectation."""
    table = np.ones((mdp.n_states, mdp.n_joint))
    for j, p in enumerate(policy.probs):
        if j != agent:
            table *= p[:, mdp.digits[:, j]]
    return table


class TestInducedChain:
    def test_deterministic_everything_gives_unit_rows(self):
        # 2 states, 1 agent, 2 actions, deterministic swap/stay transitions
        P = np.zeros((2, 2, 2))
        P[0, 0, 1] = P[0, 1, 0] = 1.0
        P[1, 0, 0] = P[1, 1, 1] = 1.0
        mdp = m.MultiAgentMDP((2,), np.zeros((1, 2, 2)), P, 0.9,
                              np.array([1.0, 0.0]))
        pol = m.JointPolicy([np.array([[1.0, 0.0], [0.0, 1.0]])])
        p_pi = exact._chain_matrix(mdp, joint_policy_table(mdp, pol))
        assert np.array_equal(p_pi, np.array([[0.0, 1.0], [0.0, 1.0]]))

    def test_uniform_policy_averages_rows(self):
        P = np.zeros((2, 2, 2))
        P[0, 0] = (1.0, 0.0)
        P[0, 1] = (0.0, 1.0)
        P[1, 0] = P[1, 1] = (0.0, 1.0)
        mdp = m.MultiAgentMDP((2,), np.zeros((1, 2, 2)), P, 0.9,
                              np.array([1.0, 0.0]))
        pol = m.JointPolicy([np.array([[0.5, 0.5], [0.5, 0.5]])])
        p_pi = exact._chain_matrix(mdp, joint_policy_table(mdp, pol))
        assert np.allclose(p_pi[0], [0.5, 0.5], atol=1e-15)

    def test_random_instance_matches_direct_summation(self):
        mdp = random_mdp(3, (2, 2), 0.9, seed=21)
        pol = random_policy(mdp, 22)
        p_pi = exact._chain_matrix(mdp, joint_policy_table(mdp, pol))
        p_ref, r_ref = chain_of(mdp, pol)
        assert np.abs(p_pi - p_ref).max() < 1e-14
        # at gamma = 0 the values are the expected one-step rewards
        myopic = m.MultiAgentMDP(mdp.n_actions, mdp.rewards, mdp.csr,
                                 0.0, mdp.mu)
        assert np.abs(m.evaluate(myopic, pol).v - r_ref).max() < 1e-14

    @pytest.mark.parametrize("gamma, calls", [(0.0, 0), (0.5, 1)])
    def test_chains_built_only_when_read(self, monkeypatch, gamma, calls):
        # at gamma = 0 the solver reads no chain, so evaluate builds none
        built = []
        chain_matrix = exact._chain_matrix

        def counting(mdp, jt, *scratch):
            built.append(jt.shape)
            return chain_matrix(mdp, jt, *scratch)

        monkeypatch.setattr(exact, "_chain_matrix", counting)
        mdp = random_mdp(3, (2, 2), gamma, seed=23)
        pols = [random_policy(mdp, 24 + r) for r in range(3)]
        stacked = m.JointPolicy([np.stack([p.probs[i] for p in pols])
                                 for i in range(2)], validate=False)
        m.evaluate(mdp, stacked)
        assert built == [(3, 3, 4)] * calls


class TestValueFunctions:
    def test_single_state_geometric_series(self):
        mdp = m.MultiAgentMDP((1,), np.ones((1, 1, 1)), np.ones((1, 1, 1)),
                              0.99, np.ones(1))
        v = m.evaluate(mdp, m.JointPolicy([np.ones((1, 1))])).v
        assert abs(v[0, 0] - 100.0) < 1e-10

    def test_zero_rewards_zero_values(self):
        mdp = random_mdp(4, (2,), 0.95, seed=23)
        zero = m.MultiAgentMDP(mdp.n_actions, np.zeros_like(mdp.rewards),
                               mdp.csr, mdp.gamma, mdp.mu)
        v = m.evaluate(zero, random_policy(zero, 24)).v
        assert np.abs(v).max() == 0.0

    def test_random_instance_matches_truncated_sum(self):
        mdp = random_mdp(4, (2, 2), 0.9, seed=25)
        pol = random_policy(mdp, 26)
        v = m.evaluate(mdp, pol).v
        v_ref = truncated_values(mdp, pol, horizon=2000)
        assert np.abs(v - v_ref).max() < 1e-6

    def test_bellman_consistency(self):
        mdp = random_mdp(5, (2, 3), 0.93, seed=27)
        pol = random_policy(mdp, 28)
        rep = m.evaluate(mdp, pol, want_q=True)
        jt = joint_policy_table(mdp, pol)
        for i in range(mdp.n_agents):
            resid = np.abs(rep.v[i] - (jt * rep.q[i]).sum(axis=1)).max()
            assert resid < 1e-10


class TestQAndAdvantage:
    def test_gamma_zero_q_equals_reward(self):
        mdp = random_mdp(3, (2, 2), 0.0, seed=29)
        pol = random_policy(mdp, 30)
        q, _ = m.q_and_advantage(mdp, pol, agent=0)
        assert np.abs(q - mdp.rewards[0]).max() < 1e-15

    def test_single_action_agents_have_zero_advantage(self):
        mdp = random_mdp(3, (1, 1), 0.9, seed=31)
        pol = m.JointPolicy([np.ones((3, 1)), np.ones((3, 1))])
        for i in range(2):
            _, adv = m.q_and_advantage(mdp, pol, agent=i)
            assert np.abs(adv).max() < 1e-12

    def test_advantage_zero_mean_identity(self):
        mdp = random_mdp(3, (2, 3), 0.9, seed=32)
        pol = random_policy(mdp, 33)
        rep = m.evaluate(mdp, pol)
        for i in range(mdp.n_agents):
            mean = (pol.probs[i] * rep.adv_marginal[i]).sum(axis=1)
            assert np.abs(mean).max() < 1e-10

    def test_marginal_q_matches_direct_expectation(self):
        mdp = random_mdp(2, (2, 2, 2), 0.8, seed=34)
        pol = random_policy(mdp, 35)
        rep = m.evaluate(mdp, pol, want_q=True)
        i = 1
        excl = others_product(mdp, pol, i)
        for s in range(mdp.n_states):
            for a in range(mdp.n_actions[i]):
                cols = np.flatnonzero(mdp.digits[:, i] == a)
                direct = (excl[s, cols] * rep.q[i][s, cols]).sum()
                assert abs(direct - rep.q_marginal[i][s, a]) < 1e-12


def oracle_marginal(mdp, policy, table, agent):
    """Brute-force expectation of a (S, n_joint) table over the other agents."""
    weighted = others_product(mdp, policy, agent) * table
    out = np.zeros((mdp.n_states, mdp.n_actions[agent]))
    for a in range(mdp.n_actions[agent]):
        out[:, a] = weighted[:, mdp.digits[:, agent] == a].sum(axis=1)
    return out


def policy_with_zeros(mdp, rng):
    """Dirichlet rows with some entries set to exactly 0 (each row keeps its
    largest entry), renormalized."""
    probs = []
    for a in mdp.n_actions:
        p = rng.dirichlet(np.ones(a), size=mdp.n_states)
        drop = rng.uniform(size=p.shape) < 0.4
        drop[np.arange(mdp.n_states), p.argmax(axis=1)] = False
        p[drop] = 0.0
        probs.append(p / p.sum(axis=1, keepdims=True))
    return m.JointPolicy(probs)


def random_env(n_states, n_actions, seed):
    mdp = random_mdp(n_states, n_actions, 0.9, seed=seed)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 1)))
    phi = rng.uniform(0, 1, (n_states, mdp.n_joint))
    return m.Environment(mdp=mdp, stage_potential=phi, label="random")


class TestContraction:
    """Marginal Q tables and potential advantages against a brute-force
    product-of-others oracle with its own dense value solves."""

    @settings(max_examples=40, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=4),
           n_states=st.integers(1, 3), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.booleans())
    @example(n_actions=[2, 3, 1, 2], n_states=3, seed=0, zeros=True)
    @example(n_actions=[3], n_states=2, seed=1, zeros=False)
    def test_marginals_match_product_of_others(self, n_actions, n_states,
                                               seed, zeros):
        env = random_env(n_states, tuple(n_actions), seed)
        mdp = env.mdp
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 2)))
        pol = (policy_with_zeros(mdp, rng) if zeros
               else m.random_product_policy(mdp, rng))
        rep = m.evaluate(env, pol)

        S, A = mdp.n_states, mdp.n_joint
        P = transition_matrix(mdp).toarray()
        jt = np.ones((S, A))
        for i in range(mdp.n_agents):
            jt *= pol.probs[i][:, mdp.digits[:, i]]
        lhs = np.eye(S) - mdp.gamma * (jt[:, :, None] * P.reshape(S, A, S)
                                       ).sum(axis=1)
        stage = np.concatenate([mdp.rewards, env.stage_potential[None]])
        values = np.linalg.solve(lhs, (stage * jt).sum(axis=2).T).T
        q_phi = stage[-1] + mdp.gamma * (P @ values[-1]).reshape(S, A)
        for i in range(mdp.n_agents):
            q_i = stage[i] + mdp.gamma * (P @ values[i]).reshape(S, A)
            assert np.abs(rep.q_marginal[i]
                          - oracle_marginal(mdp, pol, q_i, i)).max() < 1e-12
            assert np.abs(rep.adv_potential[i] - (
                oracle_marginal(mdp, pol, q_phi, i) - values[-1][:, None])
            ).max() < 1e-12


class TestLargeInstanceBranches:
    """The splu solve, which only chains beyond DENSE_SOLVE_MAX states take,
    forced on small games and held to the dense LU."""

    @pytest.mark.parametrize("game", ["splu", "splu-routing"])
    def test_sparse_paths_match_dense(self, monkeypatch, game):
        if game == "splu":
            env = random_env(6, (2, 3, 2), seed=120)
        else:
            env = m.build_scg(m.layered_dag([2, 2]), n_agents=3, gamma=0.99,
                              reachable_only=True)
        pol = random_policy(env.mdp, 121)
        S = env.mdp.n_states
        dense = m.evaluate(env, pol, want_q=True)
        dense_gap = m.nash_gap(env.mdp, pol)
        dense_br = [m.best_response(env.mdp, pol, i)
                    for i in range(env.mdp.n_agents)]

        monkeypatch.setattr(exact, "DENSE_SOLVE_MAX", 0)
        assert exact._Solver(env.mdp, np.eye(S))._sparse is not None
        sparse = m.evaluate(env, pol, want_q=True)
        for field in ("v", "visitation", "potential", "q"):
            assert np.abs(getattr(dense, field)
                          - getattr(sparse, field)).max() < 1e-12
        for field in ("adv_marginal", "q_marginal", "adv_potential"):
            for x, y in zip(getattr(dense, field), getattr(sparse, field)):
                assert np.abs(x - y).max() < 1e-12
        gap = m.nash_gap(env.mdp, pol)
        assert np.abs(gap.gaps - dense_gap.gaps).max() < 1e-12
        for i, (act_d, v_d) in enumerate(dense_br):
            act_s, v_s = m.best_response(env.mdp, pol, i)
            assert np.array_equal(act_d, act_s)
            assert np.abs(v_d - v_s).max() < 1e-12


class TestTriangularBranch:
    """The triangular solve that upper-triangular MDPs take in place of the
    dense LU, held to lu_factor/lu_solve byte for byte, and the detection
    that selects it."""

    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 6), width=st.integers(1, 3),
           gamma=st.sampled_from([0.5, 0.99]), runs=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), zeros=st.booleans())
    @example(n_actions=[2, 3], n_states=6, width=3, gamma=0.99, runs=3,
             seed=7, zeros=True)
    def test_solves_equal_lu(self, n_actions, n_states, width, gamma, runs,
                             seed, zeros):
        mdp = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                         max_width=width, upper=True)
        assert mdp.upper_triangular
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 1)))
        pols = [policy_with_zeros(mdp, rng) if zeros
                else m.random_product_policy(mdp, rng) for _ in range(runs)]
        jt = np.stack([joint_policy_table(mdp, p) for p in pols])
        rhs = np.einsum("isa,rsa->rsi", mdp.rewards, jt)
        mu = (1.0 - gamma) * mdp.mu
        for chain, b in zip(exact._chain_matrix(mdp, jt), rhs):
            # the solver builds its matrix in the chain's buffer
            matrix = np.asfortranarray(np.eye(n_states) - gamma * chain)
            lu = linalg.lu_factor(matrix, check_finite=False)
            solver = exact._Solver(mdp, chain)
            assert solver._lu is None and solver._upper is not None
            assert solver._upper.flags.f_contiguous
            assert_same_bytes(solver._upper, matrix, "I - gamma * P")
            for got, want in [
                    (solver.solve(b), linalg.lu_solve(lu, b,
                                                      check_finite=False)),
                    (solver.solve(b[:, 0]),
                     linalg.lu_solve(lu, b[:, 0], check_finite=False)),
                    (solver.solve(mu, transposed=True),
                     linalg.lu_solve(lu, mu, trans=1, check_finite=False))]:
                assert_same_bytes(got, want, "solution")

    @staticmethod
    def game(request, name):
        if name == "scg_return":
            return m.build_scg(m.layered_dag([2, 2]), n_agents=2, gamma=0.9,
                               reachable_only=True, goal="return")
        if name == "back-edge":
            mdp = sparse_mdp(4, (2, 2), 0.9, seed=130, max_width=2,
                             upper=True)
            P = transition_matrix(mdp).toarray()
            P[3 * mdp.n_joint] = np.eye(4)[0]   # state 3 back to state 0
            return m.Environment(mdp=m.MultiAgentMDP(
                mdp.n_actions, mdp.rewards, P.reshape(4, 4, 4), mdp.gamma,
                mdp.mu), stage_potential=None, label="back-edge")
        return request.getfixturevalue(name)

    @pytest.mark.parametrize("name, upper", [
        ("scg3", True), ("distancing3", True), ("scg_return", False),
        ("distancing_return", False), ("back-edge", False)])
    def test_detection_selects_the_solve(self, request, name, upper):
        # a routing game with an absorbing goal, numbered over its reachable
        # states, is triangular, and so is distancing3, whose spread never
        # returns to safe; a return edge, a spread that can return, and one
        # back edge in a random game each close a cycle
        mdp = self.game(request, name).mdp
        assert mdp.upper_triangular is upper
        uniform = m.JointPolicy([np.full((mdp.n_states, a), 1.0 / a)
                                 for a in mdp.n_actions])
        solver = exact._Solver(mdp, exact._chain_matrix(
            mdp, joint_policy_table(mdp, uniform)))
        assert (solver._upper is not None) is upper
        assert (solver._lu is not None) is (not upper)

    @pytest.mark.parametrize("name, calls", [("scg3", 0),
                                             ("distancing_return", 3)])
    def test_lu_factor_calls(self, monkeypatch, request, name, calls):
        # a triangular game factors nothing; any other game factors each
        # run's chain once
        factored = []
        lu_factor = linalg.lu_factor

        def counting(a, *args, **kwargs):
            factored.append(a.shape)
            return lu_factor(a, *args, **kwargs)

        monkeypatch.setattr(linalg, "lu_factor", counting)
        env = self.game(request, name)
        mdp = env.mdp
        rng = np.random.Generator(np.random.Philox(key=np.uint64(131)))
        pols = [m.random_product_policy(mdp, rng) for _ in range(3)]
        stacked = m.JointPolicy([np.stack(t) for t in
                                 zip(*(p.probs for p in pols))],
                                validate=False)
        m.evaluate(env, stacked)
        assert len(factored) == calls


def reference_chain(mdp, jt):
    """The (S, S) C-ordered chain of one (S, n_joint) joint table: one
    bincount over row-major cells s*S + s' in CSR entry order."""
    S, A = mdp.n_states, mdp.n_joint
    data, indices, indptr = mdp.csr
    rows = np.repeat(np.arange(S * A), np.diff(indptr))
    return np.bincount(rows // A * S + indices,
                       weights=jt.ravel()[rows] * data,
                       minlength=S * S).reshape(S, S)


class TestSolverMatrix:
    """`_Solver` builds I - gamma * P_pi in the Fortran-ordered buffer of
    the chain `_chain_matrix` returns, with no copy: byte for byte the
    reference np.asfortranarray(np.eye(S) - gamma * P) of a row-major
    chain, on the triangular solve's path and, as the matrix that
    `lu_factor` factors in place, on the LU's."""

    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 6), width=st.integers(1, 3),
           upper=st.booleans(), gamma=st.sampled_from([0.5, 0.9, 0.99]),
           runs=st.sampled_from([1, 3]), seed=st.integers(0, 2 ** 32 - 1),
           zeros=st.booleans())
    @example(n_actions=[2, 3], n_states=5, width=3, upper=True, gamma=0.99,
             runs=3, seed=8, zeros=True)
    @example(n_actions=[2, 2], n_states=5, width=2, upper=False, gamma=0.9,
             runs=1, seed=9, zeros=False)
    def test_matrix_equals_reference(self, n_actions, n_states, width,
                                     upper, gamma, runs, seed, zeros):
        mdp = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                         max_width=min(width, n_states), upper=upper)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 1)))
        jt = np.stack([joint_policy_table(mdp, policy_with_zeros(mdp, rng)
                                          if zeros else
                                          m.random_product_policy(mdp, rng))
                       for _ in range(runs)])
        wants = [np.asfortranarray(np.eye(n_states) - gamma
                                   * reference_chain(mdp, t)) for t in jt]
        factored = []
        lu_factor = linalg.lu_factor

        def recording(a, *args, **kwargs):
            factored.append((a, a.copy(order="F"), kwargs))
            return lu_factor(a, *args, **kwargs)

        chains = exact._chain_matrix(mdp, jt)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(linalg, "lu_factor", recording)
            solvers = [exact._Solver(mdp, chain) for chain in chains]
        for chain, solver, want in zip(chains, solvers, wants):
            if mdp.upper_triangular:
                got = solver._upper
                assert np.shares_memory(got, chain)
            else:
                a, got, kwargs = factored.pop(0)
                assert np.shares_memory(a, chain) and kwargs["overwrite_a"]
                assert np.shares_memory(solver._lu[0], chain)   # in place
                assert_same_bytes(solver._lu[0], lu_factor(
                    want, check_finite=False)[0], "LU factors")
            assert got.flags.f_contiguous
            assert_same_bytes(got, want, "I - gamma * P")
        assert not factored


def reference_evaluate(target, policy, want_q=False, agents=None):
    """One policy's exact evaluation as `evaluate` computed it before it took
    a run axis: the (S, n_joint) joint table as a running outer product, the
    chain as one bincount, one `exact._Solver` for the visitation and the
    stacked value columns, one CSR product backing all columns up, and the
    marginal Q tables contracted agent by agent.  Every arithmetic step is
    the one `evaluate` takes per run, so rows must agree byte for byte.  It
    reads each agent's table as its own contiguous array, not as a view of
    the policy's stacked tensor.  At gamma = 0 it builds no solver, as
    `evaluate` builds none: d is mu and V the one-step rewards."""
    env = target if hasattr(target, "mdp") else None
    mdp = env.mdp if env is not None else target
    S, A, n = mdp.n_states, mdp.n_joint, mdp.n_agents
    active = list(range(n)) if agents is None else list(agents)
    probs = [np.ascontiguousarray(p) for p in policy.probs]

    def marginalize(table, agent):
        t = table
        for j in range(n - 1, agent, -1):
            t = t.reshape(S, -1, mdp.n_actions[j]) @ probs[j][:, :, None]
        for j in range(agent):
            t = probs[j][:, None, :] @ t.reshape(S, mdp.n_actions[j], -1)
        return t.reshape(S, mdp.n_actions[agent])

    jt = np.ones((S, 1))
    for p in reversed(probs):
        jt = (p[:, :, None] * jt[:, None, :]).reshape(S, -1)
    if mdp.gamma == 0.0:
        solver = None
        d = mdp.mu.copy()
    else:
        solver = exact._Solver(mdp,
                               np.asfortranarray(reference_chain(mdp, jt)))
        d = solver.solve((1.0 - mdp.gamma) * mdp.mu, transposed=True)

    with_potential = env is not None and env.stage_potential is not None
    rhs_cols = [np.einsum("sa,sa->s", mdp.rewards[i], jt) for i in active]
    if with_potential:
        rhs_cols.append((jt * env.stage_potential).sum(axis=1))
    v = np.zeros((n, S))
    adv = [np.zeros((S, a)) for a in mdp.n_actions]
    q_marg = [np.zeros((S, a)) for a in mdp.n_actions]
    q_all = np.zeros((n, S, A)) if want_q else None
    potential = potential_mu = adv_potential = None
    if rhs_cols:
        sol = np.stack(rhs_cols, axis=1)
        if solver is not None:
            sol = solver.solve(sol)
        nxt = (transition_matrix(mdp) @ sol).reshape(S, A, len(rhs_cols))
        for k, i in enumerate(active):
            v[i] = sol[:, k]
            q_i = mdp.gamma * nxt[:, :, k]
            q_i += mdp.rewards[i]
            if want_q:
                q_all[i] = q_i
            q_marg[i] = marginalize(q_i, i)
            adv[i] = q_marg[i] - v[i][:, None]
        if with_potential:
            potential = sol[:, -1]
            potential_mu = float(mdp.mu @ potential)
            q_phi = mdp.gamma * nxt[:, :, -1]
            q_phi += env.stage_potential
            adv_potential = tuple(marginalize(q_phi, i) - potential[:, None]
                                  for i in range(n))
    return m.EvalReport(
        v=v, adv_marginal=tuple(adv), visitation=d, q=q_all,
        q_marginal=tuple(q_marg), potential=potential,
        potential_mu=potential_mu, adv_potential=adv_potential)


def assert_report_bytes(got, want):
    """Every field of `got` equals `want` byte for byte, in shape and type."""
    for field in ("v", "visitation", "q", "potential"):
        x, y = getattr(got, field), getattr(want, field)
        assert (x is None) == (y is None), field
        if y is not None:
            assert_same_bytes(x, y, field)
    for field in ("adv_marginal", "q_marginal", "adv_potential"):
        xs, ys = getattr(got, field), getattr(want, field)
        assert (xs is None) == (ys is None), field
        for x, y in zip(xs or (), ys or ()):
            assert_same_bytes(x, y, field)
    assert type(got.potential_mu) is type(want.potential_mu)
    assert repr(got.potential_mu) == repr(want.potential_mu)


class TestRunAxis:
    """`evaluate` on (R, S, A_i) tables: row r is reference_evaluate of run
    r's own tables, byte for byte in every field, and (S, A_i) tables are
    the R = 1 case."""

    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 4), width=st.integers(1, 3),
           gamma=st.sampled_from([0.0, 0.5, 0.99]), runs=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1), zeros=st.booleans(),
           with_potential=st.booleans(), want_q=st.booleans(),
           subset=st.booleans(), dense_solve=st.booleans(),
           want_adv_potential=st.booleans())
    @example(n_actions=[2, 3], n_states=3, width=2, gamma=0.99, runs=3,
             seed=5, zeros=True, with_potential=True, want_q=True,
             subset=False, dense_solve=True, want_adv_potential=True)
    @example(n_actions=[3, 1, 2], n_states=4, width=3, gamma=0.5, runs=4,
             seed=6, zeros=False, with_potential=True, want_q=False,
             subset=True, dense_solve=False, want_adv_potential=False)
    def test_rows_equal_reference(self, n_actions, n_states,
                                  width, gamma, runs, seed, zeros,
                                  with_potential, want_q, subset,
                                  dense_solve, want_adv_potential):
        mdp = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                         max_width=min(width, n_states))
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 1)))
        target = mdp
        if with_potential:
            target = m.Environment(
                mdp=mdp, stage_potential=rng.uniform(
                    0, 1, (n_states, mdp.n_joint)), label="random")
        agents = None
        if subset:
            agents = [int(i) for i in rng.permutation(mdp.n_agents)[
                :rng.integers(0, mdp.n_agents + 1)]]
        pols = [policy_with_zeros(mdp, rng) if zeros
                else m.random_product_policy(mdp, rng) for _ in range(runs)]
        with pytest.MonkeyPatch.context() as patch:
            if not dense_solve:
                patch.setattr(exact, "DENSE_SOLVE_MAX", 0)
            stacked = m.evaluate(target, m.JointPolicy(
                [np.stack(t) for t in zip(*(p.probs for p in pols))],
                validate=False), want_q=want_q, agents=agents,
                want_adv_potential=want_adv_potential)
            alone = [m.evaluate(target, p, want_q=want_q, agents=agents,
                                want_adv_potential=want_adv_potential)
                     for p in pols]
            want = [reference_evaluate(target, p, want_q=want_q,
                                       agents=agents) for p in pols]
        if not want_adv_potential:
            want = [dataclasses.replace(w, adv_potential=None) for w in want]
        assert stacked.v.shape == (runs, mdp.n_agents, n_states)
        assert (stacked.potential_mu is None) == (not with_potential)
        for r in range(runs):
            row = m.EvalReport(
                v=stacked.v[r],
                adv_marginal=tuple(a[r] for a in stacked.adv_marginal),
                visitation=stacked.visitation[r],
                q=None if stacked.q is None else stacked.q[r],
                q_marginal=tuple(a[r] for a in stacked.q_marginal),
                potential=(None if stacked.potential is None
                           else stacked.potential[r]),
                potential_mu=(None if stacked.potential_mu is None
                              else stacked.potential_mu[r]),
                adv_potential=(None if stacked.adv_potential is None else
                               tuple(a[r] for a in stacked.adv_potential)))
            assert_report_bytes(row, want[r])
            assert_report_bytes(alone[r], want[r])


class TestBackup:
    """`exact.backup` sums P V as scipy's CSR product does: byte for byte
    `transition_matrix(mdp) @ V`, on rows of one to three entries, deterministic
    or stochastic, with probabilities scaled off 1 as well, on one or three
    value rows of both signs and both zeros."""

    values = st.one_of(st.sampled_from([0.0, -0.0]),
                       st.floats(-1e3, 1e3, allow_nan=False))

    @settings(max_examples=100, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 6), width=st.integers(1, 3),
           gamma=st.sampled_from([0.0, 0.5, 0.99]),
           scale=st.sampled_from([1.0, 0.3]), runs=st.sampled_from([1, 3]),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    @example(n_actions=[2], n_states=2, width=1, gamma=0.5, scale=1.0,
             runs=1, seed=0, data=None)
    def test_equals_csr_product(self, n_actions, n_states, width, gamma,
                                scale, runs, seed, data):
        width = min(width, n_states)
        base = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                          max_width=width)
        probs, indices, indptr = base.csr
        if width == 1:          # Dirichlet rows of one entry may miss 1.0
            probs = np.ones_like(probs)
        mdp = m.MultiAgentMDP(base.n_actions, base.rewards,
                              (scale * probs, indices, indptr), gamma,
                              base.mu, validate=False)
        if width == 1:          # both back-up paths are taken
            assert mdp.deterministic == (scale == 1.0)
        shape, table = (runs, n_states), (n_states, mdp.n_joint)
        if data is None:        # every value -0.0: P V is +0.0 throughout
            V, stage = np.full(shape, -0.0), np.full(table, -0.0)
        else:
            V = data.draw(arrays(float, shape, elements=self.values))
            stage = data.draw(arrays(float, table, elements=self.values))
        # gamma = 1 and a stage of -0.0 leave P V as it is
        unit = m.MultiAgentMDP(mdp.n_actions, mdp.rewards, mdp.csr, 1.0,
                               mdp.mu, validate=False)
        assert_same_bytes(
            exact.backup(unit, np.full(table, -0.0), V).reshape(runs, -1),
            np.ascontiguousarray((transition_matrix(mdp) @ V.T).T), "P V")
        # stage + gamma * P V, as the CSR product was scaled and added
        want = np.zeros((runs,) + table)
        if gamma:
            want[...] = (transition_matrix(mdp) @ V.T).T.reshape(want.shape)
            want *= gamma
        want += stage
        scratch = exact.Scratch(mdp, runs)
        got = exact.backup(mdp, stage, V, scratch)
        assert np.shares_memory(got, scratch.view("q", got.shape))
        assert_same_bytes(got, want, "stage + gamma * P V")
        assert_same_bytes(exact.backup(mdp, stage, V), want, "no scratch")
        assert_same_bytes(exact.backup(mdp, stage, V[0]), want[0],
                          "one value row")

    def test_entry_ranks(self):
        mdp = sparse_mdp(4, (2,), 0.9, seed=3, max_width=3)
        _, _, indptr = mdp.csr
        lengths = np.diff(indptr)
        assert not mdp.deterministic
        assert len(mdp.entry_ranks) == lengths.max()
        for k, (rows, entries) in enumerate(mdp.entry_ranks):
            assert_same_bytes(rows, np.flatnonzero(lengths > k), "rows")
            assert np.array_equal(entries, indptr[rows] + k)


class TestScratch:
    """`evaluate` with an `exact.Scratch` gives the report it gives
    without one, byte for byte, and that report shares no memory with the
    scratch: a second call leaves the first report as it was."""

    @staticmethod
    def stacked(pols):
        return m.JointPolicy([np.stack(t) for t in zip(*(p.probs for p in
                                                        pols))],
                             validate=False)

    @settings(max_examples=40, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 4), width=st.integers(1, 3),
           gamma=st.sampled_from([0.0, 0.5, 0.99]), runs=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), want_q=st.booleans(),
           dense_solve=st.booleans())
    def test_consecutive_calls_equal_fresh_ones(self, n_actions, n_states,
                                                width, gamma, runs, seed,
                                                want_q, dense_solve):
        mdp = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                         max_width=min(width, n_states))
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 1)))
        env = m.Environment(mdp=mdp, stage_potential=rng.uniform(
            0, 1, (n_states, mdp.n_joint)), label="random")
        scratch = exact.Scratch(mdp, runs + 1)
        firsts, seconds = ([m.random_product_policy(mdp, rng)
                            for _ in range(runs)] for _ in range(2))
        with pytest.MonkeyPatch.context() as patch:
            if not dense_solve:
                patch.setattr(exact, "DENSE_SOLVE_MAX", 0)
            calls = []
            for pols in (firsts, seconds):
                policy = self.stacked(pols) if runs > 1 else pols[0]
                calls.append((
                    m.evaluate(env, policy, want_q=want_q, scratch=scratch),
                    m.evaluate(env, policy, want_q=want_q)))
                if len(calls) == 1:
                    first = copy.deepcopy(calls[0][0])
        for got, want in calls:
            assert_report_bytes(got, want)
        assert_report_bytes(calls[0][0], first)
        for field in dataclasses.fields(first):
            x = getattr(calls[0][0], field.name)
            x = getattr(x, "stacked", x)
            if isinstance(x, np.ndarray):
                assert not any(np.shares_memory(x, buf) for buf in
                               scratch._buffers.values()), field.name

    def test_chain_gathers_without_copying_its_index(self):
        # np.take copies a read-only index array on every call; the
        # scratch's writable copy of the entry rows is made on the first
        mdp = sparse_mdp(300, (3, 3, 3, 2), 0.9, seed=5, max_width=3)
        assert not mdp.deterministic
        jt = joint_policy_table(mdp, m.random_product_policy(
            mdp, np.random.default_rng(0)))
        scratch = exact.Scratch(mdp)
        first = exact._chain_matrix(mdp, jt, scratch).copy()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            second = exact._chain_matrix(mdp, jt, scratch)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert_same_bytes(second, first)
        assert peak < scratch.rows().nbytes / 10

    def test_runs_and_mdp_checked(self, scg2):
        mdp = scg2.mdp
        policy = m.random_product_policy(mdp, np.random.default_rng(0))
        pair = self.stacked([policy, policy])
        with pytest.raises(ValueError, match="made for 1 runs has no room"):
            m.evaluate(mdp, pair, scratch=exact.Scratch(mdp))
        other = m.build_scg(m.parallel_dag([1.0, 0.5]), n_agents=2).mdp
        with pytest.raises(ValueError, match="another MDP"):
            m.evaluate(mdp, policy, scratch=exact.Scratch(other))


class TestEvalReportInvariants:
    """eval_report_violations finds nothing wrong with exact reports on
    random games with 1-4 successors per transition row."""

    @settings(max_examples=40, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 4), width=st.integers(1, 4),
           gamma=st.sampled_from([0.0, 0.5, 0.99]),
           seed=st.integers(0, 2 ** 32 - 1), zeros=st.booleans())
    def test_exact_reports_have_no_violations(self, n_actions, n_states,
                                              width, gamma, seed, zeros):
        mdp = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                         max_width=min(width, n_states))
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed + 1)))
        pol = (policy_with_zeros(mdp, rng) if zeros
               else m.random_product_policy(mdp, rng))
        assert m.eval_report_violations(m.evaluate(mdp, pol), pol, mdp) == []


class TestVisitation:
    def test_single_state(self):
        mdp = m.MultiAgentMDP((1,), np.ones((1, 1, 1)), np.ones((1, 1, 1)),
                              0.99, np.ones(1))
        d = m.visitation(mdp, m.JointPolicy([np.ones((1, 1))]))
        assert abs(d[0] - 1.0) < 1e-12

    def test_gamma_zero_recovers_mu(self):
        mdp = random_mdp(4, (2,), 0.0, seed=36)
        d = m.visitation(mdp, random_policy(mdp, 37))
        assert np.abs(d - mdp.mu).max() < 1e-14

    def test_random_chain_matches_truncated_sum(self):
        mdp = random_mdp(5, (2,), 0.9, seed=38)
        pol = random_policy(mdp, 39)
        d = m.visitation(mdp, pol)
        d_ref = truncated_visitation(mdp, pol, horizon=2000)
        assert np.abs(d - d_ref).max() < 1e-6

    def test_visitation_floor_and_normalization(self):
        mdp = random_mdp(5, (2, 2), 0.95, seed=40)
        pol = random_policy(mdp, 41)
        rep = m.evaluate(mdp, pol)
        assert m.eval_report_violations(rep, pol, mdp) == []
        assert np.all(rep.visitation >= (1 - mdp.gamma) * mdp.mu - 1e-10)

    def test_names_the_agent_whose_advantages_have_a_mean(self):
        mdp = random_mdp(3, (2, 3), 0.9, seed=42)
        pol = random_policy(mdp, 43)
        rep = m.evaluate(mdp, pol)
        shifted = dataclasses.replace(rep, adv_marginal=[
            rep.adv_marginal[0], rep.adv_marginal[1] + 0.5])
        problems = m.eval_report_violations(shifted, pol, mdp)
        assert len(problems) == 1
        assert problems[0].startswith("agent 1: advantage mean 0.5")


class TestPotentialValue:
    def test_gamma_zero_single_state_is_stage_expectation(self):
        mdp = random_mdp(1, (2, 2), 0.0, seed=42)
        phi_table = np.random.Generator(
            np.random.Philox(key=np.uint64(43))).uniform(0, 1, (1, 4))
        env = m.Environment(mdp=mdp, stage_potential=phi_table, label="toy")
        pol = random_policy(mdp, 44)
        jt = joint_policy_table(mdp, pol)
        phi_s, phi_mu = m.potential_value(env, pol)
        assert abs(phi_s[0] - (jt * phi_table).sum()) < 1e-14
        assert abs(phi_mu - phi_s[0]) < 1e-14

    def test_single_agent_single_edge_costs_c_at_start(self):
        env = m.build_scg(m.parallel_dag([0.75]), n_agents=1, gamma=0.99)
        pol = m.JointPolicy([np.ones((env.mdp.n_states, 1))])
        phi_s, _ = m.potential_value(env, pol)
        start = env.mdp.state_labels.index(("s",))
        assert abs(phi_s[start] - 0.75) < 1e-12

    def test_one_shot_congestion_matches_rosenthal_enumeration(self):
        env = m.build_scg(m.parallel_dag([1.0, 0.6]), n_agents=2, gamma=0.0)
        mdp = env.mdp
        pol = random_policy(mdp, 45)
        start = mdp.state_labels.index(("s", "s"))
        c = {0: [1.0, 0.5], 1: [0.6, 0.3]}  # inverse_load tables
        expected = 0.0
        for a0 in range(2):
            for a1 in range(2):
                prob = pol.probs[0][start, a0] * pol.probs[1][start, a1]
                if a0 == a1:
                    rosenthal = c[a0][0] + c[a0][1]
                else:
                    rosenthal = c[a0][0] + c[a1][0]
                expected += prob * rosenthal
        phi_s, _ = m.potential_value(env, pol)
        assert abs(phi_s[start] - expected) < 1e-12

    def test_missing_potential_rejected(self):
        mdp = random_mdp(2, (2,), 0.9, seed=46)
        env = m.Environment(mdp=mdp, stage_potential=None, label="bare")
        with pytest.raises(ValueError, match="stage potential"):
            m.potential_value(env, random_policy(mdp, 47))


class TestPerformanceDifference:
    def test_unilateral_deviation_matches_value_change(self, scg3):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(48)))
        for trial in range(10):
            base = scg3.sample_base_profile(rng)
            i = int(rng.integers(scg3.mdp.n_agents))
            dev = rng.dirichlet(np.ones(scg3.mdp.n_actions[i]),
                                size=scg3.mdp.n_states)
            changed = base.replace_agent(i, dev)
            ra = m.evaluate(scg3, base, agents=[i])
            rb = m.evaluate(scg3, changed, agents=[i])
            gap = np.abs((rb.potential - ra.potential)
                         - (rb.v[i] - ra.v[i])).max()
            assert gap < 1e-9


class TestMismatchBound:
    def test_single_state(self):
        mdp = m.MultiAgentMDP((1,), np.ones((1, 1, 1)), np.ones((1, 1, 1)),
                              0.99, np.ones(1))
        b = m.mismatch_bound(mdp)
        assert abs(b.upper - 100.0) < 1e-12
        assert abs(m.enumerated_mismatch(mdp) - 1.0) < 1e-12

    def test_gamma_zero_all_policies_share_mu(self):
        mdp = random_mdp(2, (2,), 0.0, seed=49)
        assert abs(m.enumerated_mismatch(mdp) - 1.0) < 1e-12

    def test_two_state_enumeration_below_upper(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(50)))
        P = rng.dirichlet(np.ones(2), size=(2, 2))
        rewards = rng.uniform(0, 1, (1, 2, 2))
        mdp = m.MultiAgentMDP((2,), rewards, P, 0.9, np.array([0.5, 0.5]))
        b = m.mismatch_bound(mdp)
        assert b.upper == pytest.approx(1.0 / (0.1 * 0.5))
        ratio = m.enumerated_mismatch(mdp)
        assert ratio <= b.upper + 1e-12
        # the enumerated value is a genuine visitation ratio
        assert ratio >= 1.0

    def test_unavailable_when_reachable_state_has_zero_mass(self):
        P = np.zeros((2, 1, 2))
        P[0, 0, 1] = 1.0
        P[1, 0, 1] = 1.0
        mdp = m.MultiAgentMDP((1,), np.zeros((1, 2, 1)), P, 0.9,
                              np.array([1.0, 0.0]))
        b = m.mismatch_bound(mdp)
        assert b.upper is None
        assert "mu = 0" in b.note

    def test_analytic_bound_evaluates_no_policy(self, monkeypatch):
        games = [
            m.build_scg(m.parallel_dag([1.0, 0.5]), n_agents=2, gamma=0.9),
            m.build_scg(m.parallel_dag([1.0, 1.0]), n_agents=2, gamma=0.0,
                        mu="uniform", reachable_only=True),
            m.build_scg(m.layered_dag([2]), n_agents=2, gamma=0.5,
                        mu="uniform", reachable_only=True),
            m.build_distancing(m.DistancingParams(
                n_agents=3, n_facilities=2, weights=(0.1, 0.25), penalty=0.4,
                spread_trigger=2, return_trigger=1, gamma=0.9), mu="uniform"),
            m.build_cooperative(2, 3, 2, gamma=0.9, seed=106),
        ]

        def no_evaluate(*args, **kwargs):
            raise AssertionError("mismatch_bound evaluated a policy")

        monkeypatch.setattr(exact, "evaluate", no_evaluate)
        bounds = [m.mismatch_bound(env.mdp) for env in games]
        assert bounds[0].upper is None
        assert all(b.upper is not None for b in bounds[1:])

    def test_enumeration_refuses_more_than_4096_policies(self):
        mdp = random_mdp(13, (2,), 0.9, seed=51)
        with pytest.raises(ValueError, match="8192 deterministic policies"):
            m.enumerated_mismatch(mdp)

    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           n_states=st.integers(1, 3), width=st.integers(1, 3),
           gamma=st.sampled_from([0.0, 0.5, 0.9]), point_mass=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    # mu reaches only state 0, and the dense LU leaves state 1 a visitation
    # of about 1e-17 under some policies, which must not count as a visit
    @example(n_actions=[3], n_states=3, width=1, gamma=0.9, point_mass=True,
             seed=2164)
    def test_enumeration_matches_pairwise_loop(self, n_actions, n_states,
                                               width, gamma, point_mass,
                                               seed):
        mdp = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                         max_width=min(width, n_states))
        assume(exact.deterministic_policy_count(mdp) <= 256)
        if point_mass:
            mdp = m.MultiAgentMDP(mdp.n_actions, mdp.rewards,
                                  mdp.csr, gamma,
                                  np.eye(n_states)[0])
        ratio = m.enumerated_mismatch(mdp)
        assert ratio == pairwise_mismatch(mdp)
        upper = m.mismatch_bound(mdp).upper
        if upper is not None:
            assert ratio <= upper * (1 + 1e-12)


class TestGradientIdentityCooperative:
    def test_full_feedback_points_on_common_reward_game(self, coop):
        # common-reward games admit the potential for arbitrary policies,
        # so the gradient identity must hold at unrestricted random logits
        from mpglearn.verify import (finite_diff_grad, potential_gradients,
                                     value_gradients)
        mdp = coop.mdp
        rng = np.random.Generator(np.random.Philox(key=np.uint64(51)))
        for trial in range(3):
            theta = m.Logits([rng.normal(0, 1, (mdp.n_states, a))
                              for a in mdp.n_actions])
            rep = m.evaluate(coop, m.softmax_policy(theta))
            closed = value_gradients(mdp, theta, report=rep)
            closed_phi = potential_gradients(coop, theta, report=rep)

            def phi_of(lg):
                return m.evaluate(coop, m.softmax_policy(lg),
                                  agents=[]).potential_mu

            fd_phi = finite_diff_grad(phi_of, theta, h=1e-5)
            for i in range(mdp.n_agents):
                assert np.abs(fd_phi[i] - closed[i]).max() < 1e-6
                assert np.abs(fd_phi[i] - closed_phi[i]).max() < 1e-6
