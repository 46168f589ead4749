"""Update rules, the two-parametrization equivalence, the step-size guard,
and the run loop."""

import numpy as np
import pytest

import mpglearn as m
from mpglearn.core import EvalReport, Logits

from conftest import random_mdp


def report_with(adv, visitation=None, n_states=None):
    n_states = n_states or adv[0].shape[0]
    if visitation is None:
        visitation = np.full(n_states, 1.0 / n_states)
    return EvalReport(v=np.zeros((len(adv), n_states)),
                      adv_marginal=tuple(adv), visitation=visitation)


class TestInpgStep:
    def test_zero_advantage_is_fixed_point(self):
        theta = Logits([np.array([[0.3, -0.2]])])
        rep = report_with([np.zeros((1, 2))])
        out = m.inpg_step(theta, rep, eta=0.1, gamma=0.9)
        assert np.array_equal(out.theta[0], theta.theta[0])

    def test_zero_eta_no_motion(self):
        theta = Logits([np.array([[0.3, -0.2]])])
        rep = report_with([np.array([[1.0, -1.0]])])
        out = m.inpg_step(theta, rep, eta=0.0, gamma=0.9)
        assert np.array_equal(out.theta[0], theta.theta[0])

    def test_hand_computed_update(self):
        # eta/(1-gamma) = 10, advantages (0.5, -0.5) move logits by (5, -5)
        theta = Logits([np.zeros((1, 2))])
        rep = report_with([np.array([[0.5, -0.5]])])
        out = m.inpg_step(theta, rep, eta=0.1, gamma=0.99)
        assert np.allclose(out.theta[0], [[5.0, -5.0]], atol=1e-12)

    def test_rejects_non_finite_advantage(self):
        theta = Logits([np.zeros((1, 2))])
        rep = report_with([np.array([[np.nan, 0.0]])])
        with pytest.raises(ValueError, match="non-finite advantage"):
            m.inpg_step(theta, rep, eta=0.1, gamma=0.9)


class TestMwuStep:
    def test_uniform_advantage_absorbed_by_normalizer(self):
        pol = m.JointPolicy([np.array([[0.2, 0.3, 0.5]])])
        rep = report_with([np.full((1, 3), 0.7)])
        out = m.mwu_step(pol, rep, eta=0.05, gamma=0.9)
        assert np.abs(out.probs[0] - pol.probs[0]).max() < 1e-15

    def test_zero_advantage_fixed_point(self):
        pol = m.JointPolicy([np.array([[0.2, 0.8]])])
        rep = report_with([np.zeros((1, 2))])
        out = m.mwu_step(pol, rep, eta=0.05, gamma=0.9)
        assert np.abs(out.probs[0] - pol.probs[0]).max() < 1e-15

    def test_rejects_zero_mass(self):
        pol = m.JointPolicy([np.array([[1.0, 0.0]])])
        rep = report_with([np.zeros((1, 2))])
        with pytest.raises(ValueError, match="zero probability"):
            m.mwu_step(pol, rep, eta=0.05, gamma=0.9)

    def test_rejects_non_finite_advantage(self):
        pol = m.JointPolicy([np.array([[0.5, 0.5]]),
                             np.array([[0.2, 0.3, 0.5], [0.1, 0.1, 0.8]])])
        rep = report_with([np.zeros((1, 2)),
                           np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]])],
                          n_states=2)
        with pytest.raises(ValueError, match="agent 1, state 1, action 1"):
            m.mwu_step(pol, rep, eta=0.05, gamma=0.9)

    def test_output_on_simplex(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(100)))
        for trial in range(50):
            rows = rng.dirichlet(np.ones(3), size=2) + 1e-9
            pol = m.JointPolicy([rows / rows.sum(axis=1, keepdims=True)])
            rep = report_with([rng.normal(0, 3, (2, 3))])
            out = m.mwu_step(pol, rep, eta=0.1, gamma=0.5)
            assert np.abs(out.probs[0].sum(axis=1) - 1).max() < 1e-12
            assert out.probs[0].min() > 0


class TestEquivalence:
    def test_logit_and_simplex_paths_agree(self):
        # softmax(inpg(theta)) == mwu(softmax(theta)) entrywise
        rng = np.random.Generator(np.random.Philox(key=np.uint64(101)))
        worst = 0.0
        for trial in range(300):
            S = int(rng.integers(1, 4))
            shapes = [int(rng.integers(2, 5)) for _ in range(2)]
            theta = Logits([rng.normal(0, 2, (S, a)) for a in shapes])
            rep = report_with([rng.normal(0, 5, (S, a)) for a in shapes],
                              n_states=S)
            eta, gamma = 0.01, 0.9
            via_logits = m.softmax_policy(m.inpg_step(theta, rep, eta, gamma))
            via_simplex = m.mwu_step(m.softmax_policy(theta), rep, eta, gamma)
            worst = max(worst, max(np.abs(a - b).max() for a, b in
                                   zip(via_logits.probs, via_simplex.probs)))
        assert worst < 1e-12


class TestIpgStep:
    def test_zero_advantage_stationary(self):
        theta = Logits([np.array([[0.4, -0.4]])])
        rep = report_with([np.zeros((1, 2))])
        out = m.ipg_step(theta, rep, eta=0.1, gamma=0.9)
        assert np.array_equal(out.theta[0], theta.theta[0])

    def test_zero_visitation_zero_update(self):
        theta = Logits([np.zeros((2, 2))])
        rep = report_with([np.ones((2, 2))], visitation=np.array([1.0, 0.0]))
        out = m.ipg_step(theta, rep, eta=0.1, gamma=0.9)
        assert np.array_equal(out.theta[0][1], theta.theta[0][1])
        assert not np.array_equal(out.theta[0][0], theta.theta[0][0])

    def test_single_agent_matches_finite_differences(self):
        # the update direction is the exact gradient of V(mu)
        mdp = random_mdp(3, (2,), 0.5, seed=102)
        theta = Logits([np.random.Generator(
            np.random.Philox(key=np.uint64(103))).normal(0, 1, (3, 2))])
        rep = m.evaluate(mdp, m.softmax_policy(theta))
        out = m.ipg_step(theta, rep, eta=1.0, gamma=mdp.gamma)
        direction = out.theta[0] - theta.theta[0]

        def v_of(lg):
            r = m.evaluate(mdp, m.softmax_policy(lg), agents=[0])
            return float(mdp.mu @ r.v[0])

        fd = m.finite_diff_grad(v_of, theta, h=1e-5)
        assert np.abs(direction - fd[0]).max() < 1e-6

    def test_gamma_zero_single_state_is_eta_pi_advantage(self):
        mdp = random_mdp(1, (3,), 0.0, seed=104)
        theta = Logits([np.array([[0.5, -0.1, 0.2]])])
        pol = m.softmax_policy(theta)
        rep = m.evaluate(mdp, pol)
        out = m.ipg_step(theta, rep, eta=0.2, gamma=0.0)
        q = rep.q_marginal[0][0]
        v = rep.v[0][0]
        expected = 0.2 * 1.0 * pol.probs[0][0] * (q - v)  # d(s)=mu(s)=1
        assert np.abs((out.theta[0] - theta.theta[0])[0] - expected).max() < 1e-12

    def test_given_policy_gives_bit_identical_logits(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(105)))
        theta = Logits([rng.normal(0, 2, (3, a)) for a in (2, 3)])
        rep = report_with([rng.normal(0, 1, (3, a)) for a in (2, 3)],
                          visitation=rng.dirichlet(np.ones(3)))
        own = m.ipg_step(theta, rep, eta=0.3, gamma=0.9)
        given = m.ipg_step(theta, rep, eta=0.3, gamma=0.9,
                           policy=m.softmax_policy(theta))
        for a, b in zip(own.theta, given.theta):
            assert np.array_equal(a, b)

    def test_rejects_non_finite_advantage(self):
        theta = Logits([np.zeros((1, 2)), np.zeros((1, 3))])
        rep = report_with([np.zeros((1, 2)), np.array([[0.0, 0.0, np.nan]])])
        with pytest.raises(ValueError, match="agent 1, state 0, action 2"):
            m.ipg_step(theta, rep, eta=0.1, gamma=0.9)


class TestMaxStepSize:
    def test_unit_constants(self):
        # n=1, A_max=1, M=1, gamma=0 gives 1/27
        mdp = m.MultiAgentMDP((1,), np.ones((1, 1, 1)), np.ones((1, 1, 1)),
                              0.0, np.ones(1))
        assert abs(m.max_step_size(mdp) - 1 / 27) < 1e-15

    def test_quadratic_scaling_in_agent_count(self):
        one = m.MultiAgentMDP((1,), np.ones((1, 1, 1)), np.ones((1, 1, 1)),
                              0.0, np.ones(1))
        two = m.MultiAgentMDP((1, 1), np.ones((2, 1, 1)), np.ones((1, 1, 1)),
                              0.0, np.ones(1))
        assert abs(m.max_step_size(one) / m.max_step_size(two) - 4.0) < 1e-12

    def test_distancing_defaults_closed_form(self):
        # full-support start distribution: with a point mass on the safe
        # state the spread state is reachable with zero initial mass and a
        # spread-avoiding policy never visits it, so the coefficient is
        # genuinely unbounded and the analytic bound must refuse
        point = m.build_distancing(m.DistancingParams())
        assert m.mismatch_bound(point.mdp).upper is None
        env = m.build_distancing(m.DistancingParams(), mu="uniform")
        bound = m.mismatch_bound(env.mdp)
        got = m.max_step_size(env.mdp, bound)
        n, amax, gamma = 8, 4, 0.99
        m_upper = 1.0 / ((1 - gamma) * 0.5)
        expected = (1 - gamma) ** 3 / (27 * n ** 2 * amax ** 2 * m_upper)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_unavailable_bound_raises_with_instruction(self):
        env = m.build_scg(m.parallel_dag([1.0, 0.5]), n_agents=1, gamma=0.9)
        with pytest.raises(ValueError, match="manual"):
            m.max_step_size(env.mdp)


class TestRunLoop:
    def test_single_action_converges_immediately(self):
        env = m.build_scg(m.parse_dag_spec(
            "source = s\nsink = t\ns -> t cost=inverse_load(1.0)\n"),
            n_agents=1, gamma=0.5, mu="uniform")
        cfg = m.AlgoConfig("inpg", eta=1e-4, max_iters=50)
        trace = m.run(env, cfg)
        assert trace.status == "converged"
        assert trace.n_iterations == 1
        assert trace.iterations.tolist() == [0]

    def test_no_seeds_is_an_error(self, stage2):
        cfg = m.AlgoConfig("inpg", eta=1e-4, max_iters=5)
        with pytest.raises(ValueError, match="no run seed given"):
            m.run(stage2, cfg, seeds=[])

    @pytest.mark.parametrize("key", ["nash_gap_every", "snapshot_every"])
    def test_negative_interval_rejected(self, stage2, key):
        cfg = m.AlgoConfig("inpg", eta=1e-4, max_iters=5)
        with pytest.raises(ValueError, match=f"{key} = -1"):
            m.run(stage2, cfg, **{key: -1})

    def test_interiority_required(self, stage2):
        cfg = m.AlgoConfig("mwu", eta=1e-4, max_iters=5, guard="off")
        pure = m.JointPolicy([np.tile([1.0, 0.0], (stage2.mdp.n_states, 1)),
                              np.tile([0.0, 1.0], (stage2.mdp.n_states, 1))])
        with pytest.raises(ValueError, match="interior"):
            m.run(stage2, cfg, pure)

    def test_guard_enforce_rejects_large_eta(self, stage2):
        limit = m.max_step_size(stage2.mdp)
        cfg = m.AlgoConfig("inpg", eta=2 * limit, max_iters=5, guard="enforce")
        with pytest.raises(ValueError, match="theoretical bound"):
            m.run(stage2, cfg)

    def test_guard_warn_logs_and_proceeds(self, stage2, caplog):
        limit = m.max_step_size(stage2.mdp)
        cfg = m.AlgoConfig("inpg", eta=2 * limit, max_iters=3, guard="warn")
        with caplog.at_level("WARNING", logger="mpglearn"):
            trace = m.run(stage2, cfg)
        assert trace.n_iterations >= 1
        assert any("bound" in rec.message for rec in caplog.records)

    def test_stage_game_inpg_reaches_enumerated_equilibrium(self, stage2):
        # brute force: the pure profiles (0,1) and (1,0) are the equilibria
        mdp = stage2.mdp
        eta = 0.9 * m.max_step_size(mdp)
        cfg = m.AlgoConfig("inpg", eta=eta, max_iters=200_000,
                           convergence_threshold=1e-10)
        trace = m.run(stage2, cfg, m.random_logits(mdp, seed=44))
        assert trace.status == "converged"
        gap = m.nash_gap(mdp, trace.final_policy)
        assert gap.overall_gap <= 1e-6
        start = mdp.state_labels.index(("s", "s"))
        picks = tuple(int(np.argmax(p[start]))
                      for p in trace.final_policy.probs)
        assert picks in ((0, 1), (1, 0))

    def test_mwu_and_inpg_runs_coincide(self, stage2):
        eta = 0.9 * m.max_step_size(stage2.mdp)
        theta0 = m.random_logits(stage2.mdp, seed=45)
        cfg_i = m.AlgoConfig("inpg", eta=eta, max_iters=50,
                             convergence_threshold=1e-16)
        cfg_m = m.AlgoConfig("mwu", eta=eta, max_iters=50,
                             convergence_threshold=1e-16)
        tr_i = m.run(stage2, cfg_i, theta0)
        tr_m = m.run(stage2, cfg_m, m.softmax_policy(theta0))
        for p, q in zip(tr_i.final_policy.probs, tr_m.final_policy.probs):
            assert np.abs(p - q).max() < 1e-10

    def test_monotone_potential_on_common_reward_game(self, coop):
        eta = 0.9 * m.max_step_size(coop.mdp)
        cfg = m.AlgoConfig("inpg", eta=eta, max_iters=300,
                           convergence_threshold=1e-16)
        trace = m.run(coop, cfg, m.random_logits(coop.mdp, seed=46))
        diffs = np.diff(trace.potential)
        assert np.all(diffs >= -1e-12)

    def test_simplex_preserved_along_run(self, stage2):
        eta = 0.9 * m.max_step_size(stage2.mdp)
        cfg = m.AlgoConfig("inpg", eta=eta, max_iters=500,
                           convergence_threshold=1e-16)
        snapshots = []
        trace = m.run(stage2, cfg, m.random_logits(stage2.mdp, seed=47),
                      snapshot_every=100,
                      on_iteration=lambda rec: snapshots.append(rec["policy"]))
        tables = [t for t in snapshots if t is not None]
        assert len(tables) == 5
        for probs in tables + [trace.final_policy.probs]:
            for p in probs:
                assert p.min() > 0
                assert np.abs(p.sum(axis=1) - 1).max() < 1e-12

    def test_converged_run_is_near_fixed_point(self, stage2):
        eta = 0.9 * m.max_step_size(stage2.mdp)
        threshold = 1e-10
        cfg = m.AlgoConfig("inpg", eta=eta, max_iters=200_000,
                           convergence_threshold=threshold)
        trace = m.run(stage2, cfg, m.random_logits(stage2.mdp, seed=48))
        assert trace.status == "converged"
        residual = m.fixed_point_residual(stage2.mdp, trace.final_policy)
        scale = eta / (1 - stage2.mdp.gamma)
        assert residual <= 10 * threshold / scale

    def test_sampled_mode_deterministic(self, stage2):
        cfg = m.AlgoConfig("inpg", eta=0.01, eval_mode="sampled",
                           sample_cfg=m.SampleConfig(10, 8, seed=9),
                           max_iters=40, guard="off")
        a = m.run(stage2, cfg)
        b = m.run(stage2, cfg)
        assert np.array_equal(a.step_l1, b.step_l1)
        for p, q in zip(a.final_policy.probs, b.final_policy.probs):
            assert np.array_equal(p, q)

    def test_distancing_natural_gradient_beats_vanilla(self):
        # downsized facility game, sampled mode: the natural gradient
        # reaches the movement threshold, vanilla stalls at the cap
        params = m.DistancingParams(n_agents=3, n_facilities=2,
                                    weights=(0.1, 0.25), penalty=0.4,
                                    spread_trigger=2, return_trigger=1,
                                    gamma=0.99)
        env = m.build_distancing(params)
        means = {}
        for algo in ("inpg", "ipg"):
            counts = []
            for seed in range(2):
                cfg = m.AlgoConfig(algo, eta=1e-4, eval_mode="sampled",
                                   sample_cfg=m.SampleConfig(20, 20, seed),
                                   max_iters=2000,
                                   convergence_threshold=1e-15, guard="off")
                trace = m.run(env, cfg)
                if algo == "inpg":
                    assert trace.status == "converged"
                counts.append(trace.n_iterations)
            means[algo] = float(np.mean(counts))
        assert means["inpg"] < means["ipg"]

    @pytest.mark.parametrize("game", ["scg3", "distancing_return"])
    def test_recorded_gap_equals_nash_gap_of_the_policy(self, request, game):
        # the loop hands nash_gap its step's report instead of evaluating
        # the policy again; the gap must be the one a fresh call computes
        env = request.getfixturevalue(game)
        cfg = m.AlgoConfig("inpg", eta=0.05, max_iters=7, guard="off",
                           convergence_threshold=1e-16)
        records = []
        m.run(env, cfg, m.random_logits(env.mdp, seed=50), nash_gap_every=3,
              snapshot_every=3, on_iteration=records.append)
        snapped = [rec for rec in records if rec["policy"] is not None]
        assert [rec["iteration"] for rec in snapped] == [0, 3, 6]
        for rec in snapped:
            want = m.nash_gap(env.mdp, m.JointPolicy(rec["policy"]))
            assert repr(rec["nash_gap"]) == repr(want.overall_gap)

    def test_nash_gap_cadence_recorded(self, stage2):
        eta = 0.9 * m.max_step_size(stage2.mdp)
        cfg = m.AlgoConfig("inpg", eta=eta, max_iters=10,
                           convergence_threshold=1e-16)
        trace = m.run(stage2, cfg, m.random_logits(stage2.mdp, seed=49),
                      nash_gap_every=5)
        recorded = ~np.isnan(trace.nash_gap)
        assert recorded.tolist() == [k % 5 == 0 for k in range(10)]
