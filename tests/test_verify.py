"""Best responses, Nash gaps, potential checking, finite differences,
smoothness, and fixed points, cross-checked by enumeration."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpglearn as m
from mpglearn import exact
from mpglearn.environments import CostDescriptor
from mpglearn.verify import exhaustive_best_response_value

from conftest import assert_same_bytes, random_mdp, random_policy


class TestBestResponse:
    def test_no_alternatives_recovers_value(self):
        mdp = random_mdp(3, (1, 1), 0.9, seed=60)
        pol = m.JointPolicy([np.ones((3, 1)), np.ones((3, 1))])
        _, v_br = m.best_response(mdp, pol, agent=0)
        v = m.evaluate(mdp, pol).v
        assert np.abs(v_br - v[0]).max() < 1e-12

    def test_single_state_myopic_row_choice(self):
        # opponent plays column 1; best row maximizes r(., col 1)/(1-gamma)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(61)))
        rewards = rng.uniform(0, 1, size=(2, 1, 4))
        mdp = m.MultiAgentMDP((2, 2), rewards, np.ones((1, 4, 1)), 0.5,
                              np.ones(1))
        col1 = np.zeros((1, 2))
        col1[0, 1] = 1.0
        pol = m.JointPolicy([np.full((1, 2), 0.5), col1])
        act, v_br = m.best_response(mdp, pol, agent=0)
        r_row = [rewards[0, 0, np.ravel_multi_index((a, 1), mdp.n_actions)]
                 for a in range(2)]
        assert act[0] == int(np.argmax(r_row))
        assert abs(v_br[0] - max(r_row) / 0.5) < 1e-10

    def test_dominates_every_deterministic_policy(self):
        mdp = random_mdp(3, (2, 2), 0.85, seed=62)
        pol = random_policy(mdp, 63)
        for i in range(2):
            _, v_br = m.best_response(mdp, pol, i)
            v_enum = exhaustive_best_response_value(mdp, pol, i)
            assert np.abs(v_br - v_enum).max() < 1e-10

    def test_gap_of_own_best_response_is_zero(self):
        mdp = random_mdp(3, (2, 2), 0.9, seed=64)
        pol = random_policy(mdp, 65)
        act, v_br = m.best_response(mdp, pol, agent=1)
        table = np.zeros((3, 2))
        table[np.arange(3), act] = 1.0
        replied = pol.replace_agent(1, table)
        _, v_again = m.best_response(mdp, replied, agent=1)
        v = m.evaluate(mdp, replied).v
        assert np.abs(v_again - v[1]).max() < 1e-9


class TestNashGap:
    def test_single_action_game_has_zero_gap(self):
        mdp = random_mdp(3, (1, 1), 0.9, seed=66)
        pol = m.JointPolicy([np.ones((3, 1)), np.ones((3, 1))])
        rep = m.nash_gap(mdp, pol)
        assert rep.overall_gap < 1e-12
        assert rep.mu_gap < 1e-12

    def test_coordination_profile_is_equilibrium(self):
        # both agents rewarded iff they match; the matched profile has no gap
        rewards = np.zeros((2, 1, 4))
        for a in range(2):
            j = int(np.ravel_multi_index((a, a), (2, 2)))
            rewards[:, 0, j] = 1.0
        mdp = m.MultiAgentMDP((2, 2), rewards, np.ones((1, 4, 1)), 0.5,
                              np.ones(1))
        both_zero = m.JointPolicy([np.array([[1.0, 0.0]]),
                                   np.array([[1.0, 0.0]])])
        rep = m.nash_gap(mdp, both_zero, epsilon=1e-9)
        assert rep.overall_gap < 1e-12
        assert rep.satisfies_epsilon

    @pytest.mark.parametrize("game", ["scg3", "distancing_return"])
    def test_report_from_environment_gives_the_same_gap(self, request, game):
        # scg3's chains take the triangular solve, distancing_return's the
        # dense LU; an Environment's report carries one more solved column,
        # the potential, than the MDP's
        env = request.getfixturevalue(game)
        pol = random_policy(env.mdp, 68)
        fresh = m.nash_gap(env.mdp, pol)
        reused = m.nash_gap(env.mdp, pol, report=m.evaluate(env, pol))
        assert_same_bytes(reused.gaps, fresh.gaps, "gaps")
        assert repr((reused.overall_gap, reused.mu_gap)) == \
            repr((fresh.overall_gap, fresh.mu_gap))

    def test_one_scratch_per_call(self, monkeypatch):
        # without a scratch, nash_gap and best_response each make one that
        # serves every evaluate and Howard round, and report the bytes a
        # call given one reports
        mdp = random_mdp(3, (2, 3), 0.9, seed=69)
        pol = random_policy(mdp, 70)
        given = m.nash_gap(mdp, pol, scratch=exact.Scratch(mdp))
        given_br = m.best_response(mdp, pol, 1, scratch=exact.Scratch(mdp))
        builds = []
        init = exact.Scratch.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(exact.Scratch, "__init__", counting)
        rep = m.nash_gap(mdp, pol)
        assert len(builds) == 1
        assert_same_bytes(rep.gaps, given.gaps, "gaps")
        assert repr((rep.overall_gap, rep.mu_gap)) == \
            repr((given.overall_gap, given.mu_gap))
        builds.clear()
        act, v = m.best_response(mdp, pol, 1)
        assert len(builds) == 1
        assert_same_bytes(act, given_br[0], "act")
        assert_same_bytes(v, given_br[1], "v")

    def test_uniform_policy_gap_matches_enumeration(self):
        mdp = random_mdp(1, (2, 3), 0.6, seed=67)
        uniform = m.JointPolicy([np.full((1, 2), 0.5), np.full((1, 3), 1 / 3)])
        rep = m.nash_gap(mdp, uniform)
        v = m.evaluate(mdp, uniform).v
        worst = 0.0
        for i in range(2):
            v_enum = exhaustive_best_response_value(mdp, uniform, i)
            worst = max(worst, float((v_enum - v[i]).max()))
        assert abs(rep.overall_gap - worst) < 1e-9
        assert np.all(rep.gaps >= -1e-9)


class TestCheckPotential:
    @pytest.mark.parametrize("game", ["distancing3", "distancing_return"])
    def test_null_deviation_no_mismatch(self, request, game):
        env = request.getfixturevalue(game)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(68)))
        base = env.sample_base_profile(rng)
        ra = m.evaluate(env, base, agents=[0])
        assert np.abs((ra.potential - ra.potential)
                      - (ra.v[0] - ra.v[0])).max() == 0.0

    def test_scg_hundred_trials(self, scg3):
        assert m.check_potential(scg3, trials=100, seed=69) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(layers=st.lists(st.integers(1, 3), min_size=2, max_size=3),
           n_agents=st.integers(2, 3), reachable_only=st.booleans(),
           gamma=st.sampled_from([0.0, 0.5, 0.99]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_potential_identity_on_random_layered_dags(
            self, layers, n_agents, reachable_only, gamma, seed):
        # every edge of a random small layered DAG gets its own base
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        names = ([["s"]] + [[f"v{k}_{j}" for j in range(size)]
                            for k, size in enumerate(layers)] + [["t"]])
        costs = {(u, w): CostDescriptor("inverse_load",
                                        (float(rng.uniform(0.05, 1.0)),))
                 for a, b in zip(names, names[1:]) for u in a for w in b}
        env = m.build_scg(m.layered_dag(layers, costs), n_agents=n_agents,
                          gamma=gamma, reachable_only=reachable_only)
        assert m.check_potential(env, trials=10, seed=seed) <= 1e-9

    def test_corrupted_reward_detected(self, scg3):
        rewards = np.array(scg3.mdp.rewards)
        start = scg3.mdp.state_labels.index(("s", "s", "s"))
        rewards[0, start, 0] += 0.01
        broken_mdp = m.MultiAgentMDP(scg3.mdp.n_actions, rewards,
                                     scg3.mdp.csr, scg3.mdp.gamma,
                                     scg3.mdp.mu,
                                     state_labels=scg3.mdp.state_labels)
        broken = m.Environment(mdp=broken_mdp,
                               stage_potential=scg3.stage_potential,
                               label="corrupted",
                               base_profile_sampler=scg3.base_profile_sampler)
        assert m.check_potential(broken, trials=100, seed=70) > 1e-3


class TestFiniteDiffGrad:
    def test_linear_field_exact(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(71)))
        coeff = [rng.normal(0, 1, (2, 3)), rng.normal(0, 1, (2, 2))]
        theta = m.Logits([rng.normal(0, 1, (2, 3)), rng.normal(0, 1, (2, 2))])

        def f(lg):
            return sum(float((c * t).sum()) for c, t in zip(coeff, lg.theta))

        grads = m.finite_diff_grad(f, theta, h=1e-4)
        for g, c in zip(grads, coeff):
            assert np.abs(g - c).max() < 1e-10

    def test_quadratic_field_second_order_cancellation(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(72)))
        theta = m.Logits([rng.normal(0, 1, (1, 3))])

        def f(lg):
            return float((lg.theta[0] ** 2).sum())

        grads = m.finite_diff_grad(f, theta, h=1e-4)
        assert np.abs(grads[0] - 2 * theta.theta[0]).max() < 1e-8

    def test_potential_gradient_formula_on_small_scg(self, scg2_uniform_mu):
        env = scg2_uniform_mu
        rng = np.random.Generator(np.random.Philox(key=np.uint64(73)))
        base = env.sample_base_profile(rng)
        theta = m.Logits([np.log(p) for p in base.probs])
        closed = m.potential_gradients(env, theta)

        def phi_of(lg):
            return m.evaluate(env, m.softmax_policy(lg), agents=[]).potential_mu

        fd = m.finite_diff_grad(phi_of, theta, h=1e-5)
        for g, c in zip(fd, closed):
            assert np.abs(g - c).max() < 1e-6

    def test_rejects_nonpositive_h(self):
        theta = m.Logits([np.zeros((1, 2))])
        with pytest.raises(ValueError):
            m.finite_diff_grad(lambda lg: 0.0, theta, h=0.0)


class TestCheckSmoothness:
    def test_zero_displacement_tight(self, parallel2):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(74)))
        base = parallel2.sample_base_profile(rng)
        theta = m.Logits([np.log(p) for p in base.probs])
        eta = 0.9 * m.max_step_size(parallel2.mdp)
        rep = m.check_smoothness(parallel2, theta, theta, eta)
        assert rep.passed
        # zero displacement kills both correction terms: the bound is tight
        assert rep.gradient_term == 0.0
        assert rep.quadratic_term == 0.0
        assert rep.lhs == rep.rhs

    def test_random_displacement_passes(self, parallel2):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(75)))
        eta = 0.9 * m.max_step_size(parallel2.mdp)
        box = eta / (1 - parallel2.mdp.gamma)
        for _ in range(20):
            base = parallel2.sample_base_profile(rng)
            theta = m.Logits([np.log(p) for p in base.probs])
            tilde = m.Logits([t + rng.uniform(-box, box, t.shape)
                              for t in theta.theta])
            rep = m.check_smoothness(parallel2, theta, tilde, eta)
            assert rep.passed and rep.ratios_ok

    def test_ratio_bounds_at_exact_hypothesis_boundary(self, parallel2):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(76)))
        eta = 0.9 * m.max_step_size(parallel2.mdp)
        box = eta / (1 - parallel2.mdp.gamma)
        base = parallel2.sample_base_profile(rng)
        theta = m.Logits([np.log(p) for p in base.probs])
        signs = [np.sign(rng.normal(size=t.shape)) for t in theta.theta]
        tilde = m.Logits([t + box * s for t, s in zip(theta.theta, signs)])
        rep = m.check_smoothness(parallel2, theta, tilde, eta)
        assert rep.ratios_ok
        assert rep.ratio_min >= 1 - 2 * box - 1e-12
        assert rep.ratio_max <= 1 + 4 * box + 1e-12

    def test_hypothesis_violation_names_coordinate(self, parallel2):
        eta = 0.9 * m.max_step_size(parallel2.mdp)
        theta = m.uniform_logits(parallel2.mdp)
        bad = [np.array(t) for t in theta.theta]
        bad[1][2, 1] = 1.0
        with pytest.raises(ValueError, match="agent 1, state 2, action 1"):
            m.check_smoothness(parallel2, theta, m.Logits(bad), eta)


class TestFixedPointResidual:
    def test_single_action_agents(self):
        mdp = random_mdp(2, (1, 1), 0.9, seed=77)
        pol = m.JointPolicy([np.ones((2, 1)), np.ones((2, 1))])
        assert m.fixed_point_residual(mdp, pol) < 1e-12

    def test_pure_stage_equilibrium_is_fixed_point(self, stage2):
        mdp = stage2.mdp
        anti = m.JointPolicy([
            np.eye(2)[np.zeros(mdp.n_states, dtype=int)],
            np.eye(2)[np.ones(mdp.n_states, dtype=int)]])
        # played actions are mutual best responses, unplayed have zero mass
        assert m.fixed_point_residual(mdp, anti) < 1e-10

    def test_uniform_policy_with_dominant_action_not_fixed(self):
        rewards = np.zeros((1, 1, 2))
        rewards[0, 0, 0] = 1.0   # action 0 strictly dominant
        mdp = m.MultiAgentMDP((2,), rewards, np.ones((1, 2, 1)), 0.5,
                              np.ones(1))
        uniform = m.JointPolicy([np.full((1, 2), 0.5)])
        assert m.fixed_point_residual(mdp, uniform) > 0.1


class TestVerifyEnvironment:
    def test_small_scg_passes(self, parallel2):
        report = m.verify_environment(parallel2, seed=0, potential_trials=30,
                                      gradient_points=1, smoothness_pairs=5)
        assert report.passed
        assert "overall: PASS" in report.text()

    def test_corrupted_environment_fails(self, parallel2):
        rewards = np.array(parallel2.mdp.rewards)
        rewards[0, 0, 0] = min(1.0, rewards[0, 0, 0] + 0.02)
        broken_mdp = m.MultiAgentMDP(
            parallel2.mdp.n_actions, rewards, parallel2.mdp.csr,
            parallel2.mdp.gamma, parallel2.mdp.mu,
            state_labels=parallel2.mdp.state_labels)
        broken = m.Environment(
            mdp=broken_mdp, stage_potential=parallel2.stage_potential,
            label="corrupted",
            base_profile_sampler=parallel2.base_profile_sampler)
        report = m.verify_environment(broken, seed=0, potential_trials=30,
                                      gradient_points=1, smoothness_pairs=5)
        assert not report.passed

    def test_scaled_potential_gradient_fails(self, monkeypatch):
        # a closed-form gradient off by one part in a million must fail the
        # exact directional-derivative check
        from pathlib import Path
        from mpglearn import verify
        from mpglearn.cli import build_environment, load_config
        cfg = Path(__file__).resolve().parent.parent / "configs" / "scg4.ini"
        env = build_environment(load_config(cfg).environment)
        closed = verify.potential_gradients
        monkeypatch.setattr(verify, "potential_gradients", lambda *a, **k: [
            g * (1 + 1e-6) for g in closed(*a, **k)])
        report = m.verify_environment(env, seed=0, potential_trials=5)
        line = next(x for x in report.lines if x.startswith("gradient"))
        assert line.endswith("[FAIL]")
        assert not report.passed

    def test_no_potential_skips_that_check(self):
        mdp = random_mdp(2, (2, 2), 0.8, seed=78)
        env = m.Environment(mdp=mdp, stage_potential=None, label="bare")
        report = m.verify_environment(env, seed=0)
        assert any("skipped" in line for line in report.lines)
        assert report.passed
