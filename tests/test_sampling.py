"""Monte Carlo estimation: determinism, marginal correctness against exact
one-step probabilities, and convergence toward exact values."""

import numpy as np
import pytest
import scipy.sparse as sp

import mpglearn as m
from mpglearn import sampling

from conftest import random_mdp, random_policy, sparse_mdp


def deterministic_line_mdp():
    """3 states in a line, 1 agent, 1 action, rewards 1/0.5/0."""
    P = np.zeros((3, 1, 3))
    P[0, 0, 1] = P[1, 0, 2] = P[2, 0, 2] = 1.0
    rewards = np.zeros((1, 3, 1))
    rewards[0, 0, 0] = 1.0
    rewards[0, 1, 0] = 0.5
    mu = np.array([1.0, 0.0, 0.0])
    return m.MultiAgentMDP((1,), rewards, P, 0.9, mu)


class TestSampleEpisode:
    def test_deterministic_rollout_is_the_unique_one(self):
        mdp = deterministic_line_mdp()
        pol = m.JointPolicy([np.ones((3, 1))])
        states, actions, rewards = m.sample_episode(mdp, pol, 4, seed=0)
        assert states.tolist() == [0, 1, 2, 2]
        assert rewards[:, 0].tolist() == [1.0, 0.5, 0.0, 0.0]

    def test_single_state_stays_put(self):
        mdp = m.MultiAgentMDP((2,), np.zeros((1, 1, 2)) + 0.5,
                              np.ones((1, 2, 1)), 0.9, np.ones(1))
        pol = m.JointPolicy([np.full((1, 2), 0.5)])
        states, _, _ = m.sample_episode(mdp, pol, 3, seed=1)
        assert states.tolist() == [0, 0, 0]

    def test_reproducible_per_episode_key(self):
        mdp = random_mdp(3, (2, 2), 0.9, seed=80)
        pol = random_policy(mdp, 81)
        a = m.sample_episode(mdp, pol, 10, seed=5, episode=3)
        b = m.sample_episode(mdp, pol, 10, seed=5, episode=3)
        c = m.sample_episode(mdp, pol, 10, seed=5, episode=4)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))

    def test_one_step_marginal_matches_exact_distribution(self):
        # empirical distribution of s_1 vs sum_a pi(a|s0) P(.|s0, a)
        mdp = random_mdp(3, (2,), 0.9, seed=82)
        mdp = m.MultiAgentMDP(mdp.n_actions, mdp.rewards, mdp.transitions,
                              mdp.gamma, np.array([1.0, 0.0, 0.0]))
        pol = random_policy(mdp, 83)
        from mpglearn.sampling import _sample_batch
        states, _, _ = _sample_batch(mdp, pol, 2, seed=84, episode_offset=0,
                                     batch=100_000)
        counts = np.bincount(states[1], minlength=3) / states.shape[1]
        P = mdp.transitions.toarray().reshape(3, 2, 3)
        exact = np.einsum("a,ap->p", pol.probs[0][0], P[0])
        assert 0.5 * np.abs(counts - exact).sum() < 0.01


class TestEstimateEval:
    def test_zero_variance_case_matches_exact(self):
        mdp = deterministic_line_mdp()
        pol = m.JointPolicy([np.ones((3, 1))])
        cfg = m.SampleConfig(horizon=60, batch=3, seed=0)
        rep = m.estimate_eval(mdp, pol, cfg)
        exact = m.evaluate(mdp, pol)
        vis = rep.visited_states
        # gamma^60 truncation bias is ~1.8e-3 of the tail, all rewards past
        # the horizon are zero here, so estimates are exact
        assert np.abs(rep.v[:, vis] - exact.v[:, vis]).max() < 1e-9

    def test_zero_rewards_give_exact_zero(self):
        mdp = random_mdp(3, (2, 2), 0.9, seed=85)
        zero = m.MultiAgentMDP(mdp.n_actions, np.zeros_like(mdp.rewards),
                               mdp.transitions, mdp.gamma, mdp.mu)
        rep = m.estimate_eval(zero, random_policy(zero, 86),
                              m.SampleConfig(10, 50, seed=1))
        assert np.abs(rep.v).max() == 0.0
        for adv in rep.adv_marginal:
            assert np.abs(adv).max() == 0.0

    def test_large_batch_close_to_exact(self):
        mdp = random_mdp(2, (2,), 0.9, seed=87)
        pol = random_policy(mdp, 88)
        cfg = m.SampleConfig(horizon=150, batch=50_000, seed=2)
        rep = m.estimate_eval(mdp, pol, cfg)
        exact = m.evaluate(mdp, pol)
        assert np.abs(rep.v - exact.v).max() < 0.02
        assert np.abs(rep.visitation - exact.visitation).max() < 0.01

    def test_bit_identical_reports(self):
        mdp = random_mdp(3, (2, 2), 0.95, seed=89)
        pol = random_policy(mdp, 90)
        cfg = m.SampleConfig(horizon=20, batch=20, seed=3)
        a = m.estimate_eval(mdp, pol, cfg, episode_offset=40)
        b = m.estimate_eval(mdp, pol, cfg, episode_offset=40)
        assert np.array_equal(a.v, b.v)
        assert np.array_equal(a.visitation, b.visitation)
        for x, y in zip(a.adv_marginal, b.adv_marginal):
            assert np.array_equal(x, y)

    def test_unvisited_pairs_flagged_and_zero(self):
        mdp = deterministic_line_mdp()
        # two actions, the second never played
        P = np.zeros((3, 2, 3))
        P[:, 0] = mdp.transitions.toarray().reshape(3, 1, 3)[:, 0]
        P[:, 1] = P[:, 0]
        rewards = np.repeat(mdp.rewards, 2, axis=2)
        two = m.MultiAgentMDP((2,), rewards, P, 0.9, mdp.mu)
        pure = m.JointPolicy([np.tile([1.0, 0.0], (3, 1))])
        rep = m.estimate_eval(two, pure, m.SampleConfig(10, 5, seed=4))
        mask = rep.visited_pairs[0]
        assert not mask[:, 1].any()
        assert np.abs(rep.adv_marginal[0][:, 1]).max() == 0.0

    def test_unanimous_actions_give_exactly_zero_advantage(self):
        # when only one action is ever sampled at a state, its first-visit
        # Q and V coincide, so the advantage is exactly zero; this is what
        # lets sampled runs terminate
        mdp = deterministic_line_mdp()
        P = np.zeros((3, 2, 3))
        P[:, 0] = mdp.transitions.toarray().reshape(3, 1, 3)[:, 0]
        P[:, 1] = P[:, 0]
        rewards = np.repeat(mdp.rewards, 2, axis=2)
        two = m.MultiAgentMDP((2,), rewards, P, 0.9, mdp.mu)
        pure = m.JointPolicy([np.tile([1.0, 0.0], (3, 1))])
        rep = m.estimate_eval(two, pure, m.SampleConfig(10, 20, seed=5))
        assert np.abs(rep.adv_marginal[0]).max() == 0.0

    def test_every_visit_estimator_differs_but_agrees_in_limit(self):
        # every-visit attributes returns to all visits, so horizon truncation
        # bites harder (late visits see short remaining horizons); the bias
        # is roughly V / (T * (1 - gamma)) on a rapidly mixing chain
        mdp = random_mdp(2, (2,), 0.8, seed=91)
        pol = random_policy(mdp, 92)
        first = m.estimate_eval(mdp, pol,
                                m.SampleConfig(80, 10_000, 6, "first_visit"))
        every = m.estimate_eval(mdp, pol,
                                m.SampleConfig(80, 10_000, 6, "every_visit"))
        exact = m.evaluate(mdp, pol)
        assert np.abs(first.v - exact.v).max() < 0.05
        assert np.abs(every.v - exact.v).max() < 0.2
        assert not np.array_equal(first.v, every.v)

    def test_error_shrinks_with_batch_size(self):
        # averaged over 20 seeds, larger mini-batches estimate V better
        mdp = random_mdp(2, (2,), 0.9, seed=93)
        pol = random_policy(mdp, 94)
        exact = m.evaluate(mdp, pol)
        errs = []
        for batch in (8, 64, 512):
            total = 0.0
            for seed in range(20):
                rep = m.estimate_eval(mdp, pol,
                                      m.SampleConfig(60, batch, seed))
                total += float(np.abs(rep.v - exact.v).max())
            errs.append(total / 20)
        assert errs[0] > errs[1] > errs[2]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            m.SampleConfig(horizon=0, batch=1, seed=0).check()
        with pytest.raises(ValueError):
            m.SampleConfig(horizon=1, batch=0, seed=0).check()
        with pytest.raises(ValueError):
            m.SampleConfig(estimator="bogus").check()


def numpy_philox_uniforms(seed, key1, count):
    key = np.array([seed, key1], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key)).random(count)


class TestStreamDraws:
    """The vectorized Philox4x64-10 against numpy's own generator."""

    @pytest.mark.parametrize("seed", [0, 999, 2**63, 2**64 - 1])
    def test_matches_numpy_philox_for_every_count(self, seed):
        start = 2**48 - 1                   # crosses into the high key bits
        for count in range(1, 26):
            u = sampling._uniforms(seed, start, 3, 2, count)
            assert u.shape == (-(-count // 4) * 4, 3, 2)
            for e in range(3):
                for s in range(2):
                    expect = numpy_philox_uniforms(
                        seed, ((start + e) << 8) | s, count)
                    assert np.array_equal(u[:count, e, s], expect)

    def test_matches_numpy_philox_on_every_stream_tag(self):
        u = sampling._uniforms(999, 2**50 + 7, 2, 256, 21)
        for e in range(2):
            for s in range(256):
                expect = numpy_philox_uniforms(999, ((2**50 + 7 + e) << 8) | s,
                                               21)
                assert np.array_equal(u[:21, e, s], expect)

    def test_lane_slices_do_not_change_draws(self, monkeypatch):
        whole = sampling._uniforms(5, 10, 9, 3, 7)
        monkeypatch.setattr(sampling, "_MAX_LANES", 4)
        assert np.array_equal(sampling._uniforms(5, 10, 9, 3, 7), whole)

    def test_run_seeds_draw_as_their_own_streams(self, monkeypatch):
        seeds = np.array([0, 2**64 - 1, 5, 5], dtype=np.uint64)
        monkeypatch.setattr(sampling, "_MAX_LANES", 40)   # uneven slices
        u = sampling._uniforms(seeds, 2**48 - 3, 6, 3, 9)
        assert u.shape == (12, 6, 4, 3)
        for r, seed in enumerate(seeds):
            assert np.array_equal(u[:, :, r],
                                  sampling._uniforms(seed, 2**48 - 3, 6, 3, 9))

    def test_episode_beyond_key_space_rejected(self):
        with pytest.raises(ValueError, match="stream key"):
            sampling._uniforms(0, 2**56 - 1, 2, 1, 4)

    def test_shared_bank_equals_one_shot_estimates(self, monkeypatch):
        # batches of 7 against chunks of 10 episodes: most batches straddle
        # a chunk boundary, and the last request goes back to episode 0
        monkeypatch.setattr(sampling, "_CHUNK_EPISODES", 10)
        mdp = random_mdp(3, (2, 3), 0.9, seed=95)
        pol = random_policy(mdp, 96)
        cfg = m.SampleConfig(horizon=6, batch=7, seed=2**63 + 11)
        bank = sampling._StreamBank(mdp, cfg)
        for offset in (0, 7, 14, 21, 28, 35, 0):
            shared = m.estimate_eval(mdp, pol, cfg, episode_offset=offset,
                                     bank=bank)
            alone = m.estimate_eval(mdp, pol, cfg, episode_offset=offset)
            assert np.array_equal(shared.v, alone.v)
            assert np.array_equal(shared.visitation, alone.visitation)
            for x, y in zip(shared.adv_marginal, alone.adv_marginal):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("estimator", ["first_visit", "every_visit"])
    def test_stacked_runs_equal_runs_alone(self, monkeypatch, estimator):
        # runs estimated together, through a bank that drops a run midway,
        # match each run estimated alone bit for bit; ragged action counts
        # and rows with up to three successors
        monkeypatch.setattr(sampling, "_CHUNK_EPISODES", 24)
        mdp = sparse_mdp(5, (3, 1, 2), 0.95, seed=102, max_width=3)
        seeds = [7, 2**63 + 1, 0]
        pols = [random_policy(mdp, 103 + r) for r in range(3)]
        cfg = m.SampleConfig(horizon=9, batch=5, seed=0, estimator=estimator)
        bank = sampling._StreamBank(mdp, cfg, seeds)
        runs = [0, 1, 2]
        for offset in (0, 5, 10, 15, 20, 25):
            if offset == 15:
                runs = [0, 2]
                bank.keep(np.array([True, False, True]))
            stacked = m.JointPolicy(
                [np.stack([pols[r].probs[i] for r in runs])
                 for i in range(3)], validate=False)
            got = m.estimate_eval(mdp, stacked, cfg, episode_offset=offset,
                                  bank=bank, seeds=[seeds[r] for r in runs])
            assert got.v.shape == (len(runs), 3, 5) and got.n_agents == 3
            for j, r in enumerate(runs):
                alone = m.estimate_eval(
                    mdp, pols[r], m.SampleConfig(9, 5, seeds[r], estimator),
                    episode_offset=offset)
                for field in ("v", "visitation", "visited_states"):
                    assert (getattr(got, field)[j].tobytes()
                            == getattr(alone, field).tobytes())
                for field in ("adv_marginal", "q_marginal", "visited_pairs"):
                    for x, y in zip(getattr(got, field),
                                    getattr(alone, field)):
                        assert x[j].tobytes() == y.tobytes()

    def test_stacked_batch_is_episode_major(self):
        mdp = sparse_mdp(4, (2, 3), 0.9, seed=104, max_width=2)
        seeds = [11, 12]
        pols = [random_policy(mdp, 105 + r) for r in range(2)]
        stacked = m.JointPolicy([np.stack([p.probs[i] for p in pols])
                                 for i in range(2)], validate=False)
        got = sampling._sample_batch(mdp, stacked, 8, seeds, 3, 6)
        for r in range(2):
            alone = sampling._sample_batch(mdp, pols[r], 8, seeds[r], 3, 6)
            for x, y in zip(got, alone):
                assert np.array_equal(x[:, r::2], y)

    def test_bank_for_another_run_rejected(self):
        mdp = random_mdp(3, (2, 2), 0.9, seed=97)
        pol = random_policy(mdp, 98)
        cfg = m.SampleConfig(horizon=5, batch=4, seed=1)
        bank = sampling._StreamBank(mdp, m.SampleConfig(5, 4, seed=2))
        with pytest.raises(ValueError, match="stream bank"):
            m.estimate_eval(mdp, pol, cfg, bank=bank)

    def test_too_many_agents_for_stream_layout(self):
        n = 256                             # n + 1 streams exceed 8 tag bits
        mdp = m.MultiAgentMDP((1,) * n, np.zeros((n, 1, 1)),
                              np.ones((1, 1, 1)), 0.9, np.ones(1))
        pol = m.JointPolicy([np.ones((1, 1))] * n)
        with pytest.raises(ValueError, match="stream layout"):
            m.estimate_eval(mdp, pol, m.SampleConfig(horizon=2, batch=1))


def csr_loop_sample_batch(mdp, policy, horizon, seed, episode_offset,
                          batch):
    """Reference rollout whose next-state draw walks the CSR transition row
    of each episode in turn: a cumsum of the row's stored probabilities and
    a searchsorted of the episode's uniform, clamped to the row's last
    successor.  Agent draws and the initial state are drawn as the sampler
    draws them."""
    n, T, B = mdp.n_agents, horizon, batch
    u = sampling._uniforms(seed, episode_offset, B, n + 1, T + 1)
    agent_u, env_u = u[:T, :, :n], u[:T + 1, :, n]
    cum_all = sampling._padded_cumsum(policy, mdp.n_actions)
    mu_cdf = np.cumsum(mdp.mu)
    s = np.minimum(np.searchsorted(mu_cdf, env_u[0] * mu_cdf[-1],
                                   side="right"), mdp.n_states - 1)
    P = mdp.transitions
    states = np.empty((T, B), dtype=np.int64)
    actions = np.empty((T, B, n), dtype=np.int64)
    rewards = np.empty((T, B, n))
    for t in range(T):
        states[t] = s
        rows = cum_all[:, s, :]
        target = agent_u[t].T * rows[:, :, -1]
        actions[t] = (rows <= target[:, :, None]).sum(axis=2).T
        joint = np.array([mdp.joint_index(a) for a in actions[t]])
        rewards[t] = mdp.rewards[:, s, joint].T
        nxt = np.empty(B, dtype=np.int64)
        for b in range(B):
            row = s[b] * mdp.n_joint + joint[b]
            lo, hi = P.indptr[row], P.indptr[row + 1]
            cdf = np.cumsum(P.data[lo:hi])
            k = np.searchsorted(cdf, env_u[t + 1, b] * cdf[-1], side="right")
            nxt[b] = P.indices[lo + min(k, hi - lo - 1)]
        s = nxt
    return states, actions, rewards


def unsorted_csr_mdp():
    """1 agent, 2 actions, 2 states, stored as a CSR matrix whose rows 0 and
    2 list their columns out of order and row 2 repeats column 0; also
    returns the same game's dense (S, A, S) tensor."""
    data = [0.7, 0.3, 1.0, 0.2, 0.6, 0.2, 0.5, 0.5]
    indices = [1, 0, 1, 0, 1, 0, 1, 0]
    P = sp.csr_matrix((data, indices, [0, 2, 3, 6, 8]), shape=(4, 2))
    dense = np.array([[[0.3, 0.7], [0.0, 1.0]], [[0.4, 0.6], [0.5, 0.5]]])
    rewards = np.array([[[0.0, 1.0], [0.5, 0.25]]])
    return P, dense, rewards


class TestTransitionDraw:
    """The padded successor-table draw, bit for bit against the per-episode
    CSR loop."""

    @pytest.mark.parametrize("kind", ["dense", "mixed-width", "deterministic",
                                      "unsorted-csr"])
    def test_matches_per_episode_csr_loop(self, kind):
        if kind == "unsorted-csr":
            P, _, rewards = unsorted_csr_mdp()
            mdp = m.MultiAgentMDP((2,), rewards, P, 0.9, [0.5, 0.5])
        else:
            width = {"dense": 6, "mixed-width": 4, "deterministic": 1}[kind]
            mdp = sparse_mdp(6, (2, 3), 0.9, seed=99, max_width=width)
        succ, cdf, _ = mdp.successors
        assert succ.shape[1] == (1 if kind == "deterministic"
                                 else np.diff(mdp.transitions.indptr).max())
        assert (cdf is None) == (kind == "deterministic")
        pol = random_policy(mdp, 100)
        draw = sampling._sample_batch(mdp, pol, 30, seed=7, episode_offset=3,
                                      batch=200)
        loop = csr_loop_sample_batch(mdp, pol, 30, 7, 3, 200)
        for x, y in zip(draw, loop):
            assert np.array_equal(x, y)
        assert len(np.unique(draw[0])) > 1

    def test_unsorted_csr_is_the_game_of_its_dense_tensor(self):
        P, dense, rewards = unsorted_csr_mdp()
        before = [a.copy() for a in (P.data, P.indices, P.indptr)]
        mdp = m.MultiAgentMDP((2,), rewards, P, 0.9, [0.5, 0.5])
        for a, b in zip((P.data, P.indices, P.indptr), before):
            assert np.array_equal(a, b)     # the caller's matrix is untouched
        assert mdp.transitions.has_canonical_format
        twin = m.MultiAgentMDP((2,), rewards, dense, 0.9, [0.5, 0.5])
        pol = random_policy(mdp, 101)
        for x, y in zip(sampling._sample_batch(mdp, pol, 30, 7, 0, 200),
                        sampling._sample_batch(twin, pol, 30, 7, 0, 200)):
            assert np.array_equal(x, y)
        rep = m.evaluate(mdp, pol, want_q=True)
        rep_twin = m.evaluate(twin, pol, want_q=True)
        for field in ("v", "visitation", "q"):
            assert np.array_equal(getattr(rep, field), getattr(rep_twin, field))
