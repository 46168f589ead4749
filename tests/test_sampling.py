"""Monte Carlo estimation: determinism, marginal correctness against exact
one-step probabilities, and convergence toward exact values."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpglearn as m
from mpglearn import sampling
from mpglearn.cli import build_environment, load_config

from conftest import (assert_same_bytes, random_mdp, random_policy,
                      reference_settle_step, settling_mdp, sparse_mdp,
                      transition_matrix)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


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
        mdp = m.MultiAgentMDP(mdp.n_actions, mdp.rewards, mdp.csr,
                              mdp.gamma, np.array([1.0, 0.0, 0.0]))
        pol = random_policy(mdp, 83)
        from mpglearn.sampling import _sample_batch
        states, _, _ = _sample_batch(mdp, pol, 2, seed=84, episode_offset=0,
                                     batch=100_000)
        counts = np.bincount(states[1], minlength=3) / states.shape[1]
        P = transition_matrix(mdp).toarray().reshape(3, 2, 3)
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
                               mdp.csr, mdp.gamma, mdp.mu)
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
        P[:, 0] = transition_matrix(mdp).toarray().reshape(3, 1, 3)[:, 0]
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
        P[:, 0] = transition_matrix(mdp).toarray().reshape(3, 1, 3)[:, 0]
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


def uniforms(seed, start, count, n_streams, n_draws):
    """Uniform draws of episodes start..start+count-1 on streams
    0..n_streams-1, n_draws on each, from one `_stream_uniforms` call: the
    draws of n_streams - 1 agents and of the environment stream.

    `seed` is one seed, or an array of R run seeds.  Returns u of shape
    (D, count, n_streams), or (D, count, R, n_streams) for R seeds, with
    D = n_draws rounded up to a multiple of 4, where u[:n_draws, e, s]
    (u[:n_draws, e, r, s]) equals
    Generator(Philox(key=[seed, ((start + e) << 8) | s])).random(n_draws).
    """
    seeds = np.asarray(seed, dtype=np.uint64)
    u = np.concatenate(sampling._stream_uniforms(
        seeds.ravel(), start, count, (n_streams - 1, n_draws, n_draws)),
        axis=-1)
    return u.reshape(u.shape[:2] + seeds.shape + (n_streams,))


def count_chunks(monkeypatch):
    """The (first episode, episodes) of every Philox draw made for a
    rollout while the test runs: a bank's chunks, and the batches drawn
    without a bank."""
    chunks = []
    draw = sampling._stream_uniforms

    def counting(seeds, start, count, counts):
        chunks.append((start, count))
        return draw(seeds, start, count, counts)

    monkeypatch.setattr(sampling, "_stream_uniforms", counting)
    return chunks


class TestStreamDraws:
    """The vectorized Philox4x64-10 against numpy's own generator."""

    @pytest.mark.parametrize("seed", [0, 999, 2**63, 2**64 - 1])
    def test_matches_numpy_philox_for_every_count(self, seed):
        start = 2**48 - 1                   # crosses into the high key bits
        for count in range(1, 26):
            u = uniforms(seed, start, 3, 2, count)
            assert u.shape == (-(-count // 4) * 4, 3, 2)
            for e in range(3):
                for s in range(2):
                    expect = numpy_philox_uniforms(
                        seed, ((start + e) << 8) | s, count)
                    assert np.array_equal(u[:count, e, s], expect)

    def test_matches_numpy_philox_on_every_stream_tag(self):
        u = uniforms(999, 2**50 + 7, 2, 256, 21)
        for e in range(2):
            for s in range(256):
                expect = numpy_philox_uniforms(999, ((2**50 + 7 + e) << 8) | s,
                                               21)
                assert np.array_equal(u[:21, e, s], expect)

    def test_lane_slices_do_not_change_draws(self, monkeypatch):
        whole = uniforms(5, 10, 9, 3, 7)
        monkeypatch.setattr(sampling, "_MAX_LANES", 4)
        assert np.array_equal(uniforms(5, 10, 9, 3, 7), whole)

    def test_run_seeds_draw_as_their_own_streams(self, monkeypatch):
        seeds = np.array([0, 2**64 - 1, 5, 5], dtype=np.uint64)
        monkeypatch.setattr(sampling, "_MAX_LANES", 40)   # uneven slices
        u = uniforms(seeds, 2**48 - 3, 6, 3, 9)
        assert u.shape == (12, 6, 4, 3)
        for r, seed in enumerate(seeds):
            assert np.array_equal(u[:, :, r],
                                  uniforms(seed, 2**48 - 3, 6, 3, 9))

    def test_episode_beyond_key_space_rejected(self):
        with pytest.raises(ValueError, match="stream key"):
            uniforms(0, 2**56 - 1, 2, 1, 4)

    def test_shared_bank_equals_one_shot_estimates(self, monkeypatch):
        # batches of 7 against chunks of two batches (10 episodes rounded
        # up, and a pass of 4 lanes holds none): the requests span three
        # chunks, and the last one goes back to episode 0 and draws a fourth
        monkeypatch.setattr(sampling, "_CHUNK_EPISODES", 10)
        monkeypatch.setattr(sampling, "_MAX_LANES", 4)
        chunks = count_chunks(monkeypatch)
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
        # the estimates alone draw one batch each, the bank chunks of two
        assert [c for c in chunks if c[1] > 7] == [(0, 14), (14, 14),
                                                   (28, 14), (0, 14)]

    @pytest.mark.parametrize("estimator", ["first_visit", "every_visit"])
    def test_stacked_runs_equal_runs_alone(self, monkeypatch, estimator):
        # runs estimated together, through a bank that drops a run midway,
        # match each run estimated alone bit for bit; ragged action counts
        # and rows with up to three successors; chunks of 24 // R episodes
        # a run rounded up to whole batches: two batches for three runs, so
        # the run is dropped in the second chunk, and three for the two left
        monkeypatch.setattr(sampling, "_CHUNK_EPISODES", 24)
        monkeypatch.setattr(sampling, "_MAX_LANES", 4)
        chunks = count_chunks(monkeypatch)
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
                    assert_same_bytes(getattr(got, field)[j],
                                      getattr(alone, field), field)
                for field in ("adv_marginal", "q_marginal", "visited_pairs"):
                    for x, y in zip(getattr(got, field),
                                    getattr(alone, field)):
                        assert_same_bytes(x[j], y, field)
        assert [c for c in chunks if c[1] > 5] == [(0, 10), (10, 10),
                                                   (20, 15)]

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

    def test_bank_for_a_deterministic_mdp_rejected_by_a_stochastic_one(self):
        # same agents and horizon; only the environment draw count differs
        det = sparse_mdp(4, (2, 2), 0.9, seed=106, max_width=1)
        sto = sparse_mdp(4, (2, 2), 0.9, seed=107, max_width=3)
        assert det.successors[1] is None and sto.successors[1] is not None
        cfg = m.SampleConfig(horizon=5, batch=4, seed=1)
        bank = sampling._StreamBank(det, cfg)
        key = re.escape(f"{det!r}, 5, 4, [1]), batch needs ({sto!r}, 5, 4, "
                        f"[1]): differs in mdp (another MDP object)")
        with pytest.raises(ValueError, match=r"stream bank keyed \(mdp, "
                           r"horizon, batch, seeds\) = \(" + key):
            m.estimate_eval(sto, random_policy(sto, 108), cfg, bank=bank)

    def test_bank_for_another_run_rejected(self):
        mdp = random_mdp(3, (2, 2), 0.9, seed=97)
        pol = random_policy(mdp, 98)
        cfg = m.SampleConfig(horizon=5, batch=4, seed=1)
        bank = sampling._StreamBank(mdp, m.SampleConfig(5, 4, seed=2))
        with pytest.raises(ValueError, match="stream bank"):
            m.estimate_eval(mdp, pol, cfg, bank=bank)

    @pytest.mark.parametrize("seed", [1.5, -1, 2**64, "3"])
    def test_bad_seed_named(self, seed):
        # every sampler entry point checks its run seeds: no float is cut to
        # an integer, no string parsed, and no seed outside [0, 2**64)
        # wraps or raises without naming it
        mdp = random_mdp(3, (2, 2), 0.9, seed=128)
        pol = random_policy(mdp, 129)
        named = re.escape(f"run seed {seed!r} is not an integer in "
                          f"[0, 2**64)")
        with pytest.raises(ValueError, match=named):
            m.estimate_eval(mdp, pol, m.SampleConfig(5, 4, seed=seed))
        with pytest.raises(ValueError, match=named):
            m.estimate_eval(mdp, stacked_policy(mdp, [pol, pol]),
                            m.SampleConfig(5, 4), seeds=[2, seed])
        with pytest.raises(ValueError, match=named):
            m.sample_episode(mdp, pol, 5, seed)
        cfg = m.AlgoConfig("inpg", eta=1e-4, max_iters=2, eval_mode="sampled",
                           sample_cfg=m.SampleConfig(5, 4))
        with pytest.raises(ValueError, match=named):
            m.run(mdp, cfg, seeds=[seed, 2])

    def test_too_many_agents_for_stream_layout(self):
        n = 256                             # n + 1 streams exceed 8 tag bits
        mdp = m.MultiAgentMDP((1,) * n, np.zeros((n, 1, 1)),
                              np.ones((1, 1, 1)), 0.9, np.ones(1))
        pol = m.JointPolicy([np.ones((1, 1))] * n)
        with pytest.raises(ValueError, match="stream layout"):
            m.estimate_eval(mdp, pol, m.SampleConfig(horizon=2, batch=1))


def padded_cumsum(policy, n_actions):
    """(n, rows, A_max) cdf tables of every policy row, padded by repeating
    the last column; rows = S, or R*S (run-major) for (R, S, A_i) tables."""
    a_max = max(n_actions)
    n = len(policy.probs)
    rows = policy.probs[0].size // n_actions[0]
    out = np.empty((n, rows, a_max))
    for i, p in enumerate(policy.probs):
        c = np.cumsum(p.reshape(rows, n_actions[i]), axis=1)
        out[i, :, :c.shape[1]] = c
        if c.shape[1] < a_max:
            out[i, :, c.shape[1]:] = c[:, -1:]
    return out


def reference_sample_batch(mdp, policy, horizon, seed, episode_offset, batch):
    """Reference rollout that draws horizon + 1 values on every stream and
    steps per-agent actions through the horizon loop: each agent's action
    is its count of cdf entries at or below u * total, the joint action the
    weighted sum of the agents' actions, and the transition at the last
    step is drawn as well.  (states, actions, rewards) as `_sample_batch`
    returns them."""
    n, S, T, B = mdp.n_agents, mdp.n_states, horizon, batch
    seeds = np.asarray(seed, dtype=np.uint64)
    R = seeds.size
    u = uniforms(seeds, episode_offset, B, n + 1, T + 1)
    u = u.reshape(u.shape[0], B * R, n + 1)
    agent_u = u[:T, :, :n]                            # (T, B*R, n)
    env_u = u[:T + 1, :, n]                           # (T + 1, B*R)

    cum_all = padded_cumsum(policy, mdp.n_actions)    # (n, R*S, A_max)
    run_rows = np.tile(S * np.arange(R), B)
    mu_cdf = np.cumsum(mdp.mu)
    s = np.searchsorted(mu_cdf, env_u[0] * mu_cdf[-1], side="right")
    s = np.minimum(s, S - 1).astype(np.int64)

    succ, row_cdf, row_total = mdp.successors
    only = succ[:, 0]
    weights = np.cumprod((mdp.n_actions[1:] + (1,))[::-1])[::-1]

    states = np.empty((T, B * R), dtype=np.int64)
    actions = np.empty((T, B * R, n), dtype=np.int64)
    rewards = np.empty((T, B * R, n))
    for t in range(T):
        states[t] = s
        rows = cum_all[:, s + run_rows, :]            # (n, B*R, A_max)
        target = agent_u[t].T * rows[:, :, -1]        # (n, B*R)
        acts = (rows <= target[:, :, None]).sum(axis=2)
        actions[t] = acts.T
        joint = actions[t] @ weights                  # (B*R,)
        rewards[t] = mdp.rewards[:, s, joint].T
        flat = s * mdp.n_joint + joint
        if row_cdf is None:
            s = only[flat]
        else:
            tgt = env_u[t + 1] * row_total[flat]
            s = succ[flat, (row_cdf[flat] <= tgt[:, None]).sum(axis=1)]
    return states, actions, rewards


def csr_loop_sample_batch(mdp, policy, horizon, seed, episode_offset,
                          batch):
    """Reference rollout whose next-state draw walks the CSR transition row
    of each episode in turn: a cumsum of the row's stored probabilities and
    a searchsorted of the episode's uniform, clamped to the row's last
    successor.  Agent draws and the initial state are drawn as the sampler
    draws them."""
    n, T, B = mdp.n_agents, horizon, batch
    u = uniforms(seed, episode_offset, B, n + 1, T + 1)
    agent_u, env_u = u[:T, :, :n], u[:T + 1, :, n]
    cum_all = padded_cumsum(policy, mdp.n_actions)
    mu_cdf = np.cumsum(mdp.mu)
    s = np.minimum(np.searchsorted(mu_cdf, env_u[0] * mu_cdf[-1],
                                   side="right"), mdp.n_states - 1)
    P = transition_matrix(mdp)
    states = np.empty((T, B), dtype=np.int64)
    actions = np.empty((T, B, n), dtype=np.int64)
    rewards = np.empty((T, B, n))
    for t in range(T):
        states[t] = s
        rows = cum_all[:, s, :]
        target = agent_u[t].T * rows[:, :, -1]
        actions[t] = (rows <= target[:, :, None]).sum(axis=2).T
        joint = np.ravel_multi_index(actions[t].T, mdp.n_actions)
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


class TestTransitionDraw:
    """The padded successor-table draw, bit for bit against the per-episode
    CSR loop."""

    @pytest.mark.parametrize("kind", ["dense", "mixed-width", "deterministic",
                                      "two-state"])
    def test_matches_per_episode_csr_loop(self, kind):
        if kind == "two-state":         # 1 agent, rows of one and two entries
            dense = np.array([[[0.3, 0.7], [0.0, 1.0]],
                              [[0.4, 0.6], [0.5, 0.5]]])
            rewards = np.array([[[0.0, 1.0], [0.5, 0.25]]])
            mdp = m.MultiAgentMDP((2,), rewards, dense, 0.9, [0.5, 0.5])
        else:
            width = {"dense": 6, "mixed-width": 4, "deterministic": 1}[kind]
            mdp = sparse_mdp(6, (2, 3), 0.9, seed=99, max_width=width)
        succ, cdf, _ = mdp.successors
        assert succ.shape[1] == (1 if kind == "deterministic"
                                 else np.diff(mdp.csr[2]).max())
        assert (cdf is None) == (kind == "deterministic")
        pol = random_policy(mdp, 100)
        draw = sampling._sample_batch(mdp, pol, 30, seed=7, episode_offset=3,
                                      batch=200)
        loop = csr_loop_sample_batch(mdp, pol, 30, 7, 3, 200)
        for x, y in zip(draw, loop):
            assert np.array_equal(x, y)
        assert len(np.unique(draw[0])) > 1


def zero_first_actions(policy):
    """The policy with each agent's first action of every row given
    probability 0 (where it has another), so cdf rows start with ties."""
    tables = []
    for p in policy.probs:
        p = np.array(p)
        if p.shape[-1] > 1:
            p[..., 0] = 0.0
            p /= p.sum(axis=-1, keepdims=True)
        tables.append(p)
    return m.JointPolicy(tables, validate=False)


class TestRolloutOracle:
    """`_sample_batch` against `reference_sample_batch`, byte for byte in
    states, actions and rewards: over ragged actions, one to three
    successors per row, one to three runs, horizons that are and are not
    multiples of 4, and MDPs with absorbing states, whose batches leave the
    horizon loop once every episode is absorbed (at t = 0 when S = 1).
    Draws are computed in passes of one or two lanes."""

    @settings(max_examples=80, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 4), width=st.integers(1, 3),
           runs=st.integers(1, 3),
           horizon=st.sampled_from([1, 2, 3, 4, 5, 20]),
           batch=st.integers(1, 7), offset=st.integers(0, 2 ** 40),
           seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=3,
                          max_size=3),
           seed=st.integers(0, 2 ** 32 - 1), lanes=st.sampled_from([1, 2]),
           scalar=st.booleans(), zeros=st.booleans(),
           absorbing=st.integers(0, 2), upper=st.booleans())
    @example(n_actions=[3, 1, 2], n_states=4, width=3, runs=3, horizon=5,
             batch=4, offset=9, seeds=[0, 2 ** 64 - 1, 7], seed=1,
             lanes=2, scalar=False, zeros=True, absorbing=0, upper=False)
    @example(n_actions=[2], n_states=3, width=1, runs=1, horizon=1,
             batch=3, offset=0, seeds=[5, 0, 0], seed=2, lanes=1,
             scalar=True, zeros=False, absorbing=0, upper=False)
    @example(n_actions=[2, 3], n_states=1, width=1, runs=2, horizon=20,
             batch=3, offset=0, seeds=[5, 6, 0], seed=3, lanes=2,
             scalar=False, zeros=False, absorbing=1, upper=False)
    @example(n_actions=[2, 2], n_states=4, width=3, runs=3, horizon=20,
             batch=5, offset=2, seeds=[1, 2, 3], seed=39, lanes=1,
             scalar=False, zeros=True, absorbing=1, upper=False)
    @example(n_actions=[2, 2], n_states=4, width=1, runs=2, horizon=20,
             batch=4, offset=0, seeds=[1, 2, 3], seed=5, lanes=2,
             scalar=False, zeros=False, absorbing=1, upper=True)
    def test_matches_reference(self, n_actions, n_states, width, runs,
                               horizon, batch, offset, seeds, seed, lanes,
                               scalar, zeros, absorbing, upper):
        mdp = sparse_mdp(n_states, tuple(n_actions), 0.9, seed,
                         max_width=min(width, n_states), upper=upper,
                         absorbing=min(absorbing, n_states))
        pols = [random_policy(mdp, seed + 1 + r) for r in range(runs)]
        if zeros:
            pols = [zero_first_actions(p) for p in pols]
        if runs == 1 and scalar:
            policy, run_seeds = pols[0], seeds[0]
        else:
            policy = m.JointPolicy(
                [np.stack([p.probs[i] for p in pols])
                 for i in range(mdp.n_agents)], validate=False)
            run_seeds = seeds[:runs]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_MAX_LANES", lanes)
            chunks = count_chunks(patch)
            for k in range(3):
                start = offset + k * batch
                got = sampling._sample_batch(mdp, policy, horizon, run_seeds,
                                             start, batch)
                want = reference_sample_batch(mdp, policy, horizon,
                                              run_seeds, start, batch)
                for x, y in zip(got, want):
                    assert_same_bytes(x, y)
        assert len(chunks) >= 2


def reference_estimate(mdp, policy, cfg, episode_offset, seeds):
    """(v, q_marginal, visitation) of R runs from `reference_sample_batch`'s
    episodes, by a loop over the episodes in batch order: each step's
    discounted return is summed into its (run, state) bin and, at the first
    K steps, into each agent's (run, state, action) bin, at the first visit
    of that bin in the episode (or at every visit), and the bins' means are
    taken; the discounted state counts are summed step by step and
    normalized.  K = max(1, min(T, L)) for the settle step L that
    `reference_settle_step` enumerates (K = T when there is none): step L
    and every later step sit in a zero-reward absorbing state, whose Q
    entries are +0.0 whichever actions are counted there."""
    n, S, T, R = mdp.n_agents, mdp.n_states, cfg.horizon, len(seeds)
    gamma, every = mdp.gamma, cfg.estimator == "every_visit"
    settle = reference_settle_step(mdp)
    K = T if settle is None else max(1, min(T, settle))
    states, actions, rewards = reference_sample_batch(
        mdp, policy, T, seeds, episode_offset, cfg.batch)
    disc = gamma ** np.arange(T)
    d = np.zeros((R, S))
    for t in range(T):
        for e, s in enumerate(states[t]):
            d[e % R, s] += disc[t]
    v_sum, v_cnt = np.zeros((R, n, S)), np.zeros((R, S))
    q_sum = [np.zeros((R, S, a)) for a in mdp.n_actions]
    q_cnt = [np.zeros((R, S, a)) for a in mdp.n_actions]
    for e in range(states.shape[1]):
        r, acc, ret = e % R, np.zeros(n), np.zeros((T, n))
        for t in range(T - 1, -1, -1):
            acc = acc * gamma + rewards[t, e]
            ret[t] = acc
        seen = set()
        for t in range(T):
            s = states[t, e]
            if every or s not in seen:
                v_sum[r, :, s] += ret[t]
                v_cnt[r, s] += 1
            for i, a in enumerate(actions[t, e] if t < K else ()):
                if every or (i, s, a) not in seen:
                    q_sum[i][r, s, a] += ret[t, i]
                    q_cnt[i][r, s, a] += 1
                seen.add((i, s, a))
            seen.add(s)
    v = np.divide(v_sum, v_cnt[:, None], out=np.zeros_like(v_sum),
                  where=v_cnt[:, None] > 0)
    q = [np.divide(x, c, out=np.zeros_like(x), where=c > 0)
         for x, c in zip(q_sum, q_cnt)]
    adv = [np.where(c > 0, q_i - v[:, i, :, None], 0.0)
           for i, (q_i, c) in enumerate(zip(q, q_cnt))]
    return dict(v=v, q_marginal=q, adv_marginal=adv,
                visitation=d / d.sum(axis=1, keepdims=True),
                visited_states=v_cnt > 0,
                visited_pairs=[c > 0 for c in q_cnt])


class TestEstimatorOracle:
    """`estimate_eval` against `reference_estimate`, byte for byte in its
    values, marginal Q tables, advantages, visitation and visited flags,
    also on MDPs whose absorbing zero-reward states end the return
    recurrence early, and on games that settle (`settling`, and one state
    that is its own goal), whose estimate reads K < T steps.  A banked case
    makes three consecutive estimates from one _StreamBank whose chunks
    hold one or two batches (a pass of one or two lanes holds at most two,
    even of one-lane episodes), so they always draw a second chunk."""

    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 4), width=st.integers(1, 3),
           runs=st.integers(1, 3), horizon=st.sampled_from([1, 2, 5, 20]),
           batch=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           gamma=st.sampled_from([0.0, 0.5, 0.99]),
           estimator=st.sampled_from(["first_visit", "every_visit"]),
           absorbing=st.integers(0, 2), upper=st.booleans(),
           settling=st.booleans(), banked=st.booleans(),
           chunk=st.integers(1, 2), lanes=st.sampled_from([1, 2]))
    @example(n_actions=[2, 3], n_states=1, width=1, runs=2, horizon=20,
             batch=3, seed=3, gamma=0.99, estimator="first_visit",
             absorbing=1, upper=False, settling=False, banked=True,
             chunk=1, lanes=2)
    @example(n_actions=[2, 2], n_states=4, width=3, runs=3, horizon=20,
             batch=5, seed=9, gamma=0.99, estimator="every_visit",
             absorbing=1, upper=False, settling=False, banked=False,
             chunk=1, lanes=1)
    @example(n_actions=[2, 2], n_states=4, width=1, runs=2, horizon=20,
             batch=4, seed=5, gamma=0.5, estimator="first_visit",
             absorbing=1, upper=True, settling=False, banked=True,
             chunk=2, lanes=2)
    @example(n_actions=[3, 1, 2], n_states=4, width=3, runs=3, horizon=20,
             batch=5, seed=11, gamma=0.99, estimator="first_visit",
             absorbing=0, upper=False, settling=True, banked=True,
             chunk=1, lanes=2)
    @example(n_actions=[2, 2], n_states=4, width=2, runs=2, horizon=20,
             batch=4, seed=12, gamma=0.5, estimator="every_visit",
             absorbing=0, upper=False, settling=True, banked=False,
             chunk=1, lanes=2)
    @example(n_actions=[2, 3], n_states=4, width=1, runs=2, horizon=2,
             batch=6, seed=13, gamma=0.99, estimator="first_visit",
             absorbing=0, upper=False, settling=True, banked=True,
             chunk=2, lanes=1)
    @example(n_actions=[1], n_states=1, width=1, runs=1, horizon=1,
             batch=1, seed=0, gamma=0.5, estimator="first_visit",
             absorbing=0, upper=False, settling=False, banked=True,
             chunk=1, lanes=2)
    def test_matches_reference(self, n_actions, n_states, width, runs,
                               horizon, batch, seed, gamma, estimator,
                               absorbing, upper, settling, banked, chunk,
                               lanes):
        if settling:
            mdp = settling_mdp(n_states, tuple(n_actions), gamma, seed,
                               max_width=width)
        else:
            mdp = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                             max_width=min(width, n_states), upper=upper,
                             absorbing=min(absorbing, n_states))
        pols = [random_policy(mdp, seed + 1 + r) for r in range(runs)]
        policy = m.JointPolicy([np.stack([p.probs[i] for p in pols])
                                for i in range(mdp.n_agents)], validate=False)
        seeds = [seed + 7 * r for r in range(runs)]
        cfg = m.SampleConfig(horizon, batch, 0, estimator)
        bank = sampling._StreamBank(mdp, cfg, seeds) if banked else None
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(sampling, "_CHUNK_EPISODES", chunk * batch * runs)
            patch.setattr(sampling, "_MAX_LANES", lanes)
            chunks = count_chunks(patch)
            for offset in range(3, 3 + (3 if banked else 1) * batch, batch):
                got = m.estimate_eval(mdp, policy, cfg, episode_offset=offset,
                                      bank=bank, seeds=seeds)
                want = reference_estimate(mdp, policy, cfg, offset, seeds)
                for field in ("v", "visitation", "visited_states"):
                    assert_same_bytes(getattr(got, field), want[field],
                                      field)
                for field in ("q_marginal", "adv_marginal", "visited_pairs"):
                    for x, y in zip(getattr(got, field), want[field],
                                    strict=True):
                        assert_same_bytes(x, y, field)
        if banked:
            assert len(chunks) >= 2


def stacked_policy(mdp, pols):
    """The (R, S, A_i) tables of R single-run policies."""
    return m.JointPolicy([np.stack([p.probs[i] for p in pols])
                          for i in range(mdp.n_agents)], validate=False)


def shipped_mdp(name):
    return build_environment(load_config(CONFIGS / name).environment).mdp


class TestShippedGamesOracle:
    """`estimate_eval` against `reference_estimate` on the MDPs of the
    shipped sampled configs at their own shape (R = 2, T = B = 20, banked):
    distancing's 8 agents and 65,536 joint actions reach the digit table
    and the flat reward view at a width the Hypothesis oracles, at most 3
    agents and 4 states, never draw."""

    @pytest.mark.parametrize("config", ["scg4.ini", "distancing.ini"])
    def test_matches_reference(self, config):
        mdp = shipped_mdp(config)
        seeds = [0, 1]
        policy = stacked_policy(
            mdp, [random_policy(mdp, 111 + r) for r in range(len(seeds))])
        assert all(p.min() > 0 for p in policy.probs)
        cfg = m.SampleConfig(horizon=20, batch=20)
        bank = sampling._StreamBank(mdp, cfg, seeds)
        got = m.estimate_eval(mdp, policy, cfg, episode_offset=40,
                              bank=bank, seeds=seeds)
        want = reference_estimate(mdp, policy, cfg, 40, seeds)
        for field in ("v", "visitation", "visited_states"):
            assert_same_bytes(getattr(got, field), want[field], field)
        for field in ("q_marginal", "adv_marginal", "visited_pairs"):
            for x, y in zip(getattr(got, field), want[field], strict=True):
                assert_same_bytes(x, y, field)

    def test_sampled_estimate_builds_no_chain_cells(self):
        # only an exact solve reads the chain cells; validation, the draw
        # table and the digit table take what they need from the CSR arrays
        mdp = shipped_mdp("distancing.ini")
        policy = random_policy(mdp, 113)
        m.estimate_eval(mdp, policy, m.SampleConfig(horizon=20, batch=20))
        assert "chain_cells" not in mdp.__dict__
        assert mdp.digits.dtype == np.uint8
        m.evaluate(mdp, policy, agents=[])
        assert "chain_cells" in mdp.__dict__


class TestRunAxis:
    """Policy tables must carry the run axis of the seeds: tables of
    another run count, or without a run axis, are rejected with both
    shapes named instead of being estimated from the wrong rows."""

    @pytest.mark.parametrize("runs", [3, 1, None], ids=["3", "1", "none"])
    def test_mismatch_rejected(self, runs):
        mdp = shipped_mdp("scg4.ini")
        pols = [random_policy(mdp, 112 + r) for r in range(runs or 1)]
        policy = pols[0] if runs is None else stacked_policy(mdp, pols)
        shape = policy.probs[0].shape
        cfg = m.SampleConfig(horizon=20, batch=20)
        for bank in (None, sampling._StreamBank(mdp, cfg, [0, 1])):
            with pytest.raises(ValueError, match=(
                    rf"policy tables of shape {re.escape(str(shape))} need a "
                    r"run axis of the seeds' shape \(2,\)")):
                m.estimate_eval(mdp, policy, cfg, bank=bank, seeds=[0, 1])

    def test_one_seed_needs_tables_without_run_axis(self):
        mdp = shipped_mdp("scg4.ini")
        policy = stacked_policy(mdp, [random_policy(mdp, 113)])
        with pytest.raises(ValueError, match=r"seeds' shape \(\)"):
            sampling._sample_batch(mdp, policy, 5, 0, 0, 3)


class TestIndexPlan:
    """A call without a bank builds one _IndexPlan; a banked call builds
    none, and a bank used for another MDP, horizon, batch size or seeds is
    rejected with both keys named."""

    def test_builds(self, monkeypatch):
        builds = []
        plan = sampling._IndexPlan

        def counting(mdp, horizon, batch, runs):
            builds.append(runs)
            return plan(mdp, horizon, batch, runs)

        monkeypatch.setattr(sampling, "_IndexPlan", counting)
        mdp = sparse_mdp(4, (3, 2), 0.9, seed=114, max_width=2)
        seeds = [5, 6]
        policy = stacked_policy(
            mdp, [random_policy(mdp, 115 + r) for r in seeds])
        cfg = m.SampleConfig(horizon=7, batch=4)
        for k in range(3):
            m.estimate_eval(mdp, policy, cfg, episode_offset=4 * k,
                            seeds=seeds)
        assert builds == [2, 2, 2]
        bank = sampling._StreamBank(mdp, cfg, seeds)
        for k in range(3):
            m.estimate_eval(mdp, policy, cfg, episode_offset=4 * k,
                            bank=bank, seeds=seeds)
        assert builds == [2, 2, 2, 2]
        bank.keep(np.array([False, True]))
        assert builds == [2, 2, 2, 2, 1]

    def test_bank_for_another_mdp_or_batch_rejected(self):
        # the twin is another MDP object of the same shape, so both keys
        # print alike: the message names the field that differs
        mdp = sparse_mdp(4, (3, 2), 0.9, seed=116, max_width=2)
        twin = sparse_mdp(4, (3, 2), 0.9, seed=116, max_width=2)
        assert repr(twin) == repr(mdp)
        pol = random_policy(mdp, 117)
        cfg = m.SampleConfig(horizon=7, batch=4, seed=3)
        bank = sampling._StreamBank(mdp, cfg)
        m.estimate_eval(mdp, pol, cfg, bank=bank)
        keyed = (r"stream bank keyed \(mdp, horizon, batch, seeds\) = "
                 r"\(MultiAgentMDP\(.*\), 7, 4, \[3\]\), batch needs ")
        for game, other, needs, differs in (
                (twin, cfg, r"7, 4, \[3\]", r"mdp \(another MDP object\)"),
                (mdp, m.SampleConfig(7, 5, seed=3), r"7, 5, \[3\]", "batch"),
                (mdp, m.SampleConfig(8, 4, seed=3), r"8, 4, \[3\]",
                 "horizon"),
                (mdp, m.SampleConfig(7, 4, seed=4), r"7, 4, \[4\]", "seeds"),
                (twin, m.SampleConfig(8, 4, seed=4), r"8, 4, \[4\]",
                 r"mdp \(another MDP object\), horizon, seeds")):
            with pytest.raises(ValueError, match=(
                    keyed + r"\(MultiAgentMDP\(.*\), " + needs
                    + r"\): differs in " + differs + "$")):
                m.estimate_eval(game, pol, other, bank=bank)


class CountingNumpy:
    """numpy, counting the np.multiply calls made through it."""

    def __init__(self):
        self.multiplies = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name != "multiply":
            return attr

        def multiply(*args, **kwargs):
            self.multiplies += 1
            return attr(*args, **kwargs)
        return multiply


class TestAbsorbedExit:
    """The steps a sampled estimate and a full-horizon batch take at horizon
    20: every episode of the routing game sits in its goal from step 4 on,
    so the horizon loop steps 4 times, the estimate computes no later joint
    action (it reads K = 4 steps) and the batch those of steps 4..19 in one
    pass, and the return recurrence takes K - 1 = 3 steps; the distancing
    game has no absorbing state, and its recurrence takes T - 1 = 19
    steps."""

    @pytest.mark.parametrize(
        "game, absorbing, settle, single, tail, batch_tail, recurrence", [
            ("scg4", [34], 4, 4, [], [16], 3),
            ("distancing_return", [], None, 20, [], [], 19)],
        ids=["scg4", "distancing_return"])
    def test_steps_taken(self, request, monkeypatch, game, absorbing, settle,
                         single, tail, batch_tail, recurrence):
        if game == "scg4":
            cfg = load_config(CONFIGS / "scg4.ini")
            mdp = build_environment(cfg.environment).mdp
        else:
            mdp = request.getfixturevalue(game).mdp
        assert np.flatnonzero(mdp.absorbing).tolist() == absorbing
        assert mdp.settle_step == settle
        seeds = [0, 1]
        policy = m.JointPolicy(
            [np.full((len(seeds), mdp.n_states, a), 1.0 / a)
             for a in mdp.n_actions], validate=False)
        cfg = m.SampleConfig(horizon=20, batch=20)
        bank = sampling._StreamBank(mdp, cfg, seeds)
        bank.draws(0)                       # no Philox pass while counting
        steps = []
        joint_actions = sampling._joint_actions

        def counting(rows, u, digit_weights, out):
            steps.append(u.shape[0] if u.ndim == 3 else None)
            return joint_actions(rows, u, digit_weights, out)

        counted = CountingNumpy()
        monkeypatch.setattr(sampling, "_joint_actions", counting)
        monkeypatch.setattr(sampling, "np", counted)
        m.estimate_eval(mdp, policy, cfg, bank=bank, seeds=seeds)
        assert steps.count(None) == single
        assert [k for k in steps if k is not None] == tail
        assert counted.multiplies == recurrence
        steps.clear()
        sampling._sample_batch(mdp, policy, cfg.horizon, seeds, 0, cfg.batch)
        assert steps.count(None) == single
        assert [k for k in steps if k is not None] == batch_tail


def episode_lanes(mdp, horizon, steps):
    """The Philox lanes one episode of one run computes when its first
    `steps` of `horizon` steps are read: ceil(steps / 4) blocks on every
    agent stream; on the environment stream, when a transition row has more
    than one successor, the blocks of min(T, L + 1) draws (the initial state
    and the transitions the rollout steps; L the settle step, T without
    one), else 1 block for the initial state, or none when mu is a point
    mass."""
    settle = reference_settle_step(mdp)
    if np.diff(mdp.csr[2]).max() > 1:
        env = -(-(horizon if settle is None else min(horizon, settle + 1))
                // 4)
    else:
        env = int(np.count_nonzero(mdp.mu) > 1)
    return mdp.n_agents * -(-steps // 4) + env


def chunk_episodes(batch, runs, lanes):
    """The episodes of each run in a bank's chunk of episodes of `lanes`
    lanes each: the fewest whole batches holding _CHUNK_EPISODES // runs
    episodes, or the most whose lanes fit one pass of _MAX_LANES, if more."""
    least = batch
    while least < sampling._CHUNK_EPISODES // runs:
        least += batch
    fit = batch * (sampling._MAX_LANES // (batch * runs * lanes))
    return max(least, fit)


def point_mass(mdp, state):
    """`mdp` with mu a point mass on `state`."""
    mu = np.zeros(mdp.n_states)
    mu[state] = 1.0
    return m.MultiAgentMDP(mdp.n_actions, mdp.rewards, mdp.csr, mdp.gamma, mu)


class TestDrawCounts:
    """The Philox lanes a rollout computes: one draw per step read on every
    agent stream; on the environment stream the initial state and, when a
    transition row has more than one successor, the transitions the rollout
    steps, and nothing when neither is read; a bank computes whole batches
    that fill a pass of _MAX_LANES lanes."""

    @pytest.fixture
    def lanes(self, monkeypatch):
        """The lane count of every Philox pass made while the test runs."""
        lanes = []
        philox = sampling._philox4x64

        def counting(counter0, key1, seed):
            lanes.append(counter0.size)
            return philox(counter0, key1, seed)

        monkeypatch.setattr(sampling, "_philox4x64", counting)
        return lanes

    @pytest.mark.parametrize("horizon", [1, 3, 4, 5, 20])
    @pytest.mark.parametrize("width", [1, 3])
    def test_bank_chunk_computes_only_read_lanes(self, lanes, horizon,
                                                 width):
        mdp = sparse_mdp(5, (2, 3, 2), 0.9, seed=109, max_width=width)
        assert (mdp.successors[1] is not None) == (width > 1)
        per_run = episode_lanes(mdp, horizon, horizon)
        seeds = [3, 4]
        bank = sampling._StreamBank(mdp, m.SampleConfig(horizon, 6), seeds)
        assert bank.plan.steps == horizon           # the MDP does not settle
        bank.draws(0)
        chunk = chunk_episodes(6, len(seeds), per_run)
        assert sum(lanes) == chunk * len(seeds) * per_run
        assert max(lanes) <= sampling._MAX_LANES
        # a batch drawn without a bank computes the same lanes per episode
        lanes.clear()
        pol = random_policy(mdp, 110)
        sampling._sample_batch(mdp, pol, horizon, 3, 0, 6)
        assert sum(lanes) == 6 * per_run

    @pytest.mark.parametrize("horizon", [1, 3, 4, 5, 20])
    @pytest.mark.parametrize("width", [1, 3])
    def test_settled_estimate_computes_k_steps(self, lanes, horizon, width):
        mdp = settling_mdp(6, (2, 3, 2), 0.9, seed=118, max_width=width)
        assert (mdp.successors[1] is not None) == (width > 1)
        settle = mdp.settle_step
        assert settle == 5
        K = max(1, min(horizon, settle))
        seeds = [3, 4]
        cfg = m.SampleConfig(horizon, 6)
        bank = sampling._StreamBank(mdp, cfg, seeds)
        assert bank.plan.steps == K
        per_run = episode_lanes(mdp, horizon, K)
        policy = stacked_policy(mdp, [random_policy(mdp, 119 + r)
                                      for r in range(len(seeds))])
        m.estimate_eval(mdp, policy, cfg, bank=bank, seeds=seeds)
        chunk = chunk_episodes(6, len(seeds), per_run)
        assert sum(lanes) == len(seeds) * chunk * per_run
        # an estimate without a bank computes K steps of its own episodes
        lanes.clear()
        m.estimate_eval(mdp, policy, cfg, seeds=seeds)
        assert sum(lanes) == len(seeds) * 6 * per_run

    @pytest.mark.parametrize("horizon", [1, 4, 5, 6, 20])
    @pytest.mark.parametrize("width", [1, 3])
    def test_settled_estimate_draws(self, monkeypatch, horizon, width):
        # K agent draws; min(T, L + 1) environment draws on stochastic rows
        # (the initial state and the L transitions), else the initial state
        mdp = settling_mdp(6, (2, 3, 2), 0.9, seed=118, max_width=width)
        requests = []
        draw = sampling._stream_uniforms

        def recording(seeds, start, count, counts):
            requests.append(counts)
            return draw(seeds, start, count, counts)

        monkeypatch.setattr(sampling, "_stream_uniforms", recording)
        policy = random_policy(mdp, 123)
        m.estimate_eval(mdp, policy, m.SampleConfig(horizon, 3))
        env = min(horizon, 6) if width > 1 else 1
        assert requests == [(3, min(horizon, 5), env)]

    @pytest.mark.parametrize("width", [1, 3])
    def test_point_mass_mu_reads_no_initial_draw(self, lanes, width):
        # a point-mass mu starts every episode in its support: on rows with
        # one successor no environment lane is computed, and the episodes
        # are those the drawn initial state gives
        full = sparse_mdp(5, (2, 3), 0.9, seed=124, max_width=width)
        mdp = point_mass(full, 2)
        policy = random_policy(mdp, 125)
        # 7 steps: 2 blocks on every agent stream, and 2 on the environment
        # stream of stochastic rows
        stochastic = 2 if width > 1 else None
        for game, env in ((full, stochastic or 1), (mdp, stochastic or 0)):
            lanes.clear()
            got = sampling._sample_batch(game, policy, 7, 11, 4, 6)
            assert sum(lanes) == 6 * (game.n_agents * 2 + env)
            want = reference_sample_batch(game, policy, 7, 11, 4, 6)
            for x, y in zip(got, want):
                assert_same_bytes(x, y)
        assert (got[0][0] == 2).all()

    @pytest.mark.parametrize("batch, runs", [(6, 2), (7, 3), (20, 1)])
    @pytest.mark.parametrize("horizon", [1, 20])
    def test_bank_chunk_fills_a_pass(self, lanes, batch, runs, horizon):
        # whole batches, at least _CHUNK_EPISODES // runs episodes a run,
        # and one batch more would not fit a pass of _MAX_LANES lanes
        mdp = sparse_mdp(4, (2, 2), 0.9, seed=126, max_width=1)
        per_run = episode_lanes(mdp, horizon, horizon)
        bank = sampling._StreamBank(mdp, m.SampleConfig(horizon, batch),
                                    list(range(runs)))
        assert bank.plan.steps == horizon           # the MDP does not settle
        agent_u, _ = bank.draws(0)
        chunk = bank._u[0].shape[1]
        assert agent_u.shape[1] == batch
        assert chunk % batch == 0
        assert chunk >= sampling._CHUNK_EPISODES // runs
        assert (chunk + batch) * runs * per_run > sampling._MAX_LANES
        assert sum(lanes) == chunk * runs * per_run
        assert max(lanes) <= sampling._MAX_LANES

    @pytest.mark.parametrize("config, per_run, chunk", [
        ("scg4.ini", 4, 1020), ("scg8.ini", 8, 500),
        ("distancing.ini", 40, 320)])
    def test_shipped_lane_budget(self, lanes, config, per_run, chunk):
        # the Philox lanes per episode of a run of a shipped config's
        # estimate: one block per agent stream on the routing games (K = 4
        # steps), five on distancing, and no environment lane (a point-mass
        # mu and one successor per row)
        mdp = shipped_mdp(config)
        seeds = [0, 1]
        cfg = m.SampleConfig(horizon=20, batch=20)
        bank = sampling._StreamBank(mdp, cfg, seeds)
        policy = stacked_policy(mdp, [random_policy(mdp, 127 + r)
                                      for r in range(len(seeds))])
        m.estimate_eval(mdp, policy, cfg, bank=bank, seeds=seeds)
        assert episode_lanes(mdp, 20, bank.plan.steps) == per_run
        assert sum(lanes) == len(seeds) * chunk * per_run
        assert bank._u[0].shape[1] == chunk


class TestSettledEstimate:
    """On games that settle, the estimate over K = max(1, min(T, L)) steps
    against the same estimate over all T steps (the settle step hidden):
    only `visited_pairs` differs, and only at zero-reward absorbing states,
    where it flags fewer actions."""

    @pytest.mark.parametrize("game", ["scg4", "scg8", "settling", "single"])
    @pytest.mark.parametrize("estimator", ["first_visit", "every_visit"])
    def test_only_goal_pairs_differ(self, game, estimator):
        if game in ("scg4", "scg8"):
            mdp = shipped_mdp(f"{game}.ini")
        elif game == "settling":
            mdp = settling_mdp(5, (3, 1, 2), 0.95, seed=120, max_width=3)
        else:
            mdp = sparse_mdp(1, (2, 3), 0.9, seed=121, max_width=1,
                             absorbing=1)
        seeds = [0, 1]
        policy = stacked_policy(
            mdp, [random_policy(mdp, 122 + r) for r in range(len(seeds))])
        cfg = m.SampleConfig(horizon=20, batch=20, estimator=estimator)
        got = m.estimate_eval(mdp, policy, cfg, episode_offset=20,
                              seeds=seeds)
        mdp.__dict__["settle_step"] = None       # step every step
        want = m.estimate_eval(mdp, policy, cfg, episode_offset=20,
                               seeds=seeds)
        for field in ("v", "visitation", "visited_states"):
            assert_same_bytes(getattr(got, field), getattr(want, field),
                              field)
        for field in ("q_marginal", "adv_marginal"):
            assert_same_bytes(getattr(got, field).stacked,
                              getattr(want, field).stacked, field)
        goal = mdp.absorbing & ~mdp.rewards.any(axis=(0, 2))
        lost = want.visited_pairs.stacked & ~got.visited_pairs.stacked
        assert not (got.visited_pairs.stacked & ~want.visited_pairs.stacked
                    ).any()
        assert lost.any()
        assert goal[np.nonzero(lost)[-2]].all()
