"""Monte Carlo policy evaluation from episodic mini-batches.

Randomness comes from counter-based Philox streams keyed by
(seed, episode, stream), where stream 0..n-1 drives each agent's action
draws and stream n drives the environment (initial state and transitions).
Episodes are therefore independent of each other and of execution order:
sampling a batch in parallel (or stepping all of its episodes in lockstep,
as the estimator does) is bit-identical to sampling episodes one at a time,
and identical (mdp, policy, config) inputs reproduce the same EvalReport.

The draws come from a numpy Philox4x64-10 that is bit-identical to
`np.random.Generator(np.random.Philox(key=[seed, (episode << 8) | stream]))
.random(count)`, computed for every (episode, stream, block) lane in one
array pass.  Because the draws do not depend on the policy, a learning run
keeps a _StreamBank that computes them a chunk of episodes ahead, so one
pass serves many updates.  Next states come from the successor table the
MDP derives from its CSR transition rows (`MultiAgentMDP.successors`).
"""

from dataclasses import dataclass

import numpy as np

from .core import EvalReport

_STREAM_BITS = 8
_MAX_STREAMS = 1 << _STREAM_BITS


@dataclass(frozen=True)
class SampleConfig:
    """Episodic estimation protocol: horizon, batch size, seed, estimator.

    Discounted returns are truncated at the horizon (matching the episodic
    update protocol; the truncation bias is deliberate and documented).
    estimator chooses how returns are attributed to states and
    (state, action) pairs: "first_visit" (default) or "every_visit".
    """
    horizon: int = 20
    batch: int = 20
    seed: int = 0
    estimator: str = "first_visit"

    def check(self):
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if self.estimator not in ("first_visit", "every_visit"):
            raise ValueError(f"unknown estimator {self.estimator!r}")


# Philox4x64-10 (Salmon et al., SC'11, "Parallel random numbers: as easy as
# 1, 2, 3") with numpy's constants.  Row 0 acts on counter word 0 and row 1 on
# word 2, the two words each round multiplies.
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]],
                     dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]],
                     dtype=np.uint64)
_M_LO, _M_HI = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
_PHILOX_ROUNDS = 10

# episodes whose draws a _StreamBank computes in one pass
_CHUNK_EPISODES = 640
# Philox lanes (one lane = one 4-word block) per array pass; larger requests
# are computed in slices of episodes so temporaries stay bounded
_MAX_LANES = 1 << 14


def _philox4x64(counter0, key1, seed):
    """Philox4x64-10 blocks for counters (counter0, 0, 0, 0) under keys
    (seed, key1), one lane per element; returns the four output words.

    The 64x64 -> 128-bit products are formed from 32-bit halves, with both
    multiplied words of every lane held in one (2, L) array; every round
    works in place on a few such arrays.
    """
    x = np.zeros((2, counter0.size), dtype=np.uint64)   # words 0 and 2
    x[0] = counter0
    y = np.zeros_like(x)                                 # words 1 and 3
    key = np.empty_like(x)
    key[0] = seed
    key[1] = key1
    half, t, u, w = (np.empty_like(x) for _ in range(4))
    for r in range(_PHILOX_ROUNDS):
        if r:
            key += _PHILOX_W
        # high 64 bits of M * x from the halves M = (Mh, Ml), x = (xh, xl)
        np.bitwise_and(x, 0xFFFFFFFF, out=half)          # xl
        np.multiply(half, _M_LO, out=t)
        np.multiply(half, _M_HI, out=u)
        t >>= 32
        u += t                                           # Mh*xl + Ml*xl>>32
        np.right_shift(x, 32, out=half)                  # xh
        np.multiply(half, _M_LO, out=w)
        np.bitwise_and(u, 0xFFFFFFFF, out=t)
        w += t                                           # Ml*xh + low(u)
        u >>= 32
        w >>= 32
        np.multiply(half, _M_HI, out=half)
        half += u
        half += w                                        # mulhi(M, x)
        np.multiply(x, _PHILOX_M, out=t)                 # mullo(M, x)
        # (w0, w1, w2, w3) <- (hi2 ^ w1 ^ k0, lo2, hi0 ^ w3 ^ k1, lo0)
        np.bitwise_xor(half[::-1], y, out=x)
        x ^= key
        y, t = t[::-1], y
    return x[0], y[0], x[1], y[1]


def _uniforms(seed, start, count, n_streams, n_draws):
    """Uniform draws of episodes start..start+count-1 on every stream.

    Returns u of shape (D, count, n_streams), D = n_draws rounded up to a
    multiple of 4, where u[:n_draws, e, s] equals
    Generator(Philox(key=[seed, ((start + e) << 8) | s])).random(n_draws).
    """
    if start < 0 or start + count > 1 << (64 - _STREAM_BITS):
        raise ValueError(f"episodes {start}..{start + count - 1} do not fit "
                         f"the stream key")
    blocks = -(-n_draws // 4)
    out = np.empty((blocks, 4, count, n_streams))
    step = max(1, _MAX_LANES // (blocks * n_streams))
    tags = np.arange(n_streams, dtype=np.uint64)
    # numpy's Philox increments the counter before its first block
    counter0 = np.arange(1, blocks + 1, dtype=np.uint64)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        eps = np.arange(start + lo, start + hi, dtype=np.uint64)
        key1 = (eps[:, None] << _STREAM_BITS) | tags
        lanes = (blocks, hi - lo, n_streams)
        words = _philox4x64(
            np.broadcast_to(counter0[:, None, None], lanes).ravel(),
            np.broadcast_to(key1, lanes).ravel(), np.uint64(seed))
        for w, word in enumerate(words):
            # Generator.random: the top 53 bits scaled into [0, 1)
            out[:, w, lo:hi] = (word >> 11).reshape(lanes) * 2.0 ** -53
    return out.reshape(4 * blocks, count, n_streams)


class _StreamBank:
    """Draws of one sampled run's streams, computed a chunk of episodes ahead.

    The draws depend only on (seed, episode, stream), never on the policy, so
    one pass over _CHUNK_EPISODES episodes serves every estimate whose batch
    falls inside the chunk; a request outside it starts a new chunk there.
    """

    def __init__(self, mdp, cfg):
        self.key = (cfg.seed, mdp.n_agents + 1, cfg.horizon + 1)
        self._start = 0
        self._u = np.empty((0, 0, 0))

    def draws(self, start, count):
        """(D, count, n_agents + 1) draws of episodes start..start+count-1."""
        lo = start - self._start
        if lo < 0 or lo + count > self._u.shape[1]:
            seed, n_streams, n_draws = self.key
            self._u = _uniforms(seed, start, max(count, _CHUNK_EPISODES),
                                n_streams, n_draws)
            self._start, lo = start, 0
        return self._u[:, lo:lo + count]


def _padded_cumsum(policy, n_actions):
    """(n, S, A_max) per-state cdf tables, padded by repeating the last column."""
    a_max = max(n_actions)
    n = len(policy.probs)
    S = policy.probs[0].shape[0]
    out = np.empty((n, S, a_max))
    for i, p in enumerate(policy.probs):
        c = np.cumsum(p, axis=1)
        out[i, :, :c.shape[1]] = c
        if c.shape[1] < a_max:
            out[i, :, c.shape[1]:] = c[:, -1:]
    return out


def _sample_batch(mdp, policy, horizon, seed, episode_offset, batch,
                  bank=None):
    """Step `batch` episodes in lockstep; returns (states, actions, rewards)
    with shapes (T, B), (T, B, n), (T, B, n).  Draws come from `bank` when
    given (it must be keyed to this seed, agent count and horizon), else
    they are computed for exactly this batch."""
    if mdp.n_agents + 1 > _MAX_STREAMS:
        raise ValueError("too many agents for the stream layout")
    n, T, B = mdp.n_agents, horizon, batch
    if bank is None:
        u = _uniforms(seed, episode_offset, B, n + 1, T + 1)
    elif bank.key != (seed, n + 1, T + 1):
        raise ValueError(f"stream bank keyed (seed, streams, draws) = "
                         f"{bank.key}, batch needs {(seed, n + 1, T + 1)}")
    else:
        u = bank.draws(episode_offset, B)
    agent_u = u[:T, :, :n]                            # (T, B, n)
    env_u = u[:T + 1, :, n]                           # (T + 1, B)

    cum_all = _padded_cumsum(policy, mdp.n_actions)
    mu_cdf = np.cumsum(mdp.mu)
    s = np.searchsorted(mu_cdf, env_u[0] * mu_cdf[-1], side="right")
    s = np.minimum(s, mdp.n_states - 1).astype(np.int64)

    succ, row_cdf, row_total = mdp.successors
    only = succ[:, 0]                   # the successor of every row if W == 1
    weights = np.cumprod((mdp.n_actions[1:] + (1,))[::-1])[::-1]

    states = np.empty((T, B), dtype=np.int64)
    actions = np.empty((T, B, n), dtype=np.int64)
    rewards = np.empty((T, B, n))
    for t in range(T):
        states[t] = s
        rows = cum_all[:, s, :]                       # (n, B, A_max)
        target = agent_u[t].T * rows[:, :, -1]        # (n, B)
        acts = (rows <= target[:, :, None]).sum(axis=2)
        actions[t] = acts.T
        joint = actions[t] @ weights                  # (B,)
        rewards[t] = mdp.rewards[:, s, joint].T
        flat = s * mdp.n_joint + joint
        if row_cdf is None:
            s = only[flat]
        else:
            tgt = env_u[t + 1] * row_total[flat]
            s = succ[flat, (row_cdf[flat] <= tgt[:, None]).sum(axis=1)]
    return states, actions, rewards


def sample_episode(mdp, policy, horizon, seed, episode=0):
    """Roll one episode of fixed length.

    Returns (states, actions, rewards) with shapes (T,), (T, n), (T, n).
    The initial state follows mu, each agent draws from its own policy row
    independently, and the next state follows the joint transition row.
    Deterministic given (seed, episode), and identical to the corresponding
    episode of any batch containing it.
    """
    states, actions, rewards = _sample_batch(mdp, policy, horizon, seed,
                                             episode, 1)
    return states[:, 0], actions[:, 0], rewards[:, 0]


def estimate_eval(mdp, policy, cfg, episode_offset=0, bank=None):
    """Estimate values, marginal advantages and visitation from a mini-batch.

    V(s) averages discounted returns from visits to s (first or every visit
    per cfg.estimator); the marginal Q of agent i at (s, a) averages returns
    from visits where the agent played a.  Advantages are Q - V where both
    were visited and 0 (flagged in visited_pairs) otherwise, so a state whose
    batch actions were unanimous contributes an exactly-zero advantage.
    Visitation is the normalized discounted state count.  Episode k of the
    batch uses stream index episode_offset + k, letting callers draw fresh
    episodes across iterations from one seed.  A run that estimates batch
    after batch passes one `_StreamBank(mdp, cfg)` as `bank`, so the draws
    of many batches are computed in one pass; the report is the same.
    """
    cfg.check()
    n, S = mdp.n_agents, mdp.n_states
    T, B = cfg.horizon, cfg.batch
    gamma = mdp.gamma
    first = cfg.estimator == "first_visit"

    states, actions, rewards = _sample_batch(mdp, policy, T, cfg.seed,
                                             episode_offset, B, bank)
    returns = np.empty((T, B, n))
    acc = np.zeros((B, n))
    for t in range(T - 1, -1, -1):
        acc *= gamma
        acc += rewards[t]
        returns[t] = acc

    disc = gamma ** np.arange(T)
    d_acc = np.bincount(states.ravel(),
                        weights=np.broadcast_to(disc[:, None], (T, B)).ravel(),
                        minlength=S)

    # column-major ravel puts each episode's steps in time order, so
    # np.unique(..., return_index) lands on first visits
    ep_state = states + S * np.arange(B)[None, :]
    flat_F = ep_state.ravel(order="F")
    if first:
        keys, idx = np.unique(flat_F, return_index=True)
        t_idx, b_idx = idx % T, idx // T
        s_part = keys % S
        v_cnt = np.bincount(s_part, minlength=S).astype(float)
        v_sum = np.zeros((n, S))
        for i in range(n):
            v_sum[i] = np.bincount(s_part, weights=returns[t_idx, b_idx, i],
                                   minlength=S)
    else:
        s_part = flat_F % S
        v_cnt = np.bincount(s_part, minlength=S).astype(float)
        v_sum = np.zeros((n, S))
        for i in range(n):
            v_sum[i] = np.bincount(s_part,
                                   weights=returns[:, :, i].ravel(order="F"),
                                   minlength=S)

    visited_states = v_cnt > 0
    v = np.zeros((n, S))
    v[:, visited_states] = v_sum[:, visited_states] / v_cnt[visited_states]

    q_marg, adv, visited_pairs = [], [], []
    for i in range(n):
        a_i = mdp.n_actions[i]
        pair = ep_state * a_i + actions[:, :, i]
        pair_F = pair.ravel(order="F")
        if first:
            keys, idx = np.unique(pair_F, return_index=True)
            local = keys % (S * a_i)
            cnt = np.bincount(local, minlength=S * a_i).astype(float)
            qs = np.bincount(local, weights=returns[idx % T, idx // T, i],
                             minlength=S * a_i)
        else:
            local = pair_F % (S * a_i)
            cnt = np.bincount(local, minlength=S * a_i).astype(float)
            qs = np.bincount(local, weights=returns[:, :, i].ravel(order="F"),
                             minlength=S * a_i)
        cnt = cnt.reshape(S, a_i)
        qs = qs.reshape(S, a_i)
        mask = cnt > 0
        qm = np.zeros((S, a_i))
        qm[mask] = qs[mask] / cnt[mask]
        ad = np.zeros((S, a_i))
        ad[mask] = qm[mask] - np.broadcast_to(v[i][:, None], (S, a_i))[mask]
        q_marg.append(qm)
        adv.append(ad)
        visited_pairs.append(mask)

    total = d_acc.sum()
    visitation = d_acc / total if total > 0 else d_acc
    return EvalReport(v=v, adv_marginal=tuple(adv), visitation=visitation,
                      q=None, q_marginal=tuple(q_marg),
                      visited_states=visited_states,
                      visited_pairs=tuple(visited_pairs))
