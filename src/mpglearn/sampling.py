"""Monte Carlo policy evaluation from episodic mini-batches.

Randomness comes from counter-based Philox streams keyed by
(seed, episode, stream), where stream 0..n-1 drives each agent's action
draws and stream n drives the environment (initial state and transitions).
Episodes are therefore independent of each other and of execution order:
sampling a batch in parallel (or stepping all of its episodes in lockstep,
as the estimator does) is bit-identical to sampling episodes one at a time,
and identical (mdp, policy, config) inputs reproduce the same EvalReport.

The same holds across runs.  Given R seeds and a policy whose tables carry
a leading run axis, (R, S, A_i), the sampler steps the batches of all R
runs together: column b*R + r holds episode b of run r (episode-major,
run-minor), every np.unique / np.bincount key carries the run's offset, and
each bin sums its entries in the order a single run sums them, so run r of
the stacked report is bit-identical to a report computed for run r alone.
A single run is the case of a scalar seed and (S, A_i) tables.

The draws come from a numpy Philox4x64-10 that is bit-identical to
`np.random.Generator(np.random.Philox(key=[seed, (episode << 8) | stream]))
.random(count)`, computed for every (episode, run, stream, block) lane in
one array pass.  Because the draws do not depend on the policy, a learning
run keeps a _StreamBank that computes them a chunk of episodes ahead, so one
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

# (episode, run) pairs whose draws a _StreamBank computes in one pass: R
# runs share a chunk of _CHUNK_EPISODES // R episodes, so the bank's memory
# does not grow with the number of runs
_CHUNK_EPISODES = 640
# Philox lanes (one lane = one 4-word block) per array pass; larger requests
# are computed in slices of episodes so temporaries stay bounded
_MAX_LANES = 1 << 14


def _philox4x64(counter0, key1, seed):
    """Philox4x64-10 blocks for counters (counter0, 0, 0, 0) under keys
    (seed, key1), one lane per element (seed a scalar or one seed per lane);
    returns the four output words.

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

    `seed` is one seed, or an array of R run seeds.  Returns u of shape
    (D, count, n_streams), or (D, count, R, n_streams) for R seeds, with
    D = n_draws rounded up to a multiple of 4, where u[:n_draws, e, s]
    (u[:n_draws, e, r, s]) equals
    Generator(Philox(key=[seed, ((start + e) << 8) | s])).random(n_draws).
    """
    if start < 0 or start + count > 1 << (64 - _STREAM_BITS):
        raise ValueError(f"episodes {start}..{start + count - 1} do not fit "
                         f"the stream key")
    seeds = np.asarray(seed, dtype=np.uint64)
    runs = seeds.size
    blocks = -(-n_draws // 4)
    out = np.empty((blocks, 4, count, runs, n_streams))
    step = max(1, _MAX_LANES // (blocks * runs * n_streams))
    tags = np.arange(n_streams, dtype=np.uint64)
    # numpy's Philox increments the counter before its first block
    counter0 = np.arange(1, blocks + 1, dtype=np.uint64)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        eps = np.arange(start + lo, start + hi, dtype=np.uint64)
        key1 = (eps[:, None, None] << _STREAM_BITS) | tags
        lanes = (blocks, hi - lo, runs, n_streams)
        words = _philox4x64(
            np.broadcast_to(counter0[:, None, None, None], lanes).ravel(),
            np.broadcast_to(key1, lanes).ravel(),
            np.broadcast_to(seeds.reshape(runs, 1), lanes).ravel())
        for w, word in enumerate(words):
            # Generator.random: the top 53 bits scaled into [0, 1)
            out[:, w, lo:hi] = (word >> 11).reshape(lanes) * 2.0 ** -53
    return out.reshape((4 * blocks, count) + seeds.shape + (n_streams,))


class _StreamBank:
    """Draws of the streams of R sampled runs, computed a chunk of episodes
    ahead.

    The draws depend only on (seed, episode, stream), never on the policy, so
    one pass over a chunk of episodes of every run serves every estimate
    whose batch falls inside the chunk; a request outside it starts a new
    chunk there.  `seeds` defaults to the one seed of `cfg`; `keep` drops
    the runs that have stopped.
    """

    def __init__(self, mdp, cfg, seeds=None):
        self.seeds = np.atleast_1d(np.asarray(
            cfg.seed if seeds is None else seeds, dtype=np.uint64))
        self.shape = (mdp.n_agents + 1, cfg.horizon + 1)   # streams, draws
        self._start = 0
        self._u = np.empty((0, 0, self.seeds.size, 0))

    def draws(self, start, count):
        """(D, count, R, n_agents + 1) draws of episodes start, ...,
        start + count - 1."""
        lo = start - self._start
        if lo < 0 or lo + count > self._u.shape[1]:
            chunk = max(count, _CHUNK_EPISODES // self.seeds.size)
            self._u = _uniforms(self.seeds, start, chunk, *self.shape)
            self._start, lo = start, 0
        return self._u[:, lo:lo + count]

    def keep(self, mask):
        """Keep the runs where `mask` is true, with the draws already made."""
        self.seeds = self.seeds[mask]
        self._u = self._u[:, :, mask]


def _padded_cumsum(policy, n_actions):
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


def _sample_batch(mdp, policy, horizon, seed, episode_offset, batch,
                  bank=None):
    """Step `batch` episodes of every run in lockstep.

    `seed` is one seed with (S, A_i) policy tables, or R run seeds with
    (R, S, A_i) tables; column b*R + r then holds episode
    episode_offset + b of run r (R = 1 for one seed).  Returns (states,
    actions, rewards) with shapes (T, B*R), (T, B*R, n), (T, B*R, n).
    Draws come from `bank` when given (it must be keyed to these seeds,
    agent count and horizon), else they are computed for exactly this
    batch."""
    if mdp.n_agents + 1 > _MAX_STREAMS:
        raise ValueError("too many agents for the stream layout")
    n, S, T, B = mdp.n_agents, mdp.n_states, horizon, batch
    seeds = np.asarray(seed, dtype=np.uint64)
    R = seeds.size
    if bank is None:
        u = _uniforms(seeds, episode_offset, B, n + 1, T + 1)
    elif (bank.shape != (n + 1, T + 1)
          or not np.array_equal(bank.seeds, seeds.ravel())):
        raise ValueError(f"stream bank keyed (seeds, streams, draws) = "
                         f"{(bank.seeds.tolist(), *bank.shape)}, batch needs "
                         f"{(seeds.ravel().tolist(), n + 1, T + 1)}")
    else:
        u = bank.draws(episode_offset, B)
    u = u.reshape(u.shape[0], B * R, n + 1)
    agent_u = u[:T, :, :n]                            # (T, B*R, n)
    env_u = u[:T + 1, :, n]                           # (T + 1, B*R)

    cum_all = _padded_cumsum(policy, mdp.n_actions)   # (n, R*S, A_max)
    run_rows = np.tile(S * np.arange(R), B)           # run r's rows: r*S on
    mu_cdf = np.cumsum(mdp.mu)
    s = np.searchsorted(mu_cdf, env_u[0] * mu_cdf[-1], side="right")
    s = np.minimum(s, S - 1).astype(np.int64)

    succ, row_cdf, row_total = mdp.successors
    only = succ[:, 0]                   # the successor of every row if W == 1
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


def estimate_eval(mdp, policy, cfg, episode_offset=0, bank=None, seeds=None):
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

    `seeds`, R run seeds that replace cfg.seed, estimates R runs at once:
    the policy tables are then (R, S, A_i), every report field gains a
    leading run axis (v is (R, n, S)), and run r of it is bit-identical to
    the report of run r alone.
    """
    cfg.check()
    seeds = np.asarray(cfg.seed if seeds is None else seeds, dtype=np.uint64)
    n, S, R = mdp.n_agents, mdp.n_states, seeds.size
    T, B = cfg.horizon, cfg.batch
    E = B * R                               # episode-major, run-minor columns
    gamma = mdp.gamma
    first = cfg.estimator == "first_visit"

    states, actions, rewards = _sample_batch(mdp, policy, T, seeds,
                                             episode_offset, B, bank)
    returns = np.empty((n, E, T))           # agent, episode, time
    acc = np.zeros((E, n))
    for t in range(T - 1, -1, -1):
        acc *= gamma
        acc += rewards[t]
        returns[:, :, t] = acc.T

    # keys carry the run's offset: column e is run e % R, and since
    # e = b*R + r, (state + S*e) % (R*S) is state + S*r
    disc = gamma ** np.arange(T)
    run_state = states + S * (np.arange(E) % R)
    d_acc = np.bincount(run_state.ravel(),
                        weights=np.broadcast_to(disc[:, None], (T, E)).ravel(),
                        minlength=R * S).reshape(R, S)

    # Episode-major, time-minor orders put each episode's steps in time
    # order, so np.unique(..., return_index) lands on first visits.  The
    # agents are handled together: agent i's (episode, state, action) keys
    # start at E*S*(a_0 + ... + a_{i-1}) and its (run, state, action) bins
    # at R*S*(a_0 + ... + a_{i-1}), so each bin still sums its entries in
    # episode order.
    a = np.array(mdp.n_actions)
    ep_state = (states + S * np.arange(E)).T          # (E, T)
    key_base = E * S * np.concatenate(([0], np.cumsum(a)[:-1]))
    pairs = (ep_state * a[:, None, None] + actions.transpose(2, 1, 0)
             + key_base[:, None, None]).ravel()
    if first:
        s_keys, idx = np.unique(ep_state.ravel(), return_index=True)
        v_weights = returns.reshape(n, -1)[:, idx]
        keys, idx = np.unique(pairs, return_index=True)
        q_weights = returns.ravel()[idx]
    else:
        s_keys, v_weights = ep_state.ravel(), returns.reshape(n, -1)
        keys, q_weights = pairs, returns.ravel()

    s_part = s_keys % (R * S)
    v_cnt = np.bincount(s_part, minlength=R * S).astype(float)
    v_sum = np.bincount((s_part + R * S * np.arange(n)[:, None]).ravel(),
                        weights=v_weights.ravel(),
                        minlength=n * R * S).reshape(n, R * S)
    visited_states = v_cnt > 0
    v = np.zeros((n, R * S))
    v[:, visited_states] = v_sum[:, visited_states] / v_cnt[visited_states]

    bins = R * S * a                                  # per agent
    bin_base = np.concatenate(([0], np.cumsum(bins)))
    agent = np.searchsorted(key_base, keys, side="right") - 1
    local = (keys - key_base[agent]) % bins[agent] + bin_base[agent]
    cnt = np.bincount(local, minlength=bin_base[-1]).astype(float)
    qs = np.bincount(local, weights=q_weights, minlength=bin_base[-1])
    mask = cnt > 0
    qm = np.zeros(bin_base[-1])
    qm[mask] = qs[mask] / cnt[mask]
    # the entry of v that bin (i, r, s, a) subtracts: i*R*S + r*S + s
    bin_agent = np.repeat(np.arange(n), bins)
    v_bin = ((np.arange(bin_base[-1]) - bin_base[bin_agent]) // a[bin_agent]
             + R * S * bin_agent)
    ad = np.zeros(bin_base[-1])
    ad[mask] = qm[mask] - v.ravel()[v_bin[mask]]

    def per_agent(x):
        return tuple(part.reshape(R, S, a_i)
                     for part, a_i in zip(np.split(x, bin_base[1:-1]), a))

    # every episode visits its initial state with weight 1, so no row is 0
    fields = dict(v=v.reshape(n, R, S).transpose(1, 0, 2),
                  adv_marginal=per_agent(ad),
                  visitation=d_acc / d_acc.sum(axis=1, keepdims=True),
                  q_marginal=per_agent(qm),
                  visited_states=visited_states.reshape(R, S),
                  visited_pairs=per_agent(mask))
    if seeds.ndim == 0:                     # one run: drop the run axis
        fields = {k: tuple(x[0] for x in f) if isinstance(f, tuple) else f[0]
                  for k, f in fields.items()}
    return EvalReport(q=None, **fields)
