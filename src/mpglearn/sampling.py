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
run-minor), every first-visit and np.bincount key carries the run's offset, and
each bin sums its entries in the order a single run sums them, so run r of
the stacked report is bit-identical to a report computed for run r alone.
A single run is the case of a scalar seed and (S, A_i) tables.  The
sampler reads the policy as its stacked (..., n, S, A_max) tensor
(`core.AgentTables`), and the estimator's bins are numbered in that layout,
so every per-agent field of its report is one bincount reshaped.

The draws come from a numpy Philox4x64-10 that is bit-identical to
`np.random.Generator(np.random.Philox(key=[seed, (episode << 8) | stream]))
.random(count)`, computed for every (episode, run, stream, block) lane in
one array pass.  Only the Philox blocks a rollout or estimate reads are
computed: one draw per step read on each agent stream; on the environment
stream draw 0 for the initial state, unless mu is a point mass (the
initial state is then its support for any draw), and, when some transition
row has more than one successor, one draw per transition the rollout
steps.  When neither is read the environment stream computes nothing.  No
draw is made for the transition out of the last step, whose state is never
recorded.  Because the draws do not depend on the policy, a learning run
keeps a _StreamBank that computes them a chunk of whole batches ahead,
enough to fill a Philox pass, so one pass serves many updates.  Next
states come from the successor table the MDP derives from its CSR
transition rows (`MultiAgentMDP.successors`).

A game that settles -- every episode from mu sits in a zero-reward
absorbing state from step L on, whatever the policy
(`MultiAgentMDP.settle_step`), as in the routing games -- is stepped L
times: the states stay put after that, and the joint actions of the later
steps come from their agent draws in one pass.  The estimator reads only
K = max(1, min(T, L)) steps of its episodes: their agent draws, joint
actions, returns, first visits and bins; the environment stream keeps the
min(T, L + 1) draws of the L transitions, and the discounted state counts
cover all T steps.  `_sample_batch` and `sample_episode` give every step
of the horizon.  An MDP that does not settle within the horizon
(distancing) is stepped and read for all T steps.

Every table that depends only on (MDP, horizon, batch, run count) -- the
step counts L and K, the initial-state cdf (or the one initial state of a
point-mass mu), the joint-index weights, the run and episode offsets, the
estimator's bin bases and bin-to-value index, the discount weights -- sits
in an _IndexPlan that the bank builds once per run (again when runs stop);
a call without a bank builds one for that call.  Per-agent actions
are decoded from the joint actions through the MDP's one-byte digit table,
and rewards gathered in one take, straight into the estimator's (agent,)
episode, step layout.  First visits are not compressed out of that layout:
their masks are np.bincount weights, which leave every bin's count and sum
exactly what the first visits alone give.
"""

from dataclasses import dataclass

import numpy as np

from .core import AgentTables, EvalReport, _row_cumsum

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

# a _StreamBank's chunk is a whole number of batches: at least
# _CHUNK_EPISODES // R episodes of each of R runs, and as many batches as
# one Philox pass of _MAX_LANES lanes holds
_CHUNK_EPISODES = 640
# Philox lanes (one lane = one 4-word block) per array pass; larger requests
# are computed in slices of episodes so temporaries stay in cache (passes of
# 8,192 lanes cost least per lane on a 2-core x86 host; 12,288 and more
# spilled its cache)
_MAX_LANES = 1 << 13


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


def _stream_uniforms(seeds, start, count, groups):
    """Uniform draws of episodes start..start+count-1 of R run seeds, for
    groups of streams that draw different counts, in one Philox pass.

    `groups` lists (streams, n_draws) pairs.  Returns one u per group, of
    shape (D, count, R, len(streams)) with D = n_draws rounded up to a
    multiple of 4, where u[:n_draws, e, r, k] equals
    Generator(Philox(key=[seeds[r], ((start + e) << 8) | streams[k]]))
    .random(n_draws).  A stream computes only its ceil(n_draws / 4) Philox
    blocks, block j under counter j + 1 as in any longer draw.
    """
    if start < 0 or start + count > 1 << (64 - _STREAM_BITS):
        raise ValueError(f"episodes {start}..{start + count - 1} do not fit "
                         f"the stream key")
    runs = seeds.size
    tags = [np.asarray(streams, dtype=np.uint64) for streams, _ in groups]
    blocks = [-(-n_draws // 4) for _, n_draws in groups]
    # one lane per (group, block, stream) of every (episode, run); numpy's
    # Philox increments the counter before its first block
    counter0 = np.concatenate([
        np.repeat(np.arange(1, b + 1, dtype=np.uint64), t.size)
        for t, b in zip(tags, blocks)])
    lane_tags = np.concatenate([np.tile(t, b) for t, b in zip(tags, blocks)])
    out = np.empty((lane_tags.size, 4, count, runs))
    step = max(1, _MAX_LANES // (lane_tags.size * runs))
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        eps = np.arange(start + lo, start + hi, dtype=np.uint64)
        key1 = (eps << _STREAM_BITS) | lane_tags[:, None]
        lanes = (lane_tags.size, hi - lo, runs)
        words = _philox4x64(
            np.broadcast_to(counter0[:, None, None], lanes).ravel(),
            np.broadcast_to(key1[:, :, None], lanes).ravel(),
            np.broadcast_to(seeds, lanes).ravel())
        for w, word in enumerate(words):
            # Generator.random: the top 53 bits scaled into [0, 1)
            out[:, w, lo:hi] = (word >> 11).reshape(lanes) * 2.0 ** -53
    # each group's (block, stream, word) lanes, laid out draw-major
    ends = np.cumsum([t.size * b for t, b in zip(tags, blocks)])
    return [out[end - t.size * b:end].reshape(b, t.size, 4, count, runs)
            .transpose(0, 2, 3, 4, 1).reshape(4 * b, count, runs, t.size)
            for t, b, end in zip(tags, blocks, ends)]


def _uniforms(seed, start, count, n_streams, n_draws):
    """Uniform draws of episodes start..start+count-1 on streams
    0..n_streams-1, n_draws on each.

    `seed` is one seed, or an array of R run seeds.  Returns u of shape
    (D, count, n_streams), or (D, count, R, n_streams) for R seeds, with
    D = n_draws rounded up to a multiple of 4, where u[:n_draws, e, s]
    (u[:n_draws, e, r, s]) equals
    Generator(Philox(key=[seed, ((start + e) << 8) | s])).random(n_draws).
    """
    seeds = np.asarray(seed, dtype=np.uint64)
    u, = _stream_uniforms(seeds.ravel(), start, count,
                          [(range(n_streams), n_draws)])
    return u.reshape(u.shape[:2] + seeds.shape + (n_streams,))


def _draw_counts(mdp, horizon, steps=None):
    """(agents, agent draws, environment draws) that the first `steps`
    steps (all `horizon` by default) of an episode read: each agent stream
    one draw per step; the environment stream, when some transition row has
    more than one successor, draw 0 for the initial state and one draw per
    transition the rollout steps, min(T, L + 1) in all for the settle step
    L (T when the MDP does not settle), and otherwise draw 0 alone, or none
    when mu is a point mass."""
    if mdp.successors[1] is not None:
        settle = mdp.settle_step
        env = horizon if settle is None else min(horizon, settle + 1)
    else:
        env = int(np.count_nonzero(mdp.mu) > 1)
    return mdp.n_agents, horizon if steps is None else steps, env


def _rollout_uniforms(seeds, start, count, counts):
    """(agent_u, env_u) of shapes (D, count, R, n) and (D_env, count, R, 1)
    on the agent streams 0..n-1 and the environment stream n, for `counts`
    = (n, agent draws, environment draws): one Philox pass that computes
    no block the rollout does not read."""
    n, agent_draws, env_draws = counts
    return _stream_uniforms(seeds, start, count,
                            [(range(n), agent_draws), ([n], env_draws)])


class _IndexPlan:
    """The tables of a sampled batch that depend only on (MDP, horizon,
    batch, run count), never on the policy or the draws.

    A run's _StreamBank builds its plan once, and again in `keep` for the
    new run count; a call without a bank builds one for that call.  The
    rollout steps `settle` = min(T, mdp.settle_step) steps (T when the MDP
    does not settle), after which every episode sits in a zero-reward
    absorbing state, where no return, bin or visitation reads its action;
    the estimator reads `steps` = max(1, settle) of them, and its per-step
    tables are that long.  `start` is the initial state when mu is a point
    mass (None otherwise), which every draw of the initial state gives.
    Columns e = b*R + r are episode-major, run-minor; the estimator lays its
    arrays out (agent,) episode, step.  Its bins are numbered as the stacked
    (R, n, S, A_max) marginal tables: bin ((r*n + i)*S + s)*A_max + a holds
    (run r, agent i, state s, action a), so V's bin (r*n + i)*S + s is
    bin // A_max, and the tables are the bincounts reshaped.
    """

    def __init__(self, mdp, horizon, batch, runs):
        n, S, T = mdp.n_agents, mdp.n_states, horizon
        E = batch * runs
        self.mdp, self.horizon, self.batch = mdp, T, batch
        settle = mdp.settle_step
        self.settle = T if settle is None else min(settle, T)
        self.steps = K = max(1, self.settle)
        # the rollout; `only` is every row's successor when W == 1
        support = np.flatnonzero(mdp.mu)
        self.start = int(support[0]) if support.size == 1 else None
        self.mu_cdf = np.cumsum(mdp.mu)
        self.succ, self.row_cdf, self.row_total = mdp.successors
        self.only = self.succ[:, 0]
        weights = np.cumprod((mdp.n_actions[1:] + (1,))[::-1])[::-1]
        self.digit_weights = np.repeat(weights, max(mdp.n_actions))
        self.run_rows = S * (np.arange(E) % runs)     # run r's rows: r*S on
        self.digits = mdp.digits                      # (n_joint, n)
        self.rewards = mdp.rewards.reshape(n, -1)     # (n, S*n_joint)
        # the estimator; value_col[i, e] = (r*n + i)*S for e's run r
        self.run_col = self.run_rows[:, None]
        self.value_col = (n * self.run_col
                          + S * np.arange(n)[:, None, None])   # (n, E, 1)
        self.episode_col = S * np.arange(E)[:, None]
        self.disc = np.repeat(mdp.gamma ** np.arange(T), E)   # step-major
        self.positions = np.arange(E * K)
        self.pair_positions = np.arange(n * E * K)
        self.pair_col = E * K * np.arange(n)[:, None, None]


def _chunk_batches(batch, runs, counts):
    """The batches of `batch` episodes of `runs` runs in a bank's chunk:
    enough for _CHUNK_EPISODES // runs episodes of each run, and as many as
    one pass of _MAX_LANES lanes of `counts` holds."""
    n, agent_draws, env_draws = counts
    lanes = n * -(-agent_draws // 4) + -(-env_draws // 4)   # per episode
    least = -(-(_CHUNK_EPISODES // runs) // batch)
    return max(1, least, _MAX_LANES // (batch * runs * lanes))


class _StreamBank:
    """Draws of the streams of R sampled runs, computed a chunk of episodes
    ahead, and the runs' _IndexPlan.

    The draws depend only on (seed, episode, stream), never on the policy, so
    one pass over a chunk of episodes of every run serves every request
    whose batch falls inside the chunk and reads no more draws than it
    holds; any other request starts a new chunk there, with the draws that
    request reads (`_draw_counts`).  A chunk is a whole number of batches
    (`_chunk_batches`): at least _CHUNK_EPISODES // R episodes of each run,
    and as many batches as one Philox pass of _MAX_LANES lanes holds.  An
    estimate reads the plan's `steps` steps, a full-horizon `_sample_batch`
    all T.  The bank is keyed by `counts`, the draw counts of a full
    episode of `mdp` at cfg.horizon, and the index tables of `mdp`,
    cfg.horizon, cfg.batch and the run count are built once, here.  `seeds`
    defaults to the one seed of `cfg`; `keep` drops the runs that have
    stopped and rebuilds the plan for the runs left.
    """

    def __init__(self, mdp, cfg, seeds=None):
        self.seeds = np.atleast_1d(np.asarray(
            cfg.seed if seeds is None else seeds, dtype=np.uint64))
        self.counts = _draw_counts(mdp, cfg.horizon)
        self.plan = _IndexPlan(mdp, cfg.horizon, cfg.batch, self.seeds.size)
        self._start = 0
        self._u = [np.empty((0, 0, self.seeds.size, 0))] * 2

    def draws(self, start, count, counts):
        """(agent_u, env_u) of episodes start, ..., start + count - 1, with
        at least the draws of `counts`, as `_rollout_uniforms` lays them
        out."""
        lo = start - self._start
        agent_u, env_u = self._u
        if (lo < 0 or lo + count > agent_u.shape[1]
                or counts[1] > agent_u.shape[0]
                or counts[2] > env_u.shape[0]):
            chunk = count * _chunk_batches(count, self.seeds.size, counts)
            self._u = _rollout_uniforms(self.seeds, start, chunk, counts)
            self._start, lo = start, 0
        return [u[:, lo:lo + count] for u in self._u]

    def keep(self, kept):
        """Keep the runs `kept` (a mask or an index array), with the draws
        already made, and build the plan of the runs kept."""
        self.seeds = self.seeds[kept]
        self._u = [u[:, :, kept] for u in self._u]
        plan = self.plan
        self.plan = _IndexPlan(plan.mdp, plan.horizon, plan.batch,
                               self.seeds.size)


def _cdf_table(policy):
    """(rows, n, A_max) cdf rows of every agent's policy, padded with the
    row's total; rows = S, or R*S (run-major) for (R, S, A_i) tables: the
    stacked (..., n, S, A_max) policy with its agent and state axes swapped,
    and one cumsum over its zero-padded rows, which adds the same terms in
    the same order as a cumsum of each agent's own rows."""
    p = policy.probs.stacked
    n, _, A = p.shape[-3:]
    return _row_cumsum(p.swapaxes(-3, -2)).reshape(-1, n, A)


def _joint_actions(rows, u, digit_weights, out):
    """Joint actions of the draws u, (..., B*R, n), on the episodes' cdf
    rows (B*R, n, A_max): every agent's action is the count of its cdf
    entries at or below u * total, so the joint action is one product of
    the (..., B*R, n*A_max) comparison with each agent's joint-index weight
    repeated A_max times.  Written to `out`, (..., B*R), and returned."""
    target = u * rows[:, :, -1]                       # (..., B*R, n)
    below = rows <= target[..., None]
    return np.matmul(below.reshape(target.shape[:-1] + (-1,)),
                     digit_weights, out=out)


def _plan(mdp, policy, horizon, seeds, batch, bank):
    """The _IndexPlan of a batch of `batch` episodes of the runs `seeds`,
    an array of shape () or (R,): `bank`'s, once it is checked to be keyed
    to these seeds, to the draw counts of this MDP and horizon, and to this
    MDP and batch, or one built for this call when `bank` is None."""
    if mdp.n_agents + 1 > _MAX_STREAMS:
        raise ValueError("too many agents for the stream layout")
    if policy.probs[0].shape[:-2] != seeds.shape:
        raise ValueError(
            f"policy tables of shape {policy.probs[0].shape} need a run axis "
            f"of the seeds' shape {seeds.shape}")
    if bank is None:
        return _IndexPlan(mdp, horizon, batch, seeds.size)
    counts = _draw_counts(mdp, horizon)
    if (bank.counts != counts
            or not np.array_equal(bank.seeds, seeds.ravel())):
        raise ValueError(
            f"stream bank keyed (seeds, agents, agent draws, environment "
            f"draws) = {(bank.seeds.tolist(), *bank.counts)}, batch needs "
            f"{(seeds.ravel().tolist(), *counts)}")
    if bank.plan.mdp is not mdp or bank.plan.batch != batch:
        raise ValueError(f"stream bank planned for batches of "
                         f"{bank.plan.batch} on {bank.plan.mdp!r}, batch "
                         f"needs {batch} on {mdp!r}")
    return bank.plan


def _rollout(policy, plan, seeds, episode_offset, bank, steps):
    """The episodes of `_sample_batch` on plan.mdp, in the estimator's
    layout, with the actions and rewards of their first `steps` steps
    (plan.steps <= steps <= T): (states, actions, rewards) with shapes
    (B*R, T), (B*R, steps, n) and (n, B*R, steps).  Actions are rows of the
    digit table, in its one-byte dtype.  Draws come from `bank` when given,
    else they are made for exactly these steps."""
    mdp = plan.mdp
    n, S, T = mdp.n_agents, mdp.n_states, plan.horizon
    E = plan.batch * seeds.size
    counts = _draw_counts(mdp, T, steps)
    if bank is None:
        agent_u, env_u = _rollout_uniforms(seeds.ravel(), episode_offset,
                                           plan.batch, counts)
    else:
        agent_u, env_u = bank.draws(episode_offset, plan.batch, counts)
    # (D, B*R, n) and (D_env, B*R): draw counts rounded up to whole blocks
    agent_u = agent_u.reshape(-1, E, n)
    env_u = env_u.reshape(-1, E)

    cdf = _cdf_table(policy)                          # (R*S, n, A_max)
    if plan.start is not None:
        s = np.full(E, plan.start, dtype=np.int64)
    else:
        s = np.searchsorted(plan.mu_cdf, env_u[0] * plan.mu_cdf[-1],
                            side="right")
        s = np.minimum(s, S - 1).astype(np.int64)

    # recorded episode-major, written one step (column) at a time
    states = np.empty((E, T), dtype=np.int64)
    joints = np.empty((E, steps), dtype=np.int64)
    by_step, joint_by_step = states.T, joints.T
    for t in range(plan.settle):
        rows = cdf.take(s + plan.run_rows, axis=0)    # (B*R, n, A_max)
        by_step[t] = s
        joint = _joint_actions(rows, agent_u[t], plan.digit_weights,
                               out=joint_by_step[t])
        if t == T - 1:                  # the last successor is never recorded
            break
        # s may be int32 (the CSR index dtype), picked only when S*n_joint
        # < 2**31, so s * n_joint cannot overflow
        flat = s * mdp.n_joint + joint
        if plan.row_cdf is None:
            s = plan.only[flat]
        else:
            tgt = env_u[t + 1] * plan.row_total[flat]
            s = plan.succ[flat, (plan.row_cdf[flat] <= tgt[:, None])
                          .sum(axis=1)]
    if plan.settle < T:
        # every episode sits in the goal from here on: its state for the
        # remaining steps, and the joint actions up to `steps` in one pass
        by_step[plan.settle:] = s
    if plan.settle < steps:
        rows = cdf.take(s + plan.run_rows, axis=0)
        _joint_actions(rows, agent_u[plan.settle:steps], plan.digit_weights,
                       out=joint_by_step[plan.settle:])
    actions = plan.digits.take(joints, axis=0)
    head = states if steps == T else states[:, :steps]
    rewards = plan.rewards.take(head * mdp.n_joint + joints, axis=1)
    return states, actions, rewards


def _sample_batch(mdp, policy, horizon, seed, episode_offset, batch,
                  bank=None):
    """Step `batch` episodes of every run in lockstep.

    `seed` is one seed with (S, A_i) policy tables, or R run seeds with
    (R, S, A_i) tables; column b*R + r then holds episode
    episode_offset + b of run r (R = 1 for one seed).  Returns (states,
    actions, rewards) with shapes (T, B*R), (T, B*R, n), (T, B*R, n):
    states and rewards are views of the episode-major arrays the estimator
    reads, and actions an int64 copy of its one-byte ones.  Draws and the
    _IndexPlan come from `bank` when given (it must be keyed to these
    seeds, to the draw counts of this MDP and horizon, and to this MDP and
    batch), else they are made for exactly this batch.

    The horizon loop carries only the state and the joint action
    (`_joint_actions`).  After the loop, per-agent actions are read off the
    joint actions in the MDP's digit table (`MultiAgentMDP.digits`), and
    rewards in one take from the flat (n, S*n_joint) reward view.  The loop
    stops at the MDP's settle step (`MultiAgentMDP.settle_step`), by which
    every episode sits in a zero-reward absorbing state: the state is
    recorded for every remaining step, and the remaining joint actions come
    from the same agent draws in one pass.  An MDP that does not settle
    within the horizon steps every step."""
    seeds = np.asarray(seed, dtype=np.uint64)
    plan = _plan(mdp, policy, horizon, seeds, batch, bank)
    states, actions, rewards = _rollout(policy, plan, seeds, episode_offset,
                                        bank, horizon)
    return (states.T, actions.astype(np.int64).transpose(1, 0, 2),
            rewards.transpose(2, 1, 0))


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


def _earliest(keys, n_keys, positions):
    """Per entry of `keys` (integers below n_keys), the position of the
    first entry with the same key; `positions` is arange(keys.size)."""
    first = np.full(n_keys, keys.size)
    np.minimum.at(first, keys, positions)
    return first[keys]


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
    of many batches are computed in one pass and the index tables
    (`_IndexPlan`) are built once; the report is the same.

    The estimate reads K = max(1, min(T, L)) steps of each episode, L the
    MDP's settle step (`MultiAgentMDP.settle_step`; K = T when it has
    none): from step L on every episode sits in a zero-reward absorbing
    state, where its returns are +0.0, so no return, V or Q sum, advantage
    or visitation reads the actions played there.  Its agent draws,
    actions, returns, first visits and V and Q bins cover those K steps;
    the discounted state counts take all T, so the visitation sums as it
    would over the whole horizon, and `visited_states` also marks the
    states the batch sits in at step L, whose values are +0.0.  The report
    is the one all T steps give, except that `visited_pairs` at a
    zero-reward absorbing state flags only the actions played there before
    step K; its `q_marginal` and `adv_marginal` entries are +0.0 either
    way.

    First visits are not compressed out: their masks are np.bincount
    weights.  A bin's count is the sum of its mask entries and its sum the
    sum of return * mask, so an entry that is not a first visit adds +0.0
    to a sum that starts at +0.0 and leaves it exactly as the first visits
    alone make it.

    `seeds`, R run seeds that replace cfg.seed, estimates R runs at once:
    the policy tables are then (R, S, A_i), every report field gains a
    leading run axis (v is (R, n, S)), and run r of it is bit-identical to
    the report of run r alone.  The per-agent fields are `AgentTables` over
    the marginal bincounts reshaped to (..., n, S, A_max), padded with 0.
    """
    cfg.check()
    seeds = np.asarray(cfg.seed if seeds is None else seeds, dtype=np.uint64)
    n, S, R, A = mdp.n_agents, mdp.n_states, seeds.size, mdp.a_max()
    T, B = cfg.horizon, cfg.batch
    E = B * R                               # episode-major, run-minor columns
    gamma = mdp.gamma

    plan = _plan(mdp, policy, T, seeds, B, bank)
    K = plan.steps
    states, actions, rewards = _rollout(policy, plan, seeds, episode_offset,
                                        bank, K)
    # discounted returns, a running sum (0 * gamma + r_{K-1}) * gamma +
    # r_{K-2} ... over the steps of (agent, episode, step) arrays
    returns = np.zeros((n, E, K))
    returns[..., K - 1] += rewards[..., K - 1]
    for t in range(K - 2, -1, -1):
        np.multiply(returns[..., t + 1], gamma, out=returns[..., t])
        returns[..., t] += rewards[..., t]
    returns = returns.reshape(n, E * K)

    # Column e is run e % R, whose states are offset by S*r.  Discounted
    # state counts sum step-major over all T steps, as a single run sums
    # them; visits sum (agent,) episode, step over the first K, so each
    # (run, state) bin and each (run, agent, state, action) bin sums its
    # entries in episode order, as a run estimated alone sums them.
    run_state = states + plan.run_col                 # (E, T)
    d_acc = np.bincount(run_state.T.ravel(), weights=plan.disc,
                        minlength=R * S).reshape(R, S)
    settled = None
    if K < T:
        settled = run_state[:, plan.settle]
        states, run_state = states[:, :K], run_state[:, :K]
    values = states + plan.value_col                  # (n, E, K)
    actions = actions.transpose(2, 0, 1)              # (n, E, K)
    pairs = (values * A + actions).ravel()
    v_mask = q_mask = None                            # every visit counts
    v_ret, q_ret = returns, returns.ravel()
    if cfg.estimator == "first_visit":
        # a first visit is the earliest position of its (episode, state)
        # key; a pair's key is (agent, first position of its state, action)
        state_first = _earliest((states + plan.episode_col).ravel(), E * S,
                                plan.positions)
        v_mask = state_first == plan.positions
        pair_keys = (plan.pair_col + state_first.reshape(E, K)) * A + actions
        q_mask = (_earliest(pair_keys.ravel(), n * E * K * A,
                            plan.pair_positions) == plan.pair_positions)
        v_ret, q_ret = returns * v_mask, q_ret * q_mask

    v_cnt = np.bincount(run_state.ravel(), weights=v_mask,
                        minlength=R * S).reshape(R, 1, S)
    v_sum = np.bincount(values.ravel(), weights=v_ret.ravel(),
                        minlength=R * n * S).reshape(R, n, S)
    visited_states = v_cnt > 0
    v = np.divide(v_sum, v_cnt, out=np.zeros((R, n, S)),
                  where=visited_states)
    if settled is not None:         # the goals the batch sits in at step L
        visited_states.reshape(-1)[settled] = True

    table = (R, n, S, A)
    cnt, qs = (np.bincount(pairs, weights=w, minlength=R * n * S * A)
               .reshape(table) for w in (q_mask, q_ret))
    mask = cnt > 0
    qm = np.divide(qs, cnt, out=np.zeros(table), where=mask)
    ad = np.subtract(qm, v[..., None], out=np.zeros(table), where=mask)

    # every episode visits its initial state with weight 1, so no row is 0;
    # one run (a scalar seed) drops the run axis
    lead = seeds.shape
    shapes = [(S, a) for a in mdp.n_actions]

    def runs(x):
        return x.reshape(lead + x.shape[1:])

    return EvalReport(
        v=runs(v), adv_marginal=AgentTables.of(runs(ad), shapes),
        visitation=runs(d_acc / d_acc.sum(axis=1, keepdims=True)),
        q_marginal=AgentTables.of(runs(qm), shapes),
        visited_states=runs(visited_states.reshape(R, S)),
        visited_pairs=AgentTables.of(runs(mask), shapes))
