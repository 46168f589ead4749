"""Tabular multi-agent MDPs, product policies, softmax logits.

All container types freeze their arrays after construction, so instances are
immutable value objects and safe to share across threads.  Per-agent tables
(policies, logits, report marginals) are `AgentTables`: views of one padded
(..., n, S, A_max) array, so that one array operation serves every agent.
Joint actions are encoded in mixed radix with agent 0 as the most
significant digit: the joint index of per-agent actions (a_0, ..., a_{n-1})
is

    a_0 * |A_1|*...*|A_{n-1}| + a_1 * |A_2|*...*|A_{n-1}| + ... + a_{n-1}

which matches numpy's C-order ravel_multi_index.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

PROB_TOL = 1e-12


def _frozen(a, dtype=float):
    """A read-only, C-contiguous `dtype` array holding `a`.

    An ndarray that is already read-only, owns its data, is C-contiguous
    and has `dtype` is returned as it is, not copied: passing it hands it
    over, and the caller must not write to it again.  numpy does not stop
    that (whoever holds the owning array can set `flags.writeable` back),
    so a write after the hand-over would change a table that was already
    checked and from which other tables were derived.  Every other input is
    copied, so that a later write to the caller's array (or to the array a
    view reads) changes nothing.
    """
    if (type(a) is np.ndarray and not a.flags.writeable and a.flags.owndata
            and a.flags.c_contiguous and a.dtype == dtype):
        return a
    a = np.array(a, dtype=dtype, order="C", copy=True)
    a.flags.writeable = False
    return a


def index_dtype(size):
    """The integer dtype of CSR indices and indptr for arrays of up to
    `size` entries, as scipy picks it: int32 when it suffices."""
    return np.int32 if size < 2 ** 31 else np.int64


def joint_digits(n_actions):
    """(n_joint, n_agents) read-only table decoding each joint index into
    per-agent actions: row j is np.unravel_index(j, n_actions).

    Its dtype is the smallest that holds every action,
    np.min_scalar_type(max(n_actions) - 1): uint8 for up to 256 actions.
    Viewed as an (A_0, ..., A_{n-1}, n) array, column i holds a_i, and is
    filled by broadcasting arange(A_i) into it; nothing else is allocated."""
    n_actions = tuple(int(a) for a in n_actions)
    n = len(n_actions)
    digits = np.empty((int(np.prod(n_actions)), n),
                      dtype=np.min_scalar_type(max(n_actions) - 1))
    table = digits.reshape(n_actions + (n,))
    for i, a in enumerate(n_actions):
        table[..., i] = np.arange(a).reshape((a,) + (1,) * (n - 1 - i))
    digits.flags.writeable = False
    return digits


def _csr_arrays(transitions, n_states, n_joint):
    """(data, indices, indptr) of a transition table in either form
    MultiAgentMDP accepts.  A CSR triple must already be canonical; a
    ValueError names the first row (state, joint action) that is not."""
    n_rows = n_states * n_joint
    if isinstance(transitions, np.ndarray):
        if transitions.shape != (n_states, n_joint, n_states):
            raise ValueError(f"transition tensor shape {transitions.shape}")
        dense = transitions.reshape(n_rows, n_states).astype(float,
                                                            copy=False)
        rows, indices = np.nonzero(dense)
        indptr = np.zeros(n_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
        return dense[rows, indices], indices, indptr
    if not isinstance(transitions, tuple):
        raise TypeError(f"transitions must be a dense (S, A, S) array or a "
                        f"CSR triple, not {type(transitions).__name__}")
    data, indices, indptr = (np.asarray(x) for x in transitions)
    if indices.dtype.kind not in "iu" or indptr.dtype.kind not in "iu":
        raise ValueError("transition indices and indptr must be integers")
    if len(indptr) != n_rows + 1:
        if len(indptr) <= n_rows:
            where, row = "ends before", max(len(indptr) - 1, 0)
        else:
            where, row = "runs past", n_rows - 1
        s, a = divmod(row, n_joint)
        raise ValueError(f"transition indptr has length {len(indptr)}, not "
                         f"n_states * n_joint + 1 = {n_rows + 1}: it {where} "
                         f"row (state {s}, joint action {a})")
    lengths = np.diff(indptr)
    if indptr[0] != 0 or lengths.min(initial=0) < 0:
        r = 0 if indptr[0] != 0 else int(np.argmin(lengths))
        s, a = divmod(r, n_joint)
        raise ValueError(f"transition row (state {s}, joint action {a}): "
                         f"indptr must start at 0 and never decrease")
    if not len(data) == len(indices) == indptr[-1]:
        raise ValueError(f"transition data and indices have {len(data)} "
                         f"and {len(indices)} entries, indptr {indptr[-1]}")
    rows = np.repeat(np.arange(n_rows), lengths)
    out = (indices < 0) | (indices >= n_states)
    unsorted = np.append(False, (rows[1:] == rows[:-1])
                         & (indices[1:] <= indices[:-1]))
    for bad, what in ((out, f"outside [0, {n_states})"),
                      (unsorted, "not above the column before it (columns "
                                 "must be sorted, without duplicates)")):
        if bad.any():
            k = int(np.argmax(bad))
            s, a = divmod(int(rows[k]), n_joint)
            raise ValueError(f"transition row (state {s}, joint action {a}):"
                             f" next state index {int(indices[k])} {what}")
    return data, indices, indptr


class MultiAgentMDP:
    """A finite n-agent MDP with joint-action reward and transition tables.

    rewards      float array (n_agents, n_states, n_joint), entries in [0, 1]
    transitions  the distribution over successor states of every (s, a), in
                 row s*n_joint + a of an (n_states * n_joint, n_states)
                 table, given in one of two forms: a dense (S, A, S)
                 array, or a canonical CSR triple (data, indices, indptr)
                 (sorted columns, no duplicates), whose indptr, column
                 range and column order are checked.
    gamma        discount factor in [0, 1)
    mu           initial state distribution, length n_states

    The table is kept as its canonical CSR arrays, `csr` = (data, indices,
    indptr), and every derived table reads them.  The dense form keeps its
    nonzero entries in row-major order, as scipy would.  Each derived table
    is a `cached_property`, built on its first read and sized to what it
    holds:

    - `entry_rows` is the row of every entry, in the CSR index dtype;
      validation, `successors`, `write_mdp` and `chain_cells` read it.
    - `digits` decodes joint actions, one byte per action.
    - `chain_cells` numbers the chain cell of every entry; only an exact
      solve reads it, so a sampled run never builds it.
    - `deterministic` says whether every row holds one entry of
      probability 1; `entry_ranks` lists the entries of rank k of every
      row.  Only the back-up reads them.
    - `successors` is the sampler's draw table, in the CSR index dtype (a
      view of `indices` when every row has one successor).
    - `upper_triangular` and `absorbing` read one least and greatest next
      state per state block of indptr.
    - `reachable` marks the states an episode from mu can reach under some
      policy; `settle_step` is the step by which every such episode sits in
      a zero-reward absorbing state.  Both walk the state sets forward with
      the one step `_next_states`.

    Every array is kept read-only.  An input array that is already
    read-only, owns its data, is C-contiguous and has the kept dtype (float,
    or for indices and indptr the int32 or int64 that `index_dtype` picks)
    is shared, not copied; the routing and distancing builders hand their
    finished tables over this way.  Passing such an array gives it up: the
    caller must not make it writable and write to it later, as
    `validate_mdp` and the derived tables (`entry_rows`, `successors`,
    `absorbing`) read it, and `successors` may share it.  Any other input
    is copied.

    Episodic problems are modeled with an absorbing zero-reward terminal
    state; rewards outside [0, 1] are rejected rather than clamped.  A
    sampled batch is stepped only `settle_step` steps (None when some
    episode never settles): its states then stay put, the sampler draws the
    remaining joint actions in one pass, and the estimator reads only the
    steps before it, whose actions are the last a return or bin reads
    (`sampling.estimate_eval`).
    """

    def __init__(self, n_actions, rewards, transitions, gamma, mu,
                 state_labels=None, validate=True):
        self.n_actions = tuple(int(a) for a in n_actions)
        if not self.n_actions or any(a < 1 for a in self.n_actions):
            raise ValueError("need at least one action per agent")
        self.n_agents = len(self.n_actions)
        self.n_joint = int(np.prod(self.n_actions))
        self.gamma = float(gamma)
        self.mu = _frozen(mu)
        self.n_states = self.mu.shape[0]
        self.rewards = _frozen(rewards)
        if self.rewards.shape != (self.n_agents, self.n_states, self.n_joint):
            raise ValueError(
                f"rewards shape {self.rewards.shape} != "
                f"{(self.n_agents, self.n_states, self.n_joint)}")
        data, indices, indptr = _csr_arrays(transitions, self.n_states,
                                            self.n_joint)
        # int32 when it suffices: the builders hand their int32 arrays over
        # uncopied, and the draw table and entry rows take this dtype
        index = index_dtype(max(len(indptr), len(data)))
        self.csr = (_frozen(data), _frozen(indices, index),
                    _frozen(indptr, index))
        self.state_labels = tuple(state_labels) if state_labels is not None else None
        if self.state_labels is not None and len(self.state_labels) != self.n_states:
            raise ValueError("state_labels length mismatch")
        if validate:
            problems = validate_mdp(self)
            if problems:
                raise ValueError("invalid MDP:\n" + "\n".join(problems))

    @cached_property
    def entry_rows(self):
        """The row s*n_joint + a of every transition entry, in CSR order
        and the CSR index dtype: row r repeated indptr[r+1] - indptr[r]
        times."""
        indptr = self.csr[2]
        rows = np.repeat(np.arange(len(indptr) - 1, dtype=indptr.dtype),
                         np.diff(indptr))
        rows.flags.writeable = False
        return rows

    @cached_property
    def digits(self):
        """(n_joint, n_agents) table decoding each joint index into
        per-agent actions, in the one-byte (for up to 256 actions) dtype of
        `joint_digits`, whose table it is."""
        return joint_digits(self.n_actions)

    @cached_property
    def chain_cells(self):
        """The (s, s') chain cell that every transition entry feeds, in CSR
        order, numbered column-major, s'*n_states + s, so that summing the
        entries per cell fills a Fortran-ordered chain.  Built on the first
        read, which only an exact solve makes (`exact._chain_matrix`)."""
        cells = (self.csr[1] * np.int64(self.n_states)
                 + self.entry_rows // self.n_joint)
        cells.flags.writeable = False
        return cells

    @cached_property
    def deterministic(self):
        """True when every transition row holds one entry, of probability
        exactly 1: every (s, a) has one next state, as in every shipped
        game."""
        data, _, indptr = self.csr
        return bool(np.all(np.diff(indptr) == 1) and np.all(data == 1.0))

    @cached_property
    def entry_ranks(self):
        """For each entry rank k up to the longest transition row, the pair
        (rows, entries): the rows holding more than k entries, in order,
        and the CSR index of each one's k-th entry.  `exact.backup` sums
        P V one rank at a time with them, unless the MDP is
        `deterministic`."""
        _, _, indptr = self.csr
        lengths = np.diff(indptr)
        ranks = []
        for k in range(int(lengths.max(initial=0))):
            rows = np.flatnonzero(lengths > k)
            entries = indptr[rows] + k
            rows.flags.writeable = entries.flags.writeable = False
            ranks.append((rows, entries))
        return tuple(ranks)

    @cached_property
    def _block_bounds(self):
        """(states, lo, hi): the states whose transition rows hold entries,
        and the least and the greatest next state of each one's entries, one
        reduceat segment per state block of indptr.  A segment runs to the
        next start, across any empty blocks between."""
        _, indices, indptr = self.csr
        starts = indptr[::self.n_joint]
        states = np.flatnonzero(np.diff(starts))
        return (states, np.minimum.reduceat(indices, starts[states]),
                np.maximum.reduceat(indices, starts[states]))

    @cached_property
    def upper_triangular(self):
        """True when every transition entry leads to a state index >= its
        source state, so that every chain I - gamma * P_pi is upper
        triangular: acyclic games numbered in topological order, such as
        the routing games with an absorbing goal."""
        states, lo, _ = self._block_bounds
        return bool(np.all(lo >= states))

    @cached_property
    def absorbing(self):
        """(n_states,) bool: state s is absorbing when every transition
        entry of every joint action from s leads back to s, whether its rows
        are deterministic or stochastic (vacuously so when it has none):
        the least and the greatest next state of its entries are both s."""
        states, lo, hi = self._block_bounds
        absorbing = np.ones(self.n_states, dtype=bool)
        absorbing[states] = (lo == states) & (hi == states)
        absorbing.flags.writeable = False
        return absorbing

    def _next_states(self, states):
        """(n_states,) bool: the next state of every transition entry of the
        states marked in `states`, for any joint action and any probability
        stored, marked with one np.repeat over the state blocks' lengths."""
        _, indices, indptr = self.csr
        entries = np.repeat(states, np.diff(indptr[::self.n_joint]))
        reached = np.zeros(self.n_states, dtype=bool)
        reached[indices[entries]] = True
        return reached

    @cached_property
    def reachable(self):
        """(n_states,) bool, read-only: the states an episode started in
        mu's support can reach along stored transition entries, under some
        policy; each step adds the next states of the states it added last."""
        reachable = frontier = self.mu > 0
        while frontier.any():
            frontier = self._next_states(frontier) & ~reachable
            reachable = reachable | frontier
        reachable.flags.writeable = False
        return reachable

    @cached_property
    def settle_step(self):
        """The earliest step L at which every episode started in mu's
        support sits in a zero-reward absorbing state, under every policy,
        or None when some episode can stay out of them forever.

        The states an episode can reach at step t+1 are the next states
        (`_next_states`) of the states it can reach at step t.  Those sets
        are iterated forward from mu's support until one lies inside the
        goal (L is its step), or one repeats, or the count of states outside
        the goal is passed: an episode of a game that settles never visits
        a state outside the goal twice.
        """
        goal = self.absorbing.copy()
        goal[goal] = ~self.rewards[:, goal].any(axis=(0, 2))
        if not goal.any():
            return None
        reached, seen = self.mu > 0, set()
        for step in range(self.n_states - int(goal.sum()) + 1):
            if goal[reached].all():
                return step
            key = reached.tobytes()
            if key in seen:
                return None
            seen.add(key)
            reached = self._next_states(reached)
        return None

    @cached_property
    def successors(self):
        """(succ, cdf, total): the transition rows as a padded draw table.

        succ (S*A, W), W the longest row, lists each row's successors in the
        CSR index dtype.  Under a uniform u row r goes to succ[r, k], k the
        count of cdf[r] <= u * total[r]: cdf (S*A, W-1) holds the row's
        running sums before its last entry, padded with inf.  When W == 1
        cdf and total are None and succ is a read-only (S*A, 1) view of the
        CSR indices, not a copy.  A row with no entries has nothing to
        draw, and raises a ValueError."""
        data, indices, indptr = self.csr
        lengths = np.diff(indptr)
        if lengths.size and lengths.min() == 0:
            s, a = divmod(int(np.argmin(lengths)), self.n_joint)
            raise ValueError(f"transition row (state {s}, joint action "
                             f"{a}) has no entries to sample from")
        width = int(lengths.max(initial=1))
        if width == 1:
            return indices.reshape(-1, 1), None, None
        rows = self.entry_rows
        pos = np.arange(len(indices)) - indptr[rows]
        succ = np.zeros((len(lengths), width), dtype=indices.dtype)
        succ[rows, pos] = indices
        succ.flags.writeable = False
        run = np.zeros(succ.shape)
        run[rows, pos] = data
        np.cumsum(run, axis=1, out=run)
        total = _frozen(run[:, -1])
        run[np.arange(width) >= lengths[:, None] - 1] = np.inf
        return succ, _frozen(run[:, :-1]), total

    def a_max(self):
        return max(self.n_actions)

    def __repr__(self):
        return (f"MultiAgentMDP(n_agents={self.n_agents}, n_states={self.n_states}, "
                f"n_actions={self.n_actions}, gamma={self.gamma})")


def validate_mdp(mdp):
    """Collect invariant violations of an MDP as human-readable strings.

    Returns an empty list iff every transition row is a distribution (within
    1e-12), every reward lies in [0, 1], mu is a distribution, and gamma < 1.
    Each violation names the offending index and the magnitude of the defect.
    """
    problems = []
    if not (0.0 <= mdp.gamma < 1.0):
        problems.append(f"gamma = {mdp.gamma} is not in [0, 1)")
    data, _, indptr = mdp.csr
    rows = mdp.entry_rows
    if data.size and data.min() < 0:
        k = int(np.argmin(data))
        s, a = divmod(int(rows[k]), mdp.n_joint)
        problems.append(f"negative transition probability "
                        f"{float(data[k])!r} at (state {s}, joint action "
                        f"{a})")
    row_sums = np.bincount(rows, weights=data, minlength=len(indptr) - 1)
    bad = np.flatnonzero(np.abs(row_sums - 1.0) > PROB_TOL)
    for row in bad[:20]:
        s, a = divmod(int(row), mdp.n_joint)
        problems.append(f"transition row (state {s}, joint action {a}) sums to "
                        f"{float(row_sums[row])!r}")
    if len(bad) > 20:
        problems.append(f"... and {len(bad) - 20} more transition rows")
    lo, hi = mdp.rewards.min(initial=0.0), mdp.rewards.max(initial=0.0)
    if lo < 0.0 or hi > 1.0:
        idx = np.unravel_index(
            int(np.argmin(mdp.rewards)) if lo < 0.0 else int(np.argmax(mdp.rewards)),
            mdp.rewards.shape)
        val = float(mdp.rewards[idx])
        problems.append(f"reward {val!r} outside [0, 1] at (agent {idx[0]}, "
                        f"state {idx[1]}, joint action {idx[2]})")
    mu_sum = mdp.mu.sum()
    if abs(mu_sum - 1.0) > PROB_TOL:
        problems.append(f"mu sums to {float(mu_sum)!r}")
    if mdp.mu.min(initial=0.0) < 0:
        problems.append(f"mu has negative entry at state {int(np.argmin(mdp.mu))}")
    return problems


class AgentTables(tuple):
    """Agent i's (..., S, A_i) table as element i, a view of `stacked`, the
    (..., n, S, A_max) array of all of them, any run axis first, padded
    with `fill`: -inf for logits, 0 (False) elsewhere, which stays padding
    under softmax, the update rules and cdf sums.  Per-agent tables are
    copied into a new array (hand-built ones may also differ in state
    count); `of` shares a padded one, and an AgentTables is kept as it is."""

    def __new__(cls, tables, fill=0.0, dtype=None):
        if isinstance(tables, AgentTables) and (
                dtype is None or tables.stacked.dtype == dtype):
            return tables
        tables = [np.asarray(t) for t in tables]
        for i, t in enumerate(tables):
            if t.ndim < 2 or t.shape[:-2] != tables[0].shape[:-2]:
                raise ValueError(f"agent {i}: table of shape {t.shape} is not "
                                 f"(..., S, A) after agent 0's leading axes")
        shapes = [t.shape[-2:] for t in tables]
        stacked = np.full(tables[0].shape[:-2] + (len(tables),)
                          + tuple(np.max(shapes, axis=0)), fill,
                          dtype or np.result_type(*tables))
        for i, (t, (S, A)) in enumerate(zip(tables, shapes)):
            stacked[..., i, :S, :A] = t
        return cls.of(stacked, shapes)

    @classmethod
    def of(cls, stacked, shapes):
        """Agent i's table is stacked[..., i, :S_i, :A_i], shapes[i] the
        pair (S_i, A_i)."""
        self = super().__new__(cls, (stacked[..., i, :S, :A]
                                     for i, (S, A) in enumerate(shapes)))
        self.stacked, self.shapes = stacked, shapes
        return self

    def like(self, stacked):
        """The tables of another array padded as this one is, shared."""
        return AgentTables.of(stacked, self.shapes)

    def __reduce__(self):       # copies and pickles keep views of `stacked`
        return AgentTables.of, (self.stacked, self.shapes)

    @cached_property
    def valid(self):
        """The (n, S, A_max) mask of entries that are not padding, which
        broadcasts against `stacked`; True when there are none."""
        mask = np.zeros(self.stacked.shape[-3:], dtype=bool)
        for i, (S, A) in enumerate(self.shapes):
            mask[i, :S, :A] = True
        return True if mask.all() else mask


def _frozen_tables(tables, fill):
    """Float AgentTables over a read-only array: one that is writable is
    frozen in place, which hands it over (the caller must not write to it
    again); per-agent tables are copied."""
    tables = AgentTables(tables, fill, float)
    if tables.stacked.flags.writeable:
        tables.stacked.flags.writeable = False
        tables = tables.like(tables.stacked)    # read-only views
    return tables


class JointPolicy:
    """A product policy: one (n_states, A_i) row-stochastic table per agent,
    held as read-only `AgentTables` padded with 0 (see `_frozen_tables`).

    Unvalidated tables may carry a leading run axis, (R, n_states, A_i): R
    runs stepped in lockstep, as `dynamics.run` and the sampler use them.
    """

    def __init__(self, probs, validate=True):
        self.probs = _frozen_tables(probs, 0.0)
        self.n_agents = len(self.probs)
        if validate:
            for i, p in enumerate(self.probs):
                if p.ndim != 2:
                    raise ValueError(f"agent {i}: policy table must be 2-d")
                if p.min(initial=0.0) < 0:
                    s, a = np.unravel_index(int(np.argmin(p)), p.shape)
                    raise ValueError(
                        f"agent {i}: negative probability {float(p[s, a])!r} at "
                        f"(state {s}, action {a})")
                sums = p.sum(axis=1)
                bad = np.flatnonzero(np.abs(sums - 1.0) > PROB_TOL)
                if bad.size:
                    raise ValueError(
                        f"agent {i}: row for state {bad[0]} sums to "
                        f"{float(sums[bad[0]])!r}")

    @property
    def n_states(self):
        return self.probs.stacked.shape[-2]

    def is_interior(self, eps=0.0):
        return bool(np.all(self.probs.stacked > eps, where=self.probs.valid))

    def per_agent_l1(self, other):
        """Per-agent L1 distance between whole policy tables (summed over
        states): shape (n,), or (R, n) for tables with a leading run axis."""
        return np.abs(self.probs.stacked - other.probs.stacked).sum(
            axis=(-2, -1))

    def replace_agent(self, agent, table):
        probs = list(self.probs)
        probs[agent] = table
        return JointPolicy(probs)

    def __repr__(self):
        shapes = ", ".join(str(p.shape) for p in self.probs)
        return f"JointPolicy({shapes})"


class Logits:
    """Softmax preimages of a product policy: one (n_states, A_i) table per
    agent, or (R, n_states, A_i) with a leading run axis.  `theta` holds
    them as read-only `AgentTables` padded with -inf, whose softmax is 0."""

    def __init__(self, theta, validate=True):
        self.theta = _frozen_tables(theta, -np.inf)
        self.n_agents = len(self.theta)
        if validate:
            for i, t in enumerate(self.theta):
                if not np.all(np.isfinite(t)):
                    s, a = np.unravel_index(
                        int(np.argmin(np.isfinite(t))), t.shape)
                    raise ValueError(f"agent {i}: non-finite logit at "
                                     f"(state {s}, action {a})")

    @property
    def n_states(self):
        return self.theta.stacked.shape[-2]

    def __repr__(self):
        shapes = ", ".join(str(t.shape) for t in self.theta)
        return f"Logits({shapes})"


# numpy reduces a last axis shorter than _SHORT_AXIS one element at a time,
# left to right (a sum starting from +0.0); from that width on it sums
# pairwise.  It loops over the rows, so on a table of many short rows one
# ufunc call per column is faster and gives the same bytes: the row helpers
# below take that path from _ROWS_PER_COLUMN rows per column on, where a
# column op costs about what numpy's loop over that many rows does.
_SHORT_AXIS = 8
_ROWS_PER_COLUMN = 32


def _by_column(x):
    A = x.shape[-1]
    return A < _SHORT_AXIS and x.size >= _ROWS_PER_COLUMN * A * A


def _row_max(x):
    """x.max(axis=-1, keepdims=True), byte for byte."""
    if not _by_column(x):
        return x.max(axis=-1, keepdims=True)
    out = x[..., :1].copy()
    for a in range(1, x.shape[-1]):
        np.maximum(out, x[..., a:a + 1], out=out)
    return out


def _row_sum(x):
    """x.sum(axis=-1, keepdims=True), byte for byte."""
    if not _by_column(x):
        return x.sum(axis=-1, keepdims=True)
    out = x[..., :1] + 0.0
    for a in range(1, x.shape[-1]):
        out += x[..., a:a + 1]
    return out


def _row_cumsum(x):
    """np.cumsum(x, axis=-1), byte for byte, in a new C-ordered array."""
    if not _by_column(x):
        return np.cumsum(x, axis=-1)
    out = np.empty(x.shape, dtype=x.dtype)
    out[..., 0] = x[..., 0]
    for a in range(1, x.shape[-1]):
        np.add(out[..., a - 1], x[..., a], out=out[..., a])
    return out


def _softmax(z):
    """Row-wise softmax over the last axis of a stacked table, with max
    subtraction; -inf padding comes out 0."""
    z = z - _row_max(z)
    np.exp(z, out=z)
    z /= _row_sum(z)
    return z


def softmax_policy(logits):
    """Row-wise softmax of every agent's logit table, with max subtraction,
    as one pass over the stacked (..., n, S, A_max) logits.

    Tables may carry a leading run axis, (R, S, A_i).  Rejects non-finite
    logits, naming the offending index.  The policy shares the array the
    softmax wrote.
    """
    if not isinstance(logits, Logits):
        logits = Logits(logits)
    return JointPolicy(logits.theta.like(_softmax(logits.theta.stacked)),
                       validate=False)


def uniform_logits(mdp):
    return Logits([np.zeros((mdp.n_states, a)) for a in mdp.n_actions],
                  validate=False)


def random_logits(mdp, seed, scale=1.0):
    """Gaussian logits from a counter-based stream keyed by `seed`."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return Logits([scale * rng.standard_normal((mdp.n_states, a))
                   for a in mdp.n_actions], validate=False)


def l1_accuracy(policy, reference):
    """Average over agents of the L1 distance between whole policy tables.

        (1/N) * sum_i sum_s sum_a |pi_i(a|s) - ref_i(a|s)|

    The average is over agents only, not states.
    """
    if policy.n_agents != reference.n_agents:
        raise ValueError("policies have different agent counts")
    for i, (p, q) in enumerate(zip(policy.probs, reference.probs)):
        if p.shape != q.shape:
            raise ValueError(f"agent {i}: shape {p.shape} != {q.shape}")
    return float(policy.per_agent_l1(reference).sum() / policy.n_agents)


@dataclass(frozen=True)
class EvalReport:
    """Evaluation of a joint policy: values, advantages, visitation, potential.

    Exact reports satisfy (and tests assert):
      * visitation sums to 1 and every entry is >= (1-gamma)*mu(s) - 1e-10,
      * the marginal advantage of each agent is zero-mean under its own policy.
    Sampled reports carry visited_* masks; unvisited entries are zero-filled.
    Reports of R runs evaluated or estimated together carry a leading run
    axis on every array field (v is then (R, n_agents, n_states)), and an
    exact report's potential_mu is then a list of R floats.

    The per-agent fields are `AgentTables` padded with 0 (False for
    visited_pairs), so `adv_marginal.stacked` is the (..., n, S, A_max)
    advantage tensor; plain per-agent sequences are stacked into one on
    construction.  A report's arrays are not made read-only.
    """
    v: np.ndarray                       # (n_agents, n_states)
    adv_marginal: AgentTables           # per agent (n_states, A_i)
    visitation: np.ndarray              # (n_states,)
    q: np.ndarray | None = None         # (n_agents, n_states, n_joint)
    q_marginal: AgentTables | None = None   # per agent (n_states, A_i)
    potential: np.ndarray | None = None # (n_states,)
    potential_mu: float | list | None = None
    adv_potential: AgentTables | None = None    # per agent (n_states, A_i)
    visited_states: np.ndarray | None = None
    visited_pairs: AgentTables | None = None

    def __post_init__(self):
        for name in ("adv_marginal", "q_marginal", "adv_potential",
                     "visited_pairs"):
            tables = getattr(self, name)
            if tables is not None:
                object.__setattr__(self, name, AgentTables(tables))

    @property
    def n_agents(self):
        return len(self.adv_marginal)


def eval_report_violations(report, policy, mdp, tol=1e-10):
    """Invariant check for exact EvalReports; returns a list of violations."""
    problems = []
    total = report.visitation.sum()
    if abs(total - 1.0) > tol:
        problems.append(f"visitation sums to {float(total)!r}")
    floor = (1.0 - mdp.gamma) * mdp.mu - tol
    bad = np.flatnonzero(report.visitation < floor)
    for s in bad[:5]:
        problems.append(f"visitation({s}) = {float(report.visitation[s])!r} "
                        f"below (1-gamma)*mu = "
                        f"{float((1 - mdp.gamma) * mdp.mu[s])!r}")
    means = np.abs((report.adv_marginal.stacked * policy.probs.stacked)
                   .sum(axis=-1)).max(axis=-1)
    problems += [f"agent {i}: advantage mean {float(x)!r} not zero"
                 for i, x in enumerate(means) if x > tol]
    return problems


# --- structured-text serialization ------------------------------------------
#
# Sections appear in the fixed order [states], [agents], [rewards],
# [transitions], [gamma], [mu].  Numbers are written with repr(), so a
# write -> read -> write cycle reproduces the bytes exactly.

def write_mdp(mdp, path):
    lines = ["[states]", f"count = {mdp.n_states}"]
    if mdp.state_labels is not None:
        for s, lab in enumerate(mdp.state_labels):
            lines.append(f"label {s} = {lab}")
    lines.append("[agents]")
    lines.append(f"count = {mdp.n_agents}")
    lines.append("actions = " + " ".join(str(a) for a in mdp.n_actions))
    lines.append("[rewards]")
    r = mdp.rewards
    for i, s, a in zip(*np.nonzero(r)):
        lines.append(f"{i} {s} {a} {float(r[i, s, a])!r}")
    lines.append("[transitions]")
    data, indices, _ = mdp.csr          # canonical: row-major, sorted columns
    for row, col, p in zip(mdp.entry_rows.tolist(), indices.tolist(),
                           data.tolist()):
        s, a = divmod(row, mdp.n_joint)
        lines.append(f"{s} {a} {col} {p!r}")
    lines.append("[gamma]")
    lines.append(repr(mdp.gamma))
    lines.append("[mu]")
    for s in np.nonzero(mdp.mu)[0]:
        lines.append(f"{int(s)} {float(mdp.mu[s])!r}")
    text = "\n".join(lines) + "\n"
    with open(path, "w") as f:
        f.write(text)
    return text


class MDPFormatError(ValueError):
    pass


def read_mdp(path, validate=True):
    """Parse the structured-text MDP format written by write_mdp.

    Every index is checked against the declared counts, and may appear
    once per section; an MDPFormatError names the line, the index and its
    range, or the line that gave the index before.
    """
    with open(path) as f:
        raw = f.readlines()
    section = None
    n_states = n_agents = None
    n_actions = None
    gamma = None
    # per kind: (line number, index tuple, value) of every entry
    entries = {"label": [], "rewards": [], "transitions": [], "mu": []}

    def fail(no, msg):
        raise MDPFormatError(f"{path}: line {no}: {msg}")

    for no, line in enumerate(raw, start=1):
        text = line.strip()
        if not text:
            continue
        if text.startswith("[") and text.endswith("]"):
            section = text[1:-1]
            if section not in ("states", "agents", "rewards", "transitions",
                               "gamma", "mu"):
                fail(no, f"unknown section [{section}]")
            continue
        if section is None:
            fail(no, "content before first section header")
        try:
            if section == "states":
                if text.startswith("count"):
                    n_states = int(text.split("=", 1)[1])
                elif text.startswith("label"):
                    head, lab = text.split("=", 1)
                    entries["label"].append(
                        (no, (int(head.split()[1]),), lab.strip()))
                else:
                    fail(no, f"unexpected [states] entry: {text}")
            elif section == "agents":
                if text.startswith("count"):
                    n_agents = int(text.split("=", 1)[1])
                elif text.startswith("actions"):
                    n_actions = tuple(int(x) for x in text.split("=", 1)[1].split())
                else:
                    fail(no, f"unexpected [agents] entry: {text}")
            elif section == "rewards":
                i, s, a, val = text.split()
                entries["rewards"].append(
                    (no, (int(i), int(s), int(a)), float(val)))
            elif section == "transitions":
                s, a, sp_, val = text.split()
                entries["transitions"].append(
                    (no, (int(s), int(a), int(sp_)), float(val)))
            elif section == "gamma":
                gamma = float(text)
            elif section == "mu":
                s, val = text.split()
                entries["mu"].append((no, (int(s),), float(val)))
        except MDPFormatError:
            raise
        except ValueError as exc:
            fail(no, f"cannot parse entry ({exc})")

    if n_states is None:
        raise MDPFormatError(f"{path}: missing [states] count")
    if n_agents is None or n_actions is None:
        raise MDPFormatError(f"{path}: missing [agents] count or actions")
    if len(n_actions) != n_agents:
        raise MDPFormatError(f"{path}: actions list length != agent count")
    if gamma is None:
        raise MDPFormatError(f"{path}: missing [gamma]")
    n_joint = int(np.prod(n_actions))
    state, joint = ("state", n_states), ("joint action", n_joint)
    ranges = {"label": (state,), "rewards": (("agent", n_agents), state, joint),
              "transitions": (state, joint, ("next state", n_states)),
              "mu": (state,)}
    for kind, items in entries.items():
        seen = {}
        for no, index, _ in items:
            for k, (name, bound) in zip(index, ranges[kind]):
                if not 0 <= k < bound:
                    fail(no, f"{name} index {k} outside [0, {bound})")
            if index in seen:
                fail(no, f"{kind} index ({', '.join(map(str, index))}) "
                         f"repeats line {seen[index]}")
            seen[index] = no
    rewards = np.zeros((n_agents, n_states, n_joint))
    for _, (i, s, a), val in entries["rewards"]:
        rewards[i, s, a] = val
    # the canonical CSR arrays: entries sorted by row, then column
    trans, n_rows = entries["transitions"], n_states * n_joint
    rows = np.array([s * n_joint + a for _, (s, a, _), _ in trans], np.int64)
    cols = np.array([t for _, (_, _, t), _ in trans], np.int64)
    vals = np.array([v for _, _, v in trans], float)
    order = np.lexsort((cols, rows))
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    mu = np.zeros(n_states)
    for _, (s,), val in entries["mu"]:
        mu[s] = val
    state_labels = None
    if entries["label"]:
        labels = {s: lab for _, (s,), lab in entries["label"]}
        state_labels = tuple(labels.get(s, str(s)) for s in range(n_states))
    return MultiAgentMDP(n_actions, rewards,
                         (vals[order], cols[order], indptr), gamma, mu,
                         state_labels=state_labels, validate=validate)


def write_policy(policy, path):
    """Plain-text policy tables; floats use repr() for exact round-trips."""
    lines = [f"agents = {policy.n_agents}"]
    for i, p in enumerate(policy.probs):
        lines.append(f"[agent {i}]")
        lines.append(f"shape = {p.shape[0]} {p.shape[1]}")
        lines.extend(" ".join(map(repr, row)) for row in p.tolist())
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_policy(path):
    """Parse the format written by write_policy.

    The declared agent count and every agent's `shape = S A` are checked
    against the tables that follow, so a truncated file is rejected; the
    MDPFormatError names the agent, and the row when one is at fault.
    """
    with open(path) as f:
        raw = [ln.strip() for ln in f if ln.strip()]

    def fail(msg):
        raise MDPFormatError(f"{path}: {msg}")

    head = raw[0].split("=", 1) if raw else []
    if len(head) != 2 or head[0].strip() != "agents":
        fail("expected 'agents = N' header")
    try:
        n_agents = int(head[1])
    except ValueError:
        fail(f"bad agent count {head[1].strip()!r}")
    blocks = []                         # per agent: [shape line, row lines]
    for line in raw[1:]:
        if line.startswith("[agent"):
            blocks.append([None, []])
        elif not blocks:
            fail(f"content before the first [agent] block: {line!r}")
        elif line.startswith("shape"):
            blocks[-1][0] = line.split("=", 1)[-1].split()
        else:
            blocks[-1][1].append(line.split())
    if len(blocks) != n_agents:
        fail(f"declares {n_agents} agents but holds {len(blocks)} tables")
    tables = []
    for i, (shape, rows) in enumerate(blocks):
        try:
            n_rows, n_cols = (int(x) for x in shape)
        except (TypeError, ValueError):
            fail(f"agent {i}: expected 'shape = S A', got {shape!r}")
        if len(rows) != n_rows:
            fail(f"agent {i}: {len(rows)} rows, shape declares {n_rows}")
        table = np.empty((n_rows, n_cols))
        for s, row in enumerate(rows):
            if len(row) != n_cols:
                fail(f"agent {i}, row {s}: {len(row)} entries, shape "
                     f"declares {n_cols}")
            try:
                table[s] = [float(x) for x in row]
            except ValueError:
                fail(f"agent {i}, row {s}: cannot parse {' '.join(row)!r}")
        tables.append(table)
    return JointPolicy(tables)
