"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's linear-algebra path: truncated
sums use forward chain multiplication, equilibria come from exhaustive
enumeration, and gradients from central differences.
"""

import numpy as np
import pytest

import mpglearn as m
from mpglearn.core import JointPolicy, MultiAgentMDP, _frozen, joint_digits
from mpglearn.environments import (SAFE, SPREAD, CostDescriptor, DagEdge,
                                   Environment)


def assert_same_bytes(got, want, what="arrays"):
    """`got` and `want` have one dtype, one shape and the same bytes.

    Compared to a boolean first, since pytest's diff of two long byte
    strings is very slow; a failure names the first index that differs."""
    x, y = np.asarray(got), np.asarray(want)
    assert (x.dtype, x.shape) == (y.dtype, y.shape), \
        f"{what}: {x.dtype}{x.shape} != {y.dtype}{y.shape}"
    if x.tobytes() != y.tobytes():
        bx, by = (np.ascontiguousarray(a.reshape(-1)).view(np.uint8)
                  .reshape(a.size, -1) for a in (x, y))
        k = np.unravel_index(int(np.argmax((bx != by).any(axis=1))), x.shape)
        k = tuple(int(i) for i in k)
        raise AssertionError(f"{what} first differ at index {k}: "
                             f"{x[k].item()!r} != {y[k].item()!r}")


def random_mdp(n_states, n_actions, gamma, seed, n_agents=None):
    """Dirichlet transition rows, uniform rewards in [0, 1], uniform mu."""
    if n_agents is None:
        n_agents = len(n_actions) if hasattr(n_actions, "__len__") else 1
    if not hasattr(n_actions, "__len__"):
        n_actions = (n_actions,) * n_agents
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n_joint = int(np.prod(n_actions))
    rewards = rng.uniform(0, 1, size=(n_agents, n_states, n_joint))
    dense = rng.dirichlet(np.ones(n_states), size=(n_states, n_joint))
    mu = rng.dirichlet(np.ones(n_states))
    return m.MultiAgentMDP(n_actions, rewards, dense, gamma, mu)


def sparse_mdp(n_states, n_actions, gamma, seed, max_width, upper=False,
               absorbing=0):
    """Like random_mdp, but each transition row has between 1 and max_width
    successors, chosen at random and given Dirichlet probabilities.  With
    `upper` the successors of state s are drawn from states s..S-1 only (at
    most S - s of them), so every chain is upper triangular.  The last
    `absorbing` states lead back to themselves under every joint action and
    pay no reward; the random draws are those of `absorbing` = 0."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n_agents = len(n_actions)
    n_joint = int(np.prod(n_actions))
    rewards = rng.uniform(0, 1, size=(n_agents, n_states, n_joint))
    dense = np.zeros((n_states * n_joint, n_states))
    for k, row in enumerate(dense):
        if upper:
            s = k // n_joint
            width = min(int(rng.integers(1, max_width + 1)), n_states - s)
            succ = s + rng.choice(n_states - s, size=width, replace=False)
        else:
            succ = rng.choice(n_states, size=rng.integers(1, max_width + 1),
                              replace=False)
        row[succ] = rng.dirichlet(np.ones(len(succ)))
    mu = rng.dirichlet(np.ones(n_states))
    for s in range(n_states - absorbing, n_states):
        dense[s * n_joint:(s + 1) * n_joint] = np.eye(n_states)[s]
        rewards[:, s] = 0.0
    return m.MultiAgentMDP(n_actions, rewards,
                           dense.reshape(n_states, n_joint, n_states), gamma,
                           mu)


def settling_mdp(n_states, n_actions, gamma, seed, max_width):
    """Like sparse_mdp, but state s < S-1 leads only to states s+1..S-1 and
    the last state, the goal, leads back to itself and pays no reward, so
    every episode reaches the goal within S-1 steps whatever the policy."""
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    n_joint = int(np.prod(n_actions))
    rewards = rng.uniform(0, 1, size=(len(n_actions), n_states, n_joint))
    rewards[:, -1] = 0.0
    dense = np.zeros((n_states, n_joint, n_states))
    dense[-1, :, -1] = 1.0
    for s in range(n_states - 1):
        for row in dense[s]:
            width = min(int(rng.integers(1, max_width + 1)), n_states - s - 1)
            succ = s + 1 + rng.choice(n_states - s - 1, size=width,
                                      replace=False)
            row[succ] = rng.dirichlet(np.ones(width))
    return m.MultiAgentMDP(n_actions, rewards, dense, gamma,
                           rng.dirichlet(np.ones(n_states)))


def reference_next_states(mdp):
    """Per state, the Python set of the next states of its stored
    transition entries under every joint action."""
    _, indices, indptr = (x.tolist() for x in mdp.csr)
    A = mdp.n_joint
    return [{indices[k] for k in range(indptr[s * A], indptr[(s + 1) * A])}
            for s in range(mdp.n_states)]


def reference_reachable(mdp):
    """MultiAgentMDP.reachable as a Python-set closure: mu's support, then
    every state a stored transition entry leads to from a state in the set,
    until nothing is added.  A bool mask over the states."""
    nxt = reference_next_states(mdp)
    reached = {s for s in range(mdp.n_states) if mdp.mu[s] > 0}
    todo = list(reached)
    while todo:
        new = nxt[todo.pop()] - reached
        reached |= new
        todo.extend(new)
    return np.array([s in reached for s in range(mdp.n_states)])


def reference_settle_step(mdp):
    """MultiAgentMDP.settle_step by enumeration, one Python set per step:
    the states reachable at steps 0, 1, ... from mu's support along any
    stored transition entry, until a set lies among the absorbing states
    that pay no reward (its step is returned) or a set repeats (None)."""
    S = mdp.n_states
    nxt = reference_next_states(mdp)
    goal = {s for s in range(S)
            if nxt[s] <= {s} and not np.any(mdp.rewards[:, s])}
    reached = frozenset(s for s in range(S) if mdp.mu[s] > 0)
    seen, step = set(), 0
    while not reached <= goal:
        if reached in seen:
            return None
        seen.add(reached)
        reached = frozenset().union(*(nxt[s] for s in reached))
        step += 1
    return step


# --- reference builders -------------------------------------------------------
#
# build_distancing as it was before it wrote its tables in place: a digit
# table with np.add.at and stacked copies of the reward rows.  A property
# test holds today's builder to it byte for byte.

def reference_joint_digits(n_actions):
    """(n_joint, n_agents) table decoding each joint index into per-agent
    actions: row j is np.unravel_index(j, n_actions)."""
    joints = np.arange(int(np.prod(n_actions)))
    return np.stack(np.unravel_index(joints, n_actions), axis=1)


def reference_build_distancing(params, mu="safe"):
    """Build the two-state distancing game with its congestion stage potential."""
    params.check()
    n, F = params.n_agents, params.n_facilities
    w = np.array(params.resolved_weights())
    c = float(params.penalty)
    n_joint = F ** n
    digits = reference_joint_digits((F,) * n)

    counts = np.zeros((n_joint, F), dtype=np.int64)
    np.add.at(counts, (np.repeat(np.arange(n_joint), n), digits.ravel()), 1)

    raw_safe = np.empty((n, n_joint))
    for i in range(n):
        k = digits[:, i]
        raw_safe[i] = w[k] * counts[np.arange(n_joint), k]
    raw = np.stack([raw_safe, raw_safe - c], axis=1)  # (n, 2, n_joint)

    tri = counts * (counts + 1) / 2.0
    phi_safe = tri @ w
    phi_raw = np.stack([phi_safe, phi_safe - c])      # (2, n_joint)

    lo, hi = raw.min(), raw.max()
    if hi - lo < 1e-12:
        raise ValueError("degenerate reward range, rescale impossible")
    alpha = 1.0 / (hi - lo)
    beta = -lo / (hi - lo)
    # rescale in place: the (n, 2, F**n) table is 8 MB on the shipped
    # config, and every temporary copy of it raises the build's peak memory
    rewards = raw
    rewards *= alpha
    rewards += beta
    if rewards.min() < -1e-12 or rewards.max() > 1 + 1e-12:
        raise ValueError("rescaled rewards escape [0, 1]")
    np.clip(rewards, 0.0, 1.0, out=rewards)
    potential = alpha * phi_raw + beta

    max_count = counts.max(axis=1)
    from_safe = np.where(max_count > params.spread_trigger, SPREAD, SAFE)
    from_spread = np.where(max_count <= params.return_trigger, SAFE, SPREAD)
    next_idx = np.stack([from_safe, from_spread])     # (2, n_joint)
    transitions = (np.ones(2 * n_joint), next_idx.ravel(),
                   np.arange(2 * n_joint + 1))

    if mu == "safe":
        mu_vec = np.array([1.0, 0.0])
    elif mu == "uniform":
        mu_vec = np.array([0.5, 0.5])
    else:
        raise ValueError(f"unknown mu mode {mu!r}")

    mdp = MultiAgentMDP((F,) * n, rewards, transitions, params.gamma, mu_vec,
                        state_labels=("safe", "spread"))

    def sample_state_blind_profile(rng, _F=F, _n=n):
        tables = []
        for _ in range(_n):
            row = rng.dirichlet(np.ones(_F))
            tables.append(np.vstack([row, row]))
        return JointPolicy(tables, validate=False)

    name = f"distancing(n={n}, facilities={F}, gamma={params.gamma})"
    return Environment(mdp=mdp, stage_potential=_frozen(potential), label=name,
                       base_profile_sampler=sample_state_blind_profile)


# build_scg as it was before it was rebuilt around one configuration table:
# two state numberings kept by reachable_only branches over three per-state
# loops.  A property test holds today's builder to it byte for byte.

def reference_build_scg(spec, n_agents=None, gamma=0.99, reachable_only=False,
                        mu="start", goal="absorb", return_reward=0.0,
                        state_budget=300_000):
    """Markov congestion game: states are joint vertex configurations.

    Each agent's action chooses an outgoing edge of its current vertex
    (indices past the out-degree are clamped to the last edge, so every agent
    has the same action count A = max out-degree).  An agent on an edge with
    load l receives that edge's cost at l; agents at the sink take a
    zero-reward no-op.  With goal="absorb" the all-at-sink configuration
    moves to an absorbing terminal state; goal="return" instead sends agents
    at the sink back to the source along a constant-reward edge.  The stage
    potential is the Rosenthal sum over this step's edge loads.

    reachable_only=True enumerates only configurations reachable from the
    start instead of all |V|^n tuples; sampled-mode learning traces are
    unaffected because unvisited states never update.

    State numbering.  A configuration's code reads its vertex indices as
    base-|V| digits, agent 0 most significant.  Without reachable_only,
    state s is the configuration with code s.  With it, states are numbered
    in breadth-first order from the start configuration (state 0): states
    are expanded in number order, and each gives the configurations it is
    first to reach the next numbers, in order of code.  With goal="absorb"
    the terminal state comes last.
    """
    spec.validate()
    if n_agents is None:
        n_agents = spec.n_agents
    if n_agents is None:
        raise ValueError("number of agents not given by spec or argument")
    n = int(n_agents)
    V = len(spec.vertices)
    vindex = {v: i for i, v in enumerate(spec.vertices)}
    source = vindex[spec.source]
    sink = vindex[spec.sink]

    edges = list(spec.edges)
    if goal == "return":
        if not (0.0 <= return_reward <= 1.0):
            raise ValueError("return_reward must lie in [0, 1]")
        edges.append(DagEdge(spec.sink, spec.source,
                             CostDescriptor("table", (return_reward,) * n)))
    elif goal != "absorb":
        raise ValueError(f"unknown goal behavior {goal!r}")
    n_edges = len(edges)
    edge_to = np.array([vindex[e.to] for e in edges], dtype=np.int64)

    cost_table = np.zeros((n_edges, n + 1))
    for k, e in enumerate(edges):
        t = e.cost.table(n)
        if t[1:].min() < 0.0 or t[1:].max() > 1.0:
            bad = 1 + int(np.argmax((t[1:] < 0) | (t[1:] > 1)))
            raise ValueError(f"edge {e.frm} -> {e.to}: cost {e.cost} gives "
                             f"{t[bad]!r} at load {bad}, outside [0, 1]")
        cost_table[k] = t
    rosenthal = np.cumsum(cost_table, axis=1)  # (n_edges, n+1)

    out = spec.out_edges()
    if goal == "return":
        out[spec.sink] = [n_edges - 1]
    n_act = max(len(out[v]) for v in spec.vertices if out[v])
    # action k at vertex v follows its k-th outgoing edge, clamped; -1 = no-op
    act_edge = np.full((V, n_act), -1, dtype=np.int64)
    for v, ks in out.items():
        if ks:
            vi = vindex[v]
            for a in range(n_act):
                act_edge[vi, a] = ks[min(a, len(ks) - 1)]

    n_actions = (n_act,) * n
    n_joint = n_act ** n
    digits = joint_digits(n_actions)
    radix = V ** np.arange(n - 1, -1, -1, dtype=np.int64)
    terminal_needed = goal == "absorb"

    def config_code(verts):
        return int(np.dot(verts, radix))

    start = np.full(n, source, dtype=np.int64)
    all_sink_code = config_code(np.full(n, sink, dtype=np.int64))

    if reachable_only:
        codes = [config_code(start)]
        code_index = {codes[0]: 0}
        queue = [0]
        configs = [start.copy()]
        while queue:
            idx = queue.pop(0)
            verts = configs[idx]
            if terminal_needed and code_index.get(all_sink_code) == idx:
                continue
            E = act_edge[verts[None, :].repeat(n_joint, axis=0), digits]
            nxt = np.where(E >= 0, edge_to[E], verts[None, :])
            for c in np.unique(nxt @ radix).tolist():
                if c not in code_index:
                    if len(codes) + 1 > state_budget:
                        raise ValueError(f"state budget {state_budget} exceeded")
                    code_index[c] = len(codes)
                    codes.append(c)
                    configs.append(np.array(np.unravel_index(c, (V,) * n),
                                            dtype=np.int64))
                    queue.append(code_index[c])
        n_configs = len(codes)
        by_code = np.argsort(codes)             # discovered codes, sorted
        sorted_codes = np.array(codes)[by_code]
    else:
        n_configs = V ** n
        if n_configs + 1 > state_budget:
            raise ValueError(f"state budget {state_budget} exceeded: "
                             f"|V|^n = {n_configs}")
        code_index = None  # config code is the state index
        configs = None

    S = n_configs + (1 if terminal_needed else 0)
    terminal = n_configs if terminal_needed else None

    rewards = np.zeros((n, S, n_joint))
    potential = np.zeros((S, n_joint))
    next_idx = np.empty((S, n_joint), dtype=np.int64)
    labels = []
    rows_rep = np.repeat(np.arange(n_joint), n)

    for s in range(n_configs):
        verts = (configs[s] if reachable_only else
                 np.array(np.unravel_index(s, (V,) * n), dtype=np.int64))
        labels.append(tuple(spec.vertices[v] for v in verts))
        code = codes[s] if reachable_only else s
        if terminal_needed and code == all_sink_code:
            next_idx[s, :] = terminal
            continue
        E = act_edge[verts[None, :].repeat(n_joint, axis=0), digits]
        loads = np.zeros((n_joint, n_edges + 1), dtype=np.int64)
        np.add.at(loads, (rows_rep, E.ravel() + 1), 1)
        loads = loads[:, 1:]
        for i in range(n):
            e = E[:, i]
            moving = e >= 0
            li = loads[np.arange(n_joint), np.where(moving, e, 0)]
            rewards[i, s] = np.where(moving, cost_table[e, li], 0.0)
        potential[s] = rosenthal[np.arange(n_edges)[None, :], loads].sum(axis=1)
        nxt = np.where(E >= 0, edge_to[E], verts[None, :])
        next_codes = nxt @ radix
        if reachable_only:
            next_idx[s] = by_code[np.searchsorted(sorted_codes, next_codes)]
        else:
            next_idx[s] = next_codes

    if terminal_needed:
        labels.append("terminal")
        next_idx[terminal, :] = terminal

    transitions = (np.ones(S * n_joint), next_idx.ravel(),
                   np.arange(S * n_joint + 1))

    mu_vec = np.zeros(S)
    start_idx = code_index[config_code(start)] if reachable_only \
        else config_code(start)
    if mu == "start":
        mu_vec[start_idx] = 1.0
    elif mu == "uniform":
        mu_vec[:] = 1.0 / S
    else:
        raise ValueError(f"unknown mu mode {mu!r}")

    mdp = MultiAgentMDP(n_actions, rewards, transitions, gamma, mu_vec,
                        state_labels=labels)

    vertex_of_agent = np.empty((S, n), dtype=np.int64)
    for s in range(n_configs):
        verts = (configs[s] if reachable_only else
                 np.array(np.unravel_index(s, (V,) * n), dtype=np.int64))
        vertex_of_agent[s] = verts
    if terminal_needed:
        vertex_of_agent[terminal] = sink

    def sample_own_vertex_profile(rng, _vmap=vertex_of_agent, _n_act=n_act,
                                  _V=V, _n=n):
        tables = []
        for i in range(_n):
            per_vertex = rng.dirichlet(np.ones(_n_act), size=_V)
            tables.append(per_vertex[_vmap[:, i]])
        return JointPolicy(tables, validate=False)

    name = f"scg(n={n}, |V|={V}, gamma={gamma})"
    return Environment(mdp=mdp, stage_potential=_frozen(potential), label=name,
                       base_profile_sampler=sample_own_vertex_profile)



def random_policy(mdp, seed):
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    return m.random_product_policy(mdp, rng)


def chain_of(mdp, policy):
    """Dense (S, S) chain and (n, S) one-step rewards by direct summation."""
    S, A = mdp.n_states, mdp.n_joint
    P = mdp.transitions.toarray().reshape(S, A, S)
    jt = np.ones((S, A))
    for i in range(mdp.n_agents):
        jt *= policy.probs[i][:, mdp.digits[:, i]]
    p_pi = np.zeros((S, S))
    for s in range(S):
        for a in range(A):
            p_pi[s] += jt[s, a] * P[s, a]
    r_pi = np.einsum("isa,sa->is", mdp.rewards, jt)
    return p_pi, r_pi


def truncated_values(mdp, policy, horizon=2000):
    """V by forward chain multiplication of the truncated discounted sum."""
    p_pi, r_pi = chain_of(mdp, policy)
    dist = np.eye(mdp.n_states)      # row s = distribution after t steps from s
    v = np.zeros((mdp.n_agents, mdp.n_states))
    for t in range(horizon):
        v += mdp.gamma ** t * r_pi @ dist.T
        dist = dist @ p_pi
    return v


def truncated_visitation(mdp, policy, horizon=2000):
    """d by accumulating gamma^t * Pr(s_t = s) from mu."""
    p_pi, _ = chain_of(mdp, policy)
    dist = mdp.mu.copy()
    d = np.zeros(mdp.n_states)
    for t in range(horizon):
        d += mdp.gamma ** t * dist
        dist = dist @ p_pi
    return (1.0 - mdp.gamma) * d


def deterministic_policies(mdp):
    """Yield every deterministic product policy as a JointPolicy."""
    from itertools import product
    per_agent = []
    for a in mdp.n_actions:
        tables = []
        for assignment in product(range(a), repeat=mdp.n_states):
            t = np.zeros((mdp.n_states, a))
            t[np.arange(mdp.n_states), assignment] = 1.0
            tables.append(t)
        per_agent.append(tables)
    for combo in product(*per_agent):
        yield m.JointPolicy(list(combo), validate=False)


def pairwise_mismatch(mdp):
    """Largest visitation ratio over every ordered pair of deterministic
    policies, one `visitation` per policy and a Python loop over the pairs,
    on the states `reference_reachable` finds: the reference for
    `enumerated_mismatch`."""
    reach = reference_reachable(mdp)
    dists = [m.visitation(mdp, pi)[reach] for pi in deterministic_policies(mdp)]
    lower = 0.0
    for da in dists:
        for db in dists:
            pos = da > 0
            if np.any(pos & (db <= 0)):
                lower = np.inf
                break
            ratio = np.max(da[pos] / db[pos]) if pos.any() else 1.0
            lower = max(lower, float(ratio))
        if lower == np.inf:
            break
    return lower


def pure_profiles(mdp):
    """All deterministic single-state-game profiles (for 1-state MDPs)."""
    from itertools import product
    assert mdp.n_states >= 1
    return list(product(*[range(a) for a in mdp.n_actions]))


STEEP_COSTS = {
    ("s", "v0_0"): CostDescriptor(
        "table", (0.98, 0.978, 0.976, 0.974, 0.972, 0.97, 0.968, 0.966)),
    ("s", "v0_1"): CostDescriptor(
        "table", (0.03, 0.0295, 0.029, 0.0285, 0.028, 0.0275, 0.027, 0.0265)),
    ("v0_0", "v1_0"): CostDescriptor(
        "table", (0.96, 0.958, 0.956, 0.954, 0.952, 0.95, 0.948, 0.946)),
    ("v0_0", "v1_1"): CostDescriptor(
        "table", (0.02, 0.0195, 0.019, 0.0185, 0.018, 0.0175, 0.017, 0.0165)),
    ("v0_1", "v1_0"): CostDescriptor(
        "table", (0.5, 0.498, 0.496, 0.494, 0.492, 0.49, 0.488, 0.486)),
    ("v0_1", "v1_1"): CostDescriptor(
        "table", (0.02, 0.0195, 0.019, 0.0185, 0.018, 0.0175, 0.017, 0.0165)),
    ("v1_0", "t"): CostDescriptor(
        "table", (0.97, 0.968, 0.966, 0.964, 0.962, 0.96, 0.958, 0.956)),
    ("v1_1", "t"): CostDescriptor(
        "table", (0.04, 0.0395, 0.039, 0.0385, 0.038, 0.0375, 0.037, 0.0365)),
}


@pytest.fixture(scope="session")
def scg2():
    """Two agents on the six-vertex routing graph, full product state space."""
    return m.build_scg(m.layered_dag([2, 2]), n_agents=2, gamma=0.99)


@pytest.fixture(scope="session")
def scg2_uniform_mu():
    return m.build_scg(m.layered_dag([2, 2]), n_agents=2, gamma=0.5,
                       mu="uniform")


@pytest.fixture(scope="session")
def scg3():
    """Three agents on the six-vertex routing graph, reachable states only."""
    return m.build_scg(m.layered_dag([2, 2]), n_agents=3, gamma=0.99,
                       reachable_only=True)


@pytest.fixture(scope="session")
def stage2():
    """Two-agent anti-coordination stage game as a two-route network."""
    return m.build_scg(m.parallel_dag([1.0, 1.0]), n_agents=2, gamma=0.0,
                       mu="uniform", reachable_only=True)


@pytest.fixture(scope="session")
def parallel2():
    """Two parallel two-hop routes, choices only at the start state."""
    return m.build_scg(m.layered_dag([2]), n_agents=2, gamma=0.5,
                       mu="uniform", reachable_only=True)


@pytest.fixture(scope="session")
def distancing3():
    """Three agents on two facilities.  Spread returns to safe only when
    every facility holds at most one agent, which three agents on two
    facilities never do: the spread state is absorbing and every chain is
    upper triangular (distancing_return is the game with a back edge)."""
    params = m.DistancingParams(n_agents=3, n_facilities=2,
                                weights=(0.1, 0.25), penalty=0.4,
                                spread_trigger=2, return_trigger=1,
                                gamma=0.9)
    return m.build_distancing(params, mu="uniform")


@pytest.fixture(scope="session")
def distancing_return():
    """Like distancing3, but two agents on one facility are few enough for a
    spread to return to safe: its chains have a back edge."""
    params = m.DistancingParams(n_agents=3, n_facilities=2,
                                weights=(0.1, 0.25), penalty=0.4,
                                spread_trigger=2, return_trigger=2,
                                gamma=0.9)
    return m.build_distancing(params, mu="uniform")


@pytest.fixture(scope="session")
def coop():
    return m.build_cooperative(2, 3, 2, gamma=0.9, seed=12)
