"""Benchmark Markov potential game environments.

Builders for the routing (stochastic congestion) game on a DAG, the two-state
distancing game, and randomly generated common-reward (cooperative) games.
Each environment bundles its MDP with a stage potential table.

A note on what the stage potential certifies.  The bundled potentials satisfy
the value-difference identity

    Phi^(pi_i', pi_-i)(s) - Phi^(pi)(s) = V_i^(pi_i', pi_-i)(s) - V_i^(pi)(s)

exactly, for every state and every deviation of a single agent i, provided
the remaining agents' strategies do not react to agent i: in the routing game
the others must condition only on their own vertex, and in the distancing
game they must play the same distribution in both states.  (The deviating
agent is unrestricted.)  If some other agent's policy reads the deviator's
coordinates, its realized play shifts when the deviator's policy shifts, the
Rosenthal cancellation breaks, and the identity picks up an error of the
order of the costs involved; demos/01_potential_identity.py shows a concrete
failure.  Common-reward games satisfy the identity for arbitrary product
policies.  Environment.sample_base_profile draws from the certified class,
which is what the potential checker uses.
"""

import re
from dataclasses import dataclass, field

import numpy as np

from .core import (JointPolicy, MultiAgentMDP, _frozen, index_dtype,
                   joint_digits)


@dataclass(frozen=True)
class Environment:
    """An MDP plus an optional stage potential table (n_states, n_joint)."""
    mdp: MultiAgentMDP
    stage_potential: np.ndarray | None
    label: str
    base_profile_sampler: object = field(default=None, repr=False, compare=False)

    def sample_base_profile(self, rng):
        """A random profile from the class certified by the stage potential."""
        if self.base_profile_sampler is not None:
            return self.base_profile_sampler(rng)
        return random_product_policy(self.mdp, rng)


def random_product_policy(mdp, rng):
    """Dirichlet(1,...,1) rows for every agent and state."""
    return JointPolicy(
        [rng.dirichlet(np.ones(a), size=mdp.n_states) for a in mdp.n_actions],
        validate=False)


# --- cost descriptors and DAG specs ------------------------------------------

class DagSpecError(ValueError):
    pass


@dataclass(frozen=True)
class CostDescriptor:
    """Per-edge reward as a function of the edge load.

    kinds: inverse_load(base) -> base / load
           linear(a, b)       -> a - b * (load - 1)
           table(v1, ..., vk) -> v_load
    """
    kind: str
    params: tuple

    def cost(self, load):
        if self.kind == "inverse_load":
            return self.params[0] / load
        if self.kind == "linear":
            return self.params[0] - self.params[1] * (load - 1)
        if self.kind == "table":
            if load > len(self.params):
                raise ValueError(f"table cost has no entry for load {load}")
            return self.params[load - 1]
        raise ValueError(f"unknown cost kind {self.kind!r}")

    def table(self, n_agents):
        """Rewards for loads 0..n_agents (index 0 unused, set to 0)."""
        t = np.zeros(n_agents + 1)
        for l in range(1, n_agents + 1):
            t[l] = self.cost(l)
        return t

    def __str__(self):
        inner = ",".join(repr(p) for p in self.params)
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class DagEdge:
    frm: str
    to: str
    cost: CostDescriptor


def _reach(start, neighbours):
    """The set of vertices reachable from `start`, `neighbours` mapping each
    vertex to a list of the vertices one step away."""
    seen, todo = {start}, [start]
    while todo:
        for w in neighbours[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return seen


@dataclass(frozen=True)
class DagSpec:
    """A routing network: DAG with a designated source and sink.

    Parallel edges between the same pair of vertices are allowed; each edge
    is a separate congestible resource.
    """
    vertices: tuple
    source: str
    sink: str
    edges: tuple
    n_agents: int | None = None

    def out_edges(self):
        """Edge indices grouped by tail vertex, in declaration order."""
        out = {v: [] for v in self.vertices}
        for k, e in enumerate(self.edges):
            out[e.frm].append(k)
        return out

    def validate(self):
        problems = []
        index = {v: i for i, v in enumerate(self.vertices)}
        for e in self.edges:
            if e.frm not in index or e.to not in index:
                problems.append(f"edge {e.frm} -> {e.to} references unknown vertex")
        if self.source not in index:
            problems.append(f"source {self.source!r} is not a vertex")
        if self.sink not in index:
            problems.append(f"sink {self.sink!r} is not a vertex")
        if problems:
            raise DagSpecError("; ".join(problems))
        succ = {v: [] for v in self.vertices}
        pred = {v: [] for v in self.vertices}
        for e in self.edges:
            succ[e.frm].append(e.to)
            pred[e.to].append(e.frm)
        # cycle detection by depth-first search, reporting one back edge; an
        # explicit stack of (vertex, its successors still to visit), so that
        # deep graphs do not hit the recursion limit
        color = {v: 0 for v in self.vertices}
        for root in self.vertices:
            if color[root]:
                continue
            color[root] = 1
            stack = [(root, iter(succ[root]))]
            while stack:
                v, rest = stack[-1]
                for w in rest:
                    if color[w] == 1:
                        raise DagSpecError(
                            f"cycle through back edge {v} -> {w}")
                    if color[w] == 0:
                        color[w] = 1
                        stack.append((w, iter(succ[w])))
                        break
                else:
                    color[v] = 2
                    stack.pop()
        forward = _reach(self.source, succ)
        backward = _reach(self.sink, pred)
        for v in self.vertices:
            if v not in forward or v not in backward:
                problems.append(f"vertex {v} is not on any {self.source} -> "
                                f"{self.sink} path")
        for v in self.vertices:
            if v != self.sink and not succ[v]:
                problems.append(f"non-sink vertex {v} has no outgoing edge")
        if problems:
            raise DagSpecError("; ".join(problems))


_EDGE_RE = re.compile(
    r"^(\S+)\s*->\s*(\S+)\s+cost\s*=\s*([A-Za-z_]\w*)\(([^)]*)\)$")
_HEADER_RE = re.compile(r"^(source|sink|agents)\s*=\s*(\S+)$")


def parse_dag_spec(text, name="<dag>"):
    """Parse the line-oriented DAG format.

    Header lines: source=NAME, sink=NAME, agents=N (agents optional).
    Edge lines:   FROM -> TO cost=<kind>(<comma separated params>)
    Lines starting with '#' and blank lines are ignored.  Diagnostics carry
    1-based line numbers.
    """
    source = sink = None
    n_agents = None
    vertices = []
    seen = set()
    edges = []

    def add_vertex(v):
        if v not in seen:
            seen.add(v)
            vertices.append(v)

    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        m = _HEADER_RE.match(line)
        if m:
            key, val = m.group(1), m.group(2)
            if key == "source":
                source = val
            elif key == "sink":
                sink = val
            else:
                try:
                    n_agents = int(val)
                except ValueError:
                    raise DagSpecError(f"{name}: line {no}: agents must be an "
                                       f"integer, got {val!r}")
            continue
        m = _EDGE_RE.match(line)
        if m:
            frm, to, kind, raw_params = m.groups()
            if kind not in ("inverse_load", "linear", "table"):
                raise DagSpecError(f"{name}: line {no}: unknown cost kind "
                                   f"{kind!r}")
            try:
                params = tuple(float(p) for p in raw_params.split(",") if p.strip())
            except ValueError:
                raise DagSpecError(f"{name}: line {no}: cannot parse cost "
                                   f"parameters {raw_params!r}")
            if not params:
                raise DagSpecError(f"{name}: line {no}: cost needs parameters")
            add_vertex(frm)
            add_vertex(to)
            edges.append(DagEdge(frm, to, CostDescriptor(kind, params)))
            continue
        raise DagSpecError(f"{name}: line {no}: cannot parse {line!r}")

    if source is None or sink is None:
        raise DagSpecError(f"{name}: missing source= or sink= header")
    spec = DagSpec(vertices=tuple(vertices), source=source, sink=sink,
                   edges=tuple(edges), n_agents=n_agents)
    try:
        spec.validate()
    except DagSpecError as exc:
        raise DagSpecError(f"{name}: {exc}")
    return spec


def layered_dag(layer_sizes, costs=None, default_base=1.0):
    """Fully connected layered DAG: source, hidden layers, sink.

    `costs` optionally maps (from_name, to_name) to a CostDescriptor; other
    edges get inverse_load(default_base).
    """
    names = [["s"]]
    for li, size in enumerate(layer_sizes):
        names.append([f"v{li}_{j}" for j in range(size)])
    names.append(["t"])
    edges = []
    for a, b in zip(names[:-1], names[1:]):
        for u in a:
            for w in b:
                cd = None if costs is None else costs.get((u, w))
                if cd is None:
                    cd = CostDescriptor("inverse_load", (default_base,))
                edges.append(DagEdge(u, w, cd))
    vertices = tuple(v for layer in names for v in layer)
    spec = DagSpec(vertices=vertices, source="s", sink="t", edges=tuple(edges))
    spec.validate()
    return spec


def parallel_dag(bases, kind="inverse_load"):
    """Source and sink joined by parallel edges, one per entry of `bases`."""
    edges = tuple(DagEdge("s", "t", CostDescriptor(kind, (b,) if kind != "table"
                                                   else tuple(b)))
                  for b in bases)
    spec = DagSpec(vertices=("s", "t"), source="s", sink="t", edges=edges)
    spec.validate()
    return spec


# --- stochastic congestion game ----------------------------------------------

def build_scg(spec, n_agents=None, gamma=0.99, reachable_only=False,
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

    Construction.  One enumeration lists the configurations in state order,
    as an (n_configs, n) table of vertex indices: the breadth-first search
    with reachable_only, every code decoded in order without it.  One
    sorted-code lookup maps any code to its state.  One pass over the table
    then takes each configuration's moves (the edge every agent takes under
    every joint action and the configuration it leads to, from the helper
    the search also uses) and computes the edge loads, every agent's reward
    and the Rosenthal potential.  The sink's no-op is a zero-cost self-loop,
    left out of the potential.  The pass writes every kept table once, in
    its kept dtype: the rewards, the stage potential, and the CSR arrays
    with int32 indices when they fit (`core.index_dtype`).  They are made
    read-only and handed over uncopied: `env.mdp.rewards` is the array the
    pass wrote, and so on.

    state_budget bounds the number of states the MDP will have: the
    configurations, plus the terminal with goal="absorb".  It is checked as
    the search finds each configuration, and on the Python integer |V|^n
    without reachable_only, so no table of a refused size is allocated.
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

    # agents at the sink either return to the source or stay, paid nothing,
    # on one more edge: the only one out of the sink
    edges = list(spec.edges)
    if goal == "return":
        if not (0.0 <= return_reward <= 1.0):
            raise ValueError("return_reward must lie in [0, 1]")
        edges.append(DagEdge(spec.sink, spec.source,
                             CostDescriptor("table", (return_reward,) * n)))
        n_paid = len(edges)
    elif goal == "absorb":
        n_paid = len(edges)
        edges.append(DagEdge(spec.sink, spec.sink,
                             CostDescriptor("table", (0.0,) * n)))
    else:
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
    # Rosenthal terms of the paid edges, (n_paid, n+1)
    rosenthal = np.cumsum(cost_table[:n_paid], axis=1)

    out = spec.out_edges()
    out[spec.sink] = [n_edges - 1]
    n_act = max(len(ks) for ks in out.values())
    # action a at vertex v follows its a-th outgoing edge, clamped
    act_edge = np.array(
        [[out[v][min(a, len(out[v]) - 1)] for a in range(n_act)]
         for v in spec.vertices], dtype=np.int64)

    n_actions = (n_act,) * n
    n_joint = n_act ** n
    digits = joint_digits(n_actions)
    radix = V ** np.arange(n - 1, -1, -1, dtype=np.int64)
    start = np.full(n, source, dtype=np.int64)
    # the all-at-sink configuration moves to the terminal state, if any
    stop = sink * int(radix.sum()) if goal == "absorb" else -1

    def moves(verts):
        """The edge every agent takes under every joint action and the
        configuration it leads to, both (n_joint, n)."""
        edge = act_edge[verts, digits]
        return edge, edge_to[edge]

    terminal = int(goal == "absorb")

    def check_budget(n_configs):
        """Refuse a game of more than state_budget states: its
        configurations, and the terminal with goal="absorb"."""
        if n_configs + terminal > state_budget:
            raise ValueError(f"state budget {state_budget} exceeded: "
                             f"{n_configs} configurations"
                             + " and the terminal" * terminal)

    # the one enumeration: (n_configs, n) vertex indices, in state order
    if reachable_only:
        check_budget(1)
        configs, seen = [start], {int(start @ radix)}
        for verts in configs:                   # grows as it is read
            if verts @ radix == stop:
                continue
            nxt = moves(verts)[1]
            fresh, first = np.unique(nxt @ radix, return_index=True)
            for code, k in zip(fresh.tolist(), first.tolist()):
                if code not in seen:
                    check_budget(len(configs) + 1)
                    seen.add(code)
                    configs.append(nxt[k])
        configs = np.array(configs)
    else:
        check_budget(V ** n)                    # a Python int: no table yet
        configs = np.stack(np.unravel_index(np.arange(V ** n), (V,) * n),
                           axis=1)
    codes = configs @ radix
    by_code = np.argsort(codes)

    def state_of(c):
        """The state number of every configuration code in `c`."""
        return by_code[np.searchsorted(codes, c, sorter=by_code)]

    # every kept table is written once, in its kept dtype, and handed to
    # the MDP and the Environment uncopied (see MultiAgentMDP)
    n_configs = len(configs)
    S = n_configs + terminal
    rewards = np.zeros((n, S, n_joint))
    potential = np.zeros((S, n_joint))
    index = index_dtype(S * n_joint + 1)
    indices = np.full(S * n_joint, S - 1, dtype=index)  # the terminal, if any
    next_idx = indices.reshape(S, n_joint)
    joints = np.arange(n_joint)[:, None]
    for s in range(n_configs):
        if codes[s] == stop:
            continue
        edge, nxt = moves(configs[s])
        # loads[j, e]: the agents on edge e under joint action j
        loads = np.bincount((joints * n_edges + edge).ravel(),
                            minlength=n_joint * n_edges).reshape(n_joint, -1)
        rewards[:, s] = cost_table[edge, loads[joints, edge]].T
        potential[s] = rosenthal[np.arange(n_paid), loads[:, :n_paid]].sum(1)
        next_idx[s] = state_of(nxt @ radix)

    transitions = (np.ones(S * n_joint), indices,
                   np.arange(S * n_joint + 1, dtype=index))
    for a in (rewards, potential) + transitions:
        a.flags.writeable = False
    mu_vec = np.zeros(S)
    if mu == "start":
        mu_vec[state_of(start @ radix)] = 1.0
    elif mu == "uniform":
        mu_vec[:] = 1.0 / S
    else:
        raise ValueError(f"unknown mu mode {mu!r}")
    labels = [tuple(spec.vertices[v] for v in verts)
              for verts in configs.tolist()] + ["terminal"] * (S - n_configs)
    mdp = MultiAgentMDP(n_actions, rewards, transitions, gamma, mu_vec,
                        state_labels=labels)

    # each state's vertex of every agent; the terminal's is the sink
    vertex_of = np.vstack([configs, np.full((S - n_configs, n), sink)])

    def sample_own_vertex_profile(rng):
        per_vertex = [rng.dirichlet(np.ones(n_act), size=V) for _ in range(n)]
        return JointPolicy([p[v] for p, v in zip(per_vertex, vertex_of.T)],
                           validate=False)

    name = f"scg(n={n}, |V|={V}, gamma={gamma})"
    return Environment(mdp=mdp, stage_potential=potential, label=name,
                       base_profile_sampler=sample_own_vertex_profile)


# --- distancing game ----------------------------------------------------------

@dataclass(frozen=True)
class DistancingParams:
    """Two-state facility game: a safe state and a penalized spread state.

    Reward for picking facility k is weight_k times the head count at k,
    minus a constant penalty in the spread state, affinely rescaled into
    [0, 1].  The safe state switches to spread when any facility holds more
    than spread_trigger agents; spread returns to safe only when every
    facility holds at most return_trigger agents.
    """
    n_agents: int = 8
    n_facilities: int = 4
    weights: tuple | None = None
    penalty: float = 0.5
    spread_trigger: int = 4
    return_trigger: int = 2
    gamma: float = 0.99

    def resolved_weights(self):
        if self.weights is not None:
            w = tuple(float(x) for x in self.weights)
        else:
            w = tuple(0.1 * (k + 1) / self.n_agents
                      for k in range(self.n_facilities))
        if len(w) != self.n_facilities:
            raise ValueError("need one weight per facility")
        if any(b <= a for a, b in zip(w, w[1:])):
            raise ValueError(f"weights must be strictly increasing, got {w}")
        if w[0] <= 0:
            raise ValueError("weights must be positive")
        return w

    def check(self):
        if self.n_agents < 1 or self.n_facilities < 2:
            raise ValueError("need at least one agent and two facilities")
        if self.penalty <= 0:
            raise ValueError("penalty must be positive")
        if self.spread_trigger < 1 or self.return_trigger < 1:
            raise ValueError("triggers must be positive")
        self.resolved_weights()


SAFE, SPREAD = 0, 1


def build_distancing(params, mu="safe"):
    """Build the two-state distancing game with its congestion stage potential."""
    params.check()
    n, F = params.n_agents, params.n_facilities
    w = np.array(params.resolved_weights())
    c = float(params.penalty)
    n_joint = F ** n
    joints = np.arange(n_joint)
    facility = joint_digits((F,) * n)   # column i: agent i's facility

    counts = np.zeros((n_joint, F), dtype=np.int64)
    for i in range(n):
        counts[joints, facility[:, i]] += 1

    # the (n, 2, F**n) reward table is 8 MB on the shipped config: both of
    # an agent's rows are written straight into it, and it is rescaled in
    # place, so that no second copy of it is ever alive
    rewards = np.empty((n, 2, n_joint))
    for i in range(n):
        k = facility[:, i]
        np.multiply(w[k], counts[joints, k], out=rewards[i, SAFE])
        np.subtract(rewards[i, SAFE], c, out=rewards[i, SPREAD])

    tri = counts * (counts + 1) / 2.0
    potential = np.empty((2, n_joint))
    potential[SAFE] = tri @ w
    np.subtract(potential[SAFE], c, out=potential[SPREAD])

    max_count = counts.max(axis=1)
    index = index_dtype(2 * n_joint + 1)
    indices = np.empty(2 * n_joint, dtype=index)
    indices[:n_joint] = np.where(max_count > params.spread_trigger, SPREAD,
                                 SAFE)
    indices[n_joint:] = np.where(max_count <= params.return_trigger, SAFE,
                                 SPREAD)
    del counts, tri, max_count

    lo, hi = rewards.min(), rewards.max()
    if hi - lo < 1e-12:
        raise ValueError("degenerate reward range, rescale impossible")
    alpha = 1.0 / (hi - lo)
    beta = -lo / (hi - lo)
    rewards *= alpha
    rewards += beta
    if rewards.min() < -1e-12 or rewards.max() > 1 + 1e-12:
        raise ValueError("rescaled rewards escape [0, 1]")
    np.clip(rewards, 0.0, 1.0, out=rewards)
    potential *= alpha
    potential += beta

    data = np.ones(2 * n_joint)
    indptr = np.arange(2 * n_joint + 1, dtype=index)
    for a in (rewards, potential, data, indices, indptr):
        a.flags.writeable = False
    transitions = (data, indices, indptr)

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


# --- common-reward games -------------------------------------------------------

def build_cooperative(n_agents, n_states, n_actions, gamma, seed,
                      mu="uniform"):
    """Random common-reward game: every agent receives the same reward.

    These are Markov potential games for arbitrary product policies (the
    potential is the shared value), which makes them the strongest testbed
    for gradient and smoothness identities.
    """
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    acts = (n_actions,) * n_agents
    n_joint = int(np.prod(acts))
    common = rng.uniform(0.0, 1.0, size=(n_states, n_joint))
    rewards = np.repeat(common[None, :, :], n_agents, axis=0)
    dense = rng.dirichlet(np.ones(n_states), size=(n_states, n_joint))
    if mu == "uniform":
        mu_vec = np.full(n_states, 1.0 / n_states)
    else:
        mu_vec = np.asarray(mu, dtype=float)
    mdp = MultiAgentMDP(acts, rewards, dense, gamma, mu_vec)
    name = f"cooperative(n={n_agents}, S={n_states}, A={n_actions}, seed={seed})"
    return Environment(mdp=mdp, stage_potential=_frozen(common), label=name,
                       base_profile_sampler=None)
