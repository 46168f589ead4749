"""Exact policy evaluation by linear algebra.

Values, Q-functions, marginal advantages, discounted visitation and the
potential value all come from solves against (I - gamma * P_pi).  `evaluate`
is the one evaluation path, for one policy or R policies on a leading run
axis: the joint tables, the chains (one np.add.at over the MDP's CSR
transition entries), the right-hand sides, the Q back-up of each solved
column (`backup`: stage + gamma * P V over the CSR arrays, summed in scipy's
CSR product order, one gather on a deterministic game) and the
contractions of each agent's joint-action Q table against the other agents'
policy rows (one batched matmul per agent) serve all runs at once.  Every
array of table size among them is written into a `Scratch`: `dynamics.run`
keeps one for the whole run, so a run allocates them once, not per call.
Each run keeps its own solver for all of its value columns and,
transposed, its visitation: a batched solve is not bit-identical to
scipy's, and row r of a stacked report is run r's own report, bit for
bit.  The solver takes one of three paths (`_Solver`):
splu beyond DENSE_SOLVE_MAX states; a triangular solve on the chain itself
when the MDP is upper triangular (every transition leads to a state index
>= its source, as in the acyclic routing games); and a dense
partial-pivoting LU for every other chain.  At gamma = 0 the chain is the
identity: no chain is built, no solver made, and the values are the
one-step rewards.

scipy is imported by the first solver, not with this module: the sampled
path and the step-size guard read only the MDP's CSR arrays.  Only the
sparse LU beyond DENSE_SOLVE_MAX states imports `scipy.sparse.linalg`.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import AgentTables, EvalReport, JointPolicy, joint_digits

DENSE_SOLVE_MAX = 4096


@dataclass(frozen=True)
class MismatchBound:
    """Bound on the worst-case discounted-visitation ratio between policies.

    upper is the analytic bound 1 / ((1-gamma) * min positive mu), valid when
    every reachable state has positive initial mass, and None otherwise; note
    then says which reachable states have none.  `enumerated_mismatch`
    computes the ratio itself on tiny games.
    """
    upper: float | None
    note: str = ""


class Scratch:
    """Buffers of table size that `evaluate` writes into instead of
    allocating them on every call, for up to `runs` policies of one MDP.

    `dynamics.run` makes one for the whole run and passes it to every
    `evaluate` and every Nash-gap best response; a call on R <= runs
    policies uses the first R rows of each buffer, so runs that leave the
    active set need no new scratch.  The buffers are the joint table, two
    spares that its outer-product steps and the marginal contractions
    alternate between, the chains and their entry weights, and the Q
    back-up with its gather index; each is allocated on first use and
    kept.  `evaluate` copies everything it reports out of them, so no
    report shares memory with a scratch, and the next call overwrites
    them.  A scratch is mutable state of one caller: unlike the MDP, it
    must not be shared across threads.
    """

    def __init__(self, mdp, runs=1):
        self.mdp, self.runs = mdp, int(runs)
        S, A = mdp.n_states, mdp.n_joint
        # every step between the joint table and a marginal has at most the
        # entries of the table with agent 0's or agent n-1's axis summed out
        spare = (S * A // min(mdp.n_actions[0], mdp.n_actions[-1])
                 if mdp.n_agents > 1 else 0)
        self._sizes = {"joint": S * A, "spare0": spare, "spare1": spare,
                       "q": S * A, "chain": S * S,
                       "weights": len(mdp.csr[0])}
        self._buffers = {}
        self._cells = self._indices = self._rows = None

    def view(self, name, shape):
        """The first prod(shape) entries of buffer `name` in that shape."""
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None:
            buf = self._buffers[name] = np.empty(
                self.runs * self._sizes[name])
        if size > buf.size:
            raise ValueError(f"a scratch made for {self.runs} runs has no "
                             f"room for a {name} table of shape {shape}")
        return buf[:size].reshape(shape)

    def cells(self, R):
        """The chain cell of every transition entry of R runs' chains,
        numbered as `MultiAgentMDP.chain_cells` numbers them, run r's
        offset by r*S*S: made once for all the scratch's runs."""
        cells = self.mdp.chain_cells
        if self.runs == 1:
            return cells
        if self._cells is None:
            S = self.mdp.n_states
            self._cells = (cells + S * S * np.arange(self.runs)[:, None]
                           ).ravel()
        return self._cells[:R * len(cells)]

    def indices(self):
        """The MDP's CSR column indices as np.intp, made once: np.take
        would convert narrower indices on every call."""
        if self._indices is None:
            self._indices = self.mdp.csr[1].astype(np.intp)
        return self._indices

    def rows(self):
        """The row of every transition entry (`MultiAgentMDP.entry_rows`)
        as a writable np.intp array, made once: np.take copies a read-only
        index array on every call."""
        if self._rows is None:
            self._rows = self.mdp.entry_rows.astype(np.intp)
        return self._rows


def joint_policy_table(mdp, policy, scratch=None):
    """(..., S, n_joint) table of joint action probabilities under a product
    policy whose (..., S, A_i) tables may carry a leading run axis.

    Built as a running outer product from the last agent to agent 0, each
    new agent's axis outermost, which is the joint-action encoding.  With a
    `Scratch` the steps alternate between its spares and the last one
    writes its joint buffer, of which the table returned is a view.
    """
    if len(policy.probs) != mdp.n_agents:
        raise ValueError(f"policy has {len(policy.probs)} agents, the MDP "
                         f"{mdp.n_agents}")
    S = mdp.n_states
    lead = policy.probs[0].shape[:-2]
    table = np.ones(lead + (S, 1))
    for i in reversed(range(mdp.n_agents)):
        p = policy.probs[i]
        if p.shape != lead + (S, mdp.n_actions[i]):
            raise ValueError(f"agent {i}: policy table {p.shape} does not "
                             f"match {lead + (S, mdp.n_actions[i])}")
        shape = p.shape + table.shape[-1:]
        out = None if scratch is None else scratch.view(
            "joint" if i == 0 else f"spare{i % 2}", shape)
        table = np.multiply(p[..., None], table[..., None, :],
                            out=out).reshape(lead + (S, -1))
    return table


def _marginalize(mdp, probs, table, agent, scratch):
    """Expectation of an (R, S, n_joint) table over every agent's action but
    one.

    Contracts the other agents' action axes against their (R, S, A_j) policy
    rows, the trailing agents last-first and then the leading ones, one
    batched matmul each, alternating between the scratch's spares; returns
    the (R, S, A_agent) table, a view of the scratch.
    """
    lead = table.shape[:-1]
    t = table
    step = 0
    for j in range(mdp.n_agents - 1, agent, -1):
        a = t.reshape(lead + (-1, mdp.n_actions[j]))
        t = np.matmul(a, probs[j][..., None], out=scratch.view(
            f"spare{step % 2}", a.shape[:-1] + (1,)))
        step += 1
    for j in range(agent):
        b = t.reshape(lead + (mdp.n_actions[j], -1))
        t = np.matmul(probs[j][..., None, :], b, out=scratch.view(
            f"spare{step % 2}", lead + (1, b.shape[-1])))
        step += 1
    return t.reshape(lead + (mdp.n_actions[agent],))


def _chain_matrix(mdp, jt, scratch=None):
    """(..., S, S) state chains: the transition entries weighted by jt
    (jt itself on a `deterministic` MDP, whose entries are its rows and
    weigh 1), summed per cell in entry order from +0.0 by one np.add.at
    over the MDP's column-major chain cells, in which run r's cells are
    offset by r*S*S (the sums np.bincount gives).  Each run's (S, S) chain is a
    Fortran-ordered view of the scratch's chain buffer, ready for
    `_Solver`; without a scratch the buffers are new."""
    S = mdp.n_states
    lead = jt.shape[:-2]
    jt = jt.reshape(-1, S * mdp.n_joint)
    R = len(jt)
    if scratch is None:
        scratch = Scratch(mdp, R)
    if mdp.deterministic:       # entry e is row e, of weight jt * 1.0 = jt
        weights = jt
    else:
        rows = scratch.rows()
        weights = scratch.view("weights", (R, len(rows)))
        np.take(jt, rows, axis=1, out=weights, mode="clip")
        weights *= mdp.csr[0]
    chain = scratch.view("chain", (R * S * S,))
    chain.fill(0.0)
    np.add.at(chain, scratch.cells(R), weights.ravel())
    return chain.reshape(lead + (S, S)).swapaxes(-1, -2)


class _Solver:
    """Solve (I - gamma * p_pi) x = b, or its transpose, for many b.

    The solver takes p_pi over: I - gamma * p_pi is built in its buffer,
    as 0 - gamma * p then + 1 on the diagonal, which are the bits of
    np.eye(S) - gamma * p, and `_chain_matrix`'s chains are Fortran-ordered
    so that no copy is made.  Three paths, chosen from the MDP: beyond
    DENSE_SOLVE_MAX states one splu factorization; on an upper-triangular
    MDP no factorization at all, since partial-pivoting LU of an
    upper-triangular matrix with a positive diagonal pivots nothing and
    returns L = I, U = A exactly, so a triangular solve on the
    Fortran-ordered A gives lu_solve's bytes; and otherwise one dense LU
    (`linalg.lu_factor`), in place, for chains with a back edge.  At
    gamma = 0 `evaluate` makes no solver.
    """

    def __init__(self, mdp, p_pi):
        from scipy import linalg
        self._linalg = linalg
        S = mdp.n_states
        self._lu = self._sparse = self._upper = None
        A = p_pi
        A *= mdp.gamma
        np.subtract(0.0, A, out=A)
        diagonal = np.arange(S)
        A[diagonal, diagonal] += 1.0
        if S > DENSE_SOLVE_MAX:
            import scipy.sparse as sp
            import scipy.sparse.linalg as spla
            self._sparse = spla.splu(sp.csc_matrix(A))
        elif mdp.upper_triangular:
            # lu_solve reads a Fortran-ordered factor; a C-ordered A makes
            # the transposed solve differ from it in the last bits
            self._upper = A
        else:
            self._lu = linalg.lu_factor(A, overwrite_a=True,
                                        check_finite=False)

    def solve(self, b, transposed=False):
        """Solve A x = b, or A^T x = b; b is (S,) or (S, k)."""
        if self._upper is not None:
            return self._linalg.solve_triangular(
                self._upper, b, trans=int(transposed), check_finite=False)
        if self._lu is not None:
            return self._linalg.lu_solve(self._lu, b, trans=int(transposed),
                                         check_finite=False)
        return self._sparse.solve(b, trans="T" if transposed else "N")


def backup(mdp, stage, values, scratch=None):
    """The (..., S, n_joint) Q table stage + gamma * P V of each value row
    of `values`, (..., S), written into the Q buffer of `scratch` when one
    is given (the table returned is then a view of it).

    P V is summed as scipy's CSR product sums it, from +0.0 and entry by
    entry, each product rounded before it is added, then scaled by gamma,
    and the stage table is added.  On a `deterministic` MDP a row's sum is
    0.0 + 1.0 * v, which is v + 0.0, so the sum and the scaling are done
    on the S values and one gather spreads them over the table; otherwise
    P V is summed one entry rank at a time (`MultiAgentMDP.entry_ranks`).
    At gamma = 0 P V is not read.
    """
    data, indices, _ = mdp.csr
    lead = values.shape[:-1]
    shape = lead + stage.shape
    out = np.empty(shape) if scratch is None else scratch.view("q", shape)
    pv = out.reshape(lead + (-1,))
    if mdp.gamma == 0.0:
        pv.fill(0.0)
    elif mdp.deterministic:
        np.take((values + 0.0) * mdp.gamma,
                indices if scratch is None else scratch.indices(), axis=-1,
                out=pv, mode="clip")
    else:
        pv.fill(0.0)
        for rows, entries in mdp.entry_ranks:
            pv[..., rows] += data[entries] * values[..., indices[entries]]
        pv *= mdp.gamma
    out += stage
    return out


def evaluate(target, policy, want_q=False, agents=None,
             want_adv_potential=True, scratch=None):
    """Full exact evaluation of a product policy.

    `target` may be a MultiAgentMDP or an Environment (in which case the
    stage potential and its marginal advantages are evaluated as well).
    `agents` restricts the per-agent work: the values, marginal Q tables and
    advantages of agents not listed are left as zeros.  `q` is None unless
    `want_q`, and the potential fields are None without a stage potential.
    `adv_potential` is also None unless `want_adv_potential`: the
    potential's Q back-up and its n contractions are skipped, and every
    other field is unchanged.

    Tables with a leading run axis, (R, S, A_i), put that axis on every
    field of the report (v is (R, n_agents, S)) and make potential_mu a list
    of R floats; (S, A_i) tables are the R = 1 case of the same computation.
    Each per-agent field is written into one (..., n, S, A_max) buffer,
    padded with 0, and returned as `AgentTables` over it.

    The arrays of table size are taken from `scratch`, a `Scratch` of the
    MDP for at least R runs; without one the call makes its own.  The
    report is byte for byte the same either way and shares no memory with
    the scratch.
    """
    env = target if hasattr(target, "mdp") else None
    mdp = env.mdp if env is not None else target
    S, A, n = mdp.n_states, mdp.n_joint, mdp.n_agents
    active = list(range(n)) if agents is None else list(agents)
    if scratch is not None and scratch.mdp is not mdp:
        raise ValueError("the scratch was made for another MDP")

    jt = joint_policy_table(mdp, policy, scratch)
    lead = jt.shape[:-2]
    jt = jt.reshape(-1, S, A)
    R = len(jt)
    if scratch is None:
        scratch = Scratch(mdp, R)
    probs = [p.reshape(R, S, -1) for p in policy.probs]
    if mdp.gamma == 0.0:
        # I - gamma * P_pi is the identity: no chain, solver or solve
        solvers = None
        d = np.tile(mdp.mu, (R, 1))
    else:
        solvers = [_Solver(mdp, chain)
                   for chain in _chain_matrix(mdp, jt, scratch)]
        d = np.array([solver.solve((1.0 - mdp.gamma) * mdp.mu,
                                   transposed=True) for solver in solvers])

    with_potential = env is not None and env.stage_potential is not None
    rhs_cols = [np.einsum("sa,rsa->rs", mdp.rewards[i], jt) for i in active]
    if with_potential:
        rhs_cols.append(np.multiply(jt, env.stage_potential, out=scratch.view(
            "q", jt.shape)).sum(axis=-1))
    shapes = [(S, a) for a in mdp.n_actions]

    def stacked():              # per-agent views of one zeroed buffer
        return AgentTables.of(np.zeros((R, n, S, mdp.a_max())), shapes)

    v = np.zeros((R, n, S))
    adv, q_marg = stacked(), stacked()
    q_all = np.zeros((R, n, S, A)) if want_q else None
    potential = potential_mu = adv_potential = None
    if rhs_cols:
        rhs = np.stack(rhs_cols, axis=-1)
        sols = rhs if solvers is None else [
            solver.solve(b) for solver, b in zip(solvers, rhs)]
        sol = np.asarray(sols)
        for k, i in enumerate(active):
            v[:, i] = sol[:, :, k]
            q_i = backup(mdp, mdp.rewards[i], sol[:, :, k], scratch)
            if want_q:
                q_all[:, i] = q_i
            q_marg[i][...] = _marginalize(mdp, probs, q_i, i, scratch)
            np.subtract(q_marg[i], v[:, i, :, None], out=adv[i])
        if with_potential:
            potential = sol[:, :, -1]
            # Python floats for repr in trace files; dots in solve order
            potential_mu = [float(mdp.mu @ x[:, -1]) for x in sols]
        if with_potential and want_adv_potential:
            q_phi = backup(mdp, env.stage_potential, sol[:, :, -1], scratch)
            adv_potential = stacked()
            for i in range(n):
                np.subtract(_marginalize(mdp, probs, q_phi, i, scratch),
                            potential[..., None], out=adv_potential[i])

    def runs(x):
        return None if x is None else x.reshape(lead + x.shape[1:])

    def tables(x):
        return None if x is None else x.like(runs(x.stacked))

    if potential_mu is not None and not lead:
        potential_mu = potential_mu[0]
    return EvalReport(
        v=runs(v), adv_marginal=tables(adv), visitation=runs(d),
        q=runs(q_all), q_marginal=tables(q_marg), potential=runs(potential),
        potential_mu=potential_mu, adv_potential=tables(adv_potential))


def q_and_advantage(mdp, policy, agent):
    """Joint-action Q table and marginal advantage for one agent."""
    report = evaluate(mdp, policy, want_q=True, agents=[agent])
    return report.q[agent], report.adv_marginal[agent]


def visitation(mdp, policy):
    """Discounted state visitation distribution from mu under the policy."""
    return evaluate(mdp, policy, agents=[]).visitation


def potential_value(env, policy):
    """Per-state potential and its mu-average for an environment with a stage potential."""
    if env.stage_potential is None:
        raise ValueError(f"environment {env.label!r} has no stage potential")
    report = evaluate(env, policy, agents=[])
    return report.potential, report.potential_mu


def deterministic_policy_count(mdp):
    count = 1
    for a in mdp.n_actions:
        count *= a ** mdp.n_states
    return count


def mismatch_bound(mdp):
    """Analytic upper bound on the distribution mismatch coefficient.

    The bound 1 / ((1-gamma) * min positive mu) uses d(s) >= (1-gamma)*mu(s)
    and d <= 1, hence requires mu(s) > 0 on every reachable state; when some
    reachable state has no initial mass, `upper` is None and `note` names
    such states.  No policy is evaluated.
    """
    positive = mdp.mu > 0
    bad = np.flatnonzero(mdp.reachable & ~positive)
    if not bad.size:
        return MismatchBound(
            upper=1.0 / ((1.0 - mdp.gamma) * mdp.mu[positive].min()))
    bad = bad[:5].tolist()
    return MismatchBound(
        upper=None,
        note=(f"states {bad} are reachable but have mu = 0; the visitation "
              f"ratio may be unbounded, supply a bound manually"))


def enumerated_mismatch(mdp):
    """max over deterministic product policies a, b and states s of
    d_a(s) / d_b(s), the visitation ratio that `mismatch_bound` bounds.

    Every policy is decoded from one mixed-radix table (agent 0's action at
    state 0 most significant) and all are evaluated in one stacked
    `evaluate`.  Only the states mu can reach (`MultiAgentMDP.reachable`)
    are compared, so the float noise a solve leaves on an unreachable state
    is never read as a visit.  The result is inf when one policy visits a
    reachable state that another never does; reachable states that no
    policy visits (all of them but mu's support at gamma = 0) are skipped.
    Only for tiny games: more than 4096 policies raise a ValueError.
    """
    count = deterministic_policy_count(mdp)
    if count > 4096:
        raise ValueError(f"{count} deterministic policies, more than the "
                         f"4096 that enumeration allows")
    S = mdp.n_states
    digits = joint_digits([a for a in mdp.n_actions for _ in range(S)])
    probs = [np.eye(a)[digits[:, i * S:(i + 1) * S]]
             for i, a in enumerate(mdp.n_actions)]
    d = evaluate(mdp, JointPolicy(probs, validate=False),
                 agents=[]).visitation[:, mdp.reachable]
    visited = d > 0
    if np.any(visited.any(axis=0) & ~visited.all(axis=0)):
        return np.inf
    d = d[:, visited[0]]
    return float(np.max(d.max(axis=0) / d.min(axis=0)))
