"""Environment builders: DAG parsing, the routing game, the distancing game,
and the potential-identity guarantees of each."""

import gc
import hashlib
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mpglearn as m
from mpglearn import cli, environments
from mpglearn.environments import (CostDescriptor, DagEdge, DagSpec,
                                   DagSpecError)

from conftest import (STEEP_COSTS, assert_same_bytes,
                      reference_build_distancing, reference_build_scg,
                      transition_matrix)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


PAPER_GRAPH = """\
source = s
sink = t
agents = 4
s -> u0 cost=inverse_load(1.0)
s -> u1 cost=inverse_load(1.0)
u0 -> v0 cost=inverse_load(1.0)
u0 -> v1 cost=inverse_load(1.0)
u1 -> v0 cost=inverse_load(1.0)
u1 -> v1 cost=inverse_load(1.0)
v0 -> t cost=inverse_load(1.0)
v1 -> t cost=inverse_load(1.0)
"""


def environment_arrays(env):
    """Every table an environment keeps, by name."""
    mdp = env.mdp
    data, indices, indptr = mdp.csr
    return {"rewards": mdp.rewards, "data": data, "indices": indices,
            "indptr": indptr, "mu": mdp.mu, "state_labels": mdp.state_labels,
            "stage_potential": env.stage_potential}


def assert_same_environment(env, ref):
    got, want = environment_arrays(env), environment_arrays(ref)
    for name, a in want.items():
        if isinstance(a, np.ndarray):
            assert_same_bytes(got[name], a, name)
        else:
            assert got[name] == a, f"{name} differs"


def digest(a):
    """SHA-256 of an array's dtype, shape and bytes, or of a repr."""
    h = hashlib.sha256()
    if isinstance(a, np.ndarray):
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    else:
        h.update(repr(a).encode())
    return h.hexdigest()


# SHA-256 digests of the shipped environments' tables, as recorded before
# the distancing builder wrote its tables in place
SHIPPED_DIGESTS = {
    "scg4.ini": {
        "rewards":
            "390647172745dbf4bbf384f1ef87fbacbae29344d26295f6f7cf486c87a099f1",
        "data":
            "ad24c3753bc6cbbcb254acf33974c02c6c66c73176ebb97a7bf9bfbb6aa118bd",
        "indices":
            "12bc21914abbc1d171eac34a6295e373329bbb075af44d1e97b490f80ac01e56",
        "indptr":
            "d7e18506f3beb68c06eb02909426475b5f77b6c4e579ba7a68cac77e8855a807",
        "mu":
            "bd817c1850f6de4f5ec11b35075a66db275ed3860463442f84e6d1ab2b13661e",
        "state_labels":
            "e624d48447388d3c8963ef87c778c4f9945283fda901861086d0decb050f939f",
        "stage_potential":
            "85b8c66faee48f5ee64137e4c6fe573b0e554a5be88167c6eb2748edc4d8181f",
    },
    "distancing.ini": {
        "rewards":
            "c53e12aacbc10d8e2ccccd5fb9bdbd8e512af2827fe422f5f5d6591b23fb9639",
        "data":
            "8c2a054680c97062847e0c1f0cbbc8a50a98b6bc795b0531afd625e58ea839b6",
        "indices":
            "baee5eb453df12f644ad183ee59a3b5ee88a69d66646ead21d0e104f4c058541",
        "indptr":
            "9ecdad93462dbaabe7454e0f8e8d22ce6338cca71ec5db29aeb2b205c56e1606",
        "mu":
            "34763f2cb2e1e30c25baafa27c4af5c37b83c794d3fcb57dfe96094bfabe268d",
        "state_labels":
            "305d1d6f118bd885cd830718ecfc721f001fd7a6d95e472927cfb5064be4ce19",
        "stage_potential":
            "28be77f138b5e1c8dfc98c008d910db99b919f3a5ac35cdabee62bc249b75846",
    },
    "scg8.ini": {
        "rewards":
            "242ebbf01aff92b21fd9a60564c0638854e16a6c0c46657973afa35749483f66",
        "data":
            "c059508b62d6794c1f1442d328b37d9cd631a8c1d5db004506b0a473051e6a44",
        "indices":
            "54e537d5144317c77155b8cbd155d04da310f4958dfabaaabcf6509b87d070d4",
        "indptr":
            "fb617def4c6a1b1e11947a0decf4d6528069a93bcc0a37476c3b46e93a6edb93",
        "mu":
            "2e4ba60ddab9d1e7ee927d25d3b271b4196a353bd2a0277c0ab5092f7dd5d5e6",
        "state_labels":
            "1f1d5da2fb371d3e90f0fd101907f6a3be1a4c168fb8fb368f8137f1b9c33bb0",
        "stage_potential":
            "49fa5a22da8e4ffaf826ed6998e436253919056d36dda9f34599a2695867bcb3",
    },
}


def path_dag(length):
    """A path of `length` edges from v0 to v<length>."""
    return (f"source = v0\nsink = v{length}\n"
            + "".join(f"v{k} -> v{k + 1} cost=inverse_load(1.0)\n"
                      for k in range(length)))


class TestParseDagSpec:
    def test_minimal_single_edge(self):
        spec = m.parse_dag_spec("source = s\nsink = t\n"
                                "s -> t cost=inverse_load(1.0)\n")
        assert spec.vertices == ("s", "t")
        assert len(spec.edges) == 1

    def test_cycle_rejected_naming_back_edge(self):
        text = ("source = s\nsink = t\n"
                "s -> a cost=inverse_load(1.0)\n"
                "a -> t cost=inverse_load(1.0)\n"
                "t -> s cost=inverse_load(1.0)\n")
        with pytest.raises(DagSpecError, match="cycle"):
            m.parse_dag_spec(text)

    def test_dangling_vertex_rejected(self):
        text = ("source = s\nsink = t\n"
                "s -> t cost=inverse_load(1.0)\n"
                "s -> orphan cost=inverse_load(1.0)\n")
        with pytest.raises(DagSpecError, match="orphan"):
            m.parse_dag_spec(text)

    def test_paper_layered_graph_shape(self):
        spec = m.parse_dag_spec(PAPER_GRAPH)
        assert len(spec.vertices) == 6
        assert spec.n_agents == 4
        out = spec.out_edges()
        layer_sizes = (len(out["s"]), 2, 2, len(out["t"]))
        assert layer_sizes == (2, 2, 2, 0)
        # fully connected internal layers: u0 and u1 both reach v0 and v1
        assert {spec.edges[k].to for k in out["u0"]} == {"v0", "v1"}
        assert {spec.edges[k].to for k in out["u1"]} == {"v0", "v1"}

    def test_syntax_error_carries_line_number(self):
        with pytest.raises(DagSpecError, match="line 3"):
            m.parse_dag_spec("source = s\nsink = t\nnonsense here\n")

    def test_unknown_cost_kind(self):
        with pytest.raises(DagSpecError, match="cost kind"):
            m.parse_dag_spec("source = s\nsink = t\ns -> t cost=cubic(1.0)\n")

    def test_parse_is_deterministic(self):
        a = m.parse_dag_spec(PAPER_GRAPH)
        b = m.parse_dag_spec(PAPER_GRAPH)
        assert a == b

    def test_deep_path_parses_and_builds(self):
        # deeper than the interpreter's recursion limit
        spec = m.parse_dag_spec(path_dag(1500))
        assert len(spec.vertices) == 1501
        for reachable_only in (False, True):
            env = m.build_scg(spec, n_agents=1, gamma=0.9,
                              reachable_only=reachable_only)
            assert env.mdp.n_states == 1502

    def test_deep_path_back_edge_is_named(self):
        text = path_dag(1500) + "v1000 -> v10 cost=inverse_load(1.0)\n"
        with pytest.raises(DagSpecError,
                           match="cycle through back edge v1000 -> v10$"):
            m.parse_dag_spec(text)


class TestCostDescriptors:
    def test_inverse_load(self):
        c = CostDescriptor("inverse_load", (0.8,))
        assert c.cost(1) == 0.8
        assert c.cost(4) == 0.2

    def test_linear(self):
        c = CostDescriptor("linear", (0.9, 0.1))
        assert abs(c.cost(3) - 0.7) < 1e-15

    def test_table(self):
        c = CostDescriptor("table", (0.5, 0.25))
        assert c.cost(2) == 0.25
        with pytest.raises(ValueError, match="load 3"):
            c.cost(3)

    def test_out_of_range_cost_rejected_at_build(self):
        spec = m.parallel_dag([1.5])
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            m.build_scg(spec, n_agents=2, gamma=0.9)


class TestBuildScg:
    def test_single_agent_single_edge(self):
        env = m.build_scg(m.parse_dag_spec(
            "source = s\nsink = t\ns -> t cost=inverse_load(1.0)\n"),
            n_agents=1, gamma=0.99)
        mdp = env.mdp
        assert mdp.n_states == 3
        assert mdp.state_labels == (("s",), ("t",), "terminal")
        assert mdp.n_actions == (1,)
        v = m.evaluate(mdp, m.JointPolicy([np.ones((3, 1))])).v
        start = mdp.state_labels.index(("s",))
        assert abs(v[0, start] - 1.0) < 1e-12

    def test_paper_graph_state_count_and_actions(self):
        spec = m.parse_dag_spec(PAPER_GRAPH)
        env = m.build_scg(spec, gamma=0.99)
        assert env.mdp.n_states == 6 ** 4 + 1
        assert env.mdp.n_actions == (2, 2, 2, 2)

    def test_reachable_only_prunes_unreachable_configurations(self):
        spec = m.parse_dag_spec(PAPER_GRAPH)
        env = m.build_scg(spec, gamma=0.99, reachable_only=True)
        # start, two layers of 2^4 configurations, all-at-sink, terminal
        assert env.mdp.n_states == 1 + 16 + 16 + 1 + 1

    def test_state_budget_enforced(self):
        spec = m.parse_dag_spec(PAPER_GRAPH)
        with pytest.raises(ValueError, match="state budget"):
            m.build_scg(spec, gamma=0.99, state_budget=100)

    @pytest.mark.parametrize("reachable_only, goal, n_states",
                             [(True, "absorb", 11), (True, "return", 10),
                              (False, "absorb", 37), (False, "return", 36)])
    def test_state_budget_boundaries(self, reachable_only, goal, n_states):
        # both numberings count the states the MDP will have: the
        # configurations, and the terminal only with goal="absorb"
        spec = m.layered_dag([2, 2])
        kwargs = dict(n_agents=2, reachable_only=reachable_only, goal=goal)
        env = m.build_scg(spec, state_budget=n_states, **kwargs)
        assert env.mdp.n_states == n_states
        with pytest.raises(ValueError, match="state budget"):
            m.build_scg(spec, state_budget=n_states - 1, **kwargs)

    def test_state_budget_checked_before_any_table(self):
        # 22^12 (about 1.3e16) configurations and 2^12 joint actions: the
        # budget refuses the full product before a table of that size is
        # allocated
        spec = m.layered_dag([2] * 10)
        assert len(spec.vertices) == 22
        with pytest.raises(ValueError, match="state budget"):
            m.build_scg(spec, n_agents=12, gamma=0.5)

    def test_deviation_identity_at_gamma_zero_exhaustive(self):
        # 2 agents, 2 parallel edges: all four pure profiles enumerated
        env = m.build_scg(m.parallel_dag([1.0, 0.6]), n_agents=2, gamma=0.0)
        mdp = env.mdp
        start = mdp.state_labels.index(("s", "s"))

        def pure(agent_actions):
            tables = []
            for a in agent_actions:
                t = np.zeros((mdp.n_states, 2))
                t[:, a] = 1.0
                tables.append(t)
            return m.JointPolicy(tables)

        for a0 in range(2):
            for a1 in range(2):
                for b0 in range(2):
                    base = pure((a0, a1))
                    dev = pure((b0, a1))
                    ra = m.evaluate(env, base, agents=[0])
                    rb = m.evaluate(env, dev, agents=[0])
                    dphi = rb.potential[start] - ra.potential[start]
                    dv = rb.v[0][start] - ra.v[0][start]
                    assert abs(dphi - dv) < 1e-12

    def test_agent_symmetry_under_relabeling(self):
        spec = m.layered_dag([2, 2], costs=STEEP_COSTS)
        env = m.build_scg(spec, n_agents=2, gamma=0.9)
        mdp = env.mdp
        # swapping the two agents permutes states (x, y) -> (y, x) and the
        # joint action digits likewise
        label_to_idx = {lab: k for k, lab in enumerate(mdp.state_labels)}
        for s, lab in enumerate(mdp.state_labels):
            if lab == "terminal":
                continue
            s_swapped = label_to_idx[(lab[1], lab[0])]
            for a0 in range(2):
                for a1 in range(2):
                    j = np.ravel_multi_index((a0, a1), mdp.n_actions)
                    j_swapped = np.ravel_multi_index((a1, a0), mdp.n_actions)
                    assert mdp.rewards[0, s, j] == pytest.approx(
                        mdp.rewards[1, s_swapped, j_swapped], abs=1e-15)

    def test_rewards_within_unit_interval(self, scg3, distancing3):
        for env in (scg3, distancing3):
            assert env.mdp.rewards.min() >= 0.0
            assert env.mdp.rewards.max() <= 1.0

    def test_benchmark_routing_game_is_upper_triangular(self):
        # the reachable-state numbering of the 8-agent routing game sends
        # every transition forward, so exact evaluation solves its chains
        # without factoring them; a change to the numbering that breaks
        # this silently brings back one dense LU per evaluation
        path = (Path(__file__).resolve().parent.parent / "configs" / "dags"
                / "routing6_steep.dag")
        spec = m.parse_dag_spec(path.read_text(), name=str(path))
        env = m.build_scg(spec, n_agents=8, gamma=0.9975, reachable_only=True)
        assert env.mdp.n_states == 515
        assert env.mdp.upper_triangular

    def test_shipped_routing_game_keeps_its_bytes(self, tmp_path):
        # the state numbering, the index map and every table of the shipped
        # 4-agent routing game, as write_mdp serializes them, stay byte for
        # byte
        from mpglearn import cli
        root = Path(__file__).resolve().parent.parent / "configs"
        env = cli.build_environment(
            cli.load_config(root / "scg4.ini").environment)
        text = m.write_mdp(env.mdp, tmp_path / "scg4.mdp")
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "a5a5bd5a9f0779058dc324192e1f7bda6f93af300dcd3fef6b5dd4034ce1c7b0")

    def test_return_edge_variant_loops_forever(self):
        env = m.build_scg(m.parallel_dag([1.0, 0.5]), n_agents=1, gamma=0.9,
                          goal="return", return_reward=0.25)
        mdp = env.mdp
        assert "terminal" not in mdp.state_labels
        # from the sink configuration the agent returns to the source
        sink_state = mdp.state_labels.index(("t",))
        start = mdp.state_labels.index(("s",))
        row = transition_matrix(mdp)[sink_state * mdp.n_joint]
        assert row.indices.tolist() == [start]
        assert mdp.rewards[0, sink_state, 0] == 0.25


class TestBuildDistancing:
    def test_single_agent_cannot_trigger_spread(self):
        params = m.DistancingParams(n_agents=1, n_facilities=2,
                                    weights=(0.2, 0.4), penalty=0.3,
                                    spread_trigger=4, return_trigger=2,
                                    gamma=0.9)
        env = m.build_distancing(params)
        mdp = env.mdp
        safe_rows = transition_matrix(mdp)[:mdp.n_joint]
        assert set(safe_rows.indices.tolist()) == {0}

    def test_paper_shape_eight_agents_four_facilities(self):
        env = m.build_distancing(m.DistancingParams())
        assert env.mdp.n_states == 2
        assert env.mdp.n_actions == (4,) * 8
        assert env.mdp.state_labels == ("safe", "spread")

    def test_trigger_dynamics(self):
        params = m.DistancingParams(n_agents=3, n_facilities=2,
                                    weights=(0.1, 0.25), penalty=0.4,
                                    spread_trigger=2, return_trigger=1,
                                    gamma=0.9)
        env = m.build_distancing(params)
        mdp = env.mdp
        # counts 3 > 2: spread; counts (2, 1): no return
        crowd = np.ravel_multi_index((0, 0, 0), mdp.n_actions)
        spread_out = np.ravel_multi_index((0, 1, 0), mdp.n_actions)
        P = transition_matrix(mdp)
        assert P[0 * mdp.n_joint + crowd].indices[0] == 1
        assert P[1 * mdp.n_joint + crowd].indices[0] == 1
        assert P[1 * mdp.n_joint + spread_out].indices[0] == 1

    def test_deviation_identity_exhaustive_small_instance(self):
        # 3 agents, 2 facilities at gamma=0: stage rewards only
        params = m.DistancingParams(n_agents=3, n_facilities=2,
                                    weights=(0.1, 0.25), penalty=0.4,
                                    spread_trigger=2, return_trigger=1,
                                    gamma=0.0)
        env = m.build_distancing(params, mu="uniform")
        mdp = env.mdp

        def pure(actions):
            tables = []
            for a in actions:
                t = np.zeros((2, 2))
                t[:, a] = 1.0
                tables.append(t)
            return m.JointPolicy(tables)

        from itertools import product
        for profile in product(range(2), repeat=3):
            for i in range(3):
                for b in range(2):
                    dev = list(profile)
                    dev[i] = b
                    ra = m.evaluate(env, pure(profile), agents=[i])
                    rb = m.evaluate(env, pure(tuple(dev)), agents=[i])
                    gap = np.abs((rb.potential - ra.potential)
                                 - (rb.v[i] - ra.v[i])).max()
                    assert gap < 1e-12

    def test_weights_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            m.DistancingParams(weights=(0.4, 0.3, 0.2, 0.1)).check()


@st.composite
def cost_descriptors(draw):
    """A cost in [0, 1] at every load up to 3."""
    kind = draw(st.sampled_from(["table", "linear", "inverse_load"]))
    if kind == "table":
        params = tuple(draw(st.lists(st.floats(0.0, 1.0), min_size=3,
                                     max_size=3)))
    elif kind == "linear":
        params = (draw(st.floats(0.5, 1.0)), draw(st.floats(0.0, 0.15)))
    else:
        params = (draw(st.floats(0.01, 1.0)),)
    return CostDescriptor(kind, params)


@st.composite
def routing_dags(draw):
    """A layered DAG of up to two hidden layers of 1-3 vertices, or 1-3
    parallel edges, each edge with its own cost."""
    if draw(st.booleans()):
        shape = m.layered_dag(draw(st.lists(st.integers(1, 3), max_size=2)))
    else:
        shape = m.parallel_dag([1.0] * draw(st.integers(1, 3)))
    edges = tuple(DagEdge(e.frm, e.to, draw(cost_descriptors()))
                  for e in shape.edges)
    return DagSpec(shape.vertices, shape.source, shape.sink, edges)


class TestBuildersMatchReference:
    """Today's builders against the reference builders in conftest:
    byte-equal tables and labels, and equal base profiles from equal
    rngs."""

    @settings(max_examples=60, deadline=None)
    @given(spec=routing_dags(), n=st.integers(1, 3),
           reachable_only=st.booleans(),
           goal=st.sampled_from(["absorb", "return"]),
           mu=st.sampled_from(["start", "uniform"]),
           return_reward=st.floats(0.0, 1.0), seed=st.integers(0, 2 ** 32))
    def test_scg(self, spec, n, reachable_only, goal, mu, return_reward,
                 seed):
        kwargs = dict(n_agents=n, gamma=0.9, reachable_only=reachable_only,
                      mu=mu, goal=goal, return_reward=return_reward)
        env = m.build_scg(spec, **kwargs)
        ref = reference_build_scg(spec, **kwargs)
        assert_same_environment(env, ref)
        assert env.label == ref.label
        got = env.sample_base_profile(np.random.default_rng(seed)).probs
        want = ref.sample_base_profile(np.random.default_rng(seed)).probs
        for i, (p, q) in enumerate(zip(got, want, strict=True)):
            assert_same_bytes(p, q, f"agent {i}'s base profile")

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 6), F=st.integers(2, 4),
           spread=st.integers(1, 7), back=st.integers(1, 7),
           penalty=st.floats(0.01, 2.0), mu=st.sampled_from(["safe",
                                                             "uniform"]))
    def test_distancing(self, n, F, spread, back, penalty, mu):
        params = m.DistancingParams(n_agents=n, n_facilities=F,
                                    penalty=penalty, spread_trigger=spread,
                                    return_trigger=back)
        assert_same_environment(m.build_distancing(params, mu=mu),
                                reference_build_distancing(params, mu=mu))


class TestShippedEnvironmentBytes:
    @pytest.mark.parametrize("name", sorted(SHIPPED_DIGESTS))
    def test_tables_keep_their_digests(self, name):
        env = cli.build_environment(
            cli.load_config(CONFIGS / name).environment)
        got = {k: digest(a) for k, a in environment_arrays(env).items()}
        assert got == SHIPPED_DIGESTS[name]


def traced_peak(make):
    """(result, bytes kept, peak bytes) of one call under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = make()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, kept - base, peak - base


class TestBuildMemory:
    """The distancing and routing builders write their final tables once
    and hand them over without a copy, so a build peaks close to what it
    keeps."""

    def test_distancing_build_peaks_near_what_it_keeps(self):
        cfg = cli.load_config(CONFIGS / "distancing.ini").environment
        env, kept, peak = traced_peak(lambda: cli.build_environment(cfg))
        assert kept >= env.mdp.rewards.nbytes
        assert peak <= 1.5 * kept, (kept, peak)

    def test_scg8_exact_build_peaks_near_what_it_keeps(self):
        # about 11.7 MB kept, 8.4 MB of it rewards; copying the rewards,
        # the potential and the indices peaked at 2.36 times that
        cfg = cli.load_config(CONFIGS.parent / "bench" / "configs"
                              / "scg8-exact.ini").environment
        env, kept, peak = traced_peak(lambda: cli.build_environment(cfg))
        assert kept >= env.mdp.rewards.nbytes
        assert peak <= 1.5 * kept, (kept, peak)

    def test_scg_tables_handed_over(self, monkeypatch):
        # the MDP and the Environment keep the very arrays build_scg wrote
        passed = []

        class Spy(m.MultiAgentMDP):
            def __init__(self, n_actions, rewards, transitions, *args,
                         **kwargs):
                passed.append((rewards, transitions))
                super().__init__(n_actions, rewards, transitions, *args,
                                 **kwargs)

        monkeypatch.setattr(environments, "MultiAgentMDP", Spy)
        env = m.build_scg(m.layered_dag([2, 2]), n_agents=3, gamma=0.9)
        (rewards, transitions), = passed
        assert env.mdp.rewards is rewards
        assert all(kept is given for kept, given in zip(env.mdp.csr,
                                                        transitions))
        assert env.mdp.csr[1].dtype == np.int32
        assert not env.stage_potential.flags.writeable
        assert env.stage_potential.flags.owndata

    def test_first_digits_read_peaks_near_the_table(self):
        mdp = m.build_distancing(m.DistancingParams()).mdp
        digits, kept, peak = traced_peak(lambda: mdp.digits)
        assert digits.nbytes == 2 ** 19     # one byte per action
        assert peak <= 1.25 * digits.nbytes, (digits.nbytes, peak)


class TestPotentialInvariant:
    def test_scg_200_random_deviations(self, scg3):
        assert m.check_potential(scg3, trials=200, seed=7) <= 1e-9

    @pytest.mark.parametrize("game", ["distancing3", "distancing_return"])
    def test_distancing_200_random_deviations(self, request, game):
        env = request.getfixturevalue(game)
        assert m.check_potential(env, trials=200, seed=8) <= 1e-9

    def test_cooperative_unrestricted_deviations(self, coop):
        assert m.check_potential(coop, trials=200, seed=9) <= 1e-9

    def test_reactive_profiles_break_the_identity(self, scg3):
        # negative control for the certified-class restriction: when other
        # agents condition on the deviator's position, the stage-sum
        # potential stops tracking value differences
        rng = np.random.Generator(np.random.Philox(key=np.uint64(10)))
        worst = 0.0
        for _ in range(20):
            base = m.random_product_policy(scg3.mdp, rng)
            i = int(rng.integers(scg3.mdp.n_agents))
            dev = rng.dirichlet(np.ones(scg3.mdp.n_actions[i]),
                                size=scg3.mdp.n_states)
            changed = base.replace_agent(i, dev)
            ra = m.evaluate(scg3, base, agents=[i])
            rb = m.evaluate(scg3, changed, agents=[i])
            worst = max(worst, float(np.abs(
                (rb.potential - ra.potential) - (rb.v[i] - ra.v[i])).max()))
        assert worst > 1e-3
