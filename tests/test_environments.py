"""Environment builders: DAG parsing, the routing game, the distancing game,
and the potential-identity guarantees of each."""

import hashlib
from pathlib import Path

import numpy as np
import pytest

import mpglearn as m
from mpglearn.environments import CostDescriptor, DagSpecError

from conftest import STEEP_COSTS


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
        row = mdp.transitions[sink_state * mdp.n_joint]
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
        safe_rows = mdp.transitions[:mdp.n_joint]
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
        assert mdp.transitions[0 * mdp.n_joint + crowd].indices[0] == 1
        assert mdp.transitions[1 * mdp.n_joint + crowd].indices[0] == 1
        assert mdp.transitions[1 * mdp.n_joint + spread_out].indices[0] == 1

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
