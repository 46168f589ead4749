"""Core data model: validation, softmax, the policy-space L1 metric,
joint-action encoding, and text serialization."""

import copy
import math
import pickle
import re
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mpglearn as m
from mpglearn import core
from mpglearn.cli import build_environment, load_config
from mpglearn.core import (MDPFormatError, _row_cumsum, _row_max, _row_sum,
                           joint_digits)

from conftest import (assert_same_bytes, random_mdp, random_policy,
                      reference_reachable, reference_settle_step,
                      settling_mdp, sparse_mdp, transition_matrix)


def tiny_mdp(**kw):
    """1 state, 1 agent, 1 action, reward 1."""
    return m.MultiAgentMDP((1,), np.ones((1, 1, 1)), np.ones((1, 1, 1)),
                           0.99, np.ones(1), **kw)


class TestValidateMdp:
    def test_well_formed_identity_case(self):
        assert m.validate_mdp(tiny_mdp()) == []

    def test_transition_row_sum_violation(self):
        bad = m.MultiAgentMDP((1,), np.ones((1, 1, 1)),
                              np.full((1, 1, 1), 0.9), 0.99, np.ones(1),
                              validate=False)
        problems = m.validate_mdp(bad)
        assert len(problems) == 1
        assert "state 0" in problems[0] and "0.9" in problems[0]

    def test_reward_out_of_range(self):
        bad = m.MultiAgentMDP((1,), np.full((1, 1, 1), 1.5),
                              np.ones((1, 1, 1)), 0.99, np.ones(1),
                              validate=False)
        problems = m.validate_mdp(bad)
        assert len(problems) == 1
        assert "1.5" in problems[0] and "agent 0" in problems[0]

    def test_constructor_rejects_bad_mdp(self):
        with pytest.raises(ValueError, match="reward"):
            m.MultiAgentMDP((1,), np.full((1, 1, 1), 1.5),
                            np.ones((1, 1, 1)), 0.99, np.ones(1))

    def test_bad_mu_and_gamma(self):
        bad = m.MultiAgentMDP((1,), np.ones((1, 1, 1)), np.ones((1, 1, 1)),
                              1.0, np.full(1, 0.7), validate=False)
        problems = m.validate_mdp(bad)
        assert any("gamma" in p for p in problems)
        assert any("mu" in p for p in problems)

    def test_messages_print_plain_floats(self):
        # 2 states, 1 agent, 2 actions; row (state 1, action 1) is empty
        P = np.zeros((2, 2, 2))
        P[0, :, 1] = P[1, 0, 0] = 1.0
        bad = m.MultiAgentMDP((2,), np.zeros((1, 2, 2)), P, 0.9,
                              [0.5, 0.25], validate=False)
        problems = m.validate_mdp(bad)
        assert ("transition row (state 1, joint action 1) sums to 0.0"
                in problems)
        assert "mu sums to 0.75" in problems
        with pytest.raises(ValueError, match=r"state 0 sums to 0\.5$"):
            m.JointPolicy([np.array([[0.25, 0.25]])])
        with pytest.raises(ValueError, match=r"probability -0\.5 at"):
            m.JointPolicy([np.array([[1.5, -0.5]])])

    def test_empty_transition_row_cannot_be_sampled(self):
        P = np.zeros((2, 2, 2))
        P[0, :, 1] = P[1, 0, 0] = 1.0
        mdp = m.MultiAgentMDP((2,), np.zeros((1, 2, 2)), P, 0.9, [1.0, 0.0],
                              validate=False)
        with pytest.raises(ValueError, match=r"transition row \(state 1, "
                           r"joint action 1\) has no entries"):
            mdp.successors
        pol = m.JointPolicy([np.full((2, 2), 0.5)])
        with pytest.raises(ValueError, match="no entries"):
            m.sample_episode(mdp, pol, 4, seed=0)


class TestTransitionForms:
    """A dense tensor and a CSR triple of the same table give the same MDP,
    array for array; no other form is taken."""

    @staticmethod
    def derived(mdp):
        succ, cdf, total = mdp.successors
        return (*mdp.csr, mdp.entry_rows, mdp.chain_cells, succ, cdf, total,
                mdp.absorbing)

    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 5), width=st.integers(1, 3),
           upper=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_forms_agree(self, n_actions, n_states, width, upper, seed):
        base = sparse_mdp(n_states, tuple(n_actions), 0.9, seed,
                          max_width=min(width, n_states), upper=upper)
        S, A = base.n_states, base.n_joint
        data, indices, indptr = base.csr
        dense = np.zeros((S * A, S))
        dense[base.entry_rows, indices] = data
        # explicit zeros of either sign are not entries
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        dense[(dense == 0) & (rng.random(dense.shape) < 0.5)] = -0.0
        want = self.derived(base)
        ref = sp.csr_matrix(dense)
        for form in (dense.reshape(S, A, S), (data, indices, indptr)):
            mdp = m.MultiAgentMDP(base.n_actions, base.rewards, form,
                                  base.gamma, base.mu)
            for x, y in zip(self.derived(mdp), want):
                assert (x is None) == (y is None)
                if y is not None:
                    assert_same_bytes(x, y, "derived table")
            assert mdp.upper_triangular is base.upper_triangular
            for x, y in zip(mdp.csr, (ref.data, ref.indices, ref.indptr)):
                assert_same_bytes(x, y, "CSR array")

    def test_scipy_matrix_rejected(self):
        P = sp.csr_matrix(np.eye(2)[[0, 1, 1, 1]])
        with pytest.raises(TypeError, match=r"dense \(S, A, S\) array or a "
                           r"CSR triple, not csr_matrix"):
            m.MultiAgentMDP((2,), np.zeros((1, 2, 2)), P, 0.9, [1.0, 0.0])

    # 1 agent, 2 actions, 2 states: rows (0, 0), (0, 1), (1, 0), (1, 1)
    GOOD = ([0.5, 0.5, 1.0, 1.0, 0.25, 0.75], [0, 1, 1, 0, 0, 1],
            [0, 2, 3, 4, 6])

    @pytest.mark.parametrize("field, value, message", [
        pytest.param("indices", [0, 1, 1, 0, 1, 0], r"\(state 1, joint "
                     r"action 1\): next state index 0 not above",
                     id="unsorted"),
        pytest.param("indices", [0, 0, 1, 0, 0, 1], r"\(state 0, joint "
                     r"action 0\): next state index 0 not above",
                     id="duplicate"),
        pytest.param("indices", [0, 1, 1, 2, 0, 1], r"\(state 1, joint "
                     r"action 0\): next state index 2 outside \[0, 2\)",
                     id="too-large"),
        pytest.param("indices", [0, 1, -1, 0, 0, 1], r"\(state 0, joint "
                     r"action 1\): next state index -1 outside",
                     id="negative"),
        pytest.param("indptr", [0, 2, 3, 4], r"length 4, not .* = 5: it "
                     r"ends before row \(state 1, joint action 1\)",
                     id="short-indptr"),
        pytest.param("indptr", [0, 2, 3, 4, 6, 6], r"length 6, .* runs "
                     r"past row \(state 1, joint action 1\)",
                     id="long-indptr"),
        pytest.param("indptr", [0, 2, 1, 4, 6], r"\(state 0, joint action "
                     r"1\): indptr", id="decreasing-indptr"),
    ])
    def test_bad_triple_names_its_row(self, field, value, message):
        data, indices, indptr = self.GOOD
        triple = {"data": data, "indices": indices, "indptr": indptr}
        m.MultiAgentMDP((2,), np.zeros((1, 2, 2)), tuple(
            np.array(x) for x in triple.values()), 0.9, [0.5, 0.5])
        triple[field] = value
        with pytest.raises(ValueError, match=message):
            m.MultiAgentMDP((2,), np.zeros((1, 2, 2)), tuple(
                np.array(x) for x in triple.values()), 0.9, [0.5, 0.5])


class TestDerivedTables:
    """Tables derived from the CSR arrays are sized to what they hold."""

    def test_single_successor_table_views_the_indices(self):
        mdp = sparse_mdp(4, (2, 3), 0.9, seed=140, max_width=1)
        succ, cdf, total = mdp.successors
        assert cdf is None and total is None
        assert succ.shape == (mdp.n_states * mdp.n_joint, 1)
        assert succ.dtype == mdp.csr[1].dtype == np.int32
        assert np.shares_memory(succ, mdp.csr[1])
        assert not succ.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            succ[0, 0] = 0

    def test_wider_table_keeps_the_index_dtype(self):
        mdp = sparse_mdp(4, (2, 3), 0.9, seed=141, max_width=3)
        succ, cdf, total = mdp.successors
        assert succ.shape[1] > 1 and cdf is not None and total is not None
        assert succ.dtype == mdp.csr[1].dtype == np.int32
        assert not succ.flags.writeable

    def test_chain_cells_are_column_major(self):
        mdp = sparse_mdp(5, (2, 2), 0.9, seed=142, max_width=3)
        S, A = mdp.n_states, mdp.n_joint
        _, indices, indptr = mdp.csr
        rows, cells = mdp.entry_rows, mdp.chain_cells
        assert np.array_equal(rows, np.repeat(np.arange(S * A),
                                              np.diff(indptr)))
        assert rows.dtype == indptr.dtype == np.int32
        assert np.array_equal(cells, indices * S + rows // A)
        assert cells.dtype == np.int64
        assert not rows.flags.writeable and not cells.flags.writeable


class TestJointActionEncoding:
    def test_agent_zero_is_most_significant(self):
        mdp = random_mdp(2, (2, 3), 0.9, seed=1)
        assert tuple(mdp.digits[3]) == (1, 0)
        assert tuple(mdp.digits[2]) == (0, 2)
        assert tuple(mdp.digits[5]) == (1, 2)

    def test_digits_table_round_trip(self):
        # row j holds (a_0, a_1, a_2) with j = a_0*|A_1|*|A_2| + a_1*|A_2| + a_2
        mdp = random_mdp(2, (2, 3, 2), 0.9, seed=2)
        a0, a1, a2 = mdp.digits.T
        assert np.array_equal(a0 * 3 * 2 + a1 * 2 + a2, np.arange(12))
        assert np.array_equal(
            np.ravel_multi_index(mdp.digits.T, mdp.n_actions), np.arange(12))

    @settings(max_examples=40, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 5), min_size=1, max_size=5))
    def test_joint_digits_matches_unravel_index(self, n_actions):
        # ragged action counts: every agent's column, one read-only table
        # in the smallest dtype that holds every action
        joints = np.arange(int(np.prod(n_actions)))
        want = np.stack(np.unravel_index(joints, n_actions), axis=1)
        got = joint_digits(n_actions)
        assert got.dtype == np.uint8 and got.shape == want.shape
        assert np.array_equal(got, want)
        assert not got.flags.writeable


class TestAbsorbing:
    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 6), width=st.integers(1, 3),
           absorbing=st.integers(0, 3), upper=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_dense_per_state_check(self, n_actions, n_states, width,
                                           absorbing, upper, seed):
        absorbing = min(absorbing, n_states)
        mdp = sparse_mdp(n_states, tuple(n_actions), 0.9, seed,
                         max_width=min(width, n_states), upper=upper,
                         absorbing=absorbing)
        S, A = mdp.n_states, mdp.n_joint
        dense = transition_matrix(mdp).toarray().reshape(S, A, S)
        want = [all(dense[s, a, t] == 0.0 for a in range(A) for t in range(S)
                    if t != s) for s in range(S)]
        assert mdp.absorbing.tolist() == want
        assert mdp.absorbing[S - absorbing:].all()
        assert mdp.absorbing[-1] or not upper   # upper: S-1 leads only to S-1
        assert not mdp.absorbing.flags.writeable

    @settings(max_examples=60, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           n_states=st.integers(1, 6), seed=st.integers(0, 2 ** 32 - 1),
           empty=st.floats(0.0, 1.0), loop=st.floats(0.0, 1.0),
           upper=st.booleans())
    @example(n_actions=[2], n_states=3, seed=0, empty=1.0, loop=0.0,
             upper=False)
    @example(n_actions=[2, 1], n_states=4, seed=1, empty=0.5, loop=1.0,
             upper=True)
    def test_block_reductions_match_per_entry_definitions(
            self, n_actions, n_states, seed, empty, loop, upper):
        # unvalidated CSR triples whose rows may be empty (a state block may
        # hold no entry at all, or every block none) or lead back to their
        # own state: absorbing and upper_triangular from per-state
        # reduceat segments against their per-entry definitions
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        A = int(np.prod(n_actions))
        columns = []
        for row in range(n_states * A):
            s = row // A
            if rng.random() < empty:
                columns.append([])
            elif rng.random() < loop:
                columns.append([s])
            else:
                lo = s if upper else 0
                columns.append(sorted(rng.choice(
                    np.arange(lo, n_states), replace=False,
                    size=int(rng.integers(1, n_states - lo + 1))).tolist()))
        indptr = np.cumsum([0] + [len(c) for c in columns])
        indices = np.array(sum(columns, []), dtype=np.int64)
        mdp = m.MultiAgentMDP(
            n_actions, np.zeros((len(n_actions), n_states, A)),
            (np.ones(len(indices)), indices, indptr), 0.9,
            np.full(n_states, 1.0 / n_states), validate=False)
        source = np.repeat(np.arange(n_states * A), np.diff(indptr)) // A
        assert mdp.upper_triangular is bool(np.all(indices >= source))
        want = np.ones(n_states, dtype=bool)
        want[source[indices != source]] = False
        assert_same_bytes(mdp.absorbing, want, "absorbing")


class TestSettleStep:
    """`MultiAgentMDP.settle_step` against `reference_settle_step`, one
    Python set of reachable states per step."""

    @settings(max_examples=80, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           n_states=st.integers(1, 6), width=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1),
           game=st.sampled_from(["settling", "sparse", "upper"]),
           absorbing=st.integers(0, 2), support=st.integers(1, 6),
           paid=st.booleans())
    def test_matches_enumeration(self, n_actions, n_states, width, seed,
                                 game, absorbing, support, paid):
        # settling games (stochastic rows, mu on up to every state); random
        # and upper-triangular games, which may cycle; mu cut down to a few
        # states; and a goal that pays a reward, so that it is no goal
        if game == "settling":
            base = settling_mdp(n_states, tuple(n_actions), 0.9, seed, width)
        else:
            base = sparse_mdp(n_states, tuple(n_actions), 0.9, seed,
                              max_width=min(width, n_states),
                              upper=game == "upper",
                              absorbing=min(absorbing, n_states))
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        mu = base.mu * (rng.permutation(n_states) < support)
        rewards = np.array(base.rewards)
        if paid:
            rewards[:, -1, 0] = 0.5
        mdp = m.MultiAgentMDP(base.n_actions, rewards, base.csr, base.gamma,
                              mu / mu.sum())
        assert mdp.settle_step == reference_settle_step(mdp)

    def test_cases(self):
        # 0 -> 1 -> 2 (goal) under every action, with 0 -> 0 possible under
        # action 1 when `cycle`; state 3 loops on itself and pays nothing
        def game(cycle=False, paid=False, mu=(1.0, 0.0, 0.0, 0.0)):
            P = np.zeros((4, 2, 4))
            P[0, :, 1] = 1.0
            if cycle:
                P[0, 1] = [0.5, 0.5, 0.0, 0.0]
            P[1, :, 2] = P[2, :, 2] = P[3, :, 3] = 1.0
            rewards = np.zeros((1, 4, 2))
            rewards[0, :2] = 0.5
            if paid:
                rewards[0, 2, 1] = 0.25
            return m.MultiAgentMDP((2,), rewards, P, 0.9, mu)

        assert game().settle_step == 2
        assert game(mu=(0.0, 0.5, 0.5, 0.0)).settle_step == 1
        assert game(mu=(0.0, 0.0, 1.0, 0.0)).settle_step == 0
        assert game(cycle=True).settle_step is None
        assert game(cycle=True, mu=(0.0, 1.0, 0.0, 0.0)).settle_step == 1
        assert game(paid=True).settle_step is None
        # state 3 is a zero-reward absorbing state, so a goal
        assert game(mu=(0.5, 0.0, 0.0, 0.5)).settle_step == 2
        rewards = np.zeros((1, 4, 2))
        rewards[0, 3, 1] = 1.0
        other = m.MultiAgentMDP((2,), rewards, game().csr, 0.9,
                                [0.5, 0.0, 0.0, 0.5])
        assert other.settle_step is None    # mu on a state that never settles

    @pytest.mark.parametrize("config, settle", [
        ("scg4.ini", 4), ("scg8.ini", 4), ("distancing.ini", None)])
    def test_shipped_games(self, config, settle):
        path = Path(__file__).resolve().parent.parent / "configs" / config
        mdp = build_environment(load_config(path).environment).mdp
        assert mdp.settle_step == settle
        assert reference_settle_step(mdp) == settle


class TestReachable:
    """`MultiAgentMDP.reachable` against `reference_reachable`, a Python-set
    closure from mu's support."""

    @settings(max_examples=80, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=2),
           n_states=st.integers(1, 6), width=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1), upper=st.booleans(),
           absorbing=st.integers(0, 2), start=st.integers(0, 5))
    def test_matches_closure(self, n_actions, n_states, width, seed, upper,
                             absorbing, start):
        # mu on one state, so that most games leave some states unreached;
        # absorbing states cut the paths that lead through them
        base = sparse_mdp(n_states, tuple(n_actions), 0.9, seed,
                          max_width=min(width, n_states), upper=upper,
                          absorbing=min(absorbing, n_states))
        mdp = m.MultiAgentMDP(base.n_actions, base.rewards, base.csr,
                              base.gamma, np.eye(n_states)[start % n_states])
        assert_same_bytes(mdp.reachable, reference_reachable(mdp),
                          "reachable")
        assert not mdp.reachable.flags.writeable

    def test_routing_game_numbers_reachable_states_only(self):
        spec = m.layered_dag([2, 2])
        full = m.build_scg(spec, n_agents=2, gamma=0.9).mdp
        pruned = m.build_scg(spec, n_agents=2, gamma=0.9,
                             reachable_only=True).mdp
        assert pruned.reachable.all()
        assert full.reachable.sum() == pruned.n_states < full.n_states


class TestRowReductions:
    """The short-axis helpers against numpy's own reductions, byte for
    byte, at widths below and above the width where numpy's sum turns
    pairwise, on the column path (forced for any row count) and on
    numpy's: signed zeros, -inf padding, and values of very different
    sizes, whose sums depend on the order of their terms."""

    @settings(max_examples=200, deadline=None)
    @given(width=st.integers(1, 12), lead=st.lists(st.integers(1, 4),
                                                   max_size=3),
           seed=st.integers(0, 2 ** 32 - 1), padded=st.floats(0.0, 0.9),
           rows_per_column=st.sampled_from([0, core._ROWS_PER_COLUMN]))
    def test_match_numpy(self, width, lead, seed, padded, rows_per_column):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        shape = tuple(lead) + (width,)
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        x[rng.random(shape) < 0.1] = 0.0
        x[rng.random(shape) < 0.1] = -0.0
        x[..., 1:][rng.random(shape)[..., 1:] < padded] = -np.inf
        swapped = x.reshape(-1, 1, width).swapaxes(0, 1)    # a strided view
        with mock.patch.object(core, "_ROWS_PER_COLUMN", rows_per_column):
            for y in (x, np.exp(x - x.max(axis=-1, keepdims=True))):
                assert_same_bytes(_row_max(y), y.max(axis=-1, keepdims=True),
                                  "max")
                assert_same_bytes(_row_sum(y), y.sum(axis=-1, keepdims=True),
                                  "sum")
                assert_same_bytes(_row_cumsum(y), np.cumsum(y, axis=-1),
                                  "cumsum")
            assert_same_bytes(_row_cumsum(swapped),
                              np.cumsum(swapped, axis=-1), "cumsum")


class TestSoftmax:
    def test_all_zero_logits_uniform(self):
        pol = m.softmax_policy(m.Logits([np.zeros((1, 3))]))
        assert np.allclose(pol.probs[0], 1 / 3, atol=1e-15)

    def test_constant_shift_invariance(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        for trial in range(20):
            t = rng.normal(0, 3, size=(4, 3))
            shift = rng.normal(0, 5, size=(4, 1))
            a = m.softmax_policy(m.Logits([t]))
            b = m.softmax_policy(m.Logits([t + shift]))
            assert np.abs(a.probs[0] - b.probs[0]).max() < 1e-12

    def test_hand_value_ln2(self):
        pol = m.softmax_policy(m.Logits([np.array([[math.log(2.0), 0.0]])]))
        assert np.allclose(pol.probs[0], [2 / 3, 1 / 3], atol=1e-15)

    def test_overflow_safe(self):
        pol = m.softmax_policy(m.Logits([np.array([[1000.0, 0.0]])]))
        assert pol.probs[0][0, 0] == 1.0

    def test_rejects_non_finite_with_index(self):
        t = np.zeros((2, 2))
        t[1, 0] = np.nan
        with pytest.raises(ValueError, match=r"state 1, action 0"):
            m.softmax_policy(m.Logits([t]))

    def test_output_always_valid_policy(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(4)))
        for trial in range(30):
            t = rng.normal(0, 50, size=(3, 4))
            pol = m.softmax_policy(m.Logits([t]))
            m.JointPolicy(pol.probs)  # revalidates rows


class TestL1Accuracy:
    def test_identical_policies(self):
        mdp = random_mdp(3, (2, 2), 0.9, seed=5)
        pol = random_policy(mdp, 6)
        assert m.l1_accuracy(pol, pol) == 0.0

    def test_opposite_point_masses(self):
        a = m.JointPolicy([np.array([[1.0, 0.0]])])
        b = m.JointPolicy([np.array([[0.0, 1.0]])])
        assert m.l1_accuracy(a, b) == 2.0

    def test_hand_value_two_agents(self):
        # agent 0 off by total variation 0.1 in one state, agent 1 exact
        a = m.JointPolicy([np.array([[0.5, 0.5], [1.0, 0.0]]),
                           np.array([[0.3, 0.7], [0.2, 0.8]])])
        b = m.JointPolicy([np.array([[0.6, 0.4], [1.0, 0.0]]),
                           np.array([[0.3, 0.7], [0.2, 0.8]])])
        assert abs(m.l1_accuracy(a, b) - 0.1) < 1e-15

    def test_pseudometric_properties(self):
        mdp = random_mdp(3, (2, 3), 0.9, seed=7)
        for trial in range(25):
            x = random_policy(mdp, 100 + trial)
            y = random_policy(mdp, 200 + trial)
            z = random_policy(mdp, 300 + trial)
            dxy = m.l1_accuracy(x, y)
            assert abs(dxy - m.l1_accuracy(y, x)) < 1e-12
            assert dxy + m.l1_accuracy(y, z) >= m.l1_accuracy(x, z) - 1e-12

    def test_shape_mismatch_rejected(self):
        a = m.JointPolicy([np.array([[1.0, 0.0]])])
        b = m.JointPolicy([np.array([[0.5, 0.25, 0.25]])])
        with pytest.raises(ValueError, match="shape"):
            m.l1_accuracy(a, b)


class TestAgentTables:
    """Per-agent tables held as views of one padded (..., n, S, A_max)
    array."""

    def test_views_of_one_padded_array(self):
        pol = m.JointPolicy([np.full((2, 2), 0.5), np.full((2, 3), 1 / 3)])
        stacked = pol.probs.stacked
        assert stacked.shape == (2, 2, 3) and not stacked.flags.writeable
        assert all(np.shares_memory(p, stacked) for p in pol.probs)
        assert [p.shape for p in pol.probs] == [(2, 2), (2, 3)]
        assert np.array_equal(stacked[0, :, 2], [0.0, 0.0])
        theta = m.Logits([np.zeros((2, 1)), np.zeros((2, 3))])
        assert np.array_equal(theta.theta.stacked[0, :, 1:],
                              np.full((2, 2), -np.inf))

    def test_containers_share_what_they_are_handed(self):
        a = np.full((3, 2, 4, 2), 0.5)
        tables = m.AgentTables.of(a, [(4, 2), (4, 2)])
        pol = m.JointPolicy(tables, validate=False)
        assert pol.probs.stacked is a and not a.flags.writeable
        assert not pol.probs[1].flags.writeable
        again = m.JointPolicy(pol.probs, validate=False)
        assert again.probs is pol.probs
        copied = m.JointPolicy(list(pol.probs), validate=False)
        assert not np.shares_memory(copied.probs.stacked, a)

    def test_reports_stack_plain_tables_and_stay_writable(self):
        rep = m.EvalReport(v=np.zeros((2, 1)), visitation=np.ones(1),
                           adv_marginal=[np.ones((1, 2)), np.ones((1, 1))],
                           visited_pairs=(np.ones((1, 2), dtype=bool),
                                          np.ones((1, 1), dtype=bool)))
        assert isinstance(rep.adv_marginal, m.AgentTables)
        assert_same_bytes(rep.adv_marginal.stacked,
                          np.array([[[1.0, 1.0]], [[1.0, 0.0]]]), "padded")
        assert_same_bytes(rep.visited_pairs.stacked,
                          np.array([[[True, True]], [[True, False]]]),
                          "mask")
        rep.adv_marginal[1][0, 0] = 2.0
        assert rep.adv_marginal.stacked[1, 0, 0] == 2.0

    def test_copies_stay_views_of_their_array(self):
        theta = m.Logits([np.zeros((2, 1)), np.ones((2, 3))]).theta
        for again in (copy.deepcopy(theta),
                      pickle.loads(pickle.dumps(theta))):
            assert_same_bytes(again.stacked, theta.stacked, "stacked")
            assert all(t.base is again.stacked for t in again)
            assert [t.shape for t in again] == [(2, 1), (2, 3)]

    def test_n_states_reads_the_state_axis(self):
        # with a leading run axis of 3 runs, the state axis is the second
        assert m.JointPolicy([np.full((3, 2, 2), .5)],
                             validate=False).n_states == 2
        assert m.Logits([np.zeros((3, 2, 2))], validate=False).n_states == 2

    def test_interior_ignores_padding(self):
        pol = m.JointPolicy([np.ones((2, 1)), np.full((2, 3), 1 / 3)])
        assert pol.is_interior()
        assert not pol.is_interior(eps=0.5)

    def test_tables_must_share_leading_axes(self):
        with pytest.raises(ValueError, match="agent 1: table of shape"):
            m.JointPolicy([np.full((3, 2, 2), .5), np.full((2, 2), .5)],
                          validate=False)


def per_agent_softmax(t):
    z = t - t.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


class TestStackedLayout:
    """Every operation on the stacked tables equals a numpy reference run
    on each agent's own contiguous table, byte for byte: softmax, the
    three update rules and the sampler's cdf rows at any widths, and the
    L1 distance when every agent has the same width (padding inside an
    (S, A_max) block changes numpy's pairwise grouping of the sum)."""

    @settings(max_examples=80, deadline=None)
    @given(widths=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           equal=st.booleans(), n_states=st.integers(1, 6),
           runs=st.sampled_from([None, 1, 3]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(widths=[2, 3, 1, 5], equal=False, n_states=6, runs=3,
             seed=1)
    def test_equals_per_agent_reference(self, widths, equal, n_states, runs,
                                        seed):
        from mpglearn.sampling import _cdf_table
        if equal:
            widths = [widths[0]] * len(widths)
        n, S = len(widths), n_states
        lead = () if runs is None else (runs,)
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        theta = [rng.normal(0, 3, lead + (S, a)) for a in widths]
        other = [rng.normal(0, 3, lead + (S, a)) for a in widths]
        adv = [rng.normal(0, 2, lead + (S, a)) for a in widths]
        visitation = rng.dirichlet(np.ones(S), size=lead or None)
        report = m.EvalReport(v=np.zeros(lead + (n, S)), adv_marginal=adv,
                              visitation=visitation)
        eta, gamma = 0.3, 0.9
        scale = eta / (1.0 - gamma)
        logits = m.Logits(theta, validate=False)
        probs = [per_agent_softmax(t) for t in theta]

        def check(got, wants, what):
            assert len(got) == n
            for i, (x, want) in enumerate(zip(got, wants)):
                assert_same_bytes(x, want, f"{what}, agent {i}")

        policy = m.softmax_policy(logits)
        check(policy.probs, probs, "softmax")
        check(m.inpg_step(logits, report, eta, gamma).theta,
              [t + scale * a for t, a in zip(theta, adv)], "inpg")
        check(m.ipg_step(logits, report, eta, gamma).theta,
              [t + scale * visitation[..., None] * p * a
               for t, p, a in zip(theta, probs, adv)], "ipg")
        check(m.mwu_step(policy, report, eta, gamma).probs,
              [per_agent_softmax(np.log(p) + scale * a)
               for p, a in zip(probs, adv)], "mwu")
        assert policy.is_interior()

        cdf = _cdf_table(policy)                    # (rows, n, A_max)
        for i, p in enumerate(probs):
            want = np.cumsum(p.reshape(-1, widths[i]), axis=1)
            assert_same_bytes(cdf[:, i, :widths[i]], want, f"cdf {i}")
            assert_same_bytes(cdf[:, i, widths[i]:],
                              np.repeat(want[:, -1:],
                                        max(widths) - widths[i], axis=1),
                              f"cdf padding {i}")

        if equal:
            q = m.softmax_policy(m.Logits(other, validate=False))
            l1 = policy.per_agent_l1(q)
            assert l1.shape == lead + (n,)
            check(np.moveaxis(l1, -1, 0),
                  [np.abs(p - per_agent_softmax(o)).sum(axis=(-2, -1))
                   for p, o in zip(probs, other)], "L1")


class TestImmutability:
    def test_arrays_frozen_and_copied(self):
        src = np.ones((1, 1, 1))
        mdp = m.MultiAgentMDP((1,), src, np.ones((1, 1, 1)), 0.9, np.ones(1))
        src[0, 0, 0] = 0.5  # caller's array stays independent
        assert mdp.rewards[0, 0, 0] == 1.0
        with pytest.raises(ValueError):
            mdp.rewards[0, 0, 0] = 0.0

    @staticmethod
    def _sealed(a):
        a.flags.writeable = False
        return a

    def test_read_only_owning_arrays_are_shared(self):
        rewards = self._sealed(np.full((1, 2, 2), 0.5))
        csr = (self._sealed(np.ones(4)),
               self._sealed(np.array([0, 1, 1, 1], dtype=np.int32)),
               self._sealed(np.arange(5, dtype=np.int32)))
        mu = self._sealed(np.array([1.0, 0.0]))
        mdp = m.MultiAgentMDP((2,), rewards, csr, 0.9, mu)
        assert mdp.rewards is rewards
        assert mdp.mu is mu
        assert all(kept is given for kept, given in zip(mdp.csr, csr))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda: np.full((1, 2, 2), 0.5), id="writable"),
        pytest.param(lambda: TestImmutability._sealed(
            np.full((2, 2, 2), 0.5)[:1]), id="read-only-view"),
        pytest.param(lambda: TestImmutability._sealed(
            np.full((1, 2, 2), 0.5, dtype=np.float32)), id="wrong-dtype"),
    ])
    def test_other_arrays_are_copied(self, make):
        rewards = make()
        mdp = m.MultiAgentMDP((2,), rewards, np.full((2, 2, 2), 0.5), 0.9,
                              [0.5, 0.5])
        assert not np.shares_memory(mdp.rewards, rewards)
        assert mdp.rewards.dtype == float and not mdp.rewards.flags.writeable
        if rewards.base is not None:
            rewards.base[...] = 1.0     # the view's owner may still write
            assert mdp.rewards.max() == 0.5

    def test_wrong_index_dtype_is_copied(self):
        indices = self._sealed(np.array([0, 1, 1, 1], dtype=np.int64))
        mdp = m.MultiAgentMDP((2,), np.zeros((1, 2, 2)), (
            np.ones(4), indices, np.arange(5)), 0.9, [1.0, 0.0])
        assert mdp.csr[1].dtype == np.int32
        assert np.array_equal(mdp.csr[1], indices)


class TestSerialization:
    @settings(max_examples=30, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 3), min_size=1, max_size=3),
           n_states=st.integers(1, 4), width=st.integers(1, 4),
           gamma=st.floats(0.0, 0.999), seed=st.integers(0, 2 ** 32 - 1),
           labelled=st.booleans())
    @example(n_actions=[2, 2], n_states=3, width=3, gamma=0.97, seed=8,
             labelled=False)
    def test_round_trip_bit_exact(self, tmp_path_factory, n_actions, n_states,
                                  width, gamma, seed, labelled):
        mdp = sparse_mdp(n_states, tuple(n_actions), gamma, seed,
                         max_width=min(width, n_states))
        if labelled:
            mdp = m.MultiAgentMDP(mdp.n_actions, mdp.rewards, mdp.csr,
                                  gamma, mdp.mu, state_labels=[
                                      f"s{k}" for k in range(n_states)])
        tmp = tmp_path_factory.mktemp("mdp")
        p1 = tmp / "a.mdp"
        p2 = tmp / "b.mdp"
        m.write_mdp(mdp, p1)
        again = m.read_mdp(p1)
        m.write_mdp(again, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert again.gamma == mdp.gamma
        assert again.state_labels == mdp.state_labels
        assert np.array_equal(again.rewards, mdp.rewards)
        assert np.array_equal(again.mu, mdp.mu)
        assert (transition_matrix(again) != transition_matrix(mdp)).nnz == 0

    def test_labels_survive(self, tmp_path):
        env = m.build_scg(m.parallel_dag([1.0, 0.5]), n_agents=1, gamma=0.5)
        path = tmp_path / "scg.mdp"
        m.write_mdp(env.mdp, path)
        again = m.read_mdp(path)
        assert again.state_labels is not None
        assert len(again.state_labels) == env.mdp.n_states

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "bad.mdp"
        path.write_text("[states]\ncount = 1\n[agents]\ncount = 1\n"
                        "actions = 1\n[rewards]\nnot a row\n")
        with pytest.raises(MDPFormatError, match="line 7"):
            m.read_mdp(path)

    @settings(max_examples=30, deadline=None)
    @given(n_actions=st.lists(st.integers(1, 4), min_size=1, max_size=3),
           n_states=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1))
    @example(n_actions=[2, 3], n_states=3, seed=9)
    def test_policy_round_trip(self, tmp_path_factory, n_actions, n_states,
                               seed):
        mdp = random_mdp(n_states, tuple(n_actions), 0.9, seed=seed)
        pol = random_policy(mdp, seed + 1)
        tmp = tmp_path_factory.mktemp("policy")
        m.write_policy(pol, tmp / "a.txt")
        again = m.read_policy(tmp / "a.txt")
        m.write_policy(again, tmp / "b.txt")
        assert (tmp / "a.txt").read_bytes() == (tmp / "b.txt").read_bytes()
        for p, q in zip(pol.probs, again.probs):
            assert np.array_equal(p, q)

    def test_policy_rows_are_float_reprs(self, tmp_path):
        # each entry is repr() of the Python float: signed zeros,
        # subnormals and the float just below 1 keep every bit
        table = np.array([[-0.0, 5e-324, 1.0 - 2.0 ** -53],
                          [2.2250738585072014e-308 / 3, 0.1, 1.0 / 3.0]])
        m.write_policy(m.JointPolicy([table, table[::-1]], validate=False),
                       tmp_path / "pol.txt")
        want = ["agents = 2"]
        for i, p in enumerate((table, table[::-1])):
            want += [f"[agent {i}]", "shape = 2 3"]
            want += [" ".join(repr(float(x)) for x in p[s])
                     for s in range(2)]
        assert (tmp_path / "pol.txt").read_text() == "\n".join(want) + "\n"
        assert want[3].split() == ["-0.0", "5e-324", "0.9999999999999999"]

    @pytest.mark.parametrize("section, line, message", [
        ("label", "label -1 = x", "state index -1 outside [0, 2)"),
        ("label", "label 2 = x", "state index 2 outside [0, 2)"),
        ("rewards", "-1 0 0 0.5", "agent index -1 outside [0, 2)"),
        ("rewards", "0 2 0 0.5", "state index 2 outside [0, 2)"),
        ("rewards", "0 0 4 0.5", "joint action index 4 outside [0, 4)"),
        ("transitions", "0 -1 0 0.5", "joint action index -1 outside [0, 4)"),
        ("transitions", "0 4 0 0.5", "joint action index 4 outside [0, 4)"),
        ("transitions", "2 0 0 0.5", "state index 2 outside [0, 2)"),
        ("transitions", "0 0 -1 0.5", "next state index -1 outside [0, 2)"),
        ("mu", "-1 1.0", "state index -1 outside [0, 2)"),
        ("mu", "2 1.0", "state index 2 outside [0, 2)"),
    ])
    def test_out_of_range_index_names_line(self, tmp_path, section, line,
                                           message):
        mdp = random_mdp(2, (2, 2), 0.9, seed=11)
        path = tmp_path / "bad.mdp"
        lines = m.write_mdp(mdp, path).splitlines()
        header = "[states]" if section == "label" else f"[{section}]"
        at = lines.index(header) + 1
        if section == "label":
            at += 1                         # after the count line
        lines.insert(at, line)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MDPFormatError,
                           match=rf"line {at + 1}: {re.escape(message)}"):
            m.read_mdp(path, validate=False)

    @pytest.mark.parametrize("section, entry, index", [
        ("label", 1, "(1)"),
        ("rewards", 4, "(0, 1, 0)"),
        ("transitions", 3, "(0, 1, 1)"),
        ("mu", 1, "(1)"),
    ])
    def test_repeated_index_names_both_lines(self, tmp_path, section, entry,
                                             index):
        # a repeat is neither summed nor overwritten: the file is refused
        mdp = random_mdp(2, (2, 2), 0.9, seed=11)
        mdp = m.MultiAgentMDP(mdp.n_actions, mdp.rewards, mdp.csr, mdp.gamma,
                              mdp.mu, state_labels=["a", "b"])
        path = tmp_path / "bad.mdp"
        lines = m.write_mdp(mdp, path).splitlines()
        header = "[states]" if section == "label" else f"[{section}]"
        at = lines.index(header) + 1 + entry + (section == "label")
        lines.insert(at + 1, lines[at])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MDPFormatError, match=re.escape(
                f"line {at + 2}: {section} index {index} repeats line "
                f"{at + 1}")):
            m.read_mdp(path, validate=False)

    @settings(max_examples=40, deadline=None)
    @given(n_states=st.integers(1, 40), n_joint=st.integers(1, 3),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(n_states=40, n_joint=2, seed=3)
    def test_read_build_equals_scipy(self, tmp_path_factory, n_states,
                                     n_joint, seed):
        # duplicate-free entries in random order, explicit zeros of either
        # sign among them, rows of up to 40 entries: the CSR arrays read_mdp
        # builds are scipy's COO to CSR conversion, byte for byte
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        cells = [(r, int(c)) for r in range(n_states * n_joint) for c in
                 rng.choice(n_states, rng.integers(0, n_states + 1),
                            replace=False)]
        rows, cols = np.array(cells, dtype=np.int64).reshape(-1, 2).T
        vals = rng.random(len(cells))
        zero = rng.random(len(cells)) < 0.2
        vals[zero] = np.copysign(0.0, rng.random(zero.sum()) - 0.5)
        order = rng.permutation(len(cells))
        lines = ["[states]", f"count = {n_states}", "[agents]", "count = 1",
                 f"actions = {n_joint}", "[transitions]"]
        lines += [f"{rows[k] // n_joint} {rows[k] % n_joint} {cols[k]} "
                  f"{float(vals[k])!r}" for k in order]
        lines += ["[gamma]", "0.5", "[mu]", "0 1.0"]
        path = tmp_path_factory.mktemp("mdp") / "entries.mdp"
        path.write_text("\n".join(lines) + "\n")
        got = m.read_mdp(path, validate=False).csr
        want = sp.csr_matrix((vals[order], (rows[order], cols[order])),
                             shape=(n_states * n_joint, n_states))
        for x, y, what in zip(got, (want.data, want.indices, want.indptr),
                              ("data", "indices", "indptr")):
            assert_same_bytes(x, y, what)

    def test_truncated_policy_file_rejected(self, tmp_path):
        mdp = random_mdp(3, (2, 3), 0.9, seed=9)
        path = tmp_path / "pol.txt"
        m.write_policy(random_policy(mdp, 10), path)
        lines = path.read_text().splitlines()
        # cut inside agent 1's table: its last row loses an entry ...
        cut = tmp_path / "cut_row.txt"
        cut.write_text("\n".join(lines[:-1] + [lines[-1].rsplit(" ", 1)[0]]))
        with pytest.raises(MDPFormatError, match="agent 1, row 2: 2 entries"):
            m.read_policy(cut)
        # ... or the file ends before its last row
        cut.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(MDPFormatError, match="agent 1: 2 rows, shape "
                                                 "declares 3"):
            m.read_policy(cut)
        # ... or before agent 1's block
        cut.write_text("\n".join(lines[:6]) + "\n")
        with pytest.raises(MDPFormatError, match="declares 2 agents but "
                                                 "holds 1"):
            m.read_policy(cut)

    def test_policy_shape_mismatch_rejected(self, tmp_path):
        path = tmp_path / "pol.txt"
        path.write_text("agents = 1\n[agent 0]\nshape = 2 3\n"
                        "0.5 0.5\n0.5 0.5\n")
        with pytest.raises(MDPFormatError, match="agent 0, row 0: 2 entries, "
                                                 "shape declares 3"):
            m.read_policy(path)
        path.write_text("agents = 1\n[agent 0]\n0.5 0.5\n")
        with pytest.raises(MDPFormatError, match="agent 0: expected 'shape"):
            m.read_policy(path)
