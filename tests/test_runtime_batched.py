"""Unit tests for the batched controller groups (repro.runtime.batched)."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.runtime.batched import (
    FixedBatch,
    GreedyBatch,
    LearnedRuleBatch,
    LUTBatch,
    QLearningBatch,
    ThresholdRuleBatch,
    batch_continue_rules,
    batch_controllers,
    discretize_batch,
)
from repro.runtime.controller import StaticController, make_controller
from repro.runtime.incremental import (
    CONTINUE,
    IncrementalDecider,
    ThresholdContinue,
)
from repro.runtime.policies import FixedExitPolicy, OraclePolicy
from repro.runtime.qlearning import discretize
from repro.runtime.state import RuntimeState, RuntimeStateBatch


COSTS = [0.1, 0.3, 0.6, 1.0]


def _state_batch(energy, charge, capacity=2.0, peak=1.0):
    energy = np.asarray(energy, dtype=np.float64)
    n = energy.size
    return RuntimeStateBatch(
        time=np.zeros(n),
        energy_mj=energy,
        capacity_mj=np.full(n, capacity),
        charge_power_mw=np.asarray(charge, dtype=np.float64),
        peak_power_mw=np.full(n, peak),
    )


class TestDiscretizeBatch:
    def test_matches_scalar_discretize(self):
        values = np.array([0.0, 0.09, 0.5, 0.999, 1.0])
        got = discretize_batch(values, 10)
        want = [discretize(float(v), 10) for v in values]
        assert got.tolist() == want

    def test_clamps_edges(self):
        assert discretize_batch(np.array([1.5, -0.2]), 5).tolist() == [4, 0]


class TestStateBatchGuards:
    def test_zero_peak_charge_fraction_is_zero(self):
        state = _state_batch([1.0], [0.5], peak=0.0)
        idx = np.arange(1)
        assert state.charge_fraction(idx).tolist() == [0.0]
        assert state.charge_ratio(idx).tolist() == [0.0]

    def test_fractions_match_scalar_runtime_state(self):
        state = _state_batch([0.5, 2.0], [0.2, 1.5], capacity=2.0, peak=1.0)
        idx = np.arange(2)
        for i in range(2):
            scalar = RuntimeState(
                time=0.0, energy_mj=float(state.energy_mj[i]),
                capacity_mj=2.0, charge_power_mw=float(state.charge_power_mw[i]),
                peak_power_mw=1.0,
            )
            assert state.energy_fraction(idx)[i] == scalar.energy_fraction
            assert state.charge_fraction(idx)[i] == scalar.charge_fraction


class TestGroupDecisions:
    def _controllers(self, kind, n, **params):
        return [
            make_controller(kind, 4, exit_energies_mj=COSTS, capacity_mj=2.0,
                            rng=7 + i, **params)
            for i in range(n)
        ]

    def _cost_matrix(self, n):
        return np.tile(np.asarray(COSTS), (n, 1))

    def test_fixed_batch_matches_scalar(self):
        controllers = self._controllers("fixed", 3, exit_index=1)
        group = FixedBatch(3, [0, 1, 2], controllers, self._cost_matrix(3))
        state = _state_batch([0.05, 0.3, 1.0], [0.5, 0.5, 0.5])
        got = group.select_exit_batch(np.arange(3), state).tolist()
        want = [
            c.select_exit(
                RuntimeState(0.0, float(state.energy_mj[i]), 2.0, 0.5, 1.0),
                COSTS,
            )
            for i, c in enumerate(controllers)
        ]
        assert got == want == [-1, 1, 1]

    def test_greedy_batch_matches_scalar(self):
        controllers = self._controllers("greedy", 4, reserve_fraction=0.2)
        group = GreedyBatch(4, [0, 1, 2, 3], controllers, self._cost_matrix(4))
        state = _state_batch([0.1, 0.5, 1.2, 2.0], [0.5] * 4)
        got = group.select_exit_batch(np.arange(4), state).tolist()
        want = [
            c.select_exit(
                RuntimeState(0.0, float(state.energy_mj[i]), 2.0, 0.5, 1.0),
                COSTS,
            )
            for i, c in enumerate(controllers)
        ]
        assert got == want

    def test_lut_batch_matches_scalar(self):
        controllers = self._controllers("static-lut", 4)
        group = LUTBatch(4, [0, 1, 2, 3], controllers, self._cost_matrix(4))
        state = _state_batch([0.0, 0.31, 0.61, 2.0], [0.5] * 4)
        got = group.select_exit_batch(np.arange(4), state).tolist()
        want = [
            c.select_exit(
                RuntimeState(0.0, float(state.energy_mj[i]), 2.0, 0.5, 1.0),
                COSTS,
            )
            for i, c in enumerate(controllers)
        ]
        assert got == want

    def test_qlearning_batch_matches_scalar_episode(self):
        """One full select/report/end_episode cycle against scalar twins."""
        batched_ctrls = self._controllers("qlearning", 2, epsilon=0.25)
        scalar_ctrls = self._controllers("qlearning", 2, epsilon=0.25)
        group = QLearningBatch(2, [0, 1], batched_ctrls, self._cost_matrix(2))
        idx = np.arange(2)
        energies = [[1.0, 0.4], [0.9, 1.3], [0.2, 1.8]]
        for energy in energies:
            state = _state_batch(energy, [0.5, 0.7])
            got = group.select_exit_batch(idx, state).tolist()
            want = []
            for i, c in enumerate(scalar_ctrls):
                want.append(
                    c.select_exit(
                        RuntimeState(0.0, energy[i], 2.0,
                                     float(state.charge_power_mw[i]), 1.0),
                        COSTS,
                    )
                )
            assert got == want
            rewards = np.array([1.0, 0.0])
            group.report_event_batch(idx, rewards)
            for i, c in enumerate(scalar_ctrls):
                c.report_event(float(rewards[i]))
        group.end_episode_batch(idx)
        for c in scalar_ctrls:
            c.end_episode()
        for i, c in enumerate(scalar_ctrls):
            np.testing.assert_array_equal(group._tables[i], c.qtable.table)
            assert group._epsilon[i] == c.qtable.epsilon


def _one_group(controller):
    """batch_controllers over one controller: its single group's index."""
    _, group_of = batch_controllers(
        [controller], np.tile(np.asarray(COSTS), (1, 1))
    )
    return int(group_of[0])


class TestBatchability:
    def test_presets_are_batchable(self):
        for kind, params in (
            ("qlearning", {}), ("static-lut", {}), ("greedy", {}),
            ("fixed", {}),
        ):
            c = make_controller(kind, 4, exit_energies_mj=COSTS,
                                capacity_mj=2.0, rng=0, **params)
            assert _one_group(c) == 0

    def test_continue_rules_are_batchable(self):
        for rule in (
            ThresholdContinue(0.5),
            {"kind": "threshold", "entropy_threshold": 0.4},
            {"kind": "learned"},
        ):
            c = make_controller(
                "greedy", 4, exit_energies_mj=COSTS, capacity_mj=2.0,
                rng=3, continue_rule=rule,
            )
            assert _one_group(c) == 0
            groups, _ = batch_continue_rules([c], max_steps=3)
            assert len(groups) == 1

    def test_rule_sharing_the_exit_table_generator_is_not_batchable(self):
        """One Generator feeding both pooled-draw streams cannot be
        replayed per table, so grouping refuses it.  (No fleet spec can
        build one: DeviceSpec takes declarative rules only.)"""
        gen = np.random.default_rng(0)
        c = make_controller(
            "qlearning", 4, rng=gen,
            continue_rule=IncrementalDecider(rng=gen),
        )
        with pytest.raises(ConfigError, match="cannot be batched"):
            _one_group(c)

    def test_unknown_policy_is_not_batchable(self):
        c = StaticController(OraclePolicy(COSTS, [], None, 2.0))
        with pytest.raises(ConfigError, match="cannot be batched"):
            _one_group(c)

    def test_groups_partition_by_family(self):
        controllers = [
            make_controller("fixed", 4, exit_energies_mj=COSTS, capacity_mj=2.0),
            make_controller("greedy", 4, exit_energies_mj=COSTS, capacity_mj=2.0),
            make_controller("fixed", 4, exit_energies_mj=COSTS, capacity_mj=2.0),
        ]
        groups, group_of = batch_controllers(
            controllers, np.tile(np.asarray(COSTS), (3, 1))
        )
        assert len(groups) == 2
        assert group_of[0] == group_of[2] != group_of[1]


class TestContinueRuleGroups:
    def test_threshold_group_matches_scalar(self):
        rules = [ThresholdContinue(0.3), ThresholdContinue(0.6)]
        group = ThresholdRuleBatch(2, [0, 1], rules)
        entropy = np.array([0.5, 0.5])
        frac = np.array([0.4, 0.4])
        for affordable in (np.array([True, True]), np.array([False, True])):
            got = group.decide_batch(np.arange(2), entropy, frac, affordable)
            want = [
                rules[i].decide(float(entropy[i]), float(frac[i]), bool(affordable[i]))
                == CONTINUE
                for i in range(2)
            ]
            assert got.tolist() == want

    def test_learned_group_matches_scalar_episode(self):
        """Decide/observe/end_episode against scalar twins, including the
        trajectory-credit chain and the unaffordable draw-free STOP."""
        batched_rules = [IncrementalDecider(rng=31 + i) for i in range(2)]
        scalar_rules = [IncrementalDecider(rng=31 + i) for i in range(2)]
        group = LearnedRuleBatch(2, [0, 1], batched_rules, max_steps=3,
                                 decay_rows=[0])
        idx = np.arange(2)
        steps = [
            (np.array([0.9, 0.2]), np.array([0.8, 0.5]), np.array([True, True])),
            (np.array([0.7, 0.6]), np.array([0.5, 0.3]), np.array([False, True])),
        ]
        scalar_trajs = [[], []]
        for entropy, frac, affordable in steps:
            got = group.decide_batch(idx, entropy, frac, affordable)
            for i, rule in enumerate(scalar_rules):
                action = rule.decide(
                    float(entropy[i]), float(frac[i]), bool(affordable[i])
                )
                scalar_trajs[i].append(
                    (rule.state_of(float(entropy[i]), float(frac[i])), action)
                )
                assert got[i] == (action == CONTINUE)
        rewards = np.array([1.0, 0.0])
        group.observe_batch(idx, rewards)
        for i, rule in enumerate(scalar_rules):
            rule.observe_trajectory(scalar_trajs[i], float(rewards[i]))
        group.end_episode_batch(idx)
        scalar_rules[0].decay_epsilon()  # row 0 is the qlearning parent
        for i, rule in enumerate(scalar_rules):
            np.testing.assert_array_equal(
                group._tables[i], rule.qtable.table
            )
            assert group._epsilon[i] == rule.qtable.epsilon

    def test_batch_continue_rules_partition(self):
        controllers = [
            make_controller("greedy", 4, exit_energies_mj=COSTS,
                            capacity_mj=2.0, rng=1,
                            continue_rule={"kind": "threshold"}),
            make_controller("qlearning", 4, rng=2,
                            continue_rule={"kind": "learned"}),
            make_controller("fixed", 4, exit_energies_mj=COSTS,
                            capacity_mj=2.0, rng=3),
        ]
        groups, group_of = batch_continue_rules(controllers, max_steps=3)
        assert len(groups) == 2
        assert group_of[2] == -1  # NeverContinue rows stay ungrouped
        assert group_of[0] != group_of[1]

    def test_rows_subset_restricts_grouping(self):
        controllers = [
            make_controller("greedy", 4, exit_energies_mj=COSTS,
                            capacity_mj=2.0, rng=i,
                            continue_rule={"kind": "threshold"})
            for i in range(3)
        ]
        groups, group_of = batch_continue_rules(
            controllers, max_steps=3, rows=[0, 2]
        )
        assert group_of.tolist() == [0, -1, 0]
        assert groups[0].rows.tolist() == [0, 2]


class TestFixedBatchValidation:
    def test_out_of_range_exit_index_raises_at_construction(self):
        """The scalar path IndexErrors on a fixed exit past the profile;
        the batched group must surface the misconfiguration loudly too
        instead of treating the +inf padding as a perpetual miss."""
        controllers = [
            StaticController(FixedExitPolicy(2)),  # only exits 0..1 exist
            StaticController(FixedExitPolicy(0)),
        ]
        cost = np.array([[0.1, 0.3, np.inf], [0.1, 0.3, 0.6]])
        with pytest.raises(ConfigError, match="exit_index"):
            FixedBatch(2, [0, 1], controllers, cost)

    def test_in_range_indices_construct(self):
        controllers = [StaticController(FixedExitPolicy(1))]
        group = FixedBatch(1, [0], controllers, np.array([[0.1, 0.3]]))
        state = _state_batch([1.0], [0.5])
        assert group.select_exit_batch(np.arange(1), state).tolist() == [1]
