"""Tests for HPWL, dead space, and reward computation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits import Circuit, Net, StructureType, get_circuit, nmos
from repro.circuits.blocks import FunctionalBlock
from repro.floorplan import (
    FloorplanState,
    aspect_ratio,
    dead_space,
    final_reward,
    floorplan_area,
    hpwl_lower_bound,
    intermediate_reward,
    state_hpwl,
)

from oracles import hpwl


def _full_state(name="ota_small", spread=False):
    state = FloorplanState(get_circuit(name))
    slots = [(0, 0), (0, 20), (20, 0)] if spread else [(0, 0), (0, 10), (10, 0)]
    k = 0
    while not state.done:
        gx, gy = slots[k % len(slots)]
        # find a valid spot scanning right/up from the hint
        placed = False
        for dy in range(32):
            for dx in range(32):
                try:
                    state.place(1, (gx + dx) % 32, (gy + dy) % 32)
                    placed = True
                    break
                except ValueError:
                    continue
            if placed:
                break
        assert placed
        k += 1
    return state


class TestHPWL:
    def test_two_point_net(self):
        nets = [Net("n", (0, 1))]
        centers = {0: (0.0, 0.0), 1: (3.0, 4.0)}
        assert hpwl(nets, centers) == pytest.approx(7.0)

    def test_multi_point_net_uses_bbox(self):
        nets = [Net("n", (0, 1, 2))]
        centers = {0: (0.0, 0.0), 1: (10.0, 0.0), 2: (5.0, 2.0)}
        assert hpwl(nets, centers) == pytest.approx(12.0)

    def test_partial_skips_underplaced_nets(self):
        nets = [Net("n", (0, 1))]
        assert hpwl(nets, {0: (0.0, 0.0)}, partial=True) == 0.0

    def test_full_mode_raises_on_missing(self):
        nets = [Net("n", (0, 1))]
        with pytest.raises(KeyError):
            hpwl(nets, {0: (0.0, 0.0)}, partial=False)

    def test_hpwl_monotone_under_spread(self):
        """Moving a block away from the net bbox can only grow HPWL."""
        nets = [Net("n", (0, 1))]
        base = hpwl(nets, {0: (0.0, 0.0), 1: (1.0, 1.0)})
        far = hpwl(nets, {0: (0.0, 0.0), 1: (10.0, 10.0)})
        assert far > base

    @given(st.lists(st.tuples(st.floats(-100, 100), st.floats(-100, 100)),
                    min_size=2, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_hpwl_nonnegative_and_translation_invariant(self, points):
        nets = [Net("n", tuple(range(len(points))))]
        centers = {i: p for i, p in enumerate(points)}
        value = hpwl(nets, centers)
        assert value >= 0
        shifted = {i: (p[0] + 17.0, p[1] - 5.0) for i, p in enumerate(points)}
        assert hpwl(nets, shifted) == pytest.approx(value)


class TestDeadSpaceAndArea:
    def test_empty_state_zero(self):
        state = FloorplanState(get_circuit("ota_small"))
        assert floorplan_area(state) == 0.0
        assert dead_space(state) == 0.0

    def test_single_block_dead_space_small(self):
        """One block alone: bbox == block, dead space ~0 (exact real sizes)."""
        state = FloorplanState(get_circuit("ota_small"))
        state.place(1, 0, 0)
        assert dead_space(state) == pytest.approx(0.0, abs=1e-9)

    def test_dead_space_in_unit_interval(self):
        state = _full_state(spread=True)
        assert 0.0 <= dead_space(state) < 1.0

    def test_spread_has_more_dead_space_than_packed(self):
        packed = _full_state(spread=False)
        spread = _full_state(spread=True)
        assert dead_space(spread) >= dead_space(packed)

    def test_aspect_ratio_of_single_block(self):
        state = FloorplanState(get_circuit("ota_small"))
        block = state.current_block
        v = state.shape_sets[block][2]
        state.place(2, 0, 0)
        assert aspect_ratio(state) == pytest.approx(v.width / v.height)


class TestRewards:
    def test_intermediate_reward_negates_increases(self):
        r = intermediate_reward(0.1, 0.3, 10.0, 20.0, hpwl_min=100.0)
        assert r == pytest.approx(-(0.2 + 0.1))

    def test_intermediate_reward_zero_when_no_change(self):
        assert intermediate_reward(0.5, 0.5, 10.0, 10.0, 100.0) == 0.0

    def test_final_reward_requires_completion(self):
        state = FloorplanState(get_circuit("ota_small"))
        with pytest.raises(ValueError):
            final_reward(state)

    def test_final_reward_negative_for_imperfect(self):
        state = _full_state(spread=True)
        assert final_reward(state) < 0

    def test_better_packing_scores_higher(self):
        packed = _full_state(spread=False)
        spread = _full_state(spread=True)
        assert final_reward(packed) > final_reward(spread)

    def test_aspect_target_term_penalizes(self):
        state = _full_state()
        base = final_reward(state)
        actual = aspect_ratio(state)
        with_target = final_reward(state, target_aspect=actual + 1.0)
        assert with_target < base
        matched = final_reward(state, target_aspect=actual)
        assert matched == pytest.approx(base)

    def test_hpwl_lower_bound_positive(self):
        for name in ("ota1", "bias2", "driver"):
            assert hpwl_lower_bound(get_circuit(name)) > 0

    def test_hpwl_lower_bound_below_any_real_placement(self):
        state = _full_state("ota_small", spread=True)
        bound = hpwl_lower_bound(state.circuit)
        # The bound is a normalizer, not a strict bound, but should be of
        # comparable magnitude (within ~10x) of real placements.
        real = state_hpwl(state, partial=False)
        assert bound < 10 * real
