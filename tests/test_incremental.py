"""Golden tests for the incremental-metrics hot path (ISSUE 2).

The vectorized fast paths — incremental ``state_hpwl``, stacked
``wire_mask``, prefix-max ``pack`` / ``pack_coords``, the per-run scalar
evaluator ``coords_evaluator`` behind ``evaluate_placement`` and the
batched ``evaluate_population`` — must be *bit-identical* to the
reference implementations they replaced (``hpwl`` over
``state_centers``, ``wire_mask_reference``, ``pack_reference``,
``evaluate_coords_reference``).  These tests pin that equivalence across
library circuits, random synthetic circuits, and random placement
orders, plus the satellite regressions (hpwl_min clamp, middle-shape
derivation, full-HPWL validation).
"""

import numpy as np
import pytest

from repro.baselines import (
    SequencePair,
    evaluate_placement,
    evaluate_population,
    inflated_shapes,
    pack,
    true_shapes,
)
from repro.baselines.common import coords_evaluator
from repro.baselines.seqpair import pack_coords
from repro.circuits import Circuit, Net, get_circuit, random_circuit
from repro.config import NUM_SHAPES
from repro.floorplan import (
    FloorplanState,
    action_mask,
    hpwl_lower_bound,
    observation_masks,
    placement_mask,
    positional_mask,
    positional_masks,
    state_hpwl,
    wire_mask,
)

from oracles import (
    evaluate_coords_reference,
    hpwl,
    pack_arrays_reference,
    pack_reference,
    state_centers,
    wire_mask_reference,
)

LIBRARY = ("ota1", "ota2", "bias1", "bias2", "driver", "ota_small")


def _random_episode_states(circuit, rng, shape_index=1):
    """Yield the state after every placement of one random legal episode."""
    state = FloorplanState(circuit)
    yield state
    while not state.done:
        legal = np.flatnonzero(placement_mask(state, shape_index).reshape(-1))
        if legal.size == 0:
            return
        cell = int(legal[rng.integers(legal.size)])
        state.place(shape_index, cell % state.grid.n, cell // state.grid.n)
        yield state


def _circuits(seed=0):
    rng = np.random.default_rng(seed)
    for name in LIBRARY:
        yield get_circuit(name)
    for k in range(4):
        yield random_circuit(rng, name=f"rand{k}")


class TestNetIncidence:
    def test_roundtrip_members_and_nets(self):
        for circuit in _circuits():
            inc = circuit.incidence
            assert inc.num_nets == len(circuit.nets)
            for i, net in enumerate(circuit.nets):
                assert tuple(inc.members_of(i)) == net.blocks
            for b in range(circuit.num_blocks):
                expected = [i for i, net in enumerate(circuit.nets) if b in net.blocks]
                assert list(inc.nets_of(b)) == expected

    def test_cached_per_circuit(self):
        circuit = get_circuit("ota1")
        assert circuit.incidence is circuit.incidence

    def test_rebuilt_when_nets_change(self):
        circuit = get_circuit("ota1")
        first = circuit.incidence
        trimmed = Circuit(circuit.name, circuit.blocks, circuit.nets[:1])
        assert trimmed.incidence.num_nets == 1
        assert first.num_nets == len(circuit.nets)


class TestIncrementalHPWL:
    def test_bit_identical_along_random_episodes(self):
        rng = np.random.default_rng(1)
        for circuit in _circuits(1):
            for state in _random_episode_states(circuit, rng):
                reference = hpwl(circuit.nets, state_centers(state), partial=True)
                assert state_hpwl(state, partial=True) == reference

    def test_full_mode_bit_identical_when_complete(self):
        rng = np.random.default_rng(2)
        for circuit in _circuits(2):
            state = None
            for state in _random_episode_states(circuit, rng):
                pass
            if state is None or not state.done:
                continue
            reference = hpwl(circuit.nets, state_centers(state), partial=False)
            assert state_hpwl(state, partial=False) == reference

    def test_copy_preserves_tracker(self):
        rng = np.random.default_rng(3)
        circuit = get_circuit("ota2")
        state = FloorplanState(circuit)
        for _ in range(3):
            legal = np.flatnonzero(placement_mask(state, 1).reshape(-1))
            cell = int(legal[rng.integers(legal.size)])
            state.place(1, cell % 32, cell // 32)
        clone = state.copy()
        assert state_hpwl(clone) == state_hpwl(state)
        # Further placements on the clone must not leak into the parent.
        before = state_hpwl(state)
        legal = np.flatnonzero(placement_mask(clone, 1).reshape(-1))
        clone.place(1, int(legal[0]) % 32, int(legal[0]) // 32)
        assert state_hpwl(state) == before
        assert state_hpwl(clone) == hpwl(circuit.nets, state_centers(clone))

    def test_incremental_bbox_and_area_match_recompute(self):
        rng = np.random.default_rng(4)
        for circuit in _circuits(4):
            for state in _random_episode_states(circuit, rng):
                blocks = list(state.placed.values())
                if not blocks:
                    assert state.bounding_box() is None
                    assert state.placed_area() == 0.0
                    continue
                assert state.bounding_box() == (
                    min(b.x for b in blocks),
                    min(b.y for b in blocks),
                    max(b.x2 for b in blocks),
                    max(b.y2 for b in blocks),
                )
                assert state.placed_area() == sum(
                    b.width * b.height for b in blocks
                )


class TestWireMaskGolden:
    def test_bit_identical_all_shapes_all_steps(self):
        rng = np.random.default_rng(5)
        for circuit in _circuits(5):
            hmin = hpwl_lower_bound(circuit)
            for state in _random_episode_states(circuit, rng):
                if state.done:
                    continue
                for s in range(NUM_SHAPES):
                    fast = wire_mask(state, s, hmin)
                    reference = wire_mask_reference(state, s, hmin)
                    assert np.array_equal(fast, reference)

    def test_degenerate_hpwl_min_yields_finite_mask(self):
        """Regression: hpwl_min <= 0 must not produce inf/NaN masks."""
        state = FloorplanState(get_circuit("ota_small"))
        state.place(1, 0, 0)
        for bad in (0.0, -1.0, 1e-300):
            for fn in (wire_mask, wire_mask_reference):
                mask = fn(state, 1, bad)
                assert np.isfinite(mask).all()
                assert (mask >= 0).all() and (mask <= 1).all()


class TestObservationGolden:
    def test_channels_consistent_with_components(self):
        rng = np.random.default_rng(6)
        circuit = get_circuit("bias1")
        hmin = hpwl_lower_bound(circuit)
        for state in _random_episode_states(circuit, rng):
            if state.done:
                continue
            obs = observation_masks(state, hmin)
            assert obs.shape == (2 + NUM_SHAPES + 1, state.grid.n, state.grid.n)
            assert np.array_equal(obs[0] > 0, state.occupancy)
            assert np.array_equal(obs[1], wire_mask(state, 1, hmin))
            fp = positional_masks(state)
            assert np.array_equal(obs[3:3 + NUM_SHAPES], fp)
            assert np.array_equal(
                obs[3:3 + NUM_SHAPES].astype(bool).reshape(-1), action_mask(state)
            )

    def test_positional_masks_match_per_shape_reference(self):
        rng = np.random.default_rng(7)
        for circuit in _circuits(7):
            for state in _random_episode_states(circuit, rng):
                if state.done:
                    continue
                fp = positional_masks(state)
                for s in range(NUM_SHAPES):
                    assert np.array_equal(fp[s].astype(bool), positional_mask(state, s))

    def test_short_shape_set_uses_derived_middle_index(self):
        """Regression: a block with a single shape variant must not read a
        hard-coded shape index 1."""
        circuit = get_circuit("ota_small")
        full = FloorplanState(circuit)
        short_sets = [tuple(s.variants[:1]) for s in full.shape_sets]
        state = FloorplanState(circuit, shape_sets=short_sets)
        hmin = hpwl_lower_bound(circuit)
        obs = observation_masks(state, hmin)
        assert obs.shape == (2 + NUM_SHAPES + 1, 32, 32)
        # fw/fds are computed for shape 0 (the only variant)...
        assert np.array_equal(obs[1], wire_mask(state, 0, hmin))
        # ...and the missing fp channels are all-invalid.
        assert not obs[4].any() and not obs[5].any()
        assert obs[3].any()


class TestPackGolden:
    @pytest.mark.parametrize("seed", range(5))
    def test_bit_identical_to_reference(self, seed):
        rng = np.random.default_rng(seed)
        for circuit in _circuits(seed):
            for sizes in (true_shapes(circuit), inflated_shapes(circuit)):
                for _ in range(5):
                    pair = SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
                    assert pack(pair, sizes) == pack_reference(pair, sizes)

    def test_pack_coords_matches_pack(self):
        rng = np.random.default_rng(11)
        circuit = get_circuit("bias2")
        sizes = inflated_shapes(circuit)
        pair = SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
        x, y, w, h = pack_coords(pair, sizes)
        for rect in pack(pair, sizes):
            b = rect.index
            assert (x[b], y[b], w[b], h[b]) == (rect.x, rect.y, rect.width, rect.height)


class TestEvaluateGolden:
    def test_population_matches_single_evaluations(self):
        rng = np.random.default_rng(12)
        for circuit in _circuits(12):
            sizes = inflated_shapes(circuit)
            rect_lists = [
                pack(SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng), sizes)
                for _ in range(8)
            ]
            for target in (None, 1.5):
                batch = evaluate_population(circuit, rect_lists, target_aspect=target)
                for i, rects in enumerate(rect_lists):
                    single = evaluate_placement(circuit, rects, target_aspect=target)
                    assert tuple(col[i] for col in batch) == single

    def test_coords_match_rect_evaluation(self):
        rng = np.random.default_rng(13)
        circuit = get_circuit("driver")
        sizes = inflated_shapes(circuit)
        for _ in range(10):
            pair = SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
            reference = evaluate_coords_reference(circuit, *pack_arrays_reference(pair, sizes))
            assert coords_evaluator(circuit)(*pack_coords(pair, sizes)) == reference
            assert evaluate_placement(circuit, pack(pair, sizes)) == reference

    def test_incidence_hpwl_matches_reference(self):
        """The evaluator's per-net HPWL over ``circuit.incidence`` equals
        the scalar per-net loop (zero sizes put the centres at x, y)."""
        rng = np.random.default_rng(14)
        for circuit in _circuits(14):
            n = circuit.num_blocks
            cx = rng.uniform(0, 100, size=n).tolist()
            cy = rng.uniform(0, 100, size=n).tolist()
            centers = {b: (cx[b], cy[b]) for b in range(n)}
            _, wirelength, _, _ = coords_evaluator(circuit)(cx, cy, [0.0] * n, [0.0] * n)
            assert wirelength == hpwl(circuit.nets, centers, partial=False)

    def test_duplicate_block_index_rejected(self):
        circuit = get_circuit("ota_small")
        rects = pack(
            SequencePair.random(circuit.num_blocks, NUM_SHAPES, np.random.default_rng(0)),
            true_shapes(circuit),
        )
        rects[1] = rects[0]
        with pytest.raises(KeyError):
            evaluate_placement(circuit, rects)


class TestFullHPWLValidation:
    """Regression: full-HPWL mode must reject *any* unplaced membership."""

    def test_zero_placed_members_raise(self):
        nets = [Net("n", (0, 1))]
        with pytest.raises(KeyError):
            hpwl(nets, {}, partial=False)

    def test_partially_placed_multi_net_raises(self):
        nets = [Net("n", (0, 1, 2))]
        centers = {0: (0.0, 0.0), 1: (1.0, 1.0)}
        with pytest.raises(KeyError):
            hpwl(nets, centers, partial=False)

    def test_state_full_mode_raises_until_complete(self):
        circuit = get_circuit("ota_small")
        state = FloorplanState(circuit)
        with pytest.raises(KeyError):
            state_hpwl(state, partial=False)
        while not state.done:
            legal = np.flatnonzero(placement_mask(state, 1).reshape(-1))
            state.place(1, int(legal[0]) % 32, int(legal[0]) // 32)
        assert state_hpwl(state, partial=False) == hpwl(
            circuit.nets, state_centers(state), partial=False
        )
