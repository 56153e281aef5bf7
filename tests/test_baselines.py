"""Tests for sequence-pair packing and the metaheuristic baselines."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (
    FloorplanResult,
    GAConfig,
    PSOConfig,
    RLSAConfig,
    RLSPConfig,
    SAConfig,
    SequencePair,
    decode_swarm,
    evaluate_placement,
    genetic_algorithm,
    inflated_shapes,
    pack,
    particle_swarm,
    random_neighbor,
    rects_overlap,
    rl_sequence_pair,
    rl_simulated_annealing,
    simulated_annealing,
    true_shapes,
)
from repro.circuits import get_circuit
from repro.experiments.table1 import Table1Scale

from oracles import decode_keys_reference


def square_sizes(n, side=1.0):
    return [[(side, side)] * 3 for _ in range(n)]


class TestSequencePair:
    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            SequencePair((0, 0), (0, 1), (0, 0))

    def test_rejects_wrong_shape_count(self):
        with pytest.raises(ValueError):
            SequencePair((0, 1), (0, 1), (0,))

    def test_random_is_valid(self):
        rng = np.random.default_rng(0)
        pair = SequencePair.random(8, 3, rng)
        assert pair.num_blocks == 8
        assert all(0 <= s < 3 for s in pair.shapes)

    def test_pack_identity_row(self):
        """gamma+ == gamma- means all blocks in one row (left-of chain)."""
        pair = SequencePair((0, 1, 2), (0, 1, 2), (0, 0, 0))
        rects = pack(pair, square_sizes(3))
        xs = sorted((r.index, r.x) for r in rects)
        assert [x for _, x in xs] == [0.0, 1.0, 2.0]
        assert all(r.y == 0.0 for r in rects)

    def test_pack_reversed_column(self):
        """gamma+ reversed vs gamma- means a vertical stack."""
        pair = SequencePair((2, 1, 0), (0, 1, 2), (0, 0, 0))
        rects = pack(pair, square_sizes(3))
        ys = sorted((r.index, r.y) for r in rects)
        assert [y for _, y in ys] == [0.0, 1.0, 2.0]
        assert all(r.x == 0.0 for r in rects)

    @given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=40, deadline=None)
    def test_pack_never_overlaps(self, n, seed):
        """The defining property of SP packing: no two rects overlap."""
        rng = np.random.default_rng(seed)
        pair = SequencePair.random(n, 3, rng)
        sizes = [[(float(rng.uniform(0.5, 4)), float(rng.uniform(0.5, 4)))] * 3 for _ in range(n)]
        rects = pack(pair, sizes)
        for i in range(n):
            for j in range(i + 1, n):
                assert not rects_overlap(rects[i], rects[j]), (rects[i], rects[j])

    def test_pack_respects_shape_choice(self):
        sizes = [[(1.0, 4.0), (2.0, 2.0), (4.0, 1.0)]] * 2
        pair = SequencePair((0, 1), (0, 1), (2, 0))
        rects = pack(pair, sizes)
        by_index = {r.index: r for r in rects}
        assert by_index[0].width == 4.0
        assert by_index[1].height == 4.0

    def test_neighbor_preserves_validity(self):
        rng = np.random.default_rng(1)
        pair = SequencePair.random(6, 3, rng)
        for _ in range(50):
            pair = random_neighbor(pair, 3, rng)
            # Moves skip the constructor's check; the public one re-runs it.
            assert SequencePair(pair.gamma_plus, pair.gamma_minus, pair.shapes) == pair
            assert all(0 <= s < 3 for s in pair.shapes)
        assert pair.num_blocks == 6


class TestEvaluatePlacement:
    def test_perfect_square_packing(self):
        ckt = get_circuit("ota_small")
        sizes = true_shapes(ckt)
        pair = SequencePair((0, 1, 2), (0, 1, 2), (1, 1, 1))
        rects = pack(pair, sizes)
        area, wl, ds, reward = evaluate_placement(ckt, rects)
        assert area > 0 and wl > 0
        assert 0 <= ds < 1

    def test_wrong_rect_count_rejected(self):
        ckt = get_circuit("ota_small")
        with pytest.raises(ValueError):
            evaluate_placement(ckt, [])

    def test_inflated_shapes_larger(self):
        ckt = get_circuit("ota1")
        plain = true_shapes(ckt)
        spaced = inflated_shapes(ckt, spacing=0.2)
        for p_block, s_block in zip(plain, spaced):
            for (pw, ph), (sw, sh) in zip(p_block, s_block):
                assert sw > pw and sh > ph

    def test_target_aspect_penalty(self):
        ckt = get_circuit("ota_small")
        rects = pack(SequencePair((0, 1, 2), (0, 1, 2), (1, 1, 1)), true_shapes(ckt))
        _, _, _, base = evaluate_placement(ckt, rects)
        _, _, _, constrained = evaluate_placement(ckt, rects, target_aspect=50.0)
        assert constrained < base


def _fast_sa():
    return SAConfig(initial_temperature=1.0, final_temperature=0.2, cooling=0.7,
                    moves_per_temperature=10, seed=0)


def _fast_ga():
    return GAConfig(population=8, generations=5, seed=0)


def _fast_pso():
    return PSOConfig(particles=8, iterations=5, seed=0)


def _fast_rlsp():
    return RLSPConfig(iterations=10, batch=4, seed=0)


def _fast_rlsa():
    return RLSAConfig(initial_temperature=1.0, final_temperature=0.2, cooling=0.7,
                      moves_per_temperature=10, seed=0)


class TestBaselineRuns:
    @pytest.mark.parametrize("runner,config", [
        (simulated_annealing, _fast_sa()),
        (genetic_algorithm, _fast_ga()),
        (particle_swarm, _fast_pso()),
        (rl_sequence_pair, _fast_rlsp()),
        (rl_simulated_annealing, _fast_rlsa()),
    ])
    def test_baseline_produces_valid_floorplan(self, runner, config):
        ckt = get_circuit("ota1")
        result = runner(ckt, config)
        assert isinstance(result, FloorplanResult)
        assert len(result.rects) == ckt.num_blocks
        for i in range(len(result.rects)):
            for j in range(i + 1, len(result.rects)):
                assert not rects_overlap(result.rects[i], result.rects[j])
        assert result.area > 0
        assert result.hpwl > 0
        assert 0 <= result.dead_space < 1
        assert result.runtime > 0
        assert result.summary()  # human-readable line renders

    def test_sa_improves_over_random_start(self):
        """SA's best must beat the average random packing."""
        ckt = get_circuit("ota2")
        rng = np.random.default_rng(3)
        sizes = inflated_shapes(ckt)
        random_rewards = []
        for _ in range(10):
            pair = SequencePair.random(ckt.num_blocks, 3, rng)
            rects = pack(pair, sizes)
            random_rewards.append(evaluate_placement(ckt, rects)[3])
        result = simulated_annealing(ckt, SAConfig(moves_per_temperature=20, seed=1))
        assert result.reward > np.mean(random_rewards)

    def test_sa_seeded_determinism(self):
        ckt = get_circuit("ota1")
        a = simulated_annealing(ckt, _fast_sa())
        b = simulated_annealing(ckt, _fast_sa())
        assert a.reward == b.reward
        assert [(r.x, r.y) for r in a.rects] == [(r.x, r.y) for r in b.rects]

    def test_decode_keys_valid(self):
        rng = np.random.default_rng(0)
        swarm = rng.uniform(size=(4, 3 * 7))
        pairs = decode_swarm(swarm, 7)
        assert [pair.num_blocks for pair in pairs] == [7] * 4
        assert pairs == [decode_keys_reference(keys, 7) for keys in swarm]

    def test_rl_sa_tracks_move_counts(self):
        ckt = get_circuit("ota_small")
        result = rl_simulated_annealing(ckt, _fast_rlsa())
        counts = result.extra["move_counts"]
        assert sum(counts) > 0


class TestConfigValidation:
    """Budgets that would hang or crash a run are rejected at construction
    (these tests build configs only; none of them runs)."""

    @pytest.mark.parametrize("config_cls", [SAConfig, RLSAConfig])
    @pytest.mark.parametrize("overrides", [
        {"cooling": 1.0},          # never cools: the loop would not end
        {"cooling": 1.5},
        {"cooling": 0.0},
        {"cooling": float("nan")},
        {"final_temperature": 0.0},
        {"final_temperature": -1.0},
        {"initial_temperature": float("inf")},
    ])
    def test_annealing_schedule_that_never_ends_rejected(self, config_cls, overrides):
        with pytest.raises(ValueError):
            config_cls(**overrides)

    @pytest.mark.parametrize("config_cls, overrides", [
        (RLSPConfig, {"iterations": 0}),
        (RLSPConfig, {"batch": 0}),
        (PSOConfig, {"particles": 0}),
        (GAConfig, {"population": 0}),
        (GAConfig, {"tournament": 0}),
        (GAConfig, {"population": 2, "tournament": 3}),
        # Beyond 10_000 numpy's choice() leaves the Floyd sampler that
        # seqpair.choose replays.
        (GAConfig, {"population": 10_001}),
    ])
    def test_empty_budget_rejected(self, config_cls, overrides):
        with pytest.raises(ValueError):
            config_cls(**overrides)

    @pytest.mark.parametrize("config_cls", [
        SAConfig, RLSAConfig, RLSPConfig, PSOConfig, GAConfig])
    @pytest.mark.parametrize("overrides", [
        {"seed": "x"},
        {"seed": 1.5},
        {"seed": True},
        {"spacing": "x"},
        {"spacing": -1.0},     # zero-size blocks once inflated
        {"spacing": float("nan")},
        {"spacing": True},
    ])
    def test_wrongly_typed_shared_field_rejected(self, config_cls, overrides):
        with pytest.raises(ValueError):
            config_cls(**overrides)

    @pytest.mark.parametrize("config_cls, overrides", [
        (SAConfig, {"moves_per_temperature": "x"}),
        (SAConfig, {"moves_per_temperature": 2.5}),
        (RLSAConfig, {"bandit_lr": float("inf")}),
        (RLSPConfig, {"batch": 8.0}),
        (PSOConfig, {"inertia": None}),
        (GAConfig, {"mutation_rate": "0.3"}),
        (GAConfig, {"crossover_rate": 10 ** 400}),  # overflows float()
    ])
    def test_wrongly_typed_field_rejected(self, config_cls, overrides):
        with pytest.raises(ValueError):
            config_cls(**overrides)

    @pytest.mark.parametrize("config", [
        SAConfig(), RLSAConfig(), RLSPConfig(), PSOConfig(), GAConfig(),
        SAConfig(cooling=0.99, final_temperature=1e-6),
        GAConfig(population=3, tournament=3),
        PSOConfig(particles=1, iterations=0),
        RLSPConfig(iterations=1, batch=1),
        SAConfig(spacing=0, cooling=np.float64(0.9), seed=np.int64(3)),
        *(getattr(Table1Scale(), name)
          for name in ("sa", "ga", "pso", "rl_sa", "rl_sp")),
        GAConfig(population=10_000, tournament=10_000),
    ])
    def test_valid_configs_store_only_their_fields(self, config):
        # Table I's cache keys are built from the config's attributes, so
        # validation must add none.
        assert set(vars(config)) == {f.name for f in dataclasses.fields(config)}
