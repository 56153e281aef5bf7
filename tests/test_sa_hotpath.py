"""Golden tests for the baselines' hot paths.

``simulated_annealing``, ``rl_simulated_annealing`` and
``genetic_algorithm`` draw through ``DrawReplay`` and take
``rng.choice(n, k, replace=False)`` from its exact replay ``choose``;
the annealers run on a per-run scalar evaluator and cost memo;
``rl_simulated_annealing`` and ``rl_sequence_pair`` replay
``rng.choice(k, p=...)`` from ``choice_cdf``, and ``particle_swarm``
decodes its whole swarm at once.  These tests pin every result, and the
bit-generator state each run leaves behind, bit for bit to the numpy
loops in ``oracles`` (per-candidate numpy evaluation, no memo,
per-scalar ``rng`` draws), pin the scalar scorer to the numpy one, and
pin the replays to numpy's own ``Generator.choice``, ``integers`` and
``random``: same draws, same bit-generator state afterwards.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.baselines import (
    GAConfig,
    PSOConfig,
    RLSAConfig,
    RLSPConfig,
    SAConfig,
    SequencePair,
    decode_swarm,
    genetic_algorithm,
    inflated_shapes,
    particle_swarm,
    random_neighbor,
    rl_sequence_pair,
    rl_simulated_annealing,
    simulated_annealing,
)
from repro.baselines.common import placement_scorer
from repro.baselines.seqpair import (
    DrawReplay,
    apply_move,
    choice_cdf,
    choose,
    memoized_cost,
    pack_coords,
    pack_population,
    pair_evaluator,
)
from repro.circuits import available_circuits, get_circuit
from repro.config import NUM_SHAPES

from oracles import (
    apply_move_reference,
    decode_keys_reference,
    evaluate_coords_reference,
    ga_reference,
    pack_arrays_reference,
    pso_reference,
    random_neighbor_reference,
    rl_sa_reference,
    rl_sp_reference,
    sa_reference,
)

# One draw between replays: ("random",), ("integers", high) or ("pair", n).
# Small n gets its own strategy so Floyd's collision branch (j == i) and
# the n = 2 case, whose first draw consumes nothing, come up often.
_DRAW = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), st.integers(1, 1 << 40)),
    st.tuples(st.just("pair"), st.integers(2, 20000)),
    st.tuples(st.just("pair"), st.integers(2, 20)),
)


def _same_rng(seed):
    return np.random.default_rng(seed), np.random.default_rng(seed)


class TestChooseTwoReplay:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), draws=st.lists(_DRAW, min_size=1, max_size=40))
    def test_replays_numpy_choice_and_state(self, seed, draws):
        ours, numpy_ = _same_rng(seed)
        for draw in draws:
            if draw[0] == "random":
                assert ours.random() == numpy_.random()
            elif draw[0] == "integers":
                assert ours.integers(0, draw[1]) == numpy_.integers(0, draw[1])
            else:
                n = draw[1]
                assert choose(n, 2, ours) == numpy_.choice(n, size=2, replace=False).tolist()
            assert ours.bit_generator.state == numpy_.bit_generator.state

    def test_smallest_population(self):
        # n = 2: the first Floyd draw is in [0, 0] and consumes nothing.
        for seed in range(50):
            ours, numpy_ = _same_rng(seed)
            assert choose(2, 2, ours) == numpy_.choice(2, size=2, replace=False).tolist()
            assert ours.bit_generator.state == numpy_.bit_generator.state


# One ``choice(n, k, replace=False)``: n and k small enough to hit Floyd's
# collision branch, the edges k = 1, k = n and n = 1, a wider Floyd range,
# and the largest draws below numpy's tail-shuffle cutoff (n > 10_000,
# k > n // 50).
_CHOICE = st.one_of(
    st.integers(1, 12).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, n))),
    st.sampled_from([(1, 1), (2, 1), (2, 2), (3, 3), (30, 1), (30, 30), (10_000, 10_000)]),
    st.integers(31, 20_000).flatmap(lambda n: st.tuples(st.just(n), st.integers(1, 30))),
    st.integers(10_001, 20_000).flatmap(lambda n: st.tuples(st.just(n), st.just(n // 50))),
)


class TestChooseReplay:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), carry=st.integers(0, 1), replay=st.booleans(),
           picks=st.lists(_CHOICE, min_size=1, max_size=6))
    def test_replays_numpy_choice_and_state(self, seed, carry, replay, picks):
        ours, numpy_ = _same_rng(seed)
        # One 32-bit draw leaves a carried half-word for the next one.
        assert np.array_equal(ours.integers(0, 7, size=carry), numpy_.integers(0, 7, size=carry))
        expected = [numpy_.choice(n, k, replace=False).tolist() for n, k in picks]
        if replay:
            with DrawReplay(ours) as draws:
                assert [choose(n, k, draws) for n, k in picks] == expected
        else:
            assert [choose(n, k, ours) for n, k in picks] == expected
        assert ours.bit_generator.state == numpy_.bit_generator.state

    @pytest.mark.parametrize("n, k", [(10_001, 201), (10_001, 10_001), (20_000, 401)])
    def test_tail_shuffle_cutoff_raises(self, n, k):
        # Above the cutoff numpy shuffles the tail of arange(n) instead of
        # running Floyd; choose refuses before drawing anything.
        rng = np.random.default_rng(n + k)
        state = rng.bit_generator.state
        with DrawReplay(rng) as draws, pytest.raises(ValueError):
            choose(n, k, draws)
        assert rng.bit_generator.state == state


# One scalar draw inside a DrawReplay: ("random",) or ("integers", low,
# span).  The sampled spans hit Lemire's rejection loop often (2**31 + 1
# rejects almost half the words) and its edges: a span of 1 draws
# nothing, one of 2**32 returns a raw 32-bit word.
_SCALAR = st.one_of(
    st.tuples(st.just("random")),
    st.tuples(st.just("integers"), st.integers(-2**40, 2**40), st.integers(1, 1 << 32)),
    st.tuples(st.just("integers"), st.integers(-3, 3),
              st.sampled_from([1, 2, 3, 4, 5, 2**31 + 1, 2**32 - 1, 2**32])),
)


def _scalar_draws(rng, ops):
    return [rng.random() if op[0] == "random" else rng.integers(op[1], op[1] + op[2])
            for op in ops]


class TestDrawReplay:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), blocks=st.lists(
        st.tuples(st.integers(0, 5), st.lists(_SCALAR, max_size=60)), min_size=1, max_size=4))
    def test_replays_numpy_draws_and_state(self, seed, blocks):
        # Each block follows an array draw, which leaves a carried
        # half-word when it takes an odd number of 32-bit draws.
        ours, numpy_ = _same_rng(seed)
        for before, ops in blocks:
            assert np.array_equal(ours.integers(0, 7, size=before),
                                  numpy_.integers(0, 7, size=before))
            with DrawReplay(ours) as draws:
                assert _scalar_draws(draws, ops) == _scalar_draws(numpy_, ops)
            assert ours.bit_generator.state == numpy_.bit_generator.state

    @pytest.mark.parametrize("span", [1, 2, 2**31 + 1, 2**32 - 1, 2**32])
    def test_runs_past_one_chunk(self, span):
        ops = [("integers", 5, span), ("random",)] * (DrawReplay.CHUNK + 7)
        for carry in (0, 1):
            ours, numpy_ = _same_rng(carry)
            ours.integers(0, 3, size=carry)
            numpy_.integers(0, 3, size=carry)
            with DrawReplay(ours) as draws:
                assert _scalar_draws(draws, ops) == _scalar_draws(numpy_, ops)
            assert ours.bit_generator.state == numpy_.bit_generator.state

    def test_rejects_other_bit_generators_and_spans(self):
        with pytest.raises(TypeError, match="PCG64"):
            DrawReplay(np.random.Generator(np.random.MT19937(0)))
        with DrawReplay(np.random.default_rng(0)) as draws:
            for low, high in ((0, 0), (3, 1), (0, 2**32 + 1)):
                with pytest.raises(ValueError):
                    draws.integers(low, high)


@st.composite
def _probs(draw, k):
    """A ``p`` for ``choice(k, p=...)``: arbitrary weights, some exactly
    zero, or one entry within a few ulps of 1 and the rest tiny."""
    if draw(st.booleans()):
        weights = np.array(draw(st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e3)), min_size=k, max_size=k)))
        if not weights.sum():
            weights[draw(st.integers(0, k - 1))] = 1.0
        return weights / weights.sum()
    probs = np.full(k, draw(st.sampled_from([0.0, 1e-300, 1e-17, 1e-16])))
    probs[draw(st.integers(0, k - 1))] = 1.0 - (k - 1) * probs[0]
    return probs


class TestChoiceReplay:
    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1),
           rows=st.lists(st.integers(1, 8).flatmap(_probs), min_size=1, max_size=12))
    def test_searchsorted_replays_numpy_choice_and_state(self, seed, rows):
        # RL-SA's form: one rng.random() per draw.
        ours, numpy_ = _same_rng(seed)
        for probs in rows:
            expected = int(numpy_.choice(len(probs), p=probs))
            assert int(choice_cdf(probs).searchsorted(ours.random(), side="right")) == expected
            assert ours.bit_generator.state == numpy_.bit_generator.state

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1),
           rows=st.integers(1, 6).flatmap(lambda k: st.lists(_probs(k), min_size=1, max_size=10)))
    def test_bulk_rows_replay_numpy_choice_and_state(self, seed, rows):
        # RL-SP's form: one row of probabilities per block, all uniforms
        # in one draw, each row's draw the count of its cdf entries <= u.
        probs = np.array(rows)
        ours, numpy_ = _same_rng(seed)
        expected = [int(numpy_.choice(len(row), p=row)) for row in probs]
        u = ours.random(len(rows))
        assert (choice_cdf(probs) <= u[:, np.newaxis]).sum(axis=1).tolist() == expected
        assert ours.bit_generator.state == numpy_.bit_generator.state


class TestDecodeSwarm:
    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 20), particles=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1.0, 3.0, 1e3]))
    def test_matches_per_particle_decode(self, n, particles, seed, scale):
        # Keys leave [0, 1) as particles fly: negative and > 1 included.
        positions = np.random.default_rng(seed).normal(0.5, scale, size=(particles, 3 * n))
        assert decode_swarm(positions, n) == [
            decode_keys_reference(positions[p], n) for p in range(particles)
        ]


class TestMoves:
    @pytest.mark.parametrize("n", [1, 2, 3, 9, 17])
    def test_random_neighbor_matches_reference(self, n):
        for seed in range(20):
            ours, ref = _same_rng(seed)
            pair = SequencePair.random(n, NUM_SHAPES, ours)
            SequencePair.random(n, NUM_SHAPES, ref)
            for _ in range(30):
                expected = random_neighbor_reference(pair, NUM_SHAPES, ref)
                pair = random_neighbor(pair, NUM_SHAPES, ours)
                assert pair == expected
                assert hash(pair) == hash(expected)
                assert ours.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("move", range(4))
    def test_apply_move_matches_reference(self, move):
        for seed in range(30):
            ours, ref = _same_rng(seed)
            pair = SequencePair.random(8, NUM_SHAPES, np.random.default_rng(100 + seed))
            assert apply_move(pair, move, NUM_SHAPES, ours) == apply_move_reference(
                pair, move, ref
            )
            assert ours.bit_generator.state == ref.bit_generator.state


class TestEvaluatorGolden:
    @pytest.mark.parametrize("name", available_circuits())
    def test_pair_evaluator_matches_numpy_reference(self, name):
        circuit = get_circuit(name)
        sizes = inflated_shapes(circuit)
        rng = np.random.default_rng(7)
        for target in (None, 1.0, 2.5):
            evaluate = pair_evaluator(circuit, sizes, target_aspect=target)
            for _ in range(20):
                pair = SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng)
                assert evaluate(pair) == evaluate_coords_reference(
                    circuit, *pack_arrays_reference(pair, sizes), target_aspect=target
                )

    @pytest.mark.parametrize("name", ["ota1", "rs_latch", "bias2", "driver"])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), target=st.sampled_from([None, 1.0]))
    def test_placement_scorer_matches_numpy_reference(self, name, data, target):
        # Centres off the packer's grid: equal, negative and signed-zero
        # ones, where a two-pin net's abs(a - b) must still be max - min.
        circuit = get_circuit(name)
        n = circuit.num_blocks
        value = st.one_of(st.sampled_from([0.0, -0.0, 1.5, -1.5, 7.25]),
                          st.floats(-1e3, 1e3, allow_subnormal=False))
        cx = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        cy = np.array(data.draw(st.lists(value, min_size=n, max_size=n)))
        # Widths of -0.0 keep x + w / 2.0 == x bit for bit, signed zeros too.
        w = np.full(n, -0.0)
        width = float((cx + w).max()) - float(cx.min())
        height = float((cy + w).max()) - float(cy.min())
        score = placement_scorer(circuit, target_aspect=target)
        assert score(cx.tolist(), cy.tolist(), width, height) == evaluate_coords_reference(
            circuit, cx, cy, w, w, target_aspect=target
        )

    def test_pack_population_stacks_pack_coords(self):
        circuit = get_circuit("driver")
        sizes = inflated_shapes(circuit)
        rng = np.random.default_rng(3)
        pairs = [SequencePair.random(circuit.num_blocks, NUM_SHAPES, rng) for _ in range(6)]
        stacked = pack_population(pairs, sizes)
        for k, column in enumerate(stacked):
            assert column.shape == (6, circuit.num_blocks)
            assert np.array_equal(column, np.array([pack_coords(p, sizes)[k] for p in pairs]))

    def test_memo_returns_the_evaluated_cost(self):
        circuit = get_circuit("ota1")
        evaluate = pair_evaluator(circuit, inflated_shapes(circuit))
        cost_of, memo = memoized_cost(evaluate)
        pair = SequencePair.random(circuit.num_blocks, NUM_SHAPES, np.random.default_rng(0))
        assert cost_of(pair) == -evaluate(pair)[3]
        assert cost_of(SequencePair(pair.gamma_plus, pair.gamma_minus, pair.shapes)) == memo[pair]
        assert len(memo) == 1


@contextmanager
def _generators():
    """Collect every generator ``np.random.default_rng`` makes inside."""
    made = []
    real = np.random.default_rng

    def spy(*args, **kwargs):
        made.append(real(*args, **kwargs))
        return made[-1]

    with mock.patch.object(np.random, "default_rng", spy):
        yield made


def _run_with_states(run, circuit, config, target):
    """``run``'s result and the final state of each generator it made."""
    with _generators() as made:
        result = run(circuit, config, target_aspect=target)
    return result, [g.bit_generator.state for g in made]


def _assert_same_result(ours, ref):
    assert ours.rects == ref.rects
    for field in ("area", "hpwl", "dead_space", "reward"):
        assert getattr(ours, field) == getattr(ref, field)
        assert type(getattr(ours, field)) is type(getattr(ref, field))
    extra = {k: v for k, v in ours.extra.items() if k != "cost_cache_hits"}
    assert extra == ref.extra


def _assert_same_run(run, reference, circuit, config, target):
    ours, our_states = _run_with_states(run, circuit, config, target)
    ref, ref_states = _run_with_states(reference, circuit, config, target)
    _assert_same_result(ours, ref)
    assert len(our_states) == 1
    assert our_states == ref_states


_RUNS = {
    "sa": (simulated_annealing, sa_reference,
           lambda seed: SAConfig(moves_per_temperature=3, seed=seed)),
    "rl-sa": (rl_simulated_annealing, rl_sa_reference,
              lambda seed: RLSAConfig(moves_per_temperature=3, seed=seed)),
    "ga": (genetic_algorithm, ga_reference,
           lambda seed: GAConfig(population=8, generations=4, seed=seed)),
    "pso": (particle_swarm, pso_reference,
            lambda seed: PSOConfig(particles=6, iterations=5, seed=seed)),
    "rl-sp": (rl_sequence_pair, rl_sp_reference,
              lambda seed: RLSPConfig(iterations=6, batch=4, seed=seed)),
}


class TestBaselinesBitIdentical:
    @pytest.mark.parametrize("method", sorted(_RUNS))
    @pytest.mark.parametrize("name", available_circuits())
    def test_matches_reference_loop(self, method, name):
        run, reference, make_config = _RUNS[method]
        circuit = get_circuit(name)
        for seed in (0, 1, 2):
            for target in (None, 1.0):
                _assert_same_run(run, reference, circuit, make_config(seed), target)

    @pytest.mark.parametrize("method, config", [
        ("pso", PSOConfig()),
        ("rl-sp", RLSPConfig()),
        # The Fig. 1 pipeline's floorplanner: thousands of replayed draws.
        ("sa", SAConfig(moves_per_temperature=25, seed=0)),
        ("ga", GAConfig()),
        ("rl-sa", RLSAConfig()),
        # perfbench sweep's budgets (tournament of 3 in a population of 30).
        ("ga", GAConfig(population=30, generations=20)),
        ("rl-sa", RLSAConfig(moves_per_temperature=10)),
    ])
    def test_default_budget_matches_reference_loop(self, method, config):
        # Long runs drive the shape distributions towards one-hot rows and
        # the particles far outside [0, 1): the corners of both replays.
        run, reference, _ = _RUNS[method]
        for name in available_circuits():
            _assert_same_run(run, reference, get_circuit(name), config, None)


class TestCostCacheHits:
    @pytest.mark.parametrize("run, config", [
        (simulated_annealing, SAConfig(moves_per_temperature=6, seed=2)),
        (rl_simulated_annealing, RLSAConfig(moves_per_temperature=6, seed=2)),
    ])
    def test_hits_count_revisited_candidates(self, run, config):
        # ota_small has 3 blocks: a few hundred moves must revisit.
        result = run(get_circuit("ota_small"), config)
        extra = result.extra
        evaluations = extra["evaluations"] if "evaluations" in extra else sum(extra["move_counts"]) + 1
        assert 0 < extra["cost_cache_hits"] < evaluations

    def test_published_only_with_telemetry(self):
        circuit = get_circuit("ota_small")
        config = SAConfig(moves_per_temperature=6, seed=2)
        with obs.enabled_scope():
            result = simulated_annealing(circuit, config)
            counters = obs.OBS.registry.snapshot()["counters"]
        assert counters["baseline.cost_cache_hits"] == result.extra["cost_cache_hits"]
        obs.reset()
        simulated_annealing(circuit, config)
        assert "baseline.cost_cache_hits" not in obs.OBS.registry.snapshot()["counters"]
