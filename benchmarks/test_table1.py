"""Benchmark regenerating paper Table I.

Runs all nine methods on the six evaluation circuits and prints the
IQM±std grid (runtime, dead space, HPWL, reward); the saved
``results/table1.txt`` omits the runtime column.  Shape checks (who wins,
relative runtimes) are asserted; absolute numbers differ from the paper by
design (CPU-scale training, synthetic circuits).
"""

import pytest

from _util import check, save_artifact

from repro.experiments.table1 import (
    METHOD_ORDER,
    best_method_by_reward,
    format_table1,
    run_table1,
)


@pytest.fixture(scope="module")
def table1_cells(shared_agent, table1_scale):
    return run_table1(scale=table1_scale, agent=shared_agent)


def test_table1_full_grid(benchmark, table1_cells):
    """Print and save the full Table I grid (computed once, by the fixture)."""

    def body():
        print("\n" + format_table1(table1_cells))
        path = save_artifact("table1", format_table1(table1_cells, timings=False))
        print(f"\n[saved to {path}]")
        # Grid completeness: 6 circuits x 9 methods.
        assert len(table1_cells) == 6 * len(METHOD_ORDER)

    check(benchmark, body)


class TestTable1Shape:
    """Paper-shape assertions on the regenerated table."""

    def test_zero_shot_runtime_beats_metaheuristics(self, benchmark, table1_cells):
        """Paper: 0-shot inference (0.06-0.34 s) is far cheaper than any
        search-based method on every circuit."""

        def body():
            for circuit in {c.circuit for c in table1_cells}:
                group = [c for c in table1_cells if c.circuit == circuit]
                zero = next(c for c in group if c.method == "R-GCN RL 0-shot")
                for method in ("SA", "GA", "PSO", "RL [13]"):
                    other = next(c for c in group if c.method == method)
                    assert zero.runtime[0] < other.runtime[0], (
                        f"{circuit}: 0-shot {zero.runtime[0]:.2f}s not faster "
                        f"than {method} {other.runtime[0]:.2f}s"
                    )

        check(benchmark, body)

    def test_fine_tuning_runtime_grows_with_shots(self, benchmark, table1_cells):
        """Paper: 1000-shot costs more runtime than 1-shot everywhere."""

        def body():
            for circuit in {c.circuit for c in table1_cells}:
                group = {c.method: c for c in table1_cells if c.circuit == circuit}
                assert (group["R-GCN RL 1000-shot"].runtime[0]
                        > group["R-GCN RL 1-shot"].runtime[0])

        check(benchmark, body)

    def test_fine_tuning_improves_over_zero_shot(self, benchmark, table1_cells):
        """Paper: few-shot fine-tuning improves results over the zero-shot
        model for the same number of iterations.

        This is the reward-ordering claim a CPU-scale budget can support:
        the best fine-tuned column must beat 0-shot on a majority of
        circuits.  Full reward parity with metaheuristics needs the
        paper's 12.7 GPU-hour curriculum (see EXPERIMENTS.md); the
        measured RL-vs-baseline gap is printed for the record."""

        def body():
            circuits = list(dict.fromkeys(c.circuit for c in table1_cells))
            improved = 0
            print("\ncircuit      0-shot     best tuned   best baseline")
            for circuit in circuits:
                group = {c.method: c for c in table1_cells if c.circuit == circuit}
                zero = group["R-GCN RL 0-shot"].reward[0]
                tuned = max(
                    group[m].reward[0] for m in METHOD_ORDER
                    if m.startswith("R-GCN") and m != "R-GCN RL 0-shot"
                )
                baseline = max(
                    group[m].reward[0]
                    for m in ("SA", "GA", "PSO", "RL-SA [13]", "RL [13]")
                )
                print(f"{circuit:<12} {zero:8.2f}   {tuned:10.2f}   {baseline:12.2f}")
                if tuned > zero:
                    improved += 1
            assert improved > len(circuits) // 2, (
                f"fine-tuning improved reward on only {improved}/{len(circuits)}"
            )

        check(benchmark, body)

    def test_all_methods_produce_legal_floorplans(self, benchmark, table1_cells):
        def body():
            for cell in table1_cells:
                assert 0 <= cell.dead_space[0] < 100
                assert cell.hpwl[0] > 0

        check(benchmark, body)

    def test_report_best_method_per_circuit(self, benchmark, table1_cells):
        def body():
            print("\nBest method by reward per circuit:")
            for circuit in dict.fromkeys(c.circuit for c in table1_cells):
                print(f"  {circuit:<10} {best_method_by_reward(table1_cells, circuit)}")

        check(benchmark, body)
