"""Experiment harnesses regenerating every paper table and figure."""

from .figures import (
    Fig3Result,
    Fig5Result,
    Fig7Result,
    render_mask_ascii,
    run_fig3,
    run_fig5,
    run_fig7,
)
from .stats import format_cell, interquartile_mean, iqm_and_std
from .table1 import (
    METHOD_ORDER,
    Table1Cell,
    Table1Scale,
    best_method_by_reward,
    format_table1,
    run_table1,
    train_shared_agent,
)
from .table2 import (
    MANUAL_HOURS,
    Table2Row,
    format_table2,
    run_table2,
)

__all__ = [
    "Fig3Result",
    "Fig5Result",
    "Fig7Result",
    "MANUAL_HOURS",
    "METHOD_ORDER",
    "Table1Cell",
    "Table1Scale",
    "Table2Row",
    "best_method_by_reward",
    "format_cell",
    "format_table1",
    "format_table2",
    "interquartile_mean",
    "iqm_and_std",
    "render_mask_ascii",
    "run_fig3",
    "run_fig5",
    "run_fig7",
    "run_table1",
    "run_table2",
    "train_shared_agent",
]
