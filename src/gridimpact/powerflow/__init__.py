"""Radial power flow: backward/forward sweep snapshot solver and QSTS driver."""

from .kernels import active_backend
from .solver import (
    PowerFlowSolution,
    QstsResult,
    SolverConfig,
    qsts_lines_csv,
    qsts_summary_csv,
    run_qsts,
    snapshot_csv,
    solve_snapshot,
    total_losses,
)

__all__ = [
    "active_backend",
    "SolverConfig",
    "PowerFlowSolution",
    "QstsResult",
    "solve_snapshot",
    "run_qsts",
    "total_losses",
    "snapshot_csv",
    "qsts_lines_csv",
    "qsts_summary_csv",
]
