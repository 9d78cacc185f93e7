"""Analysis tools: statistics, fits, tables, reports, livelock and
worst-case search.  Experiments execute through :mod:`repro.campaign`."""

from repro.analysis.livelock import (
    DetectedCycle,
    GreedyLivelock,
    detect_cycle,
    find_greedy_cycle,
    greedy_successors,
)
from repro.analysis.regression import (
    PowerLawFit,
    TwoFactorFit,
    fit_power_law,
    fit_two_factor,
)
from repro.analysis.reporting import (
    ExperimentBlock,
    build_report,
    load_results,
    parse_block,
    write_report,
)
from repro.analysis.stats import (
    Summary,
    confidence_interval,
    geometric_mean,
    ratio_summary,
    summarize,
)
from repro.analysis.worst_case import (
    WorstCaseResult,
    search_with_restarts,
    search_worst_permutation,
)
from repro.analysis.tables import (
    format_cell,
    format_markdown_table,
    format_table,
)

__all__ = [
    "DetectedCycle",
    "ExperimentBlock",
    "GreedyLivelock",
    "PowerLawFit",
    "Summary",
    "TwoFactorFit",
    "WorstCaseResult",
    "build_report",
    "confidence_interval",
    "detect_cycle",
    "find_greedy_cycle",
    "fit_power_law",
    "fit_two_factor",
    "format_cell",
    "format_markdown_table",
    "format_table",
    "geometric_mean",
    "greedy_successors",
    "load_results",
    "parse_block",
    "ratio_summary",
    "search_with_restarts",
    "search_worst_permutation",
    "summarize",
    "write_report",
]
