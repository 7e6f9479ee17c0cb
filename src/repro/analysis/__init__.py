"""Analysis helpers: weight metrics, regression fits, dependence
probabilities, and the benchmark perf-history ledger."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.independence": (
        "ProbabilityEstimate", "column_event_holds",
        "estimate_simultaneous_probability", "sample_optimal_encodings",
    ),
    "repro.analysis.perfhistory": (
        "ComparisonReport", "MetricDelta", "compare_runs", "format_report",
        "read_history", "record_run",
    ),
    "repro.analysis.regression": ("LogFit", "fit_log2", "improvement_percent"),
    "repro.analysis.tables": ("format_percent", "format_table"),
    "repro.analysis.weights": (
        "RoutedCostComparison", "WeightComparison", "average_weight_per_majorana",
        "compare_hamiltonian_weight", "compare_routed_cost",
    ),
})

__all__ = [
    "ComparisonReport",
    "LogFit",
    "MetricDelta",
    "ProbabilityEstimate",
    "RoutedCostComparison",
    "WeightComparison",
    "average_weight_per_majorana",
    "column_event_holds",
    "compare_hamiltonian_weight",
    "compare_routed_cost",
    "compare_runs",
    "estimate_simultaneous_probability",
    "fit_log2",
    "format_percent",
    "format_report",
    "format_table",
    "improvement_percent",
    "read_history",
    "record_run",
    "sample_optimal_encodings",
]
