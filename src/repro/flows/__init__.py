"""End-to-end synthesis flows and method-comparison harnesses."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.flows.synthesis": (
            "MATRIX_METHODS",
            "SYNTHESIS_METHODS",
            "FlowResult",
            "SynthesisResult",
            "synthesize",
        ),
        "repro.flows.compare": (
            "ComparisonRow",
            "compare_methods",
            "improvement_pct",
            "rows_from_records",
        ),
    },
)


__all__ = [
    "MATRIX_METHODS",
    "SYNTHESIS_METHODS",
    "FlowResult",
    "SynthesisResult",
    "synthesize",
    "ComparisonRow",
    "compare_methods",
    "improvement_pct",
    "rows_from_records",
]
