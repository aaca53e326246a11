"""The ``-O`` levels, importable without loading the rewrite passes."""

#: the supported ``-O`` levels
OPT_LEVELS = (0, 1, 2)

#: one-line description of the levels, shared by the CLI flag help and the
#: :class:`repro.api.FlowConfig` field metadata (single source of truth)
OPT_LEVEL_HELP = (
    "netlist optimization level: 0 = as built (paper protocol), "
    "1 = safe cleanups, 2 = full pipeline (always equivalence-checked)"
)
