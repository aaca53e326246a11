"""Multiplier macro styles, importable without loading the generators.

See :mod:`repro.baselines.multipliers` for what each style builds.
"""

MULTIPLIER_STYLES = ("wallace_cpa", "array")
