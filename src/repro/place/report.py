"""Placement reports: what physical design did and what it cost.

The report carries the geometric view (fabric, utilization, wirelength,
congestion hotspots), the refinement view (annealing move statistics) and
the timing view (zero-wire pre-place critical delay against the wire-aware
post-place one).
Float fields are rounded at construction sites so serialized reports are
deterministic bytes for the golden and determinism harnesses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.utils.tables import TextTable


@dataclass
class PlaceReport:
    """Everything one :func:`repro.place.place_netlist` run produced."""

    fabric_rows: int
    fabric_cols: int
    sites_used: int
    seed: int
    iters: int
    moves: int = 0
    accepted: int = 0
    initial_hpwl: float = 0.0
    total_hpwl: float = 0.0
    congestion: List[Dict[str, object]] = field(default_factory=list)
    pre_place_delay_ns: Optional[float] = None
    post_place_delay_ns: Optional[float] = None
    validation_findings: int = 0
    elapsed_s: float = 0.0

    @property
    def sites_total(self) -> int:
        return self.fabric_rows * self.fabric_cols

    @property
    def utilization(self) -> float:
        """Fraction of fabric sites covered by cell footprints."""
        if self.sites_total == 0:
            return 0.0
        return self.sites_used / self.sites_total

    def to_dict(self) -> Dict[str, object]:
        """JSON-able record for artifacts, cache entries and CLI ``--json``.

        Deliberately excludes ``elapsed_s``: records must be deterministic
        bytes (cache round-trips and the determinism/golden harnesses
        byte-compare them); wall time lives in spans and benchmarks.
        """
        return {
            "fabric_rows": self.fabric_rows,
            "fabric_cols": self.fabric_cols,
            "sites_total": self.sites_total,
            "sites_used": self.sites_used,
            "utilization": round(self.utilization, 6),
            "seed": self.seed,
            "iters": self.iters,
            "moves": self.moves,
            "accepted": self.accepted,
            "initial_hpwl": round(self.initial_hpwl, 6),
            "total_hpwl": round(self.total_hpwl, 6),
            "congestion": [dict(entry) for entry in self.congestion],
            "pre_place_delay_ns": self.pre_place_delay_ns,
            "post_place_delay_ns": self.post_place_delay_ns,
            "validation_findings": self.validation_findings,
        }

    def render(self) -> str:
        """Human-readable report: geometry, wirelength and timing."""
        table = TextTable(["metric", "value"])
        table.add_row(["fabric", f"{self.fabric_rows}x{self.fabric_cols} sites"])
        table.add_row(["utilization", f"{self.utilization:.1%}"])
        table.add_row(
            ["hpwl", f"{self.initial_hpwl:.1f} -> {self.total_hpwl:.1f} sites"]
        )
        table.add_row(["moves", f"{self.accepted}/{self.moves} accepted"])
        if self.pre_place_delay_ns is not None and self.post_place_delay_ns is not None:
            table.add_row(
                [
                    "critical delay",
                    f"{self.pre_place_delay_ns:.3f} -> "
                    f"{self.post_place_delay_ns:.3f} ns (wire-aware)",
                ]
            )
        lines = [table.render(title="Placement")]
        if self.congestion:
            hotspots = ", ".join(
                f"bin({entry['row_bin']},{entry['col_bin']})={entry['crossings']}"
                for entry in self.congestion
            )
            lines.append(f"congestion hotspots: {hotspots}")
        status = "ok" if self.validation_findings == 0 else "FAILED"
        lines.append(f"placement validation: {status} ({self.validation_findings} finding(s))")
        return "\n".join(lines)
