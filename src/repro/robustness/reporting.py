"""Shared report formatting for the fault/crash/rotation/chaos campaigns.

Every campaign ends the same way: a per-configuration detection matrix
(one row per scheme configuration, one column per counted outcome, a
caption describing the sweep) plus, on failure, a violation listing.
Before this module each campaign dataclass hand-rolled that layout;
now they all call :func:`format_detection_matrix`, so the four CLIs
(`faultcampaign`, `crashcampaign`, `repro rotate`'s sweep, and
`chaoscampaign`) render identically and a new campaign gets the house
style for free.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.analysis.report import format_table


def format_detection_matrix(
    columns: Sequence[str],
    per_config: Sequence[tuple[str, Sequence[Any]]],
    caption: str = "",
) -> str:
    """One campaign matrix: a ``configuration`` column followed by the
    outcome ``columns``, one row per ``(config label, values)`` pair."""
    rows = [[label, *values] for label, values in per_config]
    return format_table(["configuration", *columns], rows, caption=caption)


def sweep_caption(kind: str, detail: str, limit: int | None = None) -> str:
    """The shared caption shape: ``<kind> (<detail>, <limit> ...)``."""
    bound = "exhaustive" if limit is None else f"limit {limit}"
    return f"{kind} ({detail}, {bound} crash points per configuration)"
