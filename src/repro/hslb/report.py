"""Table III-style text reporting."""

from __future__ import annotations

from repro.cesm.components import OPTIMIZED_COMPONENTS
from repro.util.tables import TextTable


def format_table3_block(
    title: str,
    manual: dict | None,
    manual_times: dict | None,
    predicted_nodes: dict,
    predicted_times: dict,
    actual_times: dict | None,
    manual_total: float | None = None,
    predicted_total: float | None = None,
    actual_total: float | None = None,
) -> str:
    """One block of the paper's Table III as aligned text.

    ``manual*`` columns are optional (the unconstrained-ocean entries of the
    paper's table have no manual column either).
    """
    headers = ["components"]
    if manual is not None:
        headers += ["manual # nodes", "manual time, sec"]
    headers += ["HSLB # nodes", "HSLB predicted, sec"]
    if actual_times is not None:
        headers += ["HSLB actual, sec"]

    table = TextTable(headers, title=title)
    for comp in OPTIMIZED_COMPONENTS:
        row = [comp.value]
        if manual is not None:
            row += [manual[comp], manual_times[comp]]
        row += [predicted_nodes[comp], predicted_times[comp]]
        if actual_times is not None:
            row += [actual_times[comp]]
        table.add_row(row)

    total_row = ["Total time, sec"]
    if manual is not None:
        total_row += ["", manual_total if manual_total is not None else ""]
    total_row += ["", predicted_total if predicted_total is not None else ""]
    if actual_times is not None:
        total_row += [actual_total if actual_total is not None else ""]
    table.add_row(total_row)
    return table.render()


def format_run_result(result) -> str:
    """Render an :class:`~repro.hslb.pipeline.HSLBRunResult`."""
    case = result.case
    title = (
        f"{case.resolution} resolution, {case.total_nodes} nodes, "
        f"layout ({case.layout.value})"
        + (", unconstrained ocean nodes" if case.unconstrained_ocean else "")
    )
    block = format_table3_block(
        title=title,
        manual=None,
        manual_times=None,
        predicted_nodes=result.allocation,
        predicted_times=result.solve.predicted_times,
        actual_times=result.actual.times,
        predicted_total=result.predicted_total,
        actual_total=result.actual_total,
    )
    events = getattr(result, "events", None)
    if events:
        block += "\n\n" + events.summary()
    solver_result = getattr(result.solve, "solver_result", None)
    reuse_line = format_reuse_counters(
        getattr(solver_result, "reuse_counters", None)
    )
    if reuse_line:
        block += "\n" + reuse_line
    return block


#: Counter key -> human label, in display order.  Keys the solvers don't
#: emit for a given run simply don't appear.
_REUSE_LABELS = (
    ("cuts_carried", "cuts carried"),
    ("cuts_deduped", "cuts deduped"),
    ("seed_nlp_skipped", "seed NLPs skipped"),
    ("incumbent_seeded", "incumbents seeded"),
    ("incumbent_rejected", "incumbents rejected"),
    ("basis_reused", "bases reused"),
    ("pseudocost_entries", "pseudocost entries carried"),
)


def format_reuse_counters(counters: dict | None) -> str:
    """One-line summary of a solve's cross-solve reuse counters.

    Empty string when the solve ran cold (no counters), so callers can
    append the result unconditionally.
    """
    if not counters:
        return ""
    parts = [
        f"{label} {counters[key]}"
        for key, label in _REUSE_LABELS
        if key in counters
    ]
    for key in sorted(counters):
        if not any(key == k for k, _ in _REUSE_LABELS):
            parts.append(f"{key} {counters[key]}")
    return "reuse: " + ", ".join(parts)
