"""Wall-clock speedup of warm solve families over cold re-solves.

The reuse engine's perf claim (and its honesty conditions) in two suites,
both recorded to ``BENCH_5.json``:

1.  **What-if ladder.**  The Sec. IV-C optimal-job-size question re-solves
    the HYBRID layout MINLP down a budget ladder (2048 -> 128 nodes).  One
    warm :class:`SolveFamily` must be at least 2x faster than five cold
    solves while staying bit-identical with no per-member tree growth.
2.  **Table-I layout suite.**  The same ladder across all three paper
    layouts, one family per layout (curves are shared, so carried cuts
    re-tag across layouts but incumbents stay within each layout's
    channel).  Same 2x floor, same bit-identity and no-growth gates, plus
    the total branch-and-bound tree must shrink outright.

Both suites opt into the *full* feature set explicitly
(``SolveFamily(pseudocosts=False)`` — cut carry-over is what buys the 2x,
and it is validated for these fitted curves; carried pseudocosts are not,
at this spread).  The conservative ``reuse=True`` auto-configuration
(incumbent + basis only on wide ladders) is covered by the differential
tests, not benchmarked: its wins are real but under 2x.

Speedup here is real work avoided — fewer LP/NLP solves via carried cuts,
seeded incumbents, and warm bases — not latency simulation, so the ratios
are stable across machines.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from conftest import run_once
from repro.analysis.whatif import solve_layout_points
from repro.cesm import ComponentId, Layout, make_case
from repro.hslb import HSLBPipeline
from repro.reuse import SolveFamily

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

MIN_SPEEDUP = 2.0
LADDER = (2048, 1024, 512, 256, 128)
LAYOUTS = (Layout.HYBRID, Layout.SEQUENTIAL_SPLIT, Layout.FULLY_SEQUENTIAL)
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_5.json"


def calibrated():
    """Fitted 1-degree curves + bounds + allowed ocean counts (seed 0)."""
    case = make_case("1deg", 128, seed=0)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    perf = {c: f.model for c, f in fits.items()}
    bounds = {c: case.component_bounds(c) for c in (A, O, I, L)}
    return perf, bounds, case.ocean_allowed()


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def record(suite: str, payload: dict) -> None:
    """Merge one suite's numbers into BENCH_5.json."""
    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    data[suite] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _check_pair(cold, warm):
    """Bit-identity + no per-member tree growth; returns node-count pairs."""
    pairs = []
    for c, w in zip(cold, warm):
        assert w.makespan.hex() == c.makespan.hex(), c.total_nodes
        assert w.allocation == c.allocation, c.total_nodes
        assert w.solver_result.nodes <= c.solver_result.nodes, c.total_nodes
        pairs.append((c.solver_result.nodes, w.solver_result.nodes))
    return pairs


def bench_whatif_ladder():
    perf, bounds, ocn = calibrated()

    def ladder(reuse):
        return solve_layout_points(
            perf, bounds, LADDER, layout=Layout.HYBRID, ocn_allowed=ocn,
            method="lpnlp", reuse=reuse,
        )

    cold, t_cold = _timed(lambda: ladder(False))
    warm, t_warm = _timed(lambda: ladder(SolveFamily(pseudocosts=False)))
    return cold, warm, t_cold, t_warm


def test_whatif_ladder_speedup(benchmark, report):
    cold, warm, t_cold, t_warm = run_once(benchmark, bench_whatif_ladder)
    speedup = t_cold / t_warm
    pairs = _check_pair(cold, warm)
    report(
        f"what-if ladder (1deg HYBRID, N={list(LADDER)}): cold {t_cold:.2f} s, "
        f"warm family {t_warm:.2f} s ({speedup:.1f}x); "
        f"B&B nodes cold->warm {pairs}"
    )
    record("whatif_ladder", {
        "layout": "HYBRID",
        "method": "lpnlp",
        "family": "cuts+incumbent+basis (pseudocosts off)",
        "node_counts": list(LADDER),
        "cold_seconds": round(t_cold, 3),
        "warm_seconds": round(t_warm, 3),
        "speedup": round(speedup, 2),
        "bnb_nodes_cold": [c for c, _ in pairs],
        "bnb_nodes_warm": [w for _, w in pairs],
        "bit_identical": True,
    })
    assert speedup >= MIN_SPEEDUP, (
        f"ladder speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )


def bench_layout_suite():
    perf, bounds, ocn = calibrated()

    def suite(warm):
        return {
            layout: solve_layout_points(
                perf, bounds, LADDER, layout=layout, ocn_allowed=ocn,
                method="lpnlp",
                reuse=SolveFamily(pseudocosts=False) if warm else False,
            )
            for layout in LAYOUTS
        }

    cold, t_cold = _timed(lambda: suite(False))
    warm, t_warm = _timed(lambda: suite(True))
    return cold, warm, t_cold, t_warm


def test_layout_suite_speedup(benchmark, report):
    cold, warm, t_cold, t_warm = run_once(benchmark, bench_layout_suite)
    speedup = t_cold / t_warm
    by_layout = {
        layout.name: _check_pair(cold[layout], warm[layout])
        for layout in LAYOUTS
    }
    total_cold = sum(c for pairs in by_layout.values() for c, _ in pairs)
    total_warm = sum(w for pairs in by_layout.values() for _, w in pairs)
    report(
        f"Table-I layout suite (3 layouts x N={list(LADDER)}): "
        f"cold {t_cold:.2f} s, warm families {t_warm:.2f} s ({speedup:.1f}x); "
        f"total B&B nodes {total_cold} -> {total_warm}"
    )
    record("table_i_layout_suite", {
        "layouts": [layout.name for layout in LAYOUTS],
        "method": "lpnlp",
        "family": "cuts+incumbent+basis (pseudocosts off), one per layout",
        "node_counts": list(LADDER),
        "cold_seconds": round(t_cold, 3),
        "warm_seconds": round(t_warm, 3),
        "speedup": round(speedup, 2),
        "bnb_nodes_cold_total": total_cold,
        "bnb_nodes_warm_total": total_warm,
        "bnb_nodes_by_layout": {
            name: {"cold": [c for c, _ in pairs], "warm": [w for _, w in pairs]}
            for name, pairs in by_layout.items()
        },
        "bit_identical": True,
    })
    assert total_warm < total_cold
    assert speedup >= MIN_SPEEDUP, (
        f"layout-suite speedup {speedup:.2f}x < {MIN_SPEEDUP}x"
    )
