"""Dispatch cost of description-driven specs vs pickled models.

The spec refactor's perf claim, recorded to ``BENCH_6.json``: shipping a
:class:`~repro.spec.SolvePointSpec`-style description to a process worker
is **no slower** than pickling the built :class:`~repro.model.Model`, and
the payload is several times smaller.  The fair accounting is end to end —
the model must be *built* somewhere either way — so the two dispatch
recipes compared per Table I problem are:

- **model path**: build in the parent, pickle the object graph across the
  boundary, unpickle worker-side;
- **spec path**: pickle the spec across the boundary, unpickle, rebuild
  through the builder registry worker-side.

Both produce a solvable model; the spec path just moves the build to the
worker and ships ~4x fewer bytes.  A third suite times the real thing — a
what-if ladder fanned out on the supervised process pool, which ships
specs since the refactor — and checks it returns the serial sweep's exact
results.
"""

from __future__ import annotations

import json
import pickle
import time
from pathlib import Path

from conftest import run_once
from repro.analysis.whatif import solve_layout_points
from repro.cesm import ComponentId, Layout, make_case
from repro.hslb import (
    HSLBPipeline,
    build_layout_model_from_spec,
    layout_model_for_case,
    layout_problem_spec_for_case,
)
from repro.spec.schema import canonical_json

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

SIZES = (128, 120, 112)
LAYOUTS = (Layout.HYBRID, Layout.SEQUENTIAL_SPLIT, Layout.FULLY_SEQUENTIAL)
REPS = 100                   # per-problem repetitions for stable timings
MIN_SIZE_REDUCTION = 2.0     # spec pickle must be >= 2x smaller than model pickle
MAX_SLOWDOWN = 1.10          # "no slower", with timer-noise headroom
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_6.json"


def record(suite: str, payload: dict) -> None:
    """Merge one suite's numbers into BENCH_6.json."""
    data = json.loads(BENCH_JSON.read_text()) if BENCH_JSON.exists() else {}
    data[suite] = payload
    BENCH_JSON.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def calibrated():
    case = make_case("1deg", max(SIZES), seed=0)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    perf = {c: f.model for c, f in fits.items()}
    bounds = {c: case.component_bounds(c) for c in (A, O, I, L)}
    return case, fits, perf, bounds, case.ocean_allowed()


def bench_dispatch():
    case, fits, *_ = calibrated()
    rows = []
    for layout in LAYOUTS:
        spec = layout_problem_spec_for_case(case, fits, layout=layout)
        t0 = time.perf_counter()
        for _ in range(REPS):
            model = layout_model_for_case(case, fits, layout=layout)
            pickle.loads(pickle.dumps(model))
        t_model = (time.perf_counter() - t0) / REPS
        t0 = time.perf_counter()
        for _ in range(REPS):
            build_layout_model_from_spec(pickle.loads(pickle.dumps(spec)))
        t_spec = (time.perf_counter() - t0) / REPS
        rows.append(
            {
                "layout": layout.name,
                "model_path_ms": round(t_model * 1e3, 4),
                "spec_path_ms": round(t_spec * 1e3, 4),
                "ratio": round(t_spec / t_model, 3),
            }
        )
    return rows


def test_spec_dispatch_no_slower_than_model_pickling(benchmark, report):
    rows = run_once(benchmark, bench_dispatch)
    record("dispatch", {"reps": REPS, "rows": rows})
    for row in rows:
        report(
            f"{row['layout']:>16}: ship model {row['model_path_ms']:.3f} ms, "
            f"ship spec {row['spec_path_ms']:.3f} ms "
            f"({row['ratio']:.2f}x)"
        )
        assert row["ratio"] <= MAX_SLOWDOWN, (
            f"{row['layout']}: spec dispatch {row['ratio']:.2f}x the model "
            f"path (gate {MAX_SLOWDOWN}x)"
        )


def bench_payload_sizes():
    case, fits, *_ = calibrated()
    rows = []
    for layout in LAYOUTS:
        spec = layout_problem_spec_for_case(case, fits, layout=layout)
        model = layout_model_for_case(case, fits, layout=layout)
        rows.append(
            {
                "layout": layout.name,
                "model_pickle_bytes": len(pickle.dumps(model)),
                "spec_pickle_bytes": len(pickle.dumps(spec)),
                "spec_json_bytes": len(canonical_json(spec.to_dict()).encode()),
            }
        )
    return rows


def test_spec_payloads_are_smaller(benchmark, report):
    rows = run_once(benchmark, bench_payload_sizes)
    record("payload", {"rows": rows})
    for row in rows:
        reduction = row["model_pickle_bytes"] / row["spec_pickle_bytes"]
        report(
            f"{row['layout']:>16}: model pickle {row['model_pickle_bytes']} B, "
            f"spec pickle {row['spec_pickle_bytes']} B "
            f"({reduction:.1f}x smaller), canonical JSON "
            f"{row['spec_json_bytes']} B"
        )
        assert reduction >= MIN_SIZE_REDUCTION, (
            f"{row['layout']}: payload reduction {reduction:.1f}x "
            f"< {MIN_SIZE_REDUCTION}x"
        )


def bench_process_sweep():
    _, _, perf, bounds, ocn = calibrated()
    kwargs = dict(
        layout=Layout.HYBRID, ocn_allowed=ocn, method="lpnlp", reuse=False
    )
    t0 = time.perf_counter()
    serial = solve_layout_points(perf, bounds, SIZES, **kwargs)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    shipped = solve_layout_points(
        perf, bounds, SIZES, executor="supervised", workers=2, **kwargs
    )
    t_process = time.perf_counter() - t0
    return serial, shipped, t_serial, t_process


def test_process_sweep_ships_specs_and_matches(benchmark, report):
    serial, shipped, t_serial, t_process = run_once(benchmark, bench_process_sweep)
    record(
        "process_sweep",
        {
            "sizes": list(SIZES),
            "serial_s": round(t_serial, 3),
            "process_2_workers_s": round(t_process, 3),
        },
    )
    report(
        f"what-if ladder {SIZES}: serial {t_serial:.2f} s, "
        f"2 process workers {t_process:.2f} s (spec-shipping dispatch)"
    )
    for s, p in zip(serial, shipped):
        assert p.makespan.hex() == s.makespan.hex(), s.total_nodes
        assert p.allocation == s.allocation, s.total_nodes
        assert p.solver_result.nodes == s.solver_result.nodes, s.total_nodes
