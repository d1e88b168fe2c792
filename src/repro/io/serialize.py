"""JSON (de)serialization for benchmark data, fits, run results and specs.

Every payload carries a ``format`` tag plus a ``schema_version`` field
(see :mod:`repro.spec.schema`): loaders validate both and reject files
written by a *newer* library version with a clear error instead of a
``KeyError`` three layers down.  Everything is plain JSON so the artifacts
diff and archive cleanly next to a case's run scripts.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.cesm.components import ComponentId
from repro.exceptions import ConfigurationError
from repro.fitting.perfmodel import PerfModel
from repro.hslb.gather import BenchmarkData
from repro.spec.schema import check_schema, spec_key, stamp


# -- benchmark data --------------------------------------------------------------


def benchmark_data_to_dict(data: BenchmarkData, meta: dict | None = None) -> dict:
    """Serializable form of a :class:`BenchmarkData`."""
    return stamp(
        {
            "meta": dict(meta or {}),
            "samples": {
                comp.value: {
                    "nodes": [int(v) for v in data.nodes(comp)],
                    "seconds": [float(v) for v in data.times(comp)],
                }
                for comp in data.components()
            },
        },
        "benchmarks",
    )


def benchmark_data_from_dict(payload: dict) -> BenchmarkData:
    check_schema(payload, "benchmarks")
    data = BenchmarkData()
    for key, block in payload["samples"].items():
        try:
            comp = ComponentId(key)
        except ValueError:
            raise ConfigurationError(f"unknown component {key!r}") from None
        nodes = block["nodes"]
        seconds = block["seconds"]
        if len(nodes) != len(seconds):
            raise ConfigurationError(f"{key}: nodes/seconds length mismatch")
        data.add(comp, nodes, seconds)
    return data


def save_benchmarks(path, data: BenchmarkData, meta: dict | None = None) -> None:
    """Write benchmark samples as JSON."""
    Path(path).write_text(
        json.dumps(benchmark_data_to_dict(data, meta), indent=2, sort_keys=True)
    )


def load_benchmarks(path) -> BenchmarkData:
    """Read benchmark samples written by :func:`save_benchmarks`."""
    return benchmark_data_from_dict(json.loads(Path(path).read_text()))


# -- fitted models -----------------------------------------------------------------


def fits_to_dict(fits: dict, meta: dict | None = None) -> dict:
    """Serializable form of ``{ComponentId: FitResult | PerfModel}``."""
    out = stamp({"meta": dict(meta or {}), "models": {}}, "fits")
    for comp, fit in fits.items():
        model = fit.model if hasattr(fit, "model") else fit
        entry = {"a": model.a, "b": model.b, "c": model.c, "d": model.d}
        if hasattr(fit, "diagnostics"):
            entry["r_squared"] = fit.diagnostics.r_squared
            entry["rmse"] = fit.diagnostics.rmse
        out["models"][comp.value] = entry
    return out


def fits_from_dict(payload: dict) -> dict:
    """Load ``{ComponentId: PerfModel}`` (diagnostics are not round-tripped)."""
    check_schema(payload, "fits")
    out = {}
    for key, entry in payload["models"].items():
        try:
            comp = ComponentId(key)
        except ValueError:
            raise ConfigurationError(f"unknown component {key!r}") from None
        out[comp] = PerfModel(
            a=float(entry["a"]),
            b=float(entry["b"]),
            c=float(entry["c"]),
            d=float(entry["d"]),
        )
    return out


def save_fits(path, fits: dict, meta: dict | None = None) -> None:
    Path(path).write_text(json.dumps(fits_to_dict(fits, meta), indent=2, sort_keys=True))


def load_fits(path) -> dict:
    return fits_from_dict(json.loads(Path(path).read_text()))


# -- run results ---------------------------------------------------------------------


def run_result_to_dict(result) -> dict:
    """Flatten an :class:`~repro.hslb.pipeline.HSLBRunResult` for archiving."""
    case = result.case
    events = getattr(result, "events", None)
    return stamp(
        {
            "case": {
                "resolution": case.resolution,
                "total_nodes": case.total_nodes,
                "layout": case.layout.value,
                "unconstrained_ocean": case.unconstrained_ocean,
                "seed": case.seed,
            },
            "allocation": {c.value: int(n) for c, n in result.allocation.items()},
            "predicted_times": {
                c.value: float(t) for c, t in result.solve.predicted_times.items()
            },
            "predicted_total": float(result.predicted_total),
            "actual_times": {c.value: float(t) for c, t in result.actual.times.items()},
            "actual_total": float(result.actual_total),
            "fit_r_squared": {
                c.value: float(v) for c, v in result.fit_r_squared().items()
            },
            "events": events.to_list() if events is not None else [],
        },
        "run",
    )


# -- problem specs -------------------------------------------------------------------


def save_spec(path, spec) -> None:
    """Write any :mod:`repro.spec` spec (TuneSpec, LayoutProblemSpec, ...)."""
    Path(path).write_text(spec.to_json(indent=2))


def load_spec(path):
    """Read a spec file back into its dataclass (dispatches on ``kind``)."""
    from repro.spec import spec_from_dict

    return spec_from_dict(json.loads(Path(path).read_text()))


# -- telemetry metric snapshots (JSONL) ----------------------------------------------


def metrics_snapshot_to_dict(snapshot: dict, meta: dict | None = None) -> dict:
    """One stamped telemetry snapshot (see ``MetricsRegistry.snapshot``)."""
    return stamp({"meta": dict(meta or {}), "metrics": dict(snapshot)}, "metrics")


def metrics_snapshot_from_dict(payload: dict) -> dict:
    """The snapshot back out of a stamped record (header validated)."""
    check_schema(payload, "metrics")
    metrics = payload.get("metrics")
    if not isinstance(metrics, dict):
        raise ConfigurationError("repro/metrics: 'metrics' must be an object")
    return metrics


def append_metrics(path, snapshot: dict, meta: dict | None = None) -> None:
    """Append one telemetry snapshot as a JSONL record.

    Snapshots accumulate one per line, so a long-running service can dump
    its registry periodically into a single scrape-history file that
    :func:`load_metrics` reads back as a time series.
    """
    record = json.dumps(
        metrics_snapshot_to_dict(snapshot, meta),
        sort_keys=True,
        separators=(",", ":"),
    )
    with Path(path).open("a") as handle:
        handle.write(record + "\n")


def load_metrics(path) -> list:
    """All snapshots from a JSONL file written by :func:`append_metrics`."""
    out = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if line:
            out.append(metrics_snapshot_from_dict(json.loads(line)))
    return out


# -- experiment cells (checkpoint/resume) --------------------------------------------


def experiment_cell_to_dict(cell_spec, rendered: str) -> dict:
    """One finished experiment cell: its spec, the spec's hash, its output."""
    payload = cell_spec.to_dict()
    return stamp(
        {"spec": payload, "spec_key": spec_key(payload), "rendered": str(rendered)},
        "experiment-cell",
    )


def experiment_cell_from_dict(payload: dict) -> tuple:
    """Returns ``(spec_payload, spec_key, rendered_text)``; validates the hash."""
    check_schema(payload, "experiment-cell")
    spec_payload = payload["spec"]
    recorded = payload["spec_key"]
    actual = spec_key(spec_payload)
    if recorded != actual:
        raise ConfigurationError(
            f"experiment cell is corrupt: recorded spec_key {recorded} "
            f"does not match its spec ({actual})"
        )
    return spec_payload, recorded, payload["rendered"]


def save_experiment_cell(path, cell_spec, rendered: str) -> None:
    Path(path).write_text(
        json.dumps(experiment_cell_to_dict(cell_spec, rendered), indent=2, sort_keys=True)
    )


def load_experiment_cell(path) -> tuple:
    return experiment_cell_from_dict(json.loads(Path(path).read_text()))
