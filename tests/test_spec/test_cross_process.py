"""Cross-process parity: specs shipped to process workers solve identically.

A what-if sweep fanned out to the supervised process pool ships
*specs* (pure JSON-serializable data rebuilt through the builder
registry), never pickled :class:`~repro.model.Model` objects, and every
worker's solve matches the serial run bit for bit — same makespan, same
allocation, same branch-and-bound node count.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.analysis import layout_point_specs, solve_layout_points
from repro.cesm import ComponentId, Layout, make_case
from repro.hslb import HSLBPipeline
from repro.reuse import SolveFamily
from repro.spec import SolvePointSpec

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

SIZES = (128, 120, 112)


@pytest.fixture(scope="module")
def calibrated():
    case = make_case("1deg", max(SIZES), seed=0)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    perf = {c: f.model for c, f in fits.items()}
    bounds = {c: case.component_bounds(c) for c in (A, O, I, L)}
    return perf, bounds, case.ocean_allowed()


def _assert_points_match(got, ref):
    for g, r in zip(got, ref, strict=True):
        assert g.total_nodes == r.total_nodes
        assert g.makespan.hex() == r.makespan.hex(), r.total_nodes
        assert g.allocation == r.allocation, r.total_nodes
        assert g.solver_result.nodes == r.solver_result.nodes, r.total_nodes


def test_sweep_payload_is_spec_not_model(calibrated):
    """What crosses the pool boundary is data: JSON-safe, model-free."""
    perf, bounds, ocn = calibrated
    specs = layout_point_specs(
        perf, bounds, SIZES, layout=Layout.HYBRID, ocn_allowed=ocn, method="lpnlp"
    )
    for spec in specs:
        assert isinstance(spec, SolvePointSpec)
        payload = spec.to_dict()
        json.dumps(payload, allow_nan=False)  # pure JSON, no live objects
        # Pickling the spec (what the supervised backend actually sends) is
        # tiny next to pickling a built Model with compiled expressions.
        assert len(pickle.dumps(spec)) < 2_000


@pytest.mark.parallel
def test_process_sweep_node_count_parity(calibrated):
    """Serial vs supervised-pool sweep: identical results, independent solves."""
    perf, bounds, ocn = calibrated
    kwargs = dict(
        layout=Layout.HYBRID, ocn_allowed=ocn, method="lpnlp", reuse=False
    )
    serial = solve_layout_points(perf, bounds, SIZES, **kwargs)
    shipped = solve_layout_points(
        perf, bounds, SIZES, executor="supervised", workers=2, **kwargs
    )
    _assert_points_match(shipped, serial)


@pytest.mark.parallel
def test_process_sweep_with_family_matches_serial(calibrated):
    """Reuse on: the family's delta merging keeps process runs bit-identical."""
    perf, bounds, ocn = calibrated
    kwargs = dict(layout=Layout.HYBRID, ocn_allowed=ocn, method="lpnlp")
    serial = solve_layout_points(perf, bounds, SIZES, reuse=SolveFamily(), **kwargs)
    shipped = solve_layout_points(
        perf, bounds, SIZES, reuse=SolveFamily(),
        executor="supervised", workers=2, **kwargs,
    )
    _assert_points_match(shipped, serial)
