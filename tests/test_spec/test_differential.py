"""Differential battery: spec-built solves are bit-identical to in-memory ones.

The spec subsystem's whole contract (docs/specs.md): for every Table I
layout case, ``solve(build_from_spec(to_spec(problem)))`` matches the
in-memory solve bit for bit — same optimum down to the last float bit
(compared via ``.hex()``), same allocation, same branch-and-bound node
count — including with a :class:`~repro.reuse.SolveFamily` attached.
Every spec crosses a real serialization boundary here (``to_json`` ->
``from_json``) before the rebuild, so the battery also covers float
round-trip fidelity.
"""

from __future__ import annotations

import json

import pytest

from repro.cesm import ComponentId, Layout, make_case
from repro.hslb import (
    HSLBPipeline,
    build_layout_model_from_spec,
    layout_model_for_case,
    layout_problem_spec_for_case,
)
from repro.hslb.layout_models import VAR_NAMES
from repro.minlp import MINLPOptions, solve_lpnlp, solve_nlp_bnb
from repro.reuse import SolveFamily
from repro.spec import LayoutProblemSpec, TuneSpec, spec_from_json

A, O, I, L = ComponentId.ATM, ComponentId.OCN, ComponentId.ICE, ComponentId.LND

SIZES = (128, 120, 112)
LAYOUTS = (Layout.HYBRID, Layout.SEQUENTIAL_SPLIT, Layout.FULLY_SEQUENTIAL)
SOLVERS = {"lpnlp": solve_lpnlp, "bnb": solve_nlp_bnb}


@pytest.fixture(scope="module")
def calibrated():
    """One fitted 1-degree case reused by the whole battery (seed 0)."""
    case = make_case("1deg", max(SIZES), seed=0)
    pipeline = HSLBPipeline(case)
    fits = pipeline.fit(pipeline.gather())
    return case, fits


def _round_trip(spec: LayoutProblemSpec) -> LayoutProblemSpec:
    """Force a real serialization boundary and check structural identity."""
    shipped = LayoutProblemSpec.from_json(spec.to_json())
    assert shipped == spec
    assert shipped.spec_key() == spec.spec_key()
    # The generic loader dispatches to the same class.
    assert spec_from_json(spec.to_json()) == spec
    return shipped


def _assert_bit_identical(direct, rebuilt, solver):
    """Solve both models fresh and compare every bit that matters."""
    r_direct = solver(direct, MINLPOptions())
    r_rebuilt = solver(rebuilt, MINLPOptions())
    assert r_rebuilt.objective.hex() == r_direct.objective.hex()
    for comp in (I, L, A, O):
        name = VAR_NAMES[comp]
        assert r_rebuilt.solution[name].hex() == r_direct.solution[name].hex()
    assert r_rebuilt.nodes == r_direct.nodes
    assert r_rebuilt.cuts_added == r_direct.cuts_added
    return r_direct, r_rebuilt


@pytest.mark.parametrize("layout", LAYOUTS, ids=lambda v: v.name.lower())
@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_table1_layouts_bit_identical(calibrated, layout, method):
    case, fits = calibrated
    spec = layout_problem_spec_for_case(case, fits, layout=layout)
    direct = layout_model_for_case(case, fits, layout=layout)
    rebuilt = build_layout_model_from_spec(_round_trip(spec))
    _assert_bit_identical(direct, rebuilt, SOLVERS[method])


def test_spec_payload_is_pure_json(calibrated):
    """The shipped payload contains no live objects, only JSON scalars."""
    case, fits = calibrated
    spec = layout_problem_spec_for_case(case, fits)
    text = json.dumps(spec.to_dict(), allow_nan=False)  # raises on non-JSON
    assert "PerfModel" not in text and "Model" not in text


def test_dict_payload_builds_the_same_model(calibrated):
    """build_from_spec accepts the raw stamped dict, not just the dataclass."""
    case, fits = calibrated
    spec = layout_problem_spec_for_case(case, fits)
    from_payload = build_layout_model_from_spec(json.loads(spec.to_json()))
    direct = layout_model_for_case(case, fits)
    _assert_bit_identical(direct, from_payload, solve_lpnlp)


def test_ladder_with_reuse_family_bit_identical(calibrated):
    """A warm family over rebuilt specs matches one over in-memory models."""
    from dataclasses import replace

    case, fits = calibrated
    fam_direct, fam_spec = SolveFamily(), SolveFamily()
    for n in SIZES:
        sized = make_case("1deg", n, seed=0)
        spec = layout_problem_spec_for_case(sized, fits)
        direct = layout_model_for_case(sized, fits)
        rebuilt = build_layout_model_from_spec(_round_trip(spec))
        r_direct = solve_lpnlp(direct, replace(MINLPOptions(), reuse=fam_direct))
        r_rebuilt = solve_lpnlp(rebuilt, replace(MINLPOptions(), reuse=fam_spec))
        assert r_rebuilt.objective.hex() == r_direct.objective.hex(), n
        assert r_rebuilt.nodes == r_direct.nodes, n
        for comp in (I, L, A, O):
            name = VAR_NAMES[comp]
            assert r_rebuilt.solution[name].hex() == r_direct.solution[name].hex()
    # Both families saw the same structures, so the warm pools agree too.
    assert fam_spec.stats()["channels"] == fam_direct.stats()["channels"] == 1


def test_tune_spec_replay_matches_pipeline(calibrated):
    """A TuneSpec with pinned curves replays the exact pipeline result."""
    case, fits = calibrated
    pipeline = HSLBPipeline(case)
    in_memory = pipeline.run(fits=fits)

    spec = pipeline.to_spec(curves=fits)
    shipped = TuneSpec.from_json(spec.to_json())
    assert shipped == spec and shipped.spec_key() == spec.spec_key()
    replayed = shipped.run()

    assert replayed.predicted_total.hex() == in_memory.predicted_total.hex()
    assert replayed.allocation == in_memory.allocation
    assert (
        replayed.solve.solver_result.nodes == in_memory.solve.solver_result.nodes
    )
    assert replayed.actual_total == pytest.approx(in_memory.actual_total)


def test_tune_spec_with_benchmarks_matches_pipeline(calibrated):
    """Pinned raw samples (skip gather, refit) also replay bit-identically."""
    case, _ = calibrated
    pipeline = HSLBPipeline(case)
    data = pipeline.gather()
    in_memory = pipeline.run(data=data)

    shipped = TuneSpec.from_json(pipeline.to_spec(benchmarks=data).to_json())
    replayed = shipped.run()
    assert replayed.predicted_total.hex() == in_memory.predicted_total.hex()
    assert replayed.allocation == in_memory.allocation
