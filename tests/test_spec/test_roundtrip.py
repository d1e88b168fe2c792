"""Property tests: every spec survives JSON round-trips structurally intact.

Hypothesis drives randomized machine/case/curve/layout/options/tune specs
through ``to_json -> from_json`` and asserts dataclass equality plus
``spec_key`` stability — float fields use full-precision ``repr`` in
canonical JSON, so even adversarial doubles must round-trip exactly.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError
from repro.minlp.options import (
    BranchRule,
    MINLPOptions,
    NodeSelection,
    VarBranchRule,
    minlp_options_to_dict,
)
from repro.spec import (
    BudgetSpec,
    CaseSpec,
    CurveSpec,
    LayoutProblemSpec,
    MachineSpec,
    SolvePointSpec,
    TuneSpec,
    canonical_json,
    spec_from_json,
)

COMPONENTS = ("atm", "ocn", "ice", "lnd")

# ``x + 0.0`` folds -0.0 into 0.0: the two compare equal as dataclasses but
# serialize to different canonical bytes, which would fake a spec_key
# mismatch between equal specs.
finite = st.floats(allow_nan=False, allow_infinity=False).map(lambda x: x + 0.0)
# PerfModel validates a/b/c/d >= 0, so curve coefficients draw from here.
nonneg = st.floats(
    min_value=0, allow_nan=False, allow_infinity=False
).map(lambda x: x + 0.0)
positive = st.floats(min_value=1e-9, max_value=1e9, allow_nan=False)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=16
)

machines = st.builds(
    MachineSpec,
    name=names,
    nodes=st.integers(1, 10**6),
    cores_per_node=st.integers(1, 256),
    mpi_tasks_per_node=st.integers(1, 64),
    threads_per_task=st.integers(1, 64),
    relative_speed=positive,
)

cases = st.builds(
    CaseSpec,
    resolution=st.sampled_from(("1deg", "8th")),
    total_nodes=st.integers(8, 65536),
    layout=st.integers(1, 3),
    unconstrained_ocean=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
    machine=st.none() | machines,
)

curves = st.builds(CurveSpec, a=nonneg, b=nonneg, c=nonneg, d=nonneg)

curve_maps = st.fixed_dictionaries(
    {comp: curves.map(lambda c: c.to_dict()) for comp in COMPONENTS}
)

bound_maps = st.fixed_dictionaries(
    {
        comp: st.tuples(st.integers(1, 64), st.integers(64, 4096))
        for comp in COMPONENTS
    }
)

atm_alloweds = st.none() | st.fixed_dictionaries(
    {
        "values": st.none() | st.tuples(st.integers(1, 512), st.integers(1, 512)),
        "lo": st.integers(1, 64),
        "hi": st.integers(64, 4096),
    }
)

layout_problems = st.builds(
    LayoutProblemSpec,
    layout=st.integers(1, 3),
    total_nodes=st.integers(8, 65536),
    curves=curve_maps,
    bounds=bound_maps,
    ocn_allowed=st.none() | st.tuples(st.integers(1, 4096), st.integers(1, 4096)),
    atm_allowed=atm_alloweds,
    objective=st.sampled_from(("min_max", "max_min", "min_sum")),
    tsync=st.none() | positive,
    fine_tuning=st.booleans(),
    name=names,
)

minlp_options = st.builds(
    MINLPOptions,
    rel_gap=positive,
    abs_gap=positive,
    int_tol=positive,
    max_nodes=st.integers(1, 10**6),
    time_limit=positive,
    branch_rule=st.sampled_from(BranchRule),
    var_branch_rule=st.sampled_from(VarBranchRule),
    node_selection=st.sampled_from(NodeSelection),
    require_convex=st.booleans(),
    max_cut_rounds=st.integers(1, 100),
    use_warm_start=st.booleans(),
    evaluator=st.sampled_from(("kernel", "tree")),
)

solve_points = st.builds(
    SolvePointSpec,
    problem=layout_problems,
    method=st.sampled_from(("lpnlp", "bnb", "oracle")),
    options=st.none() | minlp_options.map(minlp_options_to_dict),
)

# An all-None budget serializes as no budget at all, so only non-empty
# budgets round-trip to an equal dataclass.
budgets = st.builds(
    BudgetSpec,
    deadline=st.none() | positive,
    max_retries=st.none() | st.integers(1, 10),
).filter(lambda b: not b.empty)

_samples = st.lists(
    st.tuples(st.integers(1, 4096), positive), min_size=1, max_size=5
)
benchmark_maps = st.fixed_dictionaries({comp: _samples for comp in COMPONENTS})

tunes = st.builds(
    TuneSpec,
    case=cases,
    points=st.integers(2, 10),
    objective=st.sampled_from(("min_max", "max_min", "min_sum")),
    method=st.sampled_from(("lpnlp", "bnb", "oracle")),
    fine_tuning=st.booleans(),
    reuse=st.booleans(),
    curves=st.none() | curve_maps,
    benchmarks=st.none(),
    options=st.none() | minlp_options.map(minlp_options_to_dict),
    budget=st.none() | budgets,
)


def _assert_round_trips(spec):
    cls = type(spec)
    rebuilt = cls.from_json(spec.to_json())
    assert rebuilt == spec
    assert rebuilt.spec_key() == spec.spec_key()
    # Hashing is deterministic and the canonical payload is valid JSON.
    assert json.loads(canonical_json(spec.to_dict())) == spec.to_dict()


@settings(max_examples=50, deadline=None)
@given(machines)
def test_machine_round_trip(spec):
    _assert_round_trips(spec)
    assert MachineSpec.from_machine(spec.to_machine()) == spec


@settings(max_examples=50, deadline=None)
@given(cases)
def test_case_round_trip(spec):
    _assert_round_trips(spec)
    assert spec_from_json(spec.to_json()) == spec


@settings(max_examples=100, deadline=None)
@given(curves)
def test_curve_round_trip_exact_floats(spec):
    rebuilt = CurveSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert rebuilt == spec  # bit-exact: repr round-trips every finite double
    model = spec.to_perf()
    assert CurveSpec.from_perf(model) == spec


@settings(max_examples=50, deadline=None)
@given(layout_problems)
def test_layout_problem_round_trip(spec):
    _assert_round_trips(spec)
    assert spec_from_json(spec.to_json()) == spec


@settings(max_examples=50, deadline=None)
@given(solve_points)
def test_solve_point_round_trip(spec):
    _assert_round_trips(spec)
    if spec.options is not None:
        assert spec.minlp_options().to_dict() == spec.options


@settings(max_examples=50, deadline=None)
@given(tunes)
def test_tune_round_trip(spec):
    _assert_round_trips(spec)
    assert spec_from_json(spec.to_json()) == spec


@settings(max_examples=50, deadline=None)
@given(tunes, tunes)
def test_spec_key_separates_distinct_specs(a, b):
    """Equal keys iff equal specs — the cache/checkpoint identity contract."""
    assert (a.spec_key() == b.spec_key()) == (a == b)


@settings(max_examples=25, deadline=None)
@given(benchmark_maps, cases)
def test_tune_with_benchmarks_round_trip(samples, case):
    benchmarks = {
        comp: {
            "nodes": [n for n, _ in pairs],
            "seconds": [t for _, t in pairs],
        }
        for comp, pairs in samples.items()
    }
    spec = TuneSpec(case=case, benchmarks=benchmarks)
    _assert_round_trips(spec)


def test_curves_and_benchmarks_are_exclusive():
    case = CaseSpec(resolution="1deg", total_nodes=128)
    with pytest.raises(ConfigurationError, match="not both"):
        TuneSpec(
            case=case,
            curves={"atm": {"a": 1.0}},
            benchmarks={"atm": {"nodes": [1], "seconds": [1.0]}},
        )


def test_unknown_kind_rejected():
    payload = CaseSpec(resolution="1deg", total_nodes=128).to_dict()
    payload["kind"] = "volcano"
    with pytest.raises(ConfigurationError, match="unknown spec kind"):
        spec_from_json(json.dumps(payload))
