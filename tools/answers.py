"""Dump every solver answer of three seeded workloads, and compare two dumps.

Run from the repository root (no build step)::

    python tools/answers.py dump OUT [--sets sweep,bnb,tune,tight]
    python tools/answers.py diff A B

``dump`` runs workloads of ``hslbbench`` (imported, not changed) and writes
one JSON line per record, in call order.  There are three kinds of record:
``nlp``, every ``solve_nlp`` reached through ``repro.minlp.lpnlp`` or
``repro.minlp.bnb``; ``fixed``, every fixed-integer subproblem answer
(``_solve_fixed_nlp``, whether the simplex or the barrier solved it); and
``minlp``, every ``MINLPResult`` a workload gets back.  A barrier solve of a
fixed-integer subproblem is both a ``fixed`` and an ``nlp`` record.  Floats
are written as hex, so equal dumps mean bit-identical answers.  The sets,
all on benchmark seed 20:

- ``sweep``: ``Sweep``'s set-up plus operations 0-8 (LP/NLP, reuse on);
- ``bnb``: the same 9 ladders with ``method="bnb", reuse=False``;
- ``tune``: ``Tune`` operations 0-9;
- ``tight``: ``Service``'s spec pool (4 curve sets x 3 layouts x 6 budgets,
  LP/NLP), each budget ladder solved one spec at a time, in order, through
  one fresh ``SolveFamily`` with every reuse feature on, as the service's
  warm pool of that channel would.

Each record splits *decision* fields (status, integer solution values and
fixings, nodes, LP iterations, cuts, NLP solves, whether a fixed-integer
point was certified) from *value* fields (objective and bound bits,
continuous values, ``x``, Newton iterations, ``mu_final``,
``max_violation``, message).  Kernel hit, miss and compile counts depend on
what the process compiled before, and timings vary, so neither is recorded.

``diff`` compares each (set, kind) stream on its own, so a kind whose
record count changes does not misalign the others.  Per stream it names
the first record and field that differ and counts the decision and value
differences.  It exits 1 on any decision difference.
Compare dumps taken on one host: fitting evaluates ``n ** c`` on numpy
arrays, and numpy picks its SIMD ``pow`` by CPU features.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 20
SETS = ("sweep", "bnb", "tune", "tight")
LADDERS = 9
TUNE_OPERATIONS = 10


def _hex(value) -> str:
    return float(value).hex()


class Recorder:
    """Collects the records of the set that is running (none while
    ``current`` is None)."""

    def __init__(self):
        self.current: str | None = None
        self.records: list = []

    def _add(self, kind: str, solver: str, decision: dict, value: dict) -> None:
        if self.current is not None:
            self.records.append({"set": self.current, "kind": kind, "solver": solver,
                                 "decision": decision, "value": value})

    def nlp(self, solver: str, args: tuple, result) -> None:
        self._add("nlp", solver, {"status": result.status.value}, {
            "x": None if result.x is None else [_hex(v) for v in result.x.tolist()],
            "objective": _hex(result.objective),
            "newton_iterations": result.newton_iterations,
            "mu_final": _hex(result.mu_final),
            "max_violation": _hex(result.max_violation),
            "message": result.message,
        })

    def fixed(self, solver: str, args: tuple, result) -> None:
        fixings = args[2]
        env, objective, solves = result
        self._add("fixed", solver, {
            "fixings": {k: _hex(v) for k, v in fixings.items()},
            "certified": env is not None,
            "solves": solves,
        }, {
            "objective": _hex(objective),
            "continuous": {k: _hex(v) for k, v in (env or {}).items() if k not in fixings},
        })

    def minlp(self, solver: str, args: tuple, result) -> None:
        model = args[0]
        solution = result.solution or {}
        integral = {
            name for name in solution
            if name in model.variables and model.variables[name].is_integral
        }
        self._add("minlp", solver, {
            "status": result.status.value,
            "integers": {k: _hex(v) for k, v in solution.items() if k in integral},
            "nodes": result.nodes,
            "lp_iterations": result.lp_iterations,
            "cuts_added": result.cuts_added,
            "nlp_solves": result.nlp_solves,
        }, {
            "objective": _hex(result.objective),
            "best_bound": _hex(result.best_bound),
            "continuous": {k: _hex(v) for k, v in solution.items() if k not in integral},
            "message": result.message,
        })


def _recorded(original, solver: str, record):
    def wrapper(*args, **kwargs):
        result = original(*args, **kwargs)
        record(solver, args, result)
        return result
    return wrapper


@contextlib.contextmanager
def _recording(recorder: Recorder):
    """Route the program's NLP, fixed-integer and MINLP entry points through
    ``recorder``, where their callers look them up (the MINLP ones take the
    model as their first argument)."""
    from repro.analysis import whatif
    from repro.hslb import solve
    from repro.minlp import bnb, lpnlp

    patches = [
        (lpnlp, "solve_nlp", "lpnlp", recorder.nlp),
        (bnb, "solve_nlp", "bnb", recorder.nlp),
        (lpnlp, "_solve_fixed_nlp", "lpnlp", recorder.fixed),
        (bnb, "_solve_fixed_nlp", "bnb", recorder.fixed),
        (whatif, "solve_lpnlp", "lpnlp", recorder.minlp),
        (whatif, "solve_nlp_bnb", "bnb", recorder.minlp),
        (solve, "solve_lpnlp", "lpnlp", recorder.minlp),
        (solve, "solve_nlp_bnb", "bnb", recorder.minlp),
    ]
    originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
    for owner, attr, solver, record in patches:
        setattr(owner, attr, _recorded(getattr(owner, attr), solver, record))
    try:
        yield
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def _run_tight() -> None:
    import workloads
    from repro.analysis.whatif import _solve_layout_point, layout_point_specs
    from repro.reuse import SolveFamily

    for k in range(workloads.SERVICE_CURVE_SETS):
        perf, bounds, ocn, atm = workloads.fitted_curves(
            workloads.derive(SEED, workloads._CURVES, k))
        for layout in workloads.LAYOUTS:
            family = SolveFamily()
            for spec in layout_point_specs(
                perf, bounds, workloads.BUDGETS, layout=layout,
                ocn_allowed=ocn, atm_allowed=atm, method="lpnlp",
            ):
                _solve_layout_point(spec, family)


def _run_set(name: str, recorder: Recorder) -> None:
    import workloads

    if name == "tight":
        recorder.current = name
        _run_tight()
    elif name == "tune":
        work = workloads.Tune(SEED)
        recorder.current = name
        for index in range(TUNE_OPERATIONS):
            work.operation(index)
    else:
        work = workloads.Sweep(SEED)
        recorder.current = name if name == "sweep" else None
        work.setup()
        recorder.current = name
        for index in range(LADDERS):
            if name == "sweep":
                work.operation(index)
            else:
                work.ladder(work.key(index), method="bnb", reuse=False)
    recorder.current = None


def dump(out: str, sets: list) -> None:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "hslbbench")]
    recorder = Recorder()
    with _recording(recorder):
        for name in sets:
            _run_set(name, recorder)
    with open(out, "w") as fh:
        for record in recorder.records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(f"{out}: {len(recorder.records)} records")


def _load(path: str) -> dict:
    """The records of a dump by (set, kind) stream, each in call order."""
    streams: dict = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            streams.setdefault((record["set"], record["kind"]), []).append(record)
    return streams


def _compare(records_a: list, records_b: list):
    """Decision and value difference counts, and the first difference."""
    counts = {"decision": 0, "value": 0}
    first = None
    for index in range(max(len(records_a), len(records_b))):
        a = records_a[index] if index < len(records_a) else None
        b = records_b[index] if index < len(records_b) else None
        shape_a = None if a is None else (a["kind"], a["solver"])
        shape_b = None if b is None else (b["kind"], b["solver"])
        if shape_a != shape_b:
            counts["decision"] += 1
            first = first or f"record {index}: {shape_a} != {shape_b}"
            continue
        for group in ("decision", "value"):
            for field in sorted(a[group].keys() | b[group].keys()):
                va, vb = a[group].get(field), b[group].get(field)
                if va != vb:
                    counts[group] += 1
                    first = first or (
                        f"record {index} ({a['kind']} via {a['solver']}) "
                        f"{group}.{field}: {json.dumps(va)[:120]} != {json.dumps(vb)[:120]}"
                    )
    return counts, first


def diff(path_a: str, path_b: str) -> int:
    streams_a, streams_b = _load(path_a), _load(path_b)
    decisions = 0
    for stream in list(streams_a) + [s for s in streams_b if s not in streams_a]:
        records_a, records_b = streams_a.get(stream, []), streams_b.get(stream, [])
        counts, first = _compare(records_a, records_b)
        decisions += counts["decision"]
        sizes = (f"{len(records_a)}" if len(records_a) == len(records_b)
                 else f"{len(records_a)} vs {len(records_b)}")
        line = (f"{'/'.join(stream)}: {sizes} records, {counts['decision']} decision and "
                f"{counts['value']} value differences")
        print(line + (f"; first at {first}" if first else ""))
    return 1 if decisions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    dump_cmd = commands.add_parser("dump", help="write the records of the sets to OUT")
    dump_cmd.add_argument("out")
    dump_cmd.add_argument("--sets", default=",".join(SETS),
                          help="comma-separated subset of " + ",".join(SETS))
    diff_cmd = commands.add_parser("diff", help="compare two dumps")
    diff_cmd.add_argument("a")
    diff_cmd.add_argument("b")
    args = parser.parse_args(argv)
    if args.command == "diff":
        return diff(args.a, args.b)
    sets = args.sets.split(",")
    unknown = [s for s in sets if s not in SETS]
    if unknown:
        parser.error(f"unknown sets {unknown}; known: {list(SETS)}")
    dump(args.out, sets)
    return 0


if __name__ == "__main__":
    sys.exit(main())
