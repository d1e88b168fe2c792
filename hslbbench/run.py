"""Seeded end-to-end benchmark of the HSLB tuner over three workloads.

Run from the repository root (no build step; the package is imported from
``src/``)::

    python3 hslbbench/run.py --workload tune --seed 0 --seconds 25 --trace 0

``--workload`` is ``tune``, ``sweep`` or ``service`` (see BASELINE.md for
why each exists).  With ``--trace 0`` the last line of standard output is
one JSON object carrying the end-to-end metrics; with ``--trace 1`` it
carries the per-layer metrics of a separate traced pass instead.  Every
answer is checked outside the timed window; a failed check marks the run
``"correct": false`` and reports no numbers.  A full record of the run
(machine fingerprint, tail percentile, node-count digest, span
aggregates) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 3
#: Fixed per workload, so a faster program is never judged at a higher
#: percentile: the highest of p50/p70/p90/p99 that leaves at least ten
#: samples beyond it at the default run length.
TAIL_PERCENTILE = {"tune": 70, "sweep": 70, "service": 99}

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); "
    "import repro.hslb, repro.analysis.whatif, repro.service; "
    "print(time.perf_counter() - t0)"
)


def import_seconds() -> float:
    """Import time of the package in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], env=env, capture_output=True,
        text=True, check=True, timeout=120,
    )
    return float(probe.stdout.split()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def source_digest() -> str:
    """sha256 over ``src/`` — identifies the code when there is no git."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0   # ru_maxrss is in KiB on Linux


def percentile(values: list, q: float) -> float:
    """Linearly interpolated ``q``-th percentile (numpy's default rule)."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(TAIL_PERCENTILE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="timed work per run (whole rounds, so slightly more)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corrupt", action="store_true",
                        help="perturb the first answer before the checks "
                             "(the self-check proves the checks catch it)")
    return parser.parse_args(argv)


def load_program():
    """Import the package from ``src/`` of this checkout, or exit 2."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"error: no program to benchmark: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(HERE)]
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"error: imported repro from {repro.__file__}, not from {SRC}")
    import layers
    import workloads

    return layers, workloads


def timed_setup(workload, repeats: int) -> float:
    """Median over ``repeats`` full set-ups: imports plus ``setup()``."""
    seconds = []
    for _ in range(repeats):
        imports = import_seconds()
        t0 = time.perf_counter()
        workload.setup()
        seconds.append(imports + time.perf_counter() - t0)
    return statistics.median(seconds)


def main(argv=None) -> int:
    args = parse_args(argv)
    layers, workloads = load_program()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.corrupt = args.corrupt
    record = {"workload": args.workload, "seconds": args.seconds,
              "trace": args.trace, "fingerprint": fingerprint(args.seed)}

    setup_s = timed_setup(workload, SETUP_REPEATS if args.trace == 0 else 1)
    window = workload.measure(args.seconds)
    checked = [window]
    if args.trace == 1:
        tracer = layers.LayerTracer()
        tracer.install()
        try:
            traced = workload.trace_pass()
        finally:
            tracer.uninstall()
        checked.append(traced)
        snapshot = tracer.registry.snapshot()
        record["spans"] = snapshot["spans"]
        record["recent_spans"] = [vars(span) for span in tracer.registry.spans.recent()]

    failed = sum(workload.check(part) for part in checked)
    attempted = sum(part.attempted for part in checked)
    record["error_ratio"] = failed / attempted
    record["nodes_digest"] = workload.nodes_digest()

    q = TAIL_PERCENTILE[args.workload]
    n = len(window.latencies)
    tail_s = percentile(window.latencies, q)
    record["tail"] = {"percentile": q, "samples": n,
                      "beyond": sum(1 for v in window.latencies if v > tail_s)}
    if args.trace == 0:
        metrics = {
            "latency_p50_ms": (statistics.median(window.latencies) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "throughput_ops_s": (window.throughput, "1/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        per_layer = layers.layer_metrics(
            snapshot, traced.engine_stats, sum(traced.latencies)
        )
        per_layer["trace.overhead_ratio"] = traced.throughput / window.throughput
        metrics = {
            name: (value, "s" if name.endswith("_s") else
                   "ratio" if name.endswith("ratio") else "count")
            for name, value in per_layer.items()
        }
    record["metrics"] = {
        name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
    }

    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")

    tail = record["tail"]
    print(f"# {args.workload} seed={args.seed}: error_ratio={record['error_ratio']:.6g} "
          f"({failed}/{attempted}), latency_tail_ms is p{q} over {n} samples "
          f"({tail['beyond']} beyond), nodes_digest={record['nodes_digest']}, "
          f"record in {out_file.relative_to(ROOT)}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"] if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
