"""Backend stress matrix (``parallel`` marker).

CI's dedicated parallel job runs these across worker counts via
``REPRO_PARALLEL_WORKERS=2,8``; the default suite uses 2 workers only.
Every combination must reproduce the serial pipeline bit-for-bit — worker
count, like backend choice, is not allowed to be observable in results.
"""

import os

import numpy as np
import pytest

from repro.cesm import make_case
from repro.hslb import HSLBPipeline
from repro.resilience import FaultProfile

WORKER_COUNTS = [
    int(w) for w in os.environ.get("REPRO_PARALLEL_WORKERS", "2").split(",")
]

CHAOS = FaultProfile(crash_probability=0.2, outlier_probability=0.05)


def _serial(case_kwargs, pipe_kwargs):
    return HSLBPipeline(make_case(**case_kwargs), **pipe_kwargs).run()


@pytest.mark.parallel
@pytest.mark.parametrize("workers", WORKER_COUNTS)
@pytest.mark.parametrize("backend", ["thread", "supervised"])
class TestBackendWorkerMatrix:
    def test_clean_pipeline(self, backend, workers):
        case_kwargs = dict(resolution="1deg", total_nodes=128)
        serial = _serial(case_kwargs, {})
        result = HSLBPipeline(
            make_case(**case_kwargs), executor=backend, workers=workers
        ).run()
        assert result.allocation == serial.allocation
        assert result.predicted_total == serial.predicted_total
        assert result.actual_total == serial.actual_total
        for comp in serial.benchmarks.components():
            assert np.array_equal(
                result.benchmarks.times(comp), serial.benchmarks.times(comp)
            )

    def test_chaos_pipeline(self, backend, workers):
        case_kwargs = dict(resolution="1deg", total_nodes=128)
        serial = _serial(case_kwargs, {"fault_profile": CHAOS})
        result = HSLBPipeline(
            make_case(**case_kwargs), fault_profile=CHAOS,
            executor=backend, workers=workers,
        ).run()
        assert result.allocation == serial.allocation
        assert result.actual_total == serial.actual_total
        assert result.events == serial.events
