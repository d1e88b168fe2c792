"""Unit tests for the executor backends and the ordered-merge rule."""

import time
from dataclasses import dataclass

import pytest

from repro.exceptions import ConfigurationError
from repro.parallel import (
    EXECUTOR_KINDS,
    SerialExecutor,
    TaskFailure,
    ThreadExecutor,
    executor_scope,
    get_executor,
    ordered_merge,
)


@dataclass
class _Payload:
    value: int


def _square(payload: _Payload) -> int:
    return payload.value * payload.value


def _square_slow_evens(payload: _Payload) -> int:
    # Even-indexed tasks finish last: completion order != submission order.
    if payload.value % 2 == 0:
        time.sleep(0.02)
    return payload.value * payload.value


def _fail_on_three(payload: _Payload) -> int:
    if payload.value == 3:
        raise ValueError(f"boom at {payload.value}")
    if payload.value == 7:
        raise RuntimeError("later failure, must not win")
    return payload.value


class TestOrderedMerge:
    def test_returns_submission_order_for_any_permutation(self):
        pairs = [(2, "c"), (0, "a"), (1, "b")]
        assert ordered_merge(pairs, 3) == ["a", "b", "c"]

    def test_raises_smallest_index_failure(self):
        pairs = [
            (1, TaskFailure(ValueError("first"))),
            (0, "fine"),
            (2, TaskFailure(RuntimeError("second"))),
        ]
        with pytest.raises(ValueError, match="first"):
            ordered_merge(pairs, 3)

    def test_rejects_out_of_range_index(self):
        with pytest.raises(ConfigurationError, match="outside"):
            ordered_merge([(3, "x")], 3)

    def test_rejects_duplicate_index(self):
        with pytest.raises(ConfigurationError, match="twice"):
            ordered_merge([(0, "x"), (0, "y")], 2)

    def test_rejects_missing_index(self):
        with pytest.raises(ConfigurationError, match="never completed"):
            ordered_merge([(0, "x")], 2)

    def test_empty(self):
        assert ordered_merge([], 0) == []


class TestSerialExecutor:
    def test_map_ordered_runs_inline_in_order(self):
        ran = []

        def fn(v):
            ran.append(v)
            return v + 1

        ex = SerialExecutor()
        assert ex.map_ordered(fn, [1, 2, 3]) == [2, 3, 4]
        assert ran == [1, 2, 3]

    def test_first_failure_stops_later_tasks(self):
        ran = []

        def fn(v):
            ran.append(v)
            if v == 2:
                raise ValueError("stop")
            return v

        with pytest.raises(ValueError):
            SerialExecutor().map_ordered(fn, [1, 2, 3])
        assert ran == [1, 2], "tasks after the failure must never run"


@pytest.mark.parametrize("backend", [ThreadExecutor])
class TestPoolExecutors:
    def test_results_in_submission_order(self, backend):
        payloads = [_Payload(v) for v in range(10)]
        with backend(4) as ex:
            assert ex.map_ordered(_square_slow_evens, payloads) == [
                v * v for v in range(10)
            ]

    def test_earliest_submitted_failure_raises(self, backend):
        payloads = [_Payload(v) for v in range(10)]
        with backend(4) as ex:
            with pytest.raises(ValueError, match="boom at 3"):
                ex.map_ordered(_fail_on_three, payloads)

    def test_empty_payloads(self, backend):
        with backend(2) as ex:
            assert ex.map_ordered(_square, []) == []

    def test_kind_label(self, backend):
        assert backend(2).kind in EXECUTOR_KINDS


class TestGetExecutor:
    def test_none_is_serial(self):
        assert get_executor(None).kind == "serial"

    def test_names_resolve(self):
        assert get_executor("serial").kind == "serial"
        assert get_executor("thread", 2).kind == "thread"
        assert get_executor("supervised", 2).kind == "supervised"

    def test_instance_passes_through(self):
        ex = ThreadExecutor(2)
        assert get_executor(ex) is ex

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            get_executor("cluster")

    def test_invalid_worker_count_raises(self):
        with pytest.raises(ConfigurationError):
            ThreadExecutor(0)


class TestExecutorScope:
    def test_owns_and_shuts_down_named_executor(self):
        with executor_scope("thread", 2) as ex:
            ex.map_ordered(_square, [_Payload(1)])
            assert ex._pool is not None
        assert ex._pool is None, "scope must shut down executors it created"

    def test_leaves_caller_owned_executor_running(self):
        mine = ThreadExecutor(2)
        with executor_scope(mine) as ex:
            assert ex is mine
            ex.map_ordered(_square, [_Payload(2)])
        assert mine._pool is not None, "caller-owned pool must stay up"
        mine.shutdown()
