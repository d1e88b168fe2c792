import json

import numpy as np
import pytest

from repro.cesm import ComponentId, CoupledRunSimulator, make_case
from repro.exceptions import ConfigurationError
from repro.fitting import PerfModel
from repro.hslb import BenchmarkData, HSLBPipeline, fit_components, gather_benchmarks
from repro.io import (
    benchmark_data_from_dict,
    benchmark_data_to_dict,
    fits_from_dict,
    fits_to_dict,
    load_benchmarks,
    load_fits,
    run_result_to_dict,
    save_benchmarks,
    save_fits,
)

A, I = ComponentId.ATM, ComponentId.ICE


@pytest.fixture
def sample_data():
    d = BenchmarkData()
    d.add(A, [8, 64, 512], [100.0, 20.0, 5.0])
    d.add(I, [8, 64, 512], [50.0, 10.0, 3.0])
    return d


class TestBenchmarkRoundtrip:
    def test_dict_roundtrip(self, sample_data):
        payload = benchmark_data_to_dict(sample_data, meta={"resolution": "1deg"})
        restored = benchmark_data_from_dict(payload)
        np.testing.assert_array_equal(restored.nodes(A), sample_data.nodes(A))
        np.testing.assert_array_equal(restored.times(I), sample_data.times(I))

    def test_file_roundtrip(self, sample_data, tmp_path):
        path = tmp_path / "bench.json"
        save_benchmarks(path, sample_data)
        restored = load_benchmarks(path)
        assert restored.components() == sample_data.components()

    def test_file_is_plain_json(self, sample_data, tmp_path):
        path = tmp_path / "bench.json"
        save_benchmarks(path, sample_data, meta={"machine": "intrepid"})
        payload = json.loads(path.read_text())
        assert payload["format"] == "repro/benchmarks"
        assert payload["schema_version"] == 1
        assert payload["meta"]["machine"] == "intrepid"

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigurationError, match="not a repro/benchmarks"):
            benchmark_data_from_dict({"format": "something-else"})

    def test_legacy_format_tag_rejected(self, sample_data):
        legacy = benchmark_data_to_dict(sample_data)
        legacy["format"] = "repro/benchmarks@1"
        del legacy["schema_version"]
        with pytest.raises(ConfigurationError, match="not a repro/benchmarks"):
            benchmark_data_from_dict(legacy)
        # Only those payloads lacked a schema_version; none defaults any more.
        unversioned = benchmark_data_to_dict(sample_data)
        del unversioned["schema_version"]
        with pytest.raises(ConfigurationError, match="invalid schema_version"):
            benchmark_data_from_dict(unversioned)

    def test_future_version_rejected_clearly(self, sample_data):
        payload = benchmark_data_to_dict(sample_data)
        payload["schema_version"] = 99
        with pytest.raises(ConfigurationError, match="newer version"):
            benchmark_data_from_dict(payload)

    def test_unknown_component_rejected(self):
        bad = {
            "format": "repro/benchmarks",
            "schema_version": 1,
            "samples": {"volcano": {"nodes": [1], "seconds": [2.0]}},
        }
        with pytest.raises(ConfigurationError, match="unknown component"):
            benchmark_data_from_dict(bad)

    def test_length_mismatch_rejected(self):
        bad = {
            "format": "repro/benchmarks",
            "schema_version": 1,
            "samples": {"atm": {"nodes": [1, 2], "seconds": [2.0]}},
        }
        with pytest.raises(ConfigurationError, match="mismatch"):
            benchmark_data_from_dict(bad)


class TestFitsRoundtrip:
    def test_perfmodel_roundtrip(self, tmp_path):
        fits = {A: PerfModel(a=100.0, b=0.01, c=1.5, d=3.0)}
        path = tmp_path / "fits.json"
        save_fits(path, fits)
        restored = load_fits(path)
        assert restored[A] == fits[A]

    def test_fitresult_diagnostics_recorded(self, sample_data):
        fits = fit_components(sample_data)
        payload = fits_to_dict(fits)
        assert "r_squared" in payload["models"]["atm"]

    def test_wrong_format_rejected(self):
        with pytest.raises(ConfigurationError, match="not a repro/fits"):
            fits_from_dict({"format": "nope"})

    def test_gathered_fits_survive_roundtrip(self, tmp_path):
        sim = CoupledRunSimulator(make_case("1deg", 512, seed=0))
        fits = fit_components(gather_benchmarks(sim))
        path = tmp_path / "fits.json"
        save_fits(path, fits)
        restored = load_fits(path)
        for comp, model in restored.items():
            assert model(64.0) == pytest.approx(fits[comp].model(64.0))


class TestSolveFromSavedFits:
    def test_file_workflow_matches_in_memory(self, tmp_path):
        """gather->save->load->fit->solve equals the in-memory pipeline
        (the paper's 'reuse previous benchmarks' workflow)."""
        from repro.hslb import solve_allocation

        case = make_case("1deg", 128, seed=0)
        pipeline = HSLBPipeline(case)
        data = pipeline.gather()

        path = tmp_path / "bench.json"
        save_benchmarks(path, data)
        fits_mem = pipeline.fit(data)
        fits_file = fit_components(load_benchmarks(path))

        out_mem = solve_allocation(case, fits_mem)
        out_file = solve_allocation(case, fits_file)
        assert out_mem.allocation == out_file.allocation


class TestRunResultExport:
    def test_flattened_run_result(self):
        result = HSLBPipeline(make_case("1deg", 128, seed=0)).run()
        payload = run_result_to_dict(result)
        assert payload["format"] == "repro/run"
        assert payload["schema_version"] == 1
        assert payload["case"]["total_nodes"] == 128
        assert set(payload["allocation"]) == {"atm", "ocn", "ice", "lnd"}
        assert payload["actual_total"] > 0
        json.dumps(payload)  # must be JSON-serializable as-is


class TestEventSerialization:
    def test_clean_run_exports_empty_event_list(self):
        result = HSLBPipeline(make_case("1deg", 128, seed=0)).run()
        payload = run_result_to_dict(result)
        assert payload["events"] == []

    def test_chaos_run_events_round_trip(self):
        from repro.resilience import EventLog, FaultProfile

        result = HSLBPipeline(
            make_case("1deg", 128, seed=0),
            fault_profile=FaultProfile(crash_probability=0.3),
        ).run()
        payload = run_result_to_dict(result)
        assert payload["events"], "a 30% crash rate must leave events"
        json.dumps(payload)  # still JSON-serializable with events attached
        assert EventLog.from_list(payload["events"]) == result.events
