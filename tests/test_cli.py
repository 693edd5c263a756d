"""CLI smoke tests."""

from __future__ import annotations

import dataclasses

import pytest

from repro import cli
from repro.analysis.sweeps import _callable_id
from repro.cli import Scenario, build_parser, main
from repro.errors import SimulationError
from repro.exec.cache import ResultCache
from repro.workloads.traces import TraceConfig


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("table1", "fig1", "fig2", "fig3a", "fig3b", "report",
                        "search", "tco", "simulate", "sweep", "screen",
                        "topology", "autoscale"):
            args = parser.parse_args([command])
            assert callable(args.fn)
        # `cache` needs its positional action.
        assert callable(parser.parse_args(["cache", "stats"]).fn)


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "H100" in out and "Lite+MemBW" in out

    def test_fig2(self, capsys):
        assert main(["fig2"]) == 0
        assert "yield" in capsys.readouterr().out

    def test_fig3b(self, capsys):
        assert main(["fig3b"]) == 0
        out = capsys.readouterr().out
        assert "Llama3-405B" in out

    def test_search_verbose(self, capsys):
        assert main(["search", "--model", "Llama3-8B", "--gpu", "H100",
                     "--phase", "decode", "--verbose"]) == 0
        out = capsys.readouterr().out
        assert "tok/s/SM" in out
        assert "bound by" in out

    def test_tco(self, capsys):
        assert main(["tco", "--model", "Llama3-8B"]) == 0
        out = capsys.readouterr().out
        assert "/Mtok" in out and "saving" in out

    def test_simulate_phase_split(self, capsys):
        assert main([
            "simulate", "--model", "Llama3-8B", "--prefill-gpu", "H100",
            "--decode-gpu", "H100", "--gpus-per-instance", "1",
            "--n-prefill", "1", "--n-decode", "1", "--max-decode-batch", "64",
            "--rate", "2", "--duration", "5",
        ]) == 0
        out = capsys.readouterr().out
        assert "phase-split" in out and "completed" in out and "TTFT" in out

    def test_simulate_colocated_with_failures(self, capsys):
        assert main([
            "simulate", "--shape", "colocated", "--model", "Llama3-8B",
            "--gpu", "H100", "--gpus-per-instance", "1", "--n-instances", "2",
            "--max-decode-batch", "64", "--rate", "2", "--duration", "5",
            "--policy", "least-loaded", "--mtbf-hours", "0.01",
            "--mttr-hours", "0.005", "--max-sim-time", "60",
        ]) == 0
        out = capsys.readouterr().out
        assert "colocated" in out and "stochastic failures" in out

    def test_simulate_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--policy", "nope"])

    def test_bad_spec_reports_clean_error(self, capsys):
        assert main(["simulate", "--context-bucket", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "context_bucket" in err

    @pytest.mark.parametrize("shards", ["0", "-1"])
    def test_non_positive_shards_is_an_error(self, capsys, shards):
        assert main(["simulate", "--shards", shards, "--duration", "1"]) == 2
        assert "shards must be at least 1" in capsys.readouterr().err


class TestSweepCommand:
    def _argv(self, tmp_path, *extra):
        return [
            "sweep", "--model", "Llama3-8B", "--gpu", "H100",
            "--rates", "2,3", "--sizes", "1", "--duration", "4",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_sweep_runs_grid_and_renders_table(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "Sweep grid" in out
        assert "rate=2 size=1" in out and "rate=3 size=1" in out
        assert "best throughput:" in out
        assert "0 hits" in out and "2 stored" in out

    def test_second_invocation_hits_cache(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        first = capsys.readouterr().out
        assert main(self._argv(tmp_path)) == 0
        second = capsys.readouterr().out
        assert "2 hits" in second and "[cached]" in second
        # Warm results are bit-identical: the rendered rows must not change.
        table_rows = [line.replace(" [cached]", "") for line in second.splitlines()
                      if line.startswith("rate=")]
        assert table_rows == [line for line in first.splitlines() if line.startswith("rate=")]

    def test_no_cache_flag(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--no-cache")) == 0
        out = capsys.readouterr().out
        assert "cache: disabled" in out
        assert not (tmp_path / "cache").exists()

    def test_parallel_workers(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--workers", "2", "--no-cache")) == 0
        assert "2 worker(s)" in capsys.readouterr().out

    def test_phase_split_shape(self, capsys, tmp_path):
        assert main(self._argv(
            tmp_path, "--shape", "phase-split",
            "--prefill-gpu", "H100", "--decode-gpu", "H100",
        )) == 0
        assert "phase-split" in capsys.readouterr().out

    def test_infeasible_grid_reports_clean_error(self, capsys, tmp_path):
        # 405B weights cannot fit one H100: every point errors, exit code 2.
        assert main([
            "sweep", "--model", "Llama3-405B", "--gpu", "H100",
            "--rates", "2", "--sizes", "1", "--duration", "4",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 2
        captured = capsys.readouterr()
        assert "ERROR" in captured.out  # the per-point error line
        assert "no sweep point completed successfully" in captured.err

    def test_fluid_backend_sweep(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--backend", "fluid", "--no-cache")) == 0
        assert "backend" in capsys.readouterr().out  # provenance column

    def test_fluid_backend_misses_event_cache(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        capsys.readouterr()
        assert main(self._argv(tmp_path, "--backend", "fluid")) == 0
        assert "0 hits" in capsys.readouterr().out


class TestFluidBackendCommand:
    def test_simulate_fluid(self, capsys):
        assert main([
            "simulate", "--model", "Llama3-8B", "--prefill-gpu", "H100",
            "--decode-gpu", "H100", "--gpus-per-instance", "1",
            "--n-prefill", "1", "--n-decode", "1", "--max-decode-batch", "64",
            "--rate", "2", "--duration", "5", "--backend", "fluid",
        ]) == 0
        out = capsys.readouterr().out
        assert "fluid" in out and "completed" in out

    def test_fluid_rejects_shards(self, capsys):
        assert main([
            "simulate", "--backend", "fluid", "--shards", "2",
            "--rate", "2", "--duration", "5",
        ]) == 2
        assert "--shards" in capsys.readouterr().err

    def test_fluid_rejects_failures(self, capsys):
        assert main([
            "simulate", "--model", "Llama3-8B", "--prefill-gpu", "H100",
            "--decode-gpu", "H100", "--gpus-per-instance", "1",
            "--backend", "fluid", "--mtbf-hours", "0.5",
            "--rate", "2", "--duration", "5",
        ]) == 2
        assert "fluid" in capsys.readouterr().err


class TestScreenCommand:
    def test_screen_prints_two_tier_table_and_verdict(self, capsys, tmp_path):
        assert main([
            "screen", "--model", "Llama3-8B", "--gpu", "H100",
            "--rates", "2,4", "--sizes", "1,2", "--duration", "4",
            "--cache-dir", str(tmp_path / "cache"),
        ]) == 0
        out = capsys.readouterr().out
        assert "two-tier screen" in out
        assert "best (event-verified):" in out
        assert "points promoted" in out

    def test_screen_no_cache(self, capsys, tmp_path):
        assert main([
            "screen", "--model", "Llama3-8B", "--gpu", "H100",
            "--rates", "2", "--sizes", "1", "--duration", "4", "--no-cache",
        ]) == 0
        assert "best (event-verified):" in capsys.readouterr().out
        assert not (tmp_path / "cache").exists()


class TestTopologyCommand:
    def test_prints_three_fabrics(self, capsys):
        assert main(["topology", "--gpus", "32", "--group", "4"]) == 0
        out = capsys.readouterr().out
        assert "Fabric comparison: 32 GPUs, group 4" in out
        for name in ("direct-connect", "packet-switched", "flat-circuit"):
            assert name in out

    def test_group_must_divide_gpus(self, capsys):
        assert main(["topology", "--gpus", "30", "--group", "4"]) == 2
        assert "error:" in capsys.readouterr().err


class TestTopologyAwareSimulate:
    def _argv(self, *extra):
        return [
            "simulate", "--model", "Llama3-8B", "--gpus-per-instance", "1",
            "--n-prefill", "1", "--n-decode", "1", "--duration", "4",
            "--max-sim-time", "120", *extra,
        ]

    def test_simulate_with_fabric_model(self, capsys):
        assert main(self._argv(
            "--topology", "switched", "--network-model", "fabric",
            "--placer", "packed",
        )) == 0
        out = capsys.readouterr().out
        assert "topology switched" in out and "network model 'fabric'" in out
        assert "intra-instance hops" in out

    def test_simulate_topology_none_prints_no_placement(self, capsys):
        assert main(self._argv()) == 0
        assert "topology" not in capsys.readouterr().out.splitlines()[-1]

    def test_fabric_without_topology_is_an_error(self, capsys):
        assert main(self._argv("--network-model", "fabric")) == 2
        assert "topology is required" in capsys.readouterr().err

    def test_placement_flags_without_topology_are_an_error(self, capsys):
        assert main(self._argv("--placer", "scattered")) == 2
        assert "no effect without --topology" in capsys.readouterr().err

    def test_group_without_topology_is_an_error(self, capsys):
        assert main(self._argv("--group", "8")) == 2
        assert "no effect without --topology" in capsys.readouterr().err


class TestSweepTopologyCacheSeparation:
    """Regression: a topology sweep must not reuse non-network cached points."""

    def _argv(self, tmp_path, *extra):
        return [
            "sweep", "--model", "Llama3-8B", "--gpu", "H100",
            "--rates", "2", "--sizes", "2", "--duration", "4",
            "--cache-dir", str(tmp_path / "cache"), *extra,
        ]

    def test_topology_points_miss_the_legacy_cache(self, capsys, tmp_path):
        assert main(self._argv(tmp_path)) == 0
        first = capsys.readouterr().out
        assert "1 stored" in first
        assert main(self._argv(
            tmp_path, "--topology", "circuit", "--network-model", "fabric",
        )) == 0
        second = capsys.readouterr().out
        assert "0 hits" in second and "[cached]" not in second
        # And the topology point caches under its own key.
        assert main(self._argv(
            tmp_path, "--topology", "circuit", "--network-model", "fabric",
        )) == 0
        assert "1 hits" in capsys.readouterr().out


    def test_group_without_topology_stores_nothing(self, capsys, tmp_path):
        assert main(self._argv(tmp_path, "--group", "8")) == 2
        assert "no effect without --topology" in capsys.readouterr().err
        assert ResultCache(tmp_path / "cache").entries() == 0


_BASE_SCENARIO = Scenario(
    shape="colocated", model="Llama3-8B", prefill_gpu="H100", decode_gpu="H100",
    gpu="H100", gpus_per_instance=1, n_prefill=1, size=1, max_prefill_batch=4,
    max_decode_batch=64, chunk_tokens=512, policy="fcfs", max_sim_time=60.0,
    trace=TraceConfig(rate=2.0, duration=4.0), seed=0,
)


def _changed(value):
    if isinstance(value, TraceConfig):
        return dataclasses.replace(value, rate=value.rate + 1.0)
    if isinstance(value, str):
        return value + "-other"
    return value + 1


class TestScenarioCacheKey:
    """Every run knob is part of the sweep's result-cache key."""

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)])
    def test_every_field_changes_the_key(self, tmp_path, field):
        cache = ResultCache(tmp_path)
        other = dataclasses.replace(
            _BASE_SCENARIO, **{field: _changed(getattr(_BASE_SCENARIO, field))}
        )
        assert cache.key("cli-sweep", other, "fp") != cache.key("cli-sweep", _BASE_SCENARIO, "fp")

    def test_screen_key_ignores_the_rest_of_the_grid(self, monkeypatch):
        bound = []

        def capture(fn, points, **kwargs):
            bound.append(_callable_id(fn))
            raise SimulationError("captured")

        monkeypatch.setattr(cli, "screen_then_simulate", capture)
        for grid in (["--sizes", "1,2", "--rates", "2,4"],
                     ["--sizes", "2,4", "--rates", "4,6"],
                     ["--sizes", "1", "--rates", "2", "--duration", "5"]):
            assert main(["screen", "--no-cache", *grid]) == 2
        assert bound[0] == bound[1]
        assert bound[0] != bound[2]


class TestAutoscaleCommand:
    def _argv(self, *extra):
        return [
            "autoscale", "--rates", "1,8,1", "--segment", "20",
            "--epoch", "4", "--warmup", "8", *extra,
        ]

    def test_compares_controllers_and_prints_verdict(self, capsys):
        assert main(self._argv()) == 0
        out = capsys.readouterr().out
        assert "Static vs elastic provisioning" in out
        assert "$/Mtok" in out and "gpu-s" in out
        assert "static" in out and "reactive" in out and "slo" in out
        assert "cheapest at P99-TTFT" in out

    def test_forecast_controller(self, capsys):
        assert main(self._argv("--controllers", "static,forecast")) == 0
        assert "forecast" in capsys.readouterr().out

    def test_power_cap_requires_cap_window(self, capsys):
        assert main(self._argv("--controllers", "power_cap")) == 2
        assert "--cap" in capsys.readouterr().err

    def test_malformed_cap_is_clean_error(self, capsys):
        assert main(self._argv(
            "--controllers", "power_cap", "--cap", "20:40",
        )) == 2
        assert "start:end:watts" in capsys.readouterr().err

    def test_power_cap_with_window(self, capsys):
        assert main(self._argv(
            "--controllers", "static,power_cap", "--cap", "20:40:2000",
        )) == 0
        assert "power_cap" in capsys.readouterr().out

    def test_unknown_controller_is_clean_error(self, capsys):
        assert main(self._argv("--controllers", "nope")) == 2
        assert "unknown controller" in capsys.readouterr().err

    def test_single_rate_is_an_error(self, capsys):
        assert main(["autoscale", "--rates", "2"]) == 2
        assert "at least two segments" in capsys.readouterr().err


class TestCacheCommand:
    def test_stats_on_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "0 record(s)" in out and "0 B" in out

    def test_stats_reports_entries_and_size(self, capsys, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path / "c")
        cache.put(cache.key("demo", 1), {"x": 1})
        cache.put(cache.key("demo", 2), {"y": [1, 2, 3]})
        assert main(["cache", "stats", "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "2 record(s)" in out
        assert "0 B" not in out  # a real size is reported

    def test_clear_removes_records(self, capsys, tmp_path):
        from repro.exec.cache import ResultCache

        cache = ResultCache(tmp_path / "c")
        cache.put(cache.key("demo", 1), {"x": 1})
        assert main(["cache", "clear", "--cache-dir", str(tmp_path / "c")]) == 0
        assert "cleared 1 record(s)" in capsys.readouterr().out
        assert cache.entries() == 0
