"""The command-line interface."""

import json

import pytest

from repro.cli import _parse_size, build_parser, main
from repro.telemetry import validate_record


@pytest.fixture(autouse=True)
def _isolated_cwd(tmp_path, monkeypatch):
    """Commands write their manifest log (and farm cache) relative to
    the cwd; keep test runs out of the repository checkout."""
    monkeypatch.chdir(tmp_path)


class TestParsing:
    def test_sizes(self):
        assert _parse_size("4096") == 4096
        assert _parse_size("4K") == 4096
        assert _parse_size("1M") == 1024 * 1024
        assert _parse_size("16k") == 16384

    def test_bad_size(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_size("lots")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_workloads_lists_all_eight(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        for name in ("xlisp", "sdet", "kenbus", "mpeg_play"):
            assert name in out

    def test_run_cache(self, capsys):
        code = main(
            [
                "run", "--workload", "espresso", "--cache-size", "2K",
                "--refs", "30000", "--simulate", "user",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "slowdown" in out
        assert "2K 1-way" in out

    def test_run_tlb(self, capsys):
        code = main(
            [
                "run", "--workload", "xlisp", "--structure", "tlb",
                "--tlb-entries", "32", "--refs", "30000",
            ]
        )
        assert code == 0
        assert "32-entry" in capsys.readouterr().out

    def test_run_sampling(self, capsys):
        code = main(
            [
                "run", "--workload", "espresso", "--sampling", "8",
                "--refs", "30000",
            ]
        )
        assert code == 0
        assert "estimated" in capsys.readouterr().out

    def test_trace(self, capsys):
        code = main(
            ["trace", "--workload", "mpeg_play", "--refs", "30000"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "miss ratio" in out

    def test_reproduce_static(self, capsys):
        assert main(["reproduce", "table12"]) == 0
        assert "PowerPC" in capsys.readouterr().out

    def test_reproduce_dynamic_smoke(self, capsys):
        assert main(["reproduce", "table5", "--budget", "smoke"]) == 0
        assert "246" in capsys.readouterr().out

    def test_profile(self, capsys):
        assert main(["profile", "espresso", "--refs", "20000"]) == 0
        out = capsys.readouterr().out
        assert "Footprint" in out
        assert "espresso" in out and "bsd_server" in out

    def test_assess_port(self, capsys):
        assert main(["assess-port", "MIPS R3000"]) == 0
        assert "yes" in capsys.readouterr().out

    def test_assess_port_unknown(self, capsys):
        assert main(["assess-port", "Z80"]) == 2

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["reproduce", "figure99"])


class TestSweepCommand:
    SWEEP = [
        "sweep", "grid", "--workload", "espresso", "--refs", "20000",
        "--sets", "32,64", "--ways", "1,2",
    ]

    def test_grid_table(self, capsys):
        assert main(self.SWEEP) == 0
        out = capsys.readouterr().out
        assert "sets" in out and "ways" in out
        assert "passes" in out

    def test_grid_json_matches_per_config_runs(self, capsys):
        assert main(self.SWEEP + ["--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload["miss_counts"]) == {
            "32x1", "32x2", "64x1", "64x2"
        }
        assert set(payload["stack_distance_hist"]) == {"32", "64"}
        for hist in payload["stack_distance_hist"].values():
            assert (
                sum(hist["counts"]) + hist["overflow"] + hist["cold"]
                == payload["refs"]
            )

        from repro.caches.config import GridConfig
        from repro.tracing.cache2000 import Cache2000
        from repro.tracing.pixie import PixieTracer
        from repro.workloads import get_workload

        grid = GridConfig((32, 64), (1, 2))
        reference = Cache2000(grid.config_for(64, 2))
        tracer = PixieTracer(get_workload("espresso"))
        for chunk in tracer.trace_chunks(20000):
            reference.simulate_chunk(chunk.addresses, tid=chunk.tid)
        assert (
            payload["miss_counts"]["64x2"]
            == reference.stats.total_misses
        )

    def test_grid_writes_schema_valid_manifest(self, tmp_path, capsys):
        manifest_path = tmp_path / "manifests.jsonl"
        assert main(
            self.SWEEP + ["--manifest-out", str(manifest_path)]
        ) == 0
        capsys.readouterr()
        records = [
            json.loads(line)
            for line in manifest_path.read_text().splitlines()
        ]
        (record,) = records
        assert validate_record(record) == []
        assert record["kind"] == "sweep"
        assert record["name"] == "grid"
        assert "stack_distance_hist" in record["results"]
        assert len(record["results"]["rows"]) == 4

    def test_grid_bad_axis_list_rejected(self):
        with pytest.raises(SystemExit):
            main(["sweep", "grid", "--sets", "64,banana"])


class TestTelemetryOutputs:
    RUN = [
        "run", "--workload", "espresso", "--cache-size", "2K",
        "--refs", "20000", "--simulate", "user",
    ]

    def test_run_writes_trace_metrics_and_manifest(self, tmp_path, capsys):
        trace_path = tmp_path / "out" / "trace.json"
        metrics_path = tmp_path / "out" / "metrics.json"
        manifest_path = tmp_path / "out" / "manifests.jsonl"
        code = main(
            self.RUN
            + [
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        assert "slowdown" in capsys.readouterr().out

        trace = json.loads(trace_path.read_text())
        assert trace["traceEvents"]
        assert {e["ph"] for e in trace["traceEvents"]} <= {"M", "X", "i"}
        assert trace["otherData"]["dropped"] == 0

        metrics = json.loads(metrics_path.read_text())
        assert any(key.startswith("tapeworm.") for key in metrics)
        assert any(key.startswith("machine.cpu.refs") for key in metrics)

        (line,) = manifest_path.read_text().splitlines()
        record = json.loads(line)
        assert validate_record(record) == []
        assert record["kind"] == "run"
        assert record["name"] == "espresso"
        assert record["results"]["misses"] > 0

    def test_run_default_manifest_location(self, tmp_path):
        assert main(self.RUN) == 0
        log = tmp_path / ".farm-cache" / "manifests.jsonl"
        assert log.exists()
        (record,) = [json.loads(l) for l in log.read_text().splitlines()]
        assert validate_record(record) == []

    def test_no_manifest_suppresses_record(self, tmp_path):
        assert main(self.RUN + ["--no-manifest"]) == 0
        assert not (tmp_path / ".farm-cache" / "manifests.jsonl").exists()

    def test_metrics_out_stdout(self, capsys):
        assert main(self.RUN + ["--metrics-out", "-", "--no-manifest"]) == 0
        out = capsys.readouterr().out
        payload = out[out.index("{") :]
        metrics = json.loads(payload)
        assert "tapeworm.overhead_cycles" in metrics

    def test_trace_capacity_bounds_the_ring(self, tmp_path):
        trace_path = tmp_path / "trace.json"
        code = main(
            self.RUN
            + [
                "--trace-out", str(trace_path),
                "--trace-capacity", "8",
                "--no-manifest",
            ]
        )
        assert code == 0
        trace = json.loads(trace_path.read_text())
        assert trace["otherData"]["capacity"] == 8
        assert trace["otherData"]["dropped"] > 0
        # a serial run records on the simulated clock only
        real = [e for e in trace["traceEvents"] if e["ph"] != "M"]
        assert len(real) == 8
        assert {e["pid"] for e in real} == {1}

    def test_manifest_records_timeline_drops(self, tmp_path):
        trace_path = tmp_path / "t.json"
        manifest_path = tmp_path / "man.jsonl"
        code = main(
            self.RUN
            + [
                "--trace-capacity", "8",
                "--trace-out", str(trace_path),
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        dropped = json.loads(trace_path.read_text())["otherData"]["dropped"]
        assert dropped > 0
        (line,) = manifest_path.read_text().splitlines()
        assert json.loads(line)["metrics"]["telemetry.dropped"] == dropped

    def test_reproduce_table7_exports_artifacts(self, tmp_path, capsys):
        """The acceptance path: a Table 7 run exports a Chrome trace and
        a schema-valid JSONL manifest."""
        trace_path = tmp_path / "trace.json"
        metrics_path = tmp_path / "metrics.json"
        manifest_path = tmp_path / "manifests.jsonl"
        code = main(
            [
                "reproduce", "table7", "--budget", "tiny",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
                "--manifest-out", str(manifest_path),
            ]
        )
        assert code == 0
        assert "Table 7" in capsys.readouterr().out

        trace = json.loads(trace_path.read_text())
        assert any(e.get("cat") == "trap" for e in trace["traceEvents"])
        names = {
            e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert "simulated machine" in names

        metrics = json.loads(metrics_path.read_text())
        assert any(key.startswith("tapeworm.traps") for key in metrics)

        (record,) = [
            json.loads(line)
            for line in manifest_path.read_text().splitlines()
        ]
        assert validate_record(record) == []
        assert record["kind"] == "experiment"
        assert record["name"] == "table7"
        assert record["results"]["budget"] == "tiny"

    def test_manifest_out_stdout(self, capsys):
        assert main(self.RUN + ["--manifest-out", "-"]) == 0
        out = capsys.readouterr().out
        line = [l for l in out.splitlines() if l.startswith("{")][-1]
        assert validate_record(json.loads(line)) == []

    def test_failed_command_leaves_no_session_active(self, capsys):
        from repro.streams import active as active_streams
        from repro.telemetry import active as active_telemetry

        # --jobs 0 is rejected while the farm is built, after the
        # stream session is up
        code = main(
            ["reproduce", "table7", "--budget", "tiny", "--jobs", "0",
             "--no-manifest", "--trace-out", "t.json"]
        )
        assert code == 1
        assert "max_workers" in capsys.readouterr().err
        assert active_streams() is None
        assert active_telemetry() is None
        assert main(self.RUN + ["--no-manifest"]) == 0


class TestTelemetryCommand:
    def _seed_log(self):
        assert main(
            [
                "run", "--workload", "espresso", "--cache-size", "2K",
                "--refs", "20000", "--simulate", "user",
            ]
        ) == 0

    def test_manifests_table(self, capsys):
        self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "manifests"]) == 0
        out = capsys.readouterr().out
        assert "Run manifests" in out
        assert "espresso" in out

    def test_manifests_json(self, capsys):
        self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "manifests", "--json"]) == 0
        (line,) = capsys.readouterr().out.splitlines()
        assert validate_record(json.loads(line)) == []

    def test_manifests_empty_log(self, capsys):
        assert main(["telemetry", "manifests"]) == 0
        assert "no manifest records" in capsys.readouterr().out

    def test_manifests_last_n(self, capsys):
        for _ in range(3):
            self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "manifests", "--json", "--last", "2"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 2

    def test_validate_clean_log(self, capsys):
        self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "validate"]) == 0
        assert "1 valid, 0 invalid" in capsys.readouterr().out

    def test_validate_flags_bad_records(self, tmp_path, capsys):
        log = tmp_path / "bad.jsonl"
        log.write_text('{"kind": "run"}\n')
        code = main(["telemetry", "validate", "--manifest-path", str(log)])
        assert code == 1
        captured = capsys.readouterr()
        assert "0 valid, 1 invalid" in captured.out
        assert "missing field" in captured.err

    def test_clear(self, tmp_path, capsys):
        self._seed_log()
        capsys.readouterr()
        assert main(["telemetry", "clear"]) == 0
        assert "dropped 1 manifest record(s)" in capsys.readouterr().out
        assert not (tmp_path / ".farm-cache" / "manifests.jsonl").exists()
        assert main(["telemetry", "clear"]) == 0  # idempotent


class TestChaosCommands:
    def test_chaos_plan_prints_the_default_plan(self, capsys):
        assert main(["chaos", "plan"]) == 0
        payload = json.loads(capsys.readouterr().out)
        kinds = {entry["kind"] for entry in payload["faults"]}
        assert "ecc_double" in kinds
        assert "worker_kill" in kinds

    def test_chaos_run_enforces_the_contract(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 7,
            "audit_every": 1,
            "faults": [
                {"kind": "dma_trap_clear", "start": 1},
                {"kind": "cache_garble", "start": 0},
            ],
        }))
        report_path = tmp_path / "report.json"
        code = main([
            "chaos", "run", "--plan", str(plan_path),
            "--refs", "12000", "--report-out", str(report_path),
        ])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "contract  : OK" in out
        report = json.loads(report_path.read_text())
        assert report["ok"] is True
        resolutions = {
            o["kind"]: o["resolution"] for o in report["outcomes"]
        }
        assert resolutions["dma_trap_clear"] == "detected:auditor"
        assert resolutions["cache_garble"] == "absorbed:quarantine"

    def test_run_accepts_a_fault_plan(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps({
            "seed": 7,
            "audit_every": 1,
            "faults": [{"kind": "spurious_trap", "start": 1}],
        }))
        code = main([
            "run", "--workload", "espresso", "--cache-size", "2K",
            "--refs", "20000", "--simulate", "user",
            "--fault-plan", str(plan_path), "--no-manifest",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "faults" in out
        assert "unexpected_trap" in out

    def test_bad_fault_plan_is_a_clean_error(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        plan_path.write_text('{"faults": [{"kind": "gamma_ray"}]}')
        code = main([
            "run", "--refs", "1000", "--fault-plan", str(plan_path),
            "--no-manifest",
        ])
        assert code == 1
        assert "unknown fault kind" in capsys.readouterr().err


class TestObservabilityCommands:
    """The PR 7 surfaces: farm stats --json, trace merge, telemetry
    top, --profile, and the merged distributed trace."""

    RUN = [
        "run", "--workload", "espresso", "--cache-size", "2K",
        "--refs", "20000", "--simulate", "user",
    ]

    def test_farm_stats_json_on_empty_cache(self, capsys):
        assert main(["farm", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored_results"] == 0
        assert payload["per_measure"] == {}
        for key in ("runs", "jobs", "cache_hits", "executed"):
            assert key in payload

    def test_farm_stats_json_counts_stored_results(self, capsys):
        assert main(
            [
                "reproduce", "table7", "--budget", "tiny", "--jobs", "2",
                "--no-manifest",
            ]
        ) == 0
        capsys.readouterr()
        assert main(["farm", "stats", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stored_results"] > 0
        assert "table7.measure" in payload["per_measure"]

    def test_profile_flag_emits_profile_series(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        code = main(
            self.RUN + ["--profile", "--metrics-out", str(metrics_path)]
        )
        assert code == 0
        snapshot = json.loads(metrics_path.read_text())
        assert any(key.startswith("profile.") for key in snapshot)

    def test_no_profile_flag_emits_no_profile_series(self, tmp_path):
        metrics_path = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics_path)]) == 0
        snapshot = json.loads(metrics_path.read_text())
        assert not any(key.startswith("profile.") for key in snapshot)

    def test_trace_out_carries_span_metadata(self, tmp_path):
        trace_path = tmp_path / "t.json"
        assert main(self.RUN + ["--trace-out", str(trace_path)]) == 0
        other = json.loads(trace_path.read_text())["otherData"]
        for key in ("run_id", "capacity", "dropped", "worker_lanes"):
            assert key in other

    def test_trace_merge_remaps_pids(self, tmp_path, capsys):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        assert main(self.RUN + ["--trace-out", str(first)]) == 0
        assert main(self.RUN + ["--trace-out", str(second)]) == 0
        merged_path = tmp_path / "merged.json"
        capsys.readouterr()
        code = main(
            ["trace", "merge", str(first), str(second),
             "--out", str(merged_path)]
        )
        assert code == 0
        merged = json.loads(merged_path.read_text())
        assert merged["otherData"]["inputs"] == 2
        pids = {e["pid"] for e in merged["traceEvents"]}
        assert any(pid >= 100 for pid in pids)  # input 1's block
        assert len(merged["otherData"]["merged"]) == 2

    def test_trace_merge_to_stdout(self, tmp_path, capsys):
        trace_path = tmp_path / "a.json"
        assert main(self.RUN + ["--trace-out", str(trace_path)]) == 0
        capsys.readouterr()
        assert main(["trace", "merge", str(trace_path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["otherData"]["inputs"] == 1

    def test_trace_merge_missing_input_exits_two(self, capsys):
        assert main(["trace", "merge", "no-such-trace.json"]) == 2
        assert "no-such-trace.json" in capsys.readouterr().err

    def test_trace_without_subcommand_still_runs_a_trace(self, capsys):
        assert main(["trace", "--workload", "espresso", "--refs", "20000"]) == 0
        assert "miss ratio" in capsys.readouterr().out

    def test_telemetry_top_from_metrics_file(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        assert main(["telemetry", "top", "--metrics", str(metrics_path)]) == 0
        out = capsys.readouterr().out
        assert "Top metric series" in out
        assert "machine.cpu.refs" in out

    def test_telemetry_top_prefix_and_json(self, tmp_path, capsys):
        metrics_path = tmp_path / "metrics.json"
        assert main(self.RUN + ["--metrics-out", str(metrics_path)]) == 0
        capsys.readouterr()
        code = main(
            ["telemetry", "top", "--metrics", str(metrics_path),
             "--prefix", "machine.", "--json", "-n", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload
        assert len(payload) <= 3
        assert all(key.startswith("machine.") for key in payload)

    def test_telemetry_top_from_latest_manifest(self, capsys):
        assert main(self.RUN) == 0
        capsys.readouterr()
        assert main(["telemetry", "top"]) == 0
        assert "Top metric series" in capsys.readouterr().out

    def test_telemetry_top_missing_snapshot_exits_two(self, capsys):
        assert main(["telemetry", "top", "--metrics", "nope.json"]) == 2

    def test_distributed_run_merges_worker_lanes(self, tmp_path, capsys):
        """The PR acceptance path: a farmed, profiled reproduction
        exports ONE Chrome trace holding the master's lanes plus one
        lane per worker, and the master's metrics hold the workers'."""
        trace_path = tmp_path / "t.json"
        metrics_path = tmp_path / "m.json"
        code = main(
            [
                "reproduce", "table7", "--budget", "tiny", "--jobs", "2",
                "--profile", "--no-manifest",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0, capsys.readouterr().err
        trace = json.loads(trace_path.read_text())
        other = trace["otherData"]
        if other["worker_lanes"] == 0:  # pragma: no cover - restricted env
            import pytest

            pytest.skip("no process pool available")
        assert other["worker_lanes"] >= 2
        worker_jobs = [
            e for e in trace["traceEvents"]
            if e.get("name") == "worker.job" and e.get("ph") == "X"
        ]
        assert worker_jobs
        assert all(
            e["args"]["run_id"] == other["run_id"] for e in worker_jobs
        )
        metrics = json.loads(metrics_path.read_text())
        assert any(k.startswith("farm.worker.") for k in metrics)
        assert any(
            k.startswith(("profile.", "farm.worker.profile."))
            for k in metrics
        )


class TestServiceCommands:
    """``serve``, ``jobs list|retry|gc`` and ``farm clear`` on one
    three-job journaled batch of the chaos probe."""

    SERVE = ["serve", "--seeds", "3", "--jobs", "1", "--cache-dir", "svc"]

    @pytest.fixture(autouse=True)
    def _batch(self, capsys):
        assert main(self.SERVE) == 0
        self.serve_out = capsys.readouterr().out

    def test_serve_prints_the_batch_values(self):
        assert "values        : [1.0, 5.0, 11.0]" in self.serve_out

    def test_jobs_list_shows_every_job_done(self, capsys):
        assert main(["jobs", "list", "--cache-dir", "svc"]) == 0
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if "chaos.probe" in line
        ]
        assert [row[1] for row in rows] == ["done"] * 3

    def test_jobs_retry_requeues_nothing_after_a_clean_batch(self, capsys):
        assert main(["jobs", "retry", "--cache-dir", "svc", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["requeued"] == 0

    def test_jobs_gc_at_zero_budget_evicts_every_result(self, capsys):
        code = main(
            ["jobs", "gc", "--cache-budget", "0", "--cache-dir", "svc",
             "--json"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["evicted"] == 3

    def test_farm_clear_reports_what_it_dropped(self, capsys):
        assert main(["farm", "clear", "--cache-dir", "svc"]) == 0
        assert (
            "dropped 3 cached result(s) from svc/"
            in capsys.readouterr().out
        )


class TestSampleCommands:
    ARGS = ["--workload", "espresso", "--budget", "tiny", "--json"]

    def test_profile_json(self, capsys):
        assert main(["sample", "profile", *self.ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "workload", "task", "total_refs", "interval_refs",
            "n_intervals", "features",
        }
        assert payload["workload"] == "espresso"
        assert len(payload["features"]) == payload["n_intervals"]

    def test_plan_json(self, capsys):
        assert main(["sample", "plan", *self.ARGS]) == 0
        payload = json.loads(capsys.readouterr().out)
        for key in ("n_intervals", "n_phases", "labels", "samples", "seed"):
            assert key in payload
        assert len(payload["labels"]) == payload["n_intervals"]

    def test_stats_lists_a_sampled_record(self, capsys):
        from repro import telemetry

        telemetry.write_manifest(
            telemetry.RunManifest(
                kind="experiment",
                name="table7",
                configuration="budget=tiny, interval-sampled",
                config_hash="0" * 16,
                estimates={
                    "espresso.misses": {
                        "value": 200.0, "ci_low": 190.0, "ci_high": 210.0,
                        "method": "stratified", "exact": False,
                    }
                },
            )
        )
        assert main(["sample", "stats"]) == 0
        out = capsys.readouterr().out
        assert "Sampled-run estimates" in out
        assert "espresso.misses" in out
        assert "±5.0%" in out


#: every parser that takes ``--refs``, with what else it needs to parse
REFS_COMMANDS = [
    ["run"],
    ["trace"],
    ["profile", "espresso"],
    ["chaos", "run"],
    ["streams", "warm", "--workload", "espresso", "--stream-dir", "store"],
    ["sample", "profile"],
    ["sample", "plan"],
    ["sweep", "grid"],
]


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("command", REFS_COMMANDS, ids=" ".join)
def test_refs_must_be_positive(command, value, tmp_path, capsys):
    """A non-positive ``--refs`` is a usage error on every command, and
    it is caught before any store, session or farm is touched."""
    with pytest.raises(SystemExit) as exc:
        main([*command, "--refs", value])
    assert exc.value.code == 2
    assert "--refs" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


class TestMalformedInputs:
    """Commands that read user files name bad records instead of
    dying in a traceback."""

    def _valid_record(self, **changes):
        from repro import telemetry

        record = telemetry.RunManifest(
            kind="experiment",
            name="table7",
            configuration="budget=tiny, interval-sampled",
            config_hash="0" * 16,
            estimates={
                "misses": {
                    "value": 100.0, "ci_low": 90.0, "ci_high": 110.0,
                    "method": "stratified", "exact": False,
                }
            },
        ).record()
        record.update(changes)
        return record

    def _write_log(self, tmp_path, *records):
        log = tmp_path / "log.jsonl"
        log.write_text("".join(json.dumps(r) + "\n" for r in records))
        return str(log)

    def test_manifests_skips_invalid_records(self, tmp_path, capsys):
        log = self._write_log(
            tmp_path,
            {"name": "x", "created_unix": "yesterday"},
            self._valid_record(),
        )
        assert main(["telemetry", "manifests", "--manifest-path", log]) == 0
        captured = capsys.readouterr()
        assert "table7" in captured.out
        assert "skipped 1" in captured.err
        assert "repro telemetry validate" in captured.err

    def test_sample_stats_skips_invalid_estimates(self, tmp_path, capsys):
        bad = self._valid_record()
        bad["estimates"]["misses"]["value"] = "lots"
        log = self._write_log(tmp_path, bad, self._valid_record(name="ok"))
        assert main(["sample", "stats", "--manifest-path", log]) == 0
        captured = capsys.readouterr()
        assert "±10.0%" in captured.out
        assert "lots" not in captured.out
        assert "skipped 1" in captured.err
        assert "repro telemetry validate" in captured.err

    def test_telemetry_top_renders_only_numbers(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        metrics.write_text(json.dumps({"a": "x", "b": 2}))
        assert main(["telemetry", "top", "--metrics", str(metrics)]) == 0
        rows = [
            line.split()[0]
            for line in capsys.readouterr().out.splitlines()[1:]
            if line.strip()
        ]
        assert "b" in rows
        assert "a" not in rows

    def test_trace_merge_rejects_a_non_object(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        trace.write_text("[1, 2]")
        assert main(["trace", "merge", str(trace)]) == 2
        assert str(trace) in capsys.readouterr().err
