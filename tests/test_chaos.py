"""The chaos campaign harness (``repro.faults.chaos`` + ``repro chaos``).

Covers seeded schedule generation (deterministic, gray+fail-stop mix),
campaign execution against fault-free baselines, delta-debugging shrink
of failing plans to minimal replayable JSON, warehouse record schema,
the straggler-avoidance experiment, and the CLI wiring (exit codes,
artifacts, report files).
"""

import json
import os

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.faults import FaultPlan, LinkDrop, LinkSlow, NodeKill
from repro.faults import chaos
from repro.__main__ import main


# ---------------------------------------------------------------------------
# schedules
# ---------------------------------------------------------------------------


class TestScheduleGeneration:
    def test_deterministic(self):
        a = chaos.generate_schedules(8, master_seed=3, n_dims=4, sizes=(8,))
        b = chaos.generate_schedules(8, master_seed=3, n_dims=4, sizes=(8,))
        assert [s.as_dict() for s in a] == [s.as_dict() for s in b]

    def test_independent_child_seeds(self):
        """Schedule i is a function of (master_seed, i) alone."""
        short = chaos.generate_schedules(3, master_seed=5, sizes=(8,))
        long = chaos.generate_schedules(6, master_seed=5, sizes=(8,))
        assert [s.as_dict() for s in short] == [
            s.as_dict() for s in long[:3]
        ]

    def test_mixes_fault_families(self):
        schedules = chaos.generate_schedules(
            30, master_seed=0, sizes=(8,)
        )
        kinds = {
            type(ev).__name__
            for s in schedules
            for ev in s.plan.events
        }
        assert {"LinkSlow", "NodeSlow", "LinkFlaky"} & kinds
        assert {"LinkKill", "NodeKill", "LinkDrop"} & kinds

    def test_sdc_only_with_abft(self):
        """Bit flips without the checksum layer corrupt by design — the
        generator must never pair them with abft off."""
        for s in chaos.generate_schedules(40, master_seed=1, sizes=(8,)):
            sdc = [
                ev for ev in s.plan.events
                if type(ev).__name__ in ("BitFlip", "LinkCorrupt")
            ]
            if sdc:
                assert s.flags["abft"]

    def test_bad_arguments_rejected(self):
        with pytest.raises(ConfigError, match="count"):
            chaos.generate_schedules(0)
        with pytest.raises(ConfigError, match="workload"):
            chaos.generate_schedules(2, workloads=("gaussian", "mystery"))
        with pytest.raises(ConfigError, match="workload"):
            chaos.checkpoint_windows("mystery", 8, 0, 4)


# ---------------------------------------------------------------------------
# running schedules
# ---------------------------------------------------------------------------


class TestRunSchedule:
    def test_small_campaign_all_ok(self):
        report = chaos.run_campaign(6, master_seed=0, n_dims=4, sizes=(8,))
        assert report["ok"] == 6
        assert report["failed"] == 0
        assert report["failures"] == []
        assert report["total_fault_events"] > 0

    def test_run_schedule_is_deterministic(self):
        baselines = chaos.BaselineCache()
        [schedule] = chaos.generate_schedules(
            1, master_seed=2, sizes=(8,), baselines=baselines
        )
        a = chaos.run_schedule(schedule, baselines)
        b = chaos.run_schedule(schedule, baselines)
        assert a == b


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


class TestShrink:
    def test_shrinks_to_single_culprit(self):
        """ddmin isolates the one event the failure depends on."""
        culprit = NodeKill(50.0, pid=3)
        noise = [
            LinkDrop(float(10 + i), dim=i % 3, count=1) for i in range(7)
        ] + [LinkSlow(30.0, dim=1, pid=0, factor=2.0)]
        plan = FaultPlan(noise + [culprit])

        def failing(candidate):
            return culprit in candidate.events

        minimal, runs = chaos.shrink_plan(plan, failing)
        assert minimal.events == (culprit,)
        assert runs > 0

    def test_shrinks_conjunction(self):
        """Failures needing two events keep exactly those two."""
        a = NodeKill(10.0, pid=1)
        b = NodeKill(20.0, pid=2)
        noise = [LinkDrop(float(i), dim=0, count=1) for i in range(6)]
        plan = FaultPlan(noise + [a, b])

        def failing(candidate):
            return a in candidate.events and b in candidate.events

        minimal, _ = chaos.shrink_plan(plan, failing)
        assert set(minimal.events) == {a, b}

    def test_respects_run_budget(self):
        plan = FaultPlan(
            [LinkDrop(float(i), dim=0, count=1) for i in range(20)]
        )
        calls = []

        def failing(candidate):
            calls.append(len(candidate))
            return True  # everything "fails": worst case for ddmin

        minimal, runs = chaos.shrink_plan(plan, failing, max_runs=10)
        assert runs <= 10
        assert len(calls) <= 10
        assert len(minimal) >= 1


class TestFailurePath:
    def test_failure_is_shrunk_and_archived(self, tmp_path, monkeypatch):
        """A failing schedule produces a minimized replayable plan file."""
        real = chaos.run_schedule
        poison = NodeKill(1.0, pid=7)

        def rigged(schedule, baselines=None):
            out = real(schedule, baselines)
            if poison.pid in [
                getattr(ev, "pid", None) for ev in schedule.plan.events
            ] or schedule.index == 2:
                out = dict(out)
                out["ok"] = False
                out["error"] = "rigged failure for testing"
            return out

        monkeypatch.setattr(chaos, "run_schedule", rigged)
        art = tmp_path / "artifacts"
        report = chaos.run_campaign(
            4, master_seed=0, n_dims=4, sizes=(8,),
            artifact_dir=str(art),
        )
        assert report["failed"] >= 1
        [failure] = [
            f for f in report["failures"]
            if f["schedule"]["index"] == 2
        ]
        assert failure["minimized_events"] <= len(
            failure["schedule"]["plan"]["events"]
        )
        path = failure["minimized_path"]
        assert os.path.exists(path)
        # the artifact is a replayable fault plan
        replayed = FaultPlan.from_json(path)
        assert len(replayed) == failure["minimized_events"]

    def test_artifact_dir_created_even_when_green(self, tmp_path):
        art = tmp_path / "green-artifacts"
        report = chaos.run_campaign(
            2, master_seed=0, n_dims=4, sizes=(8,), artifact_dir=str(art)
        )
        assert report["failed"] == 0
        assert art.is_dir()


# ---------------------------------------------------------------------------
# straggler experiment + warehouse records
# ---------------------------------------------------------------------------


class TestStragglerExperiment:
    def test_avoidance_wins(self):
        result = chaos.straggler_experiment(n_dims=4)
        assert result["straggler_detours"] > 0
        assert result["ticks_avoidance_on"] < result["ticks_avoidance_off"]
        assert result["tick_reduction"] > 0.0


class TestWarehouseRecords:
    def test_records_validate_and_round_trip(self, tmp_path):
        from repro.metrics import warehouse as wh

        report = chaos.run_campaign(2, master_seed=0, n_dims=4, sizes=(8,))
        straggler = chaos.straggler_experiment(n_dims=4)
        records = [
            chaos.campaign_record(report, 1.0),
            chaos.straggler_record(straggler, 0.1),
        ]
        for record in records:
            assert record["kind"] == "chaos"
            wh.validate_record(record)
        path = str(tmp_path / "runs.jsonl")
        assert wh.append_records(records, path) == 2
        loaded = wh.load_records(path)
        assert [r["workload"] for r in loaded] == [
            "chaos_campaign", "chaos_straggler"
        ]
        assert loaded[0]["metrics"]["chaos.failed"] == 0
        assert loaded[1]["metrics"]["chaos.straggler.reduction"] > 0

    def test_chaos_records_do_not_pin_baselines(self, tmp_path):
        """The regression gate keys on run records; chaos history rides
        along without pinning."""
        from repro.metrics import warehouse as wh

        report = chaos.run_campaign(2, master_seed=0, n_dims=4, sizes=(8,))
        record = chaos.campaign_record(report, 1.0)
        baselines = wh.pin_baselines(
            [record], str(tmp_path / "baselines.json")
        )
        assert baselines["entries"] == {}

    def test_unknown_kind_still_rejected(self):
        from repro.metrics import warehouse as wh

        report = chaos.run_campaign(1, master_seed=0, n_dims=4, sizes=(8,))
        record = chaos.campaign_record(report, 1.0)
        record["kind"] = "mystery"
        with pytest.raises(ConfigError, match="kind"):
            wh.validate_record(record)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestChaosCLI:
    def test_smoke_run(self, tmp_path, capsys):
        art = tmp_path / "artifacts"
        out = tmp_path / "report.json"
        code = main([
            "chaos", "-n", "4", "--schedules", "4", "--seed", "0",
            "--sizes", "8", "--artifact-dir", str(art),
            "--out", str(out), "--no-warehouse",
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["ok"] == 4
        assert report["straggler"]["tick_reduction"] > 0
        assert art.is_dir()
        text = capsys.readouterr().out
        assert "chaos campaign" in text

    def test_json_output_and_warehouse(self, tmp_path, capsys):
        from repro.metrics import warehouse as wh

        code = main([
            "chaos", "-n", "4", "--schedules", "2", "--seed", "1",
            "--sizes", "8", "--artifact-dir", str(tmp_path / "a"),
            "--warehouse", str(tmp_path / "wh"), "--json",
        ])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["failed"] == 0
        records = wh.load_records(
            os.path.join(str(tmp_path / "wh"), wh.RUNS_FILE)
        )
        assert [r["workload"] for r in records] == [
            "chaos_campaign", "chaos_straggler"
        ]

    def test_bad_sizes_is_a_clean_config_error(self, tmp_path, capsys):
        code = main([
            "chaos", "--schedules", "1", "--sizes", "eight",
            "--artifact-dir", str(tmp_path / "a"), "--no-warehouse",
        ])
        assert code == 2
        assert "--sizes" in capsys.readouterr().err

    def test_bad_fault_plan_file_is_a_clean_config_error(
        self, tmp_path, capsys
    ):
        """Satellite: --fault-plan validation surfaces as exit 2 with the
        offending entry named, not a traceback."""
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"events": [
            {"kind": "LinkSlow", "time": 1.0, "warp": 9},
        ]}))
        code = main([
            "faults", "-n", "3", "--fault-plan", str(path),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "events[0]" in err
        assert "unknown field" in err
