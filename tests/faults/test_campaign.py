"""The campaign CLI: smoke preset, determinism across workers, repro."""

import json

import pytest

from repro.faults.campaign import main


def run_campaign(tmp_path, name, argv):
    out = tmp_path / name
    code = main(argv + ["--quiet", "--out", str(out)])
    return code, out.read_bytes(), json.loads(out.read_text())


@pytest.fixture(scope="module")
def smoke_report(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("campaign-sbrp")
    return run_campaign(
        tmp_path, "smoke-sbrp.json", ["--smoke", "--models", "sbrp"]
    )


class TestSmoke:
    @pytest.fixture(scope="class")
    def smoke(self, tmp_path_factory):
        tmp_path = tmp_path_factory.mktemp("campaign")
        return run_campaign(tmp_path, "smoke.json", ["--smoke"])

    def test_exit_zero(self, smoke):
        code, _, _ = smoke
        assert code == 0

    def test_clean_plans_report_zero_inconsistencies(self, smoke):
        _, _, report = smoke
        clean = [
            row
            for row in report["scenarios"]
            if row["expect"] == "consistent"
        ]
        # gpkvs x {sbrp, gpm, epoch} x {power_cut, torn_persist:last}
        # + serve_kvs x {sbrp, gpm, epoch} x power_cut
        assert len(clean) == 9
        assert all(row["outcome"] == "consistent" for row in clean)
        assert {row["model"] for row in clean} == {"sbrp", "gpm", "epoch"}
        assert {
            row["model"]
            for row in clean
            if row["app"] == "serve_kvs"
        } == {"sbrp", "gpm", "epoch"}

    def test_seeded_bugs_are_flagged(self, smoke):
        _, _, report = smoke
        assert report["summary"]["seeded_flagged"] >= 1
        seeded = [
            row
            for row in report["scenarios"]
            if row["app_params"].get("seeded_bug")
        ]
        assert seeded and all(
            row["outcome"] == "inconsistent" and row["reproducer"] is not None
            for row in seeded
        )

    def test_formal_oracle_catches_dropped_drains(self, smoke):
        _, _, report = smoke
        assert report["summary"]["litmus_unreachable_detected"] == 1
        faulty = next(
            row for row in report["litmus"] if "drain_drop" in row["name"]
        )
        assert faulty["classification"] == "unreachable_state"
        assert faulty["unreachable_images"]

    def test_static_scope_bug_detected(self, smoke):
        _, _, report = smoke
        assert report["summary"]["scope_bugs_detected"] >= 1

    def test_nothing_unexpected(self, smoke):
        _, _, report = smoke
        assert report["summary"]["unexpected"] == []


class TestDeterminism:
    ARGS = ["--smoke", "--models", "sbrp"]

    def test_reports_byte_identical_across_worker_counts(self, tmp_path):
        code1, bytes1, _ = run_campaign(
            tmp_path, "w1.json", self.ARGS + ["--workers", "1"]
        )
        code2, bytes2, _ = run_campaign(
            tmp_path, "w2.json", self.ARGS + ["--workers", "4"]
        )
        assert code1 == code2 == 0
        assert bytes1 == bytes2


class TestRepro:
    def test_reproducer_round_trips(self, tmp_path):
        code, _, report = run_campaign(
            tmp_path, "seed.json", ["--smoke", "--models", "sbrp"]
        )
        assert code == 0
        seeded = next(
            row
            for row in report["scenarios"]
            if row["app_params"].get("seeded_bug")
        )
        spec = tmp_path / "repro.json"
        spec.write_text(json.dumps(seeded["reproducer"]))
        # Exit 0 = the pinned crash point reproduced the inconsistency.
        assert main(["--repro", str(spec)]) == 0

    def test_list_plans(self, capsys):
        assert main(["--list-plans"]) == 0
        out = capsys.readouterr().out
        assert "torn_persist" in out and "ack_loss" in out


class TestCongestedTeeth:
    """``missing_ofence`` is latent under an uncongested drain; the
    campaign's congested cell must still flag it."""

    def test_cell_capacity_gives_table_regions_odd_line_parity(self):
        from repro.common.config import ModelName
        from repro.faults.campaign import APP_PARAMS, congested_cells

        [smoke] = congested_cells((ModelName.SBRP,), 12)
        [full] = congested_cells(
            (ModelName.SBRP,), 12, params=APP_PARAMS["gpkvs"]
        )
        for cell in (smoke, full):
            assert cell.app_params["seeded_bug"] == "missing_ofence"
            assert (4 * cell.app_params["capacity"] // 128) % 2 == 1
            config = cell.job().config
            assert config.memory.wpq_entries == 1
            assert config.memory.nvm_bw_scale == 0.02

    def test_congested_campaign_flags_missing_ofence(self, smoke_report):
        _, _, report = smoke_report
        row = next(
            r for r in report["scenarios"] if "~congested" in r["name"]
        )
        assert row["app_params"]["seeded_bug"] == "missing_ofence"
        assert row["outcome"] == "inconsistent"
        assert row["matched"]
        assert row["reproducer"] is not None

    def test_bug_is_latent_without_congestion(self):
        import dataclasses

        from repro.common.config import ModelName
        from repro.exec import Executor
        from repro.faults.campaign import congested_cells
        from repro.faults.plans import PowerCutPlan

        [cell] = congested_cells((ModelName.SBRP,), 12)
        latent = dataclasses.replace(
            cell,
            wpq_entries=None,
            nvm_bw_scale=None,
            plan=PowerCutPlan(),  # expectation back to consistent
        )
        result = Executor(workers=1).submit([latent.job()])[0]
        assert result.stats["faults.inconsistent_points"] == 0


class TestBadInput:
    """Bad flags and reproducer files are argparse usage errors (exit 2)
    naming the flag or file, raised before any job runs."""

    @pytest.fixture(autouse=True)
    def no_jobs(self, monkeypatch):
        from repro.exec.jobs import ScenarioJob

        def refuse(*_, **__):
            raise AssertionError("a job ran before the input was checked")

        monkeypatch.setattr("repro.faults.campaign.Executor.submit", refuse)
        monkeypatch.setattr(ScenarioJob, "execute", refuse)

    def usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        return err

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--smoke", "--max-crash-points", "0"], "--max-crash-points"),
            (["--max-crash-points", "-2"], "--max-crash-points"),
            (["--smoke", "--workers", "0"], "--workers"),
            (["--smoke", "--workers", "two"], "--workers"),
        ],
    )
    def test_bad_flag(self, argv, flag, capsys):
        assert flag in self.usage_error(argv, capsys)

    @pytest.mark.parametrize(
        "content",
        [None, "{not json", "[1, 2]", '{"app": "gpkvs"}', b"\xff\xfe"],
        ids=["missing", "not-json", "not-object", "missing-keys", "binary"],
    )
    def test_bad_reproducer_file(self, content, tmp_path, capsys):
        spec = tmp_path / "repro.json"
        if isinstance(content, bytes):
            spec.write_bytes(content)
        elif content is not None:
            spec.write_text(content)
        err = self.usage_error(["--repro", str(spec)], capsys)
        assert "--repro" in err and str(spec) in err

    def test_reproducer_must_be_a_fault_job(self, tmp_path, capsys):
        from repro.common.config import small_system
        from repro.exec.jobs import ScenarioJob

        job = ScenarioJob(app="reduction", config=small_system())
        spec = tmp_path / "scenario.json"
        spec.write_text(json.dumps(job.to_json()))
        err = self.usage_error(["--repro", str(spec)], capsys)
        assert "faults" in err and str(spec) in err
