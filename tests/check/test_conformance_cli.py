"""The conformance CLI and its MODE_CHECK job plumbing."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from repro.check import conformance
from repro.check.conformance import main
from repro.check.enumerator import SMOKE_VARIANTS
from repro.check.fuzzer import generate_stream
from repro.common.config import ModelName, small_system
from repro.common.errors import ConfigError
from repro.exec import MODE_CHECK, ScenarioJob

#: sha256 of ``python -m repro.check.conformance --smoke --quiet
#: --workers 1``: every oracle verdict, coverage count and shrunk
#: counterexample of the smoke campaign, as produced by the networkx
#: implementation of the formal model that the bitmask orders replaced.
SMOKE_REPORT_SHA256 = (
    "182da4f8294c1c53b577fd3ed252f963a410c370f390369ee98d1da1915e28a7"
)


def make_check_job(mutant=None):
    programs = generate_stream(3, 2)
    return ScenarioJob(
        app="conformance",
        config=small_system(ModelName.SBRP),
        mode=MODE_CHECK,
        verify=False,
        check={
            "programs": [p.to_json() for p in programs],
            "model": "sbrp",
            "mutant": mutant,
            "variants": [v.to_json() for v in SMOKE_VARIANTS[:1]],
            "crash_points": 16,
        },
    )


class TestCheckJobs:
    def test_check_payload_required_for_mode(self):
        with pytest.raises(ConfigError):
            ScenarioJob(
                app="conformance",
                config=small_system(ModelName.SBRP),
                mode=MODE_CHECK,
            )
        with pytest.raises(ConfigError):
            ScenarioJob(
                app="conformance",
                config=small_system(ModelName.SBRP),
                check={"programs": []},
            )

    def test_job_round_trips_and_hashes_stably(self):
        job = make_check_job()
        clone = ScenarioJob.from_json(job.to_json())
        assert clone.spec_hash == job.spec_hash
        assert clone.check == job.check

    def test_label_carries_the_mutant(self):
        assert "[ofence_noop]" in make_check_job(mutant="ofence_noop").label
        assert "[check]" in make_check_job().label

    def test_execute_returns_per_program_reports(self):
        result = make_check_job().execute()
        assert result.app == "conformance"
        assert result.stats["check.programs"] == 2
        assert result.stats["check.violations"] == 0
        assert len(result.detail["programs"]) == 2


class TestCli:
    def test_list_mutants(self, capsys):
        assert main(["--list-mutants"]) == 0
        out = capsys.readouterr().out
        assert "ack_without_flush" in out and "pb_lifo_drain" in out

    def test_tiny_stock_run_exits_zero(self, tmp_path):
        out = tmp_path / "report.json"
        code = main(
            [
                "--smoke", "--programs", "2", "--mutants", "none",
                "--models", "sbrp", "--out", str(out), "--quiet",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["summary"]["stock_violations"] == 0
        assert report["models"]["sbrp"]["programs"] == report[
            "corpus_programs"
        ] + 2

    def test_report_worker_independent(self, tmp_path):
        args = [
            "--smoke", "--programs", "2", "--mutants", "ack_without_flush",
            "--mutant-programs", "0", "--models", "sbrp", "--no-shrink",
            "--quiet",
        ]
        paths = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}.json"
            code = main(args + ["--workers", workers, "--out", str(out)])
            assert code == 0
            paths.append(out)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_mutant_is_caught_and_shrunk(self, tmp_path):
        out = tmp_path / "mutant.json"
        code = main(
            [
                "--smoke", "--programs", "0", "--mutant-programs", "0",
                "--models", "sbrp", "--mutants", "ack_without_flush",
                "--out", str(out), "--quiet",
            ]
        )
        assert code == 0
        entry = json.loads(out.read_text())["mutants"]["ack_without_flush"]
        assert entry["caught"]
        assert entry["shrunk_ops"] <= 6
        assert "def test_conformance_regression" in entry["regression_test"]

    def test_smoke_report_digest_is_pinned(self, tmp_path):
        out = tmp_path / "smoke.json"
        code = main(
            ["--smoke", "--quiet", "--workers", "1", "--out", str(out)]
        )
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            SMOKE_REPORT_SHA256
        )

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["--batch-size", "0"], "--batch-size"),
            (["--models", "bogus"], "--models"),
            (["--models", "sbrp,"], "--models"),
            (["--mutants", "bogus"], "--mutants"),
            (["--mutants", "ofence_noop,bogus"], "--mutants"),
            (["--programs", "-3"], "--programs"),
            (["--mutant-programs", "-1"], "--mutant-programs"),
            (["--crash-points", "-1"], "--crash-points"),
            (["--crash-points", "0"], "--crash-points"),
            (["--workers", "0"], "--workers"),
        ],
    )
    def test_bad_input_is_a_usage_error(self, args, flag, monkeypatch, capsys):
        def no_jobs(**_):
            raise AssertionError("a job ran before the input was checked")

        monkeypatch.setattr(conformance, "build_report", no_jobs)
        with pytest.raises(SystemExit) as exc:
            main(args + ["--quiet"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err


class TestDependencies:
    def test_formal_model_does_not_import_networkx(self):
        code = (
            "import sys, repro.formal, repro.check.conformance; "
            "assert 'networkx' not in sys.modules, 'networkx imported'"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
