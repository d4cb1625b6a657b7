"""``python -m repro.serve.bench``: grid coverage and determinism."""

import json

import pytest

import repro.serve.bench as bench
from repro.serve.txn import POLICIES


@pytest.fixture(scope="module")
def smoke_doc(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("serve-bench")
    out = tmp_path / "serve_smoke.json"
    assert bench.main(["--smoke", "--out", str(out), "--quiet"]) == 0
    return out.read_bytes(), json.loads(out.read_text())


class TestReport:
    def test_grid_covers_models_x_policies(self, smoke_doc):
        _, doc = smoke_doc
        labels = {"GPM", "EPOCH-far", "SBRP-far"}
        expected = {
            f"{label}/{policy}" for label in labels for policy in POLICIES
        }
        assert set(doc["cells"]) == expected
        assert set(doc["summary"]) == labels

    def test_cells_carry_slo_stats(self, smoke_doc):
        _, doc = smoke_doc
        for cell in doc["cells"].values():
            assert cell["serve.throughput_rps"] > 0
            assert cell["serve.latency_p99"] >= cell["serve.latency_p50"] > 0
            assert cell["serve.recovery_cycles"] > 0
            assert cell["cycles"] > 0

    def test_summary_has_both_forced_ratios(self, smoke_doc):
        _, doc = smoke_doc
        for ratios in doc["summary"].values():
            assert set(ratios) == {
                "adaptive_vs_forced_pb",
                "adaptive_vs_forced_direct",
            }
            assert all(r > 0 for r in ratios.values())

    def test_report_is_sorted_json(self, smoke_doc):
        raw, doc = smoke_doc
        assert json.dumps(doc, indent=2, sort_keys=True) + "\n" == raw.decode()


class TestDeterminism:
    def test_byte_identical_across_worker_counts(self, tmp_path):
        one = tmp_path / "w1.json"
        two = tmp_path / "w2.json"
        assert bench.main(["--smoke", "--out", str(one), "--quiet"]) == 0
        assert bench.main(
            ["--smoke", "--workers", "2", "--out", str(two), "--quiet"]
        ) == 0
        assert one.read_bytes() == two.read_bytes()


@pytest.mark.parametrize("workers", ["0", "-1", "many"])
def test_bad_workers_is_a_usage_error(workers, monkeypatch, capsys):
    def refuse(*_, **__):
        raise AssertionError("a job ran before the input was checked")

    monkeypatch.setattr(bench.Executor, "submit", refuse)
    with pytest.raises(SystemExit) as exc:
        bench.main(["--smoke", "--quiet", "--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--workers" in err
