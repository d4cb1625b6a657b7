"""``python -m repro.exec.sweep``: argument validation."""

import argparse

import pytest

from repro.exec import sweep
from repro.exec.executor import positive_int


@pytest.mark.parametrize("text, value", [("1", 1), ("8", 8)])
def test_positive_int_accepts_counts(text, value):
    assert positive_int(text) == value


@pytest.mark.parametrize("text", ["0", "-3", "2.5", "four", ""])
def test_positive_int_rejects_everything_else(text):
    with pytest.raises(argparse.ArgumentTypeError):
        positive_int(text)


@pytest.mark.parametrize("workers", ["0", "-1"])
def test_bad_workers_is_a_usage_error(workers, monkeypatch, capsys):
    def refuse(*_, **__):
        raise AssertionError("a job ran before the input was checked")

    monkeypatch.setattr(sweep.Executor, "submit", refuse)
    with pytest.raises(SystemExit) as exc:
        sweep.main(["--no-cache", "--quiet", "--workers", workers])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "--workers" in err
