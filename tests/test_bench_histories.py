"""The checked-in benchmark histories: every certificate chain verifies
(the same check ``python -m repro.telemetry history`` runs), and the
verify-throughput ``--no-regress`` gate reads its floor from the verified
head of its chain, failing when there is none."""

import glob
import importlib.util
import json
import os

import pytest

from repro.telemetry.certify import read_history, verify_history

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY_DIR = os.path.join(ROOT, "benchmarks", "history")
HISTORIES = sorted(glob.glob(os.path.join(HISTORY_DIR, "*.jsonl")))


def _throughput_bench():
    path = os.path.join(ROOT, "benchmarks", "bench_verify_throughput.py")
    spec = importlib.util.spec_from_file_location("bench_verify_throughput", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_histories_are_checked_in():
    assert HISTORIES


@pytest.mark.parametrize("path", HISTORIES, ids=os.path.basename)
def test_checked_in_history_verifies(path):
    entries = read_history(path)
    assert entries
    assert verify_history(entries) == []


class TestVerifyThroughputGate:
    def test_floor_comes_from_history_head(self):
        value, missing = _throughput_bench().recorded_speedup()
        head = read_history(os.path.join(HISTORY_DIR, "verify_throughput.jsonl"))[-1]
        assert missing is None
        assert value == head["results"]["batched_vs_prepared_floor"]

    def test_broken_chain_gives_no_floor(self, tmp_path):
        src = os.path.join(HISTORY_DIR, "verify_throughput.jsonl")
        entries = read_history(src)
        entries[-1]["results"]["batched_vs_prepared_floor"] = 99.0
        with open(tmp_path / "verify_throughput.jsonl", "w") as fh:
            for cert in entries:
                fh.write(json.dumps(cert) + "\n")
        value, missing = _throughput_bench().recorded_speedup(str(tmp_path))
        assert value is None
        assert "broken" in missing

    def test_missing_history_fails_the_gate(self, tmp_path, capsys):
        bench = _throughput_bench()
        bench.HISTORY_DIR = str(tmp_path)
        with pytest.raises(SystemExit) as exc:
            bench.main(["--smoke", "--no-regress", "--no-record"])
        assert exc.value.code == 1
        assert "no history" in capsys.readouterr().out
