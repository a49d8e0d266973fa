"""Tests for the benchmark catalogue (``repro.harness.benches``), the
``repro bench`` subcommand and the ``tools/bench_gate.py`` charge pins."""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.harness.benches import BENCHES, resolve

ROOT = Path(__file__).resolve().parent.parent
BASELINE = json.loads((ROOT / "BENCH_hotpath.json").read_text())
PINNED = sorted(
    name for name, row in BASELINE["scenarios"].items()
    if "work" in row or "depth" in row
)


def _load_gate():
    spec = importlib.util.spec_from_file_location(
        "bench_gate", ROOT / "tools" / "bench_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


class TestCatalogue:
    def test_names_unique(self):
        names = [b.name for b in BENCHES]
        assert len(names) == len(set(names))

    def test_baseline_keys_are_entries(self):
        assert set(BASELINE["scenarios"]) <= {b.name for b in BENCHES}

    def test_resolve_keeps_order_and_defaults_to_all(self):
        assert resolve([]) == BENCHES
        got = [b.name for b in resolve(["bench_par1", "bench_e1"])]
        assert got == ["bench_par1", "bench_e1"]

    def test_unknown_name_exits_2_listing_catalogue(self, capsys):
        assert main(["bench", "bench_e1", "no_such_bench"]) == 2
        err = capsys.readouterr().err
        assert "'no_such_bench'" in err
        assert all(b.name in err for b in BENCHES)

    def test_cheap_entry_smoke_json(self, capsys):
        assert main(["bench", "bench_s_substrates", "--smoke", "--json"]) == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] is True
        entry = result["benches"]["bench_s_substrates"]
        assert entry["ok"] is True
        assert entry["rows"][-1]["ops_per_sec"] > 0

    @pytest.mark.parametrize("name", PINNED)
    def test_smoke_reproduces_charge_pins(self, name):
        (bench,) = resolve([name])
        rows, ok = bench.run(True)
        assert ok
        base = BASELINE["scenarios"][name]
        assert (rows[-1]["work"], rows[-1]["depth"]) == (
            base["work"], base["depth"])


class TestGate:
    @pytest.fixture
    def gate(self, tmp_path, monkeypatch):
        gate = _load_gate()
        monkeypatch.setattr(gate, "BASELINE_PATH", tmp_path / "base.json")
        monkeypatch.setattr(gate, "LATEST_PATH", tmp_path / "latest.json")
        return gate

    def test_smoke_fails_on_bumped_pin(self, gate, capsys):
        doc = json.loads(json.dumps(BASELINE))
        doc["scenarios"]["bench_srv3_read_mix"]["depth"] += 7
        gate.BASELINE_PATH.write_text(json.dumps(doc))
        assert gate.main(["--smoke"]) == 1
        fails = [line for line in capsys.readouterr().out.splitlines()
                 if "FAIL" in line]
        assert len(fails) == 1
        assert "bench_srv3_read_mix: cost-model depth drifted" in fails[0]

    def test_baseline_scenario_without_entry_exits_2(self, gate, capsys):
        doc = json.loads(json.dumps(BASELINE))
        doc["scenarios"]["bench_gone"] = {"ops_per_sec": 1.0}
        gate.BASELINE_PATH.write_text(json.dumps(doc))
        assert gate.main(["--smoke"]) == 2
        assert "bench_gone" in capsys.readouterr().out
        assert not gate.LATEST_PATH.exists()
