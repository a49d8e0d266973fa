"""Tests for the ``python -m repro.cli`` driver."""

import pytest

from repro.cli import build_parser, main


BASE = ["--n", "40", "--m", "120", "--batch-size", "20", "--batches", "3",
        "--seed", "1"]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_defaults(self):
        args = build_parser().parse_args(["spanner"])
        assert args.n == 200 and args.k == 2 and args.workload == "mixed"

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["spanner", "--workload", "bogus"])


class TestCommands:
    @pytest.mark.parametrize(
        "argv",
        [
            ["spanner", "--k", "2", "--workload", "mixed"],
            ["spanner", "--k", "3", "--workload", "delete",
             "--base-capacity", "8"],
            ["sparse", "--workload", "churn", "--base-capacity", "8"],
            ["ultra", "--x", "2", "--workload", "mixed"],
            ["bundle", "--t", "2", "--workload", "delete"],
            ["sparsifier", "--t", "2", "--workload", "mixed"],
            ["estree", "--limit", "4", "--workload", "delete"],
        ],
    )
    def test_command_runs_and_prints_table(self, argv, capsys):
        assert main(argv + BASE) == 0
        out = capsys.readouterr().out
        assert "repro run:" in out
        assert "Brent runtimes" in out
        assert "work/upd" in out

    def test_bundle_forces_delete_workload(self, capsys):
        assert main(["bundle", "--workload", "mixed"] + BASE) == 0
        err = capsys.readouterr().err
        assert "forcing --workload delete" in err

    def test_insert_workload(self, capsys):
        assert main(["spanner", "--workload", "insert"] + BASE) == 0
        out = capsys.readouterr().out
        assert "updates" in out

    def test_sliding_workload(self, capsys):
        assert main(["sparse", "--workload", "sliding",
                     "--base-capacity", "8"] + BASE) == 0
        assert "repro run:" in capsys.readouterr().out


class TestProfileFlag:
    def test_profile_prints_report(self, capsys):
        assert main(["spanner", "--profile"] + BASE) == 0
        out = capsys.readouterr().out
        assert "function calls" in out
        assert "repro run:" in out


class TestInputFile:
    def test_edge_list_input(self, tmp_path, capsys):
        from repro.graph import gnm_random_graph, write_edge_list

        p = tmp_path / "g.txt"
        write_edge_list(p, gnm_random_graph(20, 60, seed=2))
        assert main(["spanner", "--input", str(p), "--workload", "delete",
                     "--batch-size", "20", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "updates" in out and "60" in out

    def test_input_forces_delete(self, tmp_path, capsys):
        from repro.graph import write_edge_list

        p = tmp_path / "g.txt"
        write_edge_list(p, [(0, 1), (1, 2)])
        assert main(["spanner", "--input", str(p), "--workload", "mixed",
                     "--batch-size", "2"]) == 0
        assert "forcing" in capsys.readouterr().err


class TestVersionFlag:
    def test_version_prints_and_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")


class TestServeFamilyJson:
    """Satellite: --json on every serve-family subcommand."""

    def test_serve_workload_mode_json(self, capsys):
        import json

        rc = main([
            "serve", "--n", "48", "--m", "160", "--requests", "400",
            "--shards", "2", "--no-processes", "--seed", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verified"] is True
        assert payload["served"] >= 400
        assert payload["interrupted"] is False

    def test_serve_listen_json_drains_on_sigterm(self, capsys):
        import json
        import os
        import re
        import signal
        import threading

        timer = threading.Timer(
            0.8, lambda: os.kill(os.getpid(), signal.SIGTERM))
        timer.start()
        try:
            rc = main([
                "serve", "--listen", "127.0.0.1:0", "--n", "32",
                "--m", "90", "--shards", "1", "--seed", "3",
                "--tenants", "alpha,beta", "--json",
            ])
        finally:
            timer.cancel()
        assert rc == 0
        out = capsys.readouterr().out
        assert re.search(r"NET-LISTEN 127\.0\.0\.1 \d+", out)
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["tenants"] == ["alpha", "beta"]
        assert payload["port"] > 0

    def test_replica_once_json(self, capsys):
        import json

        from repro.net import (
            NetServerConfig,
            TenantConfig,
            TenantManager,
            ThreadedServer,
        )

        spec = {"kind": "spanner", "n": 20, "k": 2,
                "edges": [(0, 1), (1, 2)], "seed": 9}
        with TenantManager() as tm:
            tm.create(TenantConfig(name="default", spec=spec,
                                   autostart=False))
            svc = tm.get("default").service
            for i in range(5):
                svc.submit_update("insert", 3 + i, 4 + i)
            svc.flush()
            with ThreadedServer(tm, NetServerConfig()) as srv:
                rc = main([
                    "replica", "--primary",
                    f"{srv.host}:{srv.port}", "--once", "--json",
                ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["records_applied"] == 1
        assert payload["last_applied_seq"] == 1
        assert payload["lag_commits"] == 0

    def test_bench_net_smoke_json(self, capsys):
        import json

        rc = main([
            "bench", "bench_srv2_replica_scaling", "--smoke", "--json",
        ])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        assert result["ok"] is True
        rows = result["benches"]["bench_srv2_replica_scaling"]["rows"]
        assert [row["replicas"] for row in rows] == [1, 2, 3]
        for row in rows:
            assert row["verified"] is True
            assert row["ops"] + row["writes"] > 0
            assert row["ops_per_sec"] > 0
            assert row["converged"] is True

    def test_chaos_replica_smoke_json(self, capsys):
        import json

        rc = main([
            "chaos", "--plans", "replica", "--smoke", "--requests", "200",
            "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["divergences"] == 0

    def test_chaos_unknown_plan_exits_2_listing_catalogue(self, capsys):
        from repro.resilience.chaos import CATALOGUE, FAMILIES

        assert main(["chaos", "--plans", "net,no_such_plan"]) == 2
        err = capsys.readouterr().err
        assert "'no_such_plan'" in err
        assert all(name in err for name in [*FAMILIES, *CATALOGUE])


class TestNetParser:
    def test_serve_listen_flags(self):
        args = build_parser().parse_args(
            ["serve", "--listen", ":7421", "--tenants", "a,b",
             "--query-slots", "4", "--service-time-us", "500",
             "--max-inflight-queries", "16"])
        assert args.listen == ":7421"
        assert args.tenants == "a,b"
        assert args.query_slots == 4
        assert args.service_time_us == 500
        assert args.max_inflight_queries == 16

    def test_replica_requires_primary(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replica"])

    def test_parse_hostport_forms(self):
        from repro.cli import _parse_hostport

        assert _parse_hostport("10.0.0.5:80") == ("10.0.0.5", 80)
        assert _parse_hostport(":7000") == ("127.0.0.1", 7000)
        assert _parse_hostport("7000") == ("127.0.0.1", 7000)
