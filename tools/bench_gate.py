#!/usr/bin/env python
"""Benchmark regression gate for the batch-update and serving hot paths.

Runs a pinned subset of the ``benchmarks/`` scenarios — the E1 update
throughput loop, the SRV1 serving-throughput configuration, the SRV2
replica-scaling run, and the Lemma 3.1 substrate microbenchmark — and
compares the measured throughput against the committed baseline in
``BENCH_hotpath.json``.  A scenario that
regresses by more than the threshold (default 15%) fails the gate.

The JSON records, per scenario, wall-clock throughput (ops/sec), the p99
flush latency where applicable, and the cost-model work/depth constants.
The constants are machine-independent: they must stay *identical* across
refactors of the charging code (charge preservation), so the gate fails on
any drift in them regardless of the throughput threshold.

Usage::

    PYTHONPATH=src python tools/bench_gate.py                  # gate
    PYTHONPATH=src python tools/bench_gate.py --update-baseline
    PYTHONPATH=src python tools/bench_gate.py --smoke          # CI wiring

* default: measure, write ``BENCH_hotpath.latest.json``, exit 1 on
  regression against the committed ``BENCH_hotpath.json``;
* ``--update-baseline``: measure and (re)write ``BENCH_hotpath.json`` —
  run this on the reference machine after intentional perf changes and
  commit the result;
* ``--smoke``: miniature workloads and no throughput comparison (CI
  machines are too noisy for wall-clock gating); still validates the
  committed baseline's schema and the work/depth constants of the small
  scenarios, so the gate wiring itself cannot rot.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.pram import CostModel  # noqa: E402
from repro.service.driver import ServeConfig, run_serve  # noqa: E402
from repro.spanner import FullyDynamicSpanner  # noqa: E402
from repro.structures import PriorityArray, VectorPredicate  # noqa: E402
from repro.workloads import mixed_stream  # noqa: E402

BASELINE_PATH = ROOT / "BENCH_hotpath.json"
LATEST_PATH = ROOT / "BENCH_hotpath.latest.json"

#: throughput fields gated by the regression threshold
GATED_FIELDS = ("ops_per_sec",)
#: cost-model fields that must match the baseline exactly
EXACT_FIELDS = ("work", "depth")
#: headroom factor applied when (re)writing memory ceilings
MEMORY_HEADROOM = 1.5


def _best_of(repeats: int, fn):
    """(best elapsed seconds, last result) over ``repeats`` runs."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        best = min(best, dt)
    return best, result


def bench_e1_update_throughput(smoke: bool) -> dict:
    """Pinned ``test_e1_update_throughput``: mixed update stream through
    the fully-dynamic spanner (construction included, as in the bench)."""
    if smoke:
        n, m, batch, batches = 48, 160, 16, 4
    else:
        n, m, batch, batches = 128, 512, 64, 8
    wl = mixed_stream(n, m, batch_size=batch, num_batches=batches, seed=3)
    ops = sum(
        len(b.insertions) + len(b.deletions) for b in wl.batches
    )

    def run(cost=None):
        kw = {"cost": cost} if cost is not None else {}
        sp = FullyDynamicSpanner(n, wl.initial_edges, k=2, seed=3,
                                 base_capacity=64, **kw)
        for b in wl.batches:
            sp.update(insertions=b.insertions, deletions=b.deletions)
        return sp.spanner_size()

    elapsed, size = _best_of(1 if smoke else 3, run)
    assert size > 0
    cm = CostModel()
    run(cost=cm)
    return {
        "ops": ops,
        "ops_per_sec": round(ops / elapsed, 1),
        "work": cm.work,
        "depth": cm.depth,
        "work_per_op": round(cm.work / ops, 1),
    }


def bench_srv_service_throughput(smoke: bool) -> dict:
    """Pinned SRV1 deadline=8ms configuration (in-process shards, no
    verification pass — pure serving-loop wall clock)."""
    if smoke:
        cfg = ServeConfig(n=48, m=160, requests=600, seed=11, shards=2,
                          processes=False, max_delay=8e-3,
                          queue_capacity=4096, max_batch=100_000)
    else:
        cfg = ServeConfig(n=192, m=768, requests=6000, seed=11, shards=2,
                          processes=False, max_delay=8e-3,
                          queue_capacity=4096, max_batch=100_000)
    best_rps = 0.0
    report = None
    for _ in range(1 if smoke else 3):
        report = run_serve(cfg, verify=False)
        best_rps = max(best_rps, report.throughput_rps)
    m = report.metrics
    assert report.applied_ops > 0
    return {
        "ops": report.served,
        "ops_per_sec": round(best_rps, 1),
        "flush_p99_ms": round(1000 * m.get("flush_latency_s.p99", 0.0), 3),
        "batch_work_mean": round(m.get("batch_work.mean", 0.0), 1),
        "batch_depth_mean": round(m.get("batch_depth.mean", 0.0), 1),
    }


def bench_s_substrates(smoke: bool) -> dict:
    """Pinned Lemma 3.1 substrate loop: PriorityArray construction plus
    the NextWith galloping scans of ``bench_s_substrates``, on the
    array-native bulk path (``from_arrays`` + ``VectorPredicate``) — same
    item/scan counts and byte-identical charges as the scalar loop."""
    import numpy as np

    if smoke:
        universe, size, targets = 1 << 10, 256, (8, 64, 256)
        inner = 1
    else:
        universe, size, targets = 1 << 14, 4096, (8, 64, 512, 4096)
        # one build+scan pass lasts well under a millisecond — far too
        # short a window to gate at 15% (run-to-run noise alone exceeds
        # that); repeating it inside the timed region stretches the window
        inner = 16

    def once(cost=None):
        kw = {"cost": cost} if cost is not None else {}
        vals = np.arange(size)
        pa = PriorityArray.from_arrays(
            universe, vals, (universe - 2) - vals, **kw
        )
        for target in targets:
            pred = VectorPredicate(
                lambda v, t=target: v == t - 1,
                lambda a, t=target: a == t - 1,
            )
            q = pa.next_with(1, pred)
            assert q == target
        return pa

    def run():
        for _ in range(inner):
            once()

    elapsed, _ = _best_of(1 if smoke else 5, run)
    cm = CostModel()
    once(cost=cm)  # constants are per single build+scan pass
    ops = inner * (size + sum(targets))  # items built + positions scanned
    return {
        "ops": ops,
        "ops_per_sec": round(ops / elapsed, 1),
        "work": cm.work,
        "depth": cm.depth,
    }


def bench_srv2_replica_scaling(smoke: bool) -> dict:
    """Pinned SRV2 configuration: read throughput of an in-process
    primary + log-shipping replica cluster at 1 vs 3 replicas, with a
    pinned simulated per-query service time (so read capacity scales
    with replica count by construction, even on a 1-core CI box).
    Oracle-exact replica equivalence is asserted on every run; the full
    run additionally asserts the >=2.5x scaling acceptance bar."""
    from repro.net.bench import BenchNetConfig, run_bench_net

    if smoke:
        sizes = dict(requests=200, service_time=1e-3)
    else:
        sizes = dict(requests=2000, service_time=2e-3)
    rps = {}
    report = None
    for replicas in (1, 3):
        cfg = BenchNetConfig(replicas=replicas, seed=1234,
                             mode="inproc", **sizes)
        report = run_bench_net(cfg)
        assert report.verified, report.violations
        rps[replicas] = report.read_throughput_rps
    scaling = rps[3] / rps[1]
    if not smoke:
        assert scaling >= 2.5, (
            f"SRV2 scaling bar missed: 3-replica reads only {scaling:.2f}x "
            "the 1-replica throughput (acceptance requires >=2.5x)"
        )
    return {
        "ops": report.reads,
        "ops_per_sec": round(rps[3], 1),
        "read_p99_ms": round(report.read_p99_ms, 3),
        "scaling_x": round(scaling, 2),
    }


def bench_srv3_read_mix(smoke: bool) -> dict:
    """Pinned SRV3 configuration: batched vs query-at-a-time reads on a
    95/5 read-write mix.  Exact batch/singleton equivalence is asserted
    on every run; the full run additionally asserts the >=3x speedup
    acceptance bar, and the batched pass's cost-model work/depth land in
    the exact-match fields (shared-traversal charging is charge-
    preserving by construction — per-query sweeps creeping back in would
    blow the constants, not just the wall clock)."""
    from repro.queries.bench import BenchQueriesConfig, run_bench_queries

    if smoke:
        cfg = BenchQueriesConfig(requests=800, repeats=1)
    else:
        cfg = BenchQueriesConfig(repeats=3)
    report = run_bench_queries(cfg)
    assert report.verified, report.violations
    if not smoke:
        assert report.speedup_x >= 3.0, (
            f"SRV3 speedup bar missed: batched reads only "
            f"{report.speedup_x:.2f}x the singleton path "
            "(acceptance requires >=3x)"
        )
    return {
        "ops": report.reads,
        "ops_per_sec": round(report.batched_rps, 1),
        "speedup_x": round(report.speedup_x, 2),
        "work": report.work,
        "depth": report.depth,
        "dedup_ratio": round(report.dedup_ratio, 3),
    }


SCENARIOS = {
    "bench_e1": bench_e1_update_throughput,
    "bench_srv_service_throughput": bench_srv_service_throughput,
    "bench_s_substrates": bench_s_substrates,
    "bench_srv2_replica_scaling": bench_srv2_replica_scaling,
    "bench_srv3_read_mix": bench_srv3_read_mix,
}


def _peak_rss_mb() -> float:
    """Process peak RSS in MB (Linux ru_maxrss is KB; macOS is bytes)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - dev machines only
        peak //= 1024
    return peak / 1024.0


def measure(smoke: bool) -> dict:
    out = {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "scenarios": {},
    }
    for name, fn in SCENARIOS.items():
        print(f"[bench_gate] running {name} ...", flush=True)
        t0 = time.perf_counter()
        row = fn(smoke)
        # informational only — compare() never reads these (wall time is
        # machine-dependent; peak RSS is the process high-water mark, so
        # per-scenario values are monotone over the run order)
        row["wall_seconds"] = round(time.perf_counter() - t0, 3)
        # peak RSS is the process high-water mark, so per-scenario values
        # are monotone over the run order; each is gated against its own
        # committed ceiling (see compare)
        row["peak_rss_mb"] = round(_peak_rss_mb(), 1)
        out["scenarios"][name] = row
    return out


def set_memory_ceilings(doc: dict) -> None:
    """Stamp each scenario's ``peak_rss_mb_ceiling`` from its measured
    ``peak_rss_mb`` with :data:`MEMORY_HEADROOM` headroom."""
    for row in doc.get("scenarios", {}).values():
        peak = row.get("peak_rss_mb")
        if peak:
            row["peak_rss_mb_ceiling"] = round(peak * MEMORY_HEADROOM, 1)


def compare(current: dict, baseline: dict, threshold: float,
            gate_throughput: bool) -> list[str]:
    """Failure messages (empty = gate passes)."""
    failures: list[str] = []
    base_scen = baseline.get("scenarios", {})
    for name, cur in current["scenarios"].items():
        base = base_scen.get(name)
        if base is None:
            failures.append(f"{name}: missing from baseline")
            continue
        for field in EXACT_FIELDS:
            if field in base and base[field] != cur.get(field):
                failures.append(
                    f"{name}: cost-model {field} drifted "
                    f"{base[field]} -> {cur.get(field)} (must be "
                    "charge-preserving; refresh the baseline only for "
                    "intentional charging changes)"
                )
        if not gate_throughput:
            continue
        # enforced memory ceiling (full runs only: smoke sizes differ).
        # RSS is machine-dependent but bounded — a blowup past the
        # committed ceiling means a copy crept into a hot path; refresh
        # intentional footprint changes with --update-memory
        ceiling = base.get("peak_rss_mb_ceiling")
        peak = cur.get("peak_rss_mb")
        if ceiling and peak and peak > ceiling:
            failures.append(
                f"{name}: peak_rss_mb {peak} exceeds the committed "
                f"ceiling {ceiling} (rerun with --update-memory for "
                "intentional footprint changes)"
            )
        for field in GATED_FIELDS:
            b, c = base.get(field), cur.get(field)
            if not b:
                continue
            if c < b * (1.0 - threshold):
                failures.append(
                    f"{name}: {field} regressed {b} -> {c} "
                    f"({100 * (1 - c / b):.1f}% > {100 * threshold:.0f}% "
                    "threshold)"
                )
    return failures


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="miniature sizes, no wall-clock gating (CI)")
    ap.add_argument("--update-baseline", action="store_true",
                    help=f"rewrite {BASELINE_PATH.name} from this run")
    ap.add_argument("--update-memory", action="store_true",
                    help="rewrite only the peak_rss_mb ceilings in "
                         f"{BASELINE_PATH.name} from this run (escape "
                         "hatch for intentional footprint changes)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional throughput regression")
    args = ap.parse_args(argv)

    current = measure(args.smoke)

    if args.update_baseline:
        if args.smoke:
            print("[bench_gate] refusing to baseline smoke-sized runs")
            return 2
        set_memory_ceilings(current)
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"[bench_gate] baseline written to {BASELINE_PATH}")
        return 0

    if args.update_memory:
        if args.smoke:
            print("[bench_gate] refusing to set ceilings from smoke runs")
            return 2
        if not BASELINE_PATH.exists():
            print(f"[bench_gate] no committed baseline at {BASELINE_PATH}")
            return 2
        baseline = json.loads(BASELINE_PATH.read_text())
        for name, row in current["scenarios"].items():
            base = baseline.get("scenarios", {}).get(name)
            peak = row.get("peak_rss_mb")
            if base is not None and peak:
                base["peak_rss_mb_ceiling"] = round(
                    peak * MEMORY_HEADROOM, 1
                )
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"[bench_gate] memory ceilings rewritten in {BASELINE_PATH}")
        return 0

    LATEST_PATH.write_text(json.dumps(current, indent=2) + "\n")
    if not BASELINE_PATH.exists():
        print(f"[bench_gate] no committed baseline at {BASELINE_PATH}; "
              "run with --update-baseline first")
        return 2
    baseline = json.loads(BASELINE_PATH.read_text())
    if baseline.get("schema") != 1 or "scenarios" not in baseline:
        print("[bench_gate] committed baseline has an unknown schema")
        return 2
    for name in SCENARIOS:
        if name not in baseline["scenarios"]:
            print(f"[bench_gate] baseline lacks scenario {name}")
            return 2

    # smoke runs use different sizes, so neither throughput nor constants
    # are comparable against the full-size committed baseline — the run
    # above plus the schema check is the wiring test
    failures = compare(current, baseline, args.threshold,
                       gate_throughput=not args.smoke) if not args.smoke \
        else []

    for name, cur in current["scenarios"].items():
        base = baseline["scenarios"].get(name, {})
        b = base.get("ops_per_sec")
        rel = f" ({cur['ops_per_sec'] / b:.2f}x baseline)" if b and \
            not args.smoke else ""
        print(f"[bench_gate] {name}: {cur['ops_per_sec']} ops/s{rel}")
    if failures:
        for f in failures:
            print(f"[bench_gate] FAIL {f}")
        return 1
    print("[bench_gate] gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
