#!/usr/bin/env python
"""Benchmark regression gate for the batch-update and serving hot paths.

Runs entries of the benchmark catalogue (``repro.harness.benches``) and
compares each entry's summary row against the committed baseline in
``BENCH_hotpath.json``.

Two kinds of field are compared:

* cost-model ``work``/``depth`` pins.  They are machine-independent and
  must stay *identical* across refactors of the charging code (charge
  preservation), so any drift fails the gate, in every mode;
* wall-clock throughput (``ops_per_sec``, default threshold 15%) and
  the peak-RSS ceilings, in full mode only.

Every entry run must also return its own verdict ``ok`` (oracle and
equivalence checks, plus the acceptance bars in full mode).

Usage::

    PYTHONPATH=src python tools/bench_gate.py                  # gate
    PYTHONPATH=src python tools/bench_gate.py --update-baseline
    PYTHONPATH=src python tools/bench_gate.py --smoke          # CI

* default: run exactly the baseline's entries, write
  ``BENCH_hotpath.latest.json``, exit 1 on a failed verdict, a drifted
  pin or a throughput/memory regression;
* ``--update-baseline``: measure and (re)write ``BENCH_hotpath.json``
  (the baseline's entries, or the whole catalogue when there is no
  baseline yet) — run this on the reference machine after intentional
  perf changes and commit the result;
* ``--smoke``: run the whole catalogue in smoke mode (no repeats, no
  speed bars, no wall-clock gating: CI machines are too noisy), still
  requiring every verdict and the exact ``work``/``depth`` pins of every
  entry the baseline names (pinned entries run at baseline size in both
  modes).

A baseline scenario with no catalogue entry exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.harness.benches import BENCHES, resolve  # noqa: E402

BASELINE_PATH = ROOT / "BENCH_hotpath.json"
LATEST_PATH = ROOT / "BENCH_hotpath.latest.json"

#: throughput fields gated by the regression threshold
GATED_FIELDS = ("ops_per_sec",)
#: cost-model fields that must match the baseline exactly
EXACT_FIELDS = ("work", "depth")
#: headroom factor applied when (re)writing memory ceilings
MEMORY_HEADROOM = 1.5


def _peak_rss_mb() -> float:
    """Process peak RSS in MB (Linux ru_maxrss is KB; macOS is bytes)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - dev machines only
        peak //= 1024
    return peak / 1024.0


def measure(benches, smoke: bool) -> tuple[dict, list[str]]:
    """Run ``benches``; returns the results document (each entry's
    summary row) and one failure message per failed verdict."""
    out = {
        "schema": 1,
        "mode": "smoke" if smoke else "full",
        "scenarios": {},
    }
    failures: list[str] = []
    for bench in benches:
        print(f"[bench_gate] running {bench.name} ...", flush=True)
        t0 = time.perf_counter()
        rows, ok = bench.run(smoke)
        row = dict(rows[-1])
        # informational only — compare() never reads it (wall time is
        # machine-dependent)
        row["wall_seconds"] = round(time.perf_counter() - t0, 3)
        # peak RSS is the process high-water mark, so per-scenario values
        # are monotone over the run order; each is gated against its own
        # committed ceiling (see compare)
        row["peak_rss_mb"] = round(_peak_rss_mb(), 1)
        out["scenarios"][bench.name] = row
        if not ok:
            failures.append(f"{bench.name}: verdict failed: {rows}")
    return out, failures


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
    for name, base in baseline["scenarios"].items():
        cur = current["scenarios"][name]
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
        # enforced memory ceiling (full runs only: smoke runs other
        # entries in between). RSS is machine-dependent but bounded — a
        # blowup past the committed ceiling means a copy crept into a hot
        # path; refresh intentional footprint changes with --update-memory
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
                    help="whole catalogue in smoke mode; exact pins and "
                         "verdicts only, no wall-clock gating (CI)")
    ap.add_argument("--update-baseline", action="store_true",
                    help=f"rewrite {BASELINE_PATH.name} from this run")
    ap.add_argument("--update-memory", action="store_true",
                    help="rewrite only the peak_rss_mb ceilings in "
                         f"{BASELINE_PATH.name} from this run (escape "
                         "hatch for intentional footprint changes)")
    ap.add_argument("--threshold", type=float, default=0.15,
                    help="allowed fractional throughput regression")
    args = ap.parse_args(argv)

    if args.smoke and (args.update_baseline or args.update_memory):
        print("[bench_gate] refusing to write the baseline from smoke runs")
        return 2
    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        if baseline.get("schema") != 1 or "scenarios" not in baseline:
            print("[bench_gate] committed baseline has an unknown schema")
            return 2
    elif not args.update_baseline:
        print(f"[bench_gate] no committed baseline at {BASELINE_PATH}; "
              "run with --update-baseline first")
        return 2
    try:
        gated = resolve(baseline["scenarios"]) if baseline else BENCHES
    except ValueError as exc:
        print(f"[bench_gate] baseline scenario without an entry: {exc}")
        return 2

    current, failures = measure(BENCHES if args.smoke else gated,
                                args.smoke)

    if (args.update_baseline or args.update_memory) and failures:
        for f in failures:
            print(f"[bench_gate] FAIL {f}")
        print("[bench_gate] baseline left unchanged")
        return 1

    if args.update_baseline:
        set_memory_ceilings(current)
        BASELINE_PATH.write_text(json.dumps(current, indent=2) + "\n")
        print(f"[bench_gate] baseline written to {BASELINE_PATH}")
        return 0

    if args.update_memory:
        for name, row in current["scenarios"].items():
            base = baseline["scenarios"][name]
            peak = row.get("peak_rss_mb")
            if peak:
                base["peak_rss_mb_ceiling"] = round(
                    peak * MEMORY_HEADROOM, 1
                )
        BASELINE_PATH.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"[bench_gate] memory ceilings rewritten in {BASELINE_PATH}")
        return 0

    LATEST_PATH.write_text(json.dumps(current, indent=2) + "\n")
    failures += compare(current, baseline, args.threshold,
                        gate_throughput=not args.smoke)

    for name, cur in current["scenarios"].items():
        base = baseline["scenarios"].get(name, {})
        b, c = base.get("ops_per_sec"), cur.get("ops_per_sec")
        if c is None:
            continue
        rel = f" ({c / b:.2f}x baseline)" if b and not args.smoke else ""
        print(f"[bench_gate] {name}: {c} ops/s{rel}")
    if failures:
        for f in failures:
            print(f"[bench_gate] FAIL {f}")
        return 1
    print("[bench_gate] gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
