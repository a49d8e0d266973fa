"""Deterministic replay benchmark: one workload, one seed, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve_inproc --seed 1 \
        --seconds 30 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  See
``perfbench/NOTES.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUPS = 5
# reference chunks timed on each side of a timed set-up
SETUP_CHUNKS = 10


def _die(message: str, code: int = 2) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        _die(f"no program sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))


def _source_digest() -> str:
    """Digest of the program and benchmark sources, so the ledger only
    compares runs of identical code."""
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*.py")):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _ledger_check(key: str, counts: dict) -> list[str]:
    """Compare ``counts`` with the counts an earlier run of the same
    input and code recorded; record them if this input is new.  Any
    difference means a count depends on something other than the input."""
    path = OUT / "ledger" / _source_digest() / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    counts = json.loads(json.dumps(counts))
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"{key}: {name} = {counts.get(name)!r}, an earlier run "
                f"recorded {value!r}"
                for name, value in sorted(earlier.items())
                if counts.get(name) != value]
    tmp = path.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(counts, sort_keys=True))
    os.replace(tmp, path)
    return []


def _setup_and_warm(wl, times: list[float] | None = None):
    """Set up and warm up; with ``times``, append the set-up time
    normalised by reference chunks run just before and after it."""
    from calib import Calibration

    cal = Calibration()
    if times is not None:
        cal.tick(SETUP_CHUNKS)
    t0 = time.perf_counter()
    st = wl.setup()
    if times is not None:
        elapsed = time.perf_counter() - t0
        cal.tick(SETUP_CHUNKS)
        times.append(elapsed / cal.slowdown())
    try:
        warm = wl.warmup(st)
    except BaseException:
        wl.close(st)
        raise
    return st, warm


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        _die("--seconds must be >= 1")
    _import_program()
    from workloads import WORKLOADS

    cls = WORKLOADS.get(args.workload)
    if cls is None:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(WORKLOADS)}")
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    try:
        return _run(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _timed_replay(wl, st):
    """The timed phase, after collecting the garbage set-up and warm-up
    left behind."""
    gc.collect()
    return wl.replay(st)


def _run(cls, args, workdir: Path) -> int:
    import report
    from workloads import peak_rss_mb

    # the traced run replays the first half of the stream, untraced and then
    # traced, so it costs about as much as an untraced run
    length = args.seconds / 2 if args.trace else args.seconds
    wl = cls(args.seed, length, workdir)
    mismatches: list[str] = []

    if args.trace:
        # untraced replay first, for the overhead, then the traced one
        st, warm = _setup_and_warm(wl)
        try:
            base = _timed_replay(wl, st)
        finally:
            wl.close(st)
        st, warm2 = _setup_and_warm(wl)
        if warm2 != warm:
            mismatches.append(f"warm-up counts differ: {warm} vs {warm2}")
        from layers import install
        from spans import Tracer

        tracer = Tracer()
        try:
            install(tracer)
            try:
                rep = _timed_replay(wl, st)
            finally:
                tracer.unpatch_all()
            if rep.counts != base.counts:
                mismatches.append(f"replay counts differ traced vs "
                                  f"untraced: {base.counts} vs {rep.counts}")
            problems = wl.check(st, rep)
            history = wl.history(st)
        finally:
            wl.close(st)
        tracer.save(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
        metrics, notes = report.per_layer(
            args.workload, rep, base, tracer, history)
        for note in notes:
            print(f"unavailable: {note}")
    else:
        setup_times: list[float] = []
        warms = []
        st = None
        for i in range(SETUPS):
            if st is not None:
                wl.close(st)
                st = None
                gc.collect()
            st, warm = _setup_and_warm(wl, setup_times)
            warms.append(warm)
        if any(w != warms[0] for w in warms):
            mismatches.append(f"warm-up counts differ between set-ups: "
                              f"{warms}")
        try:
            rep = _timed_replay(wl, st)
            rss = peak_rss_mb()
            problems = wl.check(st, rep)
        finally:
            wl.close(st)
        metrics = report.end_to_end(rep, statistics.median(setup_times), rss)
        print(f"calibration: reference chunk {rep.calib.slowdown():.3f} "
              f"times nominal; unnormalised ops_per_s "
              f"{rep.requests / rep.wall:.1f}")
        warm = warms[0]
    mismatches += _ledger_check(
        f"{wl.stream}-seed{args.seed}-s{length:g}",
        {"warmup": warm, "replay": rep.counts})

    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for msg in mismatches:
        print(f"DETERMINISM VIOLATION: {msg}", file=sys.stderr)
    failed = rep.failed + len(problems)
    correct = not problems and not mismatches and rep.failed == 0
    result = {
        "correct": correct,
        "attempted": rep.requests,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
