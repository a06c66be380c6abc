#!/usr/bin/env python3
"""End-to-end ObliDB benchmark, with an optional run traced by layer.

Run from the repository root::

    python3 perfbench/run.py --workload bdb --seed 1 --seconds 25 --trace 0

``--trace 0`` sets the workload up several times (``setup_s`` is the
median) and then drives it for ``--seconds`` seconds, checking every
answer; it prints the end-to-end metrics.  ``--trace 1`` instead runs a
fixed statement sequence untraced and then with every layer's public
entry points wrapped in spans, checks that both give identical rows and
access-trace digests, and prints the per-layer metrics.  The last line of
standard output is one JSON object; the line before it holds the run
metadata.  Full results (and, traced, every span) are written under
``.perfbench_out/`` in the repository root.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = {"bdb": 5, "bdb_sharded": 5, "oltp": 3}
#: The tail percentile reported in the metadata as ``latency_tail_ms``:
#: one that leaves at least ten statements above it in a 25-second run
#: on a 2-core x86 VM (``tail_samples_beyond``).  On BDB it falls inside
#: Q3's latencies, clear of the Q1/Q3 boundary at p67 where the value
#: jumps between classes from run to run.  It is not a gated metric: on ``oltp``
#: the tail widens more than host-speed scaling corrects whenever the
#: shared host slows, and its run-to-run spread reached the bound.
TAIL_PERCENTILE = {"bdb": 80, "bdb_sharded": 80, "oltp": 98}
#: Seconds the clients run between two host-speed calibrations.
BLOCK_S = 1.0
#: Statements per client in the fixed sequences of a traced run.
TRACED_STATEMENTS = {"bdb": 6, "bdb_sharded": 6, "oltp": 120}
#: Counts that must repeat exactly across two same-seed traced BDB runs.
DETERMINISTIC = (
    "memory.blocks_read",
    "memory.blocks_written",
    "crypto.blocks",
    "oram.accesses",
    "wal.records",
)


# ----------------------------------------------------------------------
# Driving clients
# ----------------------------------------------------------------------
class Outcome:
    """What the clients of one phase did."""

    def __init__(self) -> None:
        # (class, seconds, ok, scaled seconds): see hostspeed.
        self.samples: list[tuple[str, float, bool, float]] = []
        self.answers: list[tuple] = []  # (rows, affected) per statement, client 0
        self.errors: list[str] = []
        self._lock = threading.Lock()

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample[2])

    def add(self, samples, answers=(), errors=()) -> None:
        with self._lock:
            self.samples.extend(samples)
            self.answers.extend(answers)
            self.errors.extend(errors)


def _drive(client, caller, ops, outcome, deadline, limit, tracer, keep_answers):
    samples, answers, errors = [], [], []
    index = 0
    # Check the clock before taking the next op: a stream once advanced
    # has committed its op (OLTP streams track the rows they write).
    while (limit is None or index < limit) and (
        deadline is None or time.perf_counter() < deadline
    ):
        op = next(ops)
        result = None
        start = time.perf_counter()
        try:
            if tracer is None:
                result = caller(op.sql)
            else:
                with tracer.statement(f"c{client}.{index}", op.cls):
                    result = caller(op.sql)
            ok = op.check(result)
            problem = None if ok else f"wrong answer to {op.sql!r}"
        except Exception as error:  # failed or refused: counted, run goes on
            ok = False
            problem = f"{op.sql!r} raised {type(error).__name__}: {error}"
        seconds = time.perf_counter() - start
        samples.append((op.cls, seconds, ok, seconds))
        if problem is not None:
            errors.append(problem)
        if keep_answers:
            answers.append(
                None if result is None else (list(result.rows), result.affected)
            )
        index += 1
    outcome.add(samples, answers, errors)


def drive(built, streams, deadline=None, limit=None, tracer=None, keep_answers=False):
    """Run every client of ``built`` on its op stream until ``deadline``,
    or for ``limit`` statements each; one thread per client beyond the
    first.  Streams are iterators, so a later call continues them."""
    outcome = Outcome()
    jobs = [
        (client, caller, streams[client], outcome, deadline, limit, tracer,
         keep_answers and client == 0)
        for client, caller in enumerate(built.callers)
    ]
    threads = [
        threading.Thread(target=_drive, args=job, name=f"client{job[0]}")
        for job in jobs[1:]
    ]
    for thread in threads:
        thread.start()
    _drive(*jobs[0])
    for thread in threads:
        thread.join(timeout=150)
        if thread.is_alive():
            raise RuntimeError(f"{thread.name} did not finish")
    return outcome


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def latency_figures(name, classes, samples, run_s, column):
    """Median, tail, geometric mean of the class means, and per-class
    medians, in ms, of one sample column.

    A failed statement misses any latency limit: it counts as the whole
    run (``run_s``).
    """
    latency = {
        cls: [
            sample[column] * 1000 if sample[2] else run_s * 1000
            for sample in samples
            if sample[0] == cls
        ]
        for cls in classes
    }
    every = [value for values in latency.values() for value in values]
    class_mean = [statistics.fmean(v) for v in latency.values() if v]
    return {
        "p50": statistics.median(every),
        "tail": percentile(every, TAIL_PERCENTILE[name]),
        "geomean": math.exp(statistics.fmean(math.log(v) for v in class_mean)),
        "class_p50": {cls: statistics.median(v) for cls, v in latency.items() if v},
        "class_count": {cls: len(v) for cls, v in latency.items()},
    }


def end_to_end(name, workload, outcome, busy, setups, stored_bytes):
    """``busy``: (seconds, scaled seconds) the clients ran; ``setups``:
    (seconds, scaled seconds) per set-up."""
    samples = outcome.samples
    scaled = latency_figures(name, workload.classes, samples, busy[1], 3)
    wall = latency_figures(name, workload.classes, samples, busy[0], 1)
    metrics = {
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "stmts_per_s": (len(samples) / busy[1], "1/s"),
        "latency_p50_ms": (scaled["p50"], "ms"),
        "class_mean_geomean_ms": (scaled["geomean"], "ms"),
        "stored_bytes_per_user_byte": (stored_bytes / workload.user_bytes(), "ratio"),
    }
    tail = TAIL_PERCENTILE[name]
    detail = {
        "statements": len(samples),
        "tail_percentile": tail,
        "latency_tail_ms": scaled["tail"],
        "tail_samples_beyond": len(samples) - math.ceil(tail / 100 * len(samples)),
        "error_rate": outcome.failed / max(1, len(samples)),
        **{f"{cls}_p50_ms": v for cls, v in scaled["class_p50"].items()},
        **{f"{cls}_count": v for cls, v in scaled["class_count"].items()},
        "unscaled": {
            "busy_s": busy[0],
            "setup_s": statistics.median(s for s, _ in setups),
            "stmts_per_s": len(samples) / busy[0],
            "latency_p50_ms": wall["p50"],
            "latency_tail_ms": wall["tail"],
            "class_mean_geomean_ms": wall["geomean"],
            **{f"{cls}_p50_ms": v for cls, v in wall["class_p50"].items()},
        },
    }
    return metrics, detail


def per_layer(summary, cost, stats, overhead):
    """Per-layer metrics from a tracer summary, the database's cost
    counters and (for served workloads) the server's counters."""
    from layers import LAYERS

    def get(layer, key):
        return summary.get(layer, {}).get(key, 0)

    metrics = {f"{layer}.self_s": (float(get(layer, "self_s")), "s") for layer in LAYERS}
    counts = {
        "crypto.calls": get("crypto", "calls"),
        "crypto.blocks": get("crypto", "blocks"),
        "memory.blocks_read": cost["untrusted_reads"],
        "memory.blocks_written": cost["untrusted_writes"],
        "ledger.calls": get("ledger", "calls"),
        "flat.calls": get("flat", "calls"),
        "btree.calls": get("btree", "calls"),
        "oram.accesses": get("oram", "accesses"),
        "operators.calls": get("operators", "calls"),
        "compile.calls": get("compile", "calls"),
        "wal.records": get("wal", "records"),
        "wal.appends": get("wal", "calls"),
        "serving.write_queue_peak": stats.get("write_queue_peak", 0),
        "shard.tasks": get("shard", "tasks"),
        "shard.blocks": get("shard", "blocks"),
    }
    metrics.update({key: (value, "count") for key, value in counts.items()})
    admitted = stats.get("admitted", 0)
    metrics["serving.coalesced_share"] = (
        stats.get("coalesced", 0) / admitted if admitted else 0.0,
        "ratio",
    )
    metrics["other.self_s"] = (get("stmt", "self_s") + get("db", "self_s"), "s")
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------
def _shard_meta(db) -> dict:
    pool = db.shard_pool
    if pool is None:
        return {"shards": 0}
    return {
        "shards": pool.shards,
        "backend": pool.backend,
        "transport": getattr(pool, "transport", None),
        "transport_stats": dict(getattr(pool, "transport_stats", {})),
    }


def run_untraced(name: str, seed: int, seconds: float):
    """Set up ``SETUPS[name]`` times, then drive the last set-up for
    ``seconds`` in blocks of ``BLOCK_S``, calibrating between blocks."""
    import workloads

    workload = workloads.make(name, seed)
    setups, built = [], None
    for _ in range(SETUPS[name]):
        if built is not None:
            built.close()
        gc.collect()
        before = hostspeed.calibrate()
        start = time.perf_counter()
        built = workload.build()
        took = time.perf_counter() - start
        setups.append((took, hostspeed.scale(took, before, hostspeed.calibrate())))
    gc.collect()
    streams = [workload.ops(client) for client in range(len(built.callers))]
    outcome, busy, scaled_busy, calibrations = Outcome(), 0.0, 0.0, []
    deadline = time.perf_counter() + seconds
    before = hostspeed.calibrate()
    while time.perf_counter() < deadline:
        start = time.perf_counter()
        block = drive(built, streams, deadline=min(start + BLOCK_S, deadline))
        took = time.perf_counter() - start
        after = hostspeed.calibrate()
        factor = hostspeed.scale(1.0, before, after)
        outcome.add(
            [(c, s, ok, s * factor) for c, s, ok, _ in block.samples], errors=block.errors
        )
        busy += took
        scaled_busy += took * factor
        calibrations.append(after)
        before = after
    stored = built.db.enclave.untrusted.total_stored_bytes()
    shard = _shard_meta(built.db)
    stats = built.server.stats.snapshot() if built.server is not None else {}
    built.close()
    metrics, detail = end_to_end(
        name, workload, outcome, (busy, scaled_busy), setups, stored
    )
    detail.update(
        workload.meta(),
        calibration_s={
            "reference": hostspeed.REFERENCE_S,
            "median": statistics.median(calibrations),
            "min": min(calibrations),
            "max": max(calibrations),
        },
        shard=shard,
        serving=stats,
    )
    return metrics, detail, outcome, []


def _fixed_phase(name, seed, clients, tracer):
    """Set up from scratch and run the fixed statement sequence; traced
    when ``tracer`` is given (set-up included, as statement "setup")."""
    import workloads

    workload = workloads.make(name, seed, clients=clients)
    gc.collect()
    start = time.perf_counter()
    if tracer is None:
        built = workload.build()
    else:
        with tracer.statement("setup"):
            built = workload.build()
    streams = [workload.ops(client) for client in range(len(built.callers))]
    outcome = drive(
        built, streams, limit=TRACED_STATEMENTS[name], tracer=tracer, keep_answers=True
    )
    wall = time.perf_counter() - start
    phase = {
        "outcome": outcome,
        "wall_s": wall,
        "digest": built.db.enclave.trace.digest(),
        "cost": built.db.cost_snapshot(),
        "stats": built.server.stats.snapshot() if built.server is not None else {},
        "shard": _shard_meta(built.db),
        "meta": workload.meta(),
    }
    built.close()
    return phase


def run_traced(name: str, seed: int):
    import selftest
    from layers import Instrumentation
    from tracer import Tracer

    problems = [f"tracer self-test: {line}" for line in selftest.run()]
    plain = _fixed_phase(name, seed, 1, None)
    tracers = [Tracer(), Tracer()]
    with Instrumentation(tracers[0]) as instrumentation:
        traced = _fixed_phase(name, seed, 1, tracers[0])
    if traced["outcome"].answers != plain["outcome"].answers:
        problems.append("traced and untraced runs returned different rows")
    if traced["digest"] != plain["digest"]:
        problems.append("traced and untraced runs left different access-trace digests")
    overhead = traced["wall_s"] / plain["wall_s"]
    if name == "oltp":
        # Per-layer figures come from the served mix with every session.
        with Instrumentation(tracers[1]):
            measured = _fixed_phase(name, seed, None, tracers[1])
        tracer, phases = tracers[1], [plain, traced, measured]
    else:
        with Instrumentation(tracers[1]):
            again = _fixed_phase(name, seed, 1, tracers[1])
        first = per_layer(tracers[0].summarize(), traced["cost"], {}, overhead)
        second = per_layer(tracers[1].summarize(), again["cost"], {}, overhead)
        for key in DETERMINISTIC:
            if first[key] != second[key]:
                problems.append(
                    f"{key} differs across same-seed runs: {first[key][0]} vs {second[key][0]}"
                )
        tracer, measured, phases = tracers[0], traced, [plain, traced, again]
    metrics = per_layer(tracer.summarize(), measured["cost"], measured["stats"], overhead)
    outcome = Outcome()
    for phase in phases:
        outcome.add(phase["outcome"].samples, errors=phase["outcome"].errors)
    detail = {
        **measured["meta"],
        "statements_per_phase": [len(phase["outcome"].samples) for phase in phases],
        "wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]},
        "digest": plain["digest"],
        "shard": measured["shard"],
        "serving": measured["stats"],
        "unwrapped": instrumentation.missing,
    }
    return metrics, detail, outcome, problems, tracer


# ----------------------------------------------------------------------
# Output
# ----------------------------------------------------------------------
def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.exists():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stop_processes() -> None:
    """Stop every process this run started and wait for each to end.

    Shard pools fork worker processes, and their shared-memory segments
    start ``multiprocessing``'s resource tracker, which would otherwise
    outlive this process.  Runs on every way out of :func:`main`.
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()  # closes its pipe and waits for it
    # Anything else still a child of this process: end it and reap it.
    me = str(os.getpid())
    for entry in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = entry.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[1] == me:
            pid = int(entry.parent.name)
            try:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)
            except (ProcessLookupError, ChildProcessError):
                pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no ObliDB sources under {SRC}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True  # leave the source tree as checked out
    sys.path.insert(0, str(SRC))

    tracer = None
    try:
        if args.trace:
            metrics, detail, outcome, problems, tracer = run_traced(
                args.workload, args.seed
            )
        else:
            metrics, detail, outcome, problems = run_untraced(
                args.workload, args.seed, args.seconds
            )
    finally:
        stop_processes()
    import workloads

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cipher": workloads.CIPHER,
        "commit": _commit(),
        **detail,
        "problems": problems,
        "errors": outcome.errors[:20],
    }
    result = {
        "correct": not problems and outcome.failed == 0,
        "attempted": len(outcome.samples),
        "failed": outcome.failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    try:
        OUT_DIR.mkdir(exist_ok=True)
        stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
        samples = [[cls, seconds, ok, scaled] for cls, seconds, ok, scaled in outcome.samples]
        stem.with_suffix(".json").write_text(
            json.dumps(
                {"meta": meta, "result": result, "samples": samples}, default=str
            )
        )
        if tracer is not None:
            meta["spans_written"] = tracer.dump(str(stem.with_suffix(".spans.jsonl.gz")))
    except OSError as error:
        print(f"perfbench: could not write results: {error}", file=sys.stderr)
    print(json.dumps({"meta": meta}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
