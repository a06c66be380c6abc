"""Self-test of the tracer's span and self-time arithmetic.

Runs at the start of every traced benchmark run; ``python3
perfbench/selftest.py`` runs it alone.  Clocks are fakes that tick by one
per reading, so every expected self time is exact.
"""

from __future__ import annotations

import itertools
import sys
import threading

from tracer import STMT, Tracer


def _ticking_clock():
    ticks = itertools.count(1)
    lock = threading.Lock()

    def clock() -> float:
        with lock:
            return float(next(ticks))

    return clock


def _check(failures: list[str], label: str, got, want) -> None:
    if got != want:
        failures.append(f"{label}: got {got!r}, want {want!r}")


def _nested(failures: list[str]) -> None:
    # Comments give each span's clock ticks (enter .. leave).
    tracer = Tracer(clock=_ticking_clock())
    with tracer.statement("s1"):  # ticks 1 .. 12
        with tracer.span("a", "a"):  # 2 .. 11
            with tracer.span("b", "b1", "blocks", 5):  # 3 .. 8
                with tracer.span("c", "c"):  # 4 .. 5
                    pass
                with tracer.span("b", "b-inner", "blocks", 2):  # 6 .. 7
                    pass
            with tracer.span("b", "b2"):  # 9 .. 10
                pass
    summary = tracer.summarize()
    _check(failures, "nested stmt self", summary["stmt"]["self_s"], 11.0 - 9.0)
    _check(failures, "nested a self", summary["a"]["self_s"], 9.0 - 5.0 - 1.0)
    _check(failures, "nested b self", summary["b"]["self_s"], (5.0 - 2.0) + 1.0 + 1.0)
    _check(failures, "nested c self", summary["c"]["self_s"], 1.0)
    _check(failures, "nested b calls", summary["b"]["calls"], 2)
    _check(failures, "nested b spans", summary["b"]["spans"], 3)
    _check(failures, "nested b blocks", summary["b"]["blocks"], 7)
    total = sum(entry["self_s"] for entry in summary.values())
    _check(failures, "nested self sums to root", total, 11.0)
    statements = {record[STMT] for _, spans in tracer.threads() for record in spans}
    _check(failures, "nested statement ids", statements, {"s1"})


def _two_threads(failures: list[str]) -> None:
    # Thread 1 holds "outer" open while thread 2 runs "inner" start to end;
    # inner must not count as outer's child.
    tracer = Tracer(clock=_ticking_clock())
    started, finished = threading.Event(), threading.Event()

    def first() -> None:
        with tracer.span("outer", "outer"):  # ticks 1 .. 4
            started.set()
            finished.wait(timeout=10)

    def second() -> None:
        started.wait(timeout=10)
        with tracer.span("inner", "inner"):  # ticks 2 .. 3
            pass
        finished.set()

    threads = [threading.Thread(target=first), threading.Thread(target=second)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    if any(thread.is_alive() for thread in threads):
        failures.append("two-thread self-test did not finish")
        return
    summary = tracer.summarize()
    _check(failures, "two-thread outer self", summary["outer"]["self_s"], 3.0)
    _check(failures, "two-thread inner self", summary["inner"]["self_s"], 1.0)
    _check(failures, "two-thread span lists", len(tracer.threads()), 2)


def _wrapped(failures: list[str]) -> None:
    tracer = Tracer(clock=_ticking_clock())

    def leaf(items):
        return len(items)

    def boom():
        raise KeyError("x")

    traced_leaf = tracer.wrap("leaf", leaf, "blocks", lambda args, kwargs: len(args[0]))
    traced_boom = tracer.wrap("boom", boom)
    traced_root = tracer.wrap("root", lambda: traced_leaf([1, 2, 3]) + traced_leaf([4]))
    _check(failures, "wrapped result", traced_root(), 4)
    try:
        traced_boom()
    except KeyError:
        pass
    else:
        failures.append("wrapped exception was swallowed")
    summary = tracer.summarize()  # raises if the failed call left a span open
    _check(failures, "wrapped leaf blocks", summary["leaf"]["blocks"], 4)
    _check(failures, "wrapped leaf calls", summary["leaf"]["calls"], 2)
    _check(failures, "wrapped boom calls", summary["boom"]["calls"], 1)
    _check(failures, "wrapped root self", summary["root"]["self_s"], 5.0 - 2.0)


def run() -> list[str]:
    """Every failed expectation, as one line each (empty when all pass)."""
    failures: list[str] = []
    for case in (_nested, _two_threads, _wrapped):
        try:
            case(failures)
        except Exception as error:  # report, keep checking the other cases
            failures.append(f"{case.__name__}: {type(error).__name__}: {error}")
    return failures


if __name__ == "__main__":
    problems = run()
    for problem in problems:
        print(problem)
    print("tracer self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
