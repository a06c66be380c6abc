"""Host-speed calibration: a fixed reference job timed between measurements.

The benchmark's host is shared, and its speed drifts by tens of percent
over seconds to minutes while the work stays the same.  Every timed
interval is therefore bracketed by this calibration, and its time is
rescaled to a host that runs the calibration in :data:`REFERENCE_S`:
``scaled = measured * REFERENCE_S / calibration``.  Drift that slows the
calibration and the program alike cancels out.

The job uses only the standard library — a bytecode loop with dict
traffic and BLAKE2b hashing, the same kinds of work the program does — and
none of the program's code, so a change to the program cannot move it.
It allocates one container per round, so it barely moves the garbage
collector's counters.
"""

from __future__ import annotations

import hashlib
import statistics
import time

#: Calibration time, in seconds, of the reference host the benchmark's
#: times are scaled to (about this job's fast state on a 2-core x86 VM).
REFERENCE_S = 0.004

_ROUNDS = 3


def _job() -> float:
    start = time.perf_counter()
    table = {}
    for i in range(20_000):
        table[i & 1023] = (i * 7) % 13
    block = b"x" * 512
    for _ in range(600):
        block = hashlib.blake2b(block, digest_size=32).digest() * 16
    return time.perf_counter() - start


def calibrate() -> float:
    """Seconds the reference job takes now (median of a few rounds)."""
    return statistics.median(_job() for _ in range(_ROUNDS))


def scale(seconds: float, before: float, after: float) -> float:
    """``seconds`` measured between calibrations ``before`` and ``after``,
    rescaled to the reference host."""
    return seconds * 2 * REFERENCE_S / (before + after)
