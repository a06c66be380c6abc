"""The benchmark's workloads: inputs from a seed, set-up, statement streams
and the reference answers every statement is checked against.

Only public surfaces are used: ``ObliDB.sql``, ``ObliDB.insert_many(
fast=True)`` for bulk load, ``ObliDBServer.session().execute`` and the
``repro.workloads`` generators.

* ``bdb`` — Big Data Benchmark Q1, Q2, Q3 in a loop on two FLAT tables,
  one caller, no WAL.  The oblivious-memory budget sits below Q3's build
  side, so the hash join runs more than one pass.
* ``bdb_sharded`` — the same data, statements and seed on
  ``ObliDB(shards=nproc)``: large seal/open batches fan out through the
  shard pool and its transport.  Compared with ``bdb`` it isolates the
  shard layer.
* ``oltp`` — the paper's L4 mix (45 % point, 45 % 5 %-range reads, 5 %
  insert, 5 % delete) through ``ObliDBServer`` with closed-loop sessions
  on an indexed (``METHOD both``) table with the WAL on.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterator

from repro import ObliDB, ObliDBServer
from repro.enclave.enclave import DEFAULT_OBLIVIOUS_MEMORY_BYTES
from repro.workloads import bdb
from repro.workloads.mixed import LARGE_READ_FRACTION, WORKLOADS
from repro.workloads.synthetic import kv_rows

CIPHER = "authenticated"

#: Rows per BDB table.  At this size 256 KiB of oblivious memory holds
#: about 4 600 rows of Q3's build side, so the hash join takes two passes.
BDB_ROWS = 8000
BDB_OBLIVIOUS_BYTES = 256 * 1024

#: Base rows of the OLTP table (keys 0..n-1), and the keys each session
#: owns at the start so that its deletes always have a row of its own.
OLTP_ROWS = 1000
OLTP_SESSIONS = 2
OLTP_OWN_KEYS = 16
#: Zipf exponent of point-read keys: a hot set that concurrent sessions
#: hit at the same time, so identical in-flight reads can coalesce.
OLTP_ZIPF_S = 1.0
#: Key space reserved per session for the rows it inserts.
_SESSION_KEY_STRIDE = 1_000_000


@dataclass
class Op:
    """One statement a client sends and the check its answer must pass."""

    cls: str
    sql: str
    check: Callable[[object], bool]


def logical_bytes(rows) -> int:
    """User bytes of ``rows``: UTF-8 length of strings, 8 per number."""
    total = 0
    for row in rows:
        for value in row:
            total += len(value.encode()) if isinstance(value, str) else 8
    return total


class Built:
    """One set-up database, the callers that drive it, and how to close it."""

    def __init__(self, db: ObliDB, callers: list, server: ObliDBServer | None = None):
        self.db = db
        self.callers = callers
        self.server = server

    def close(self) -> None:
        if self.server is not None:
            self.server.close()
        self.db.close()


# ----------------------------------------------------------------------
# BDB
# ----------------------------------------------------------------------
class BDBWorkload:
    classes = ("q1", "q2", "q3")

    def __init__(self, seed: int, shards: int) -> None:
        self.seed = seed
        self.shards = shards
        self.data = bdb.generate(BDB_ROWS, BDB_ROWS, seed=seed)
        self._reference()

    def _reference(self) -> None:
        data = self.data
        self.q1 = sorted(
            (url, rank) for url, rank, _ in data.rankings if rank > data.q1_rank_threshold
        )
        q2: dict[str, float] = {}
        for _, prefix, _, _, revenue in data.uservisits:
            q2[prefix] = q2.get(prefix, 0.0) + revenue
        self.q2 = q2
        urls = {url for url, _, _ in data.rankings}
        joined = [
            revenue
            for _, _, dest, date, revenue in data.uservisits
            if date < data.q3_date_threshold and dest in urls
        ]
        self.q3 = (len(joined), math.fsum(joined))

    def _check_q1(self, result) -> bool:
        return sorted(result.rows) == self.q1

    def _check_q2(self, result) -> bool:
        got = dict(result.rows)
        return len(got) == len(result.rows) and got.keys() == self.q2.keys() and all(
            math.isclose(got[key], value, rel_tol=1e-9, abs_tol=1e-6)
            for key, value in self.q2.items()
        )

    def _check_q3(self, result) -> bool:
        if len(result.rows) != 1:
            return False
        count, total = result.rows[0]
        return count == self.q3[0] and math.isclose(
            total, self.q3[1], rel_tol=1e-9, abs_tol=1e-6
        )

    def build(self) -> Built:
        db = ObliDB(
            oblivious_memory_bytes=BDB_OBLIVIOUS_BYTES,
            cipher=CIPHER,
            seed=self.seed,
            shards=self.shards,
        )
        db.sql(
            "CREATE TABLE rankings (pageURL STR(24), pageRank INT, avgDuration INT)"
            f" CAPACITY {BDB_ROWS} METHOD flat"
        )
        db.sql(
            "CREATE TABLE uservisits (sourceIP STR(16), ipPrefix STR(8),"
            " destURL STR(24), visitDate STR(10), adRevenue FLOAT)"
            f" CAPACITY {BDB_ROWS} METHOD flat"
        )
        db.insert_many("rankings", self.data.rankings, fast=True)
        db.insert_many("uservisits", self.data.uservisits, fast=True)
        return Built(db, [db.sql])

    def ops(self, client: int) -> Iterator[Op]:
        statements = (
            Op("q1", bdb.Q1_SQL, self._check_q1),
            Op("q2", bdb.Q2_SQL, self._check_q2),
            Op("q3", bdb.Q3_SQL, self._check_q3),
        )
        while True:
            yield from statements

    def user_bytes(self) -> int:
        return logical_bytes(self.data.rankings) + logical_bytes(self.data.uservisits)

    def meta(self) -> dict:
        return {
            "tables": {"rankings": BDB_ROWS, "uservisits": BDB_ROWS},
            "method": "flat",
            "oblivious_memory_bytes": BDB_OBLIVIOUS_BYTES,
            "wal": False,
            "shards": self.shards,
            "clients": 1,
        }


# ----------------------------------------------------------------------
# OLTP (L4 through the server)
# ----------------------------------------------------------------------
def _value(key: int) -> str:
    return f"value-{key:08d}"


class OLTPWorkload:
    classes = ("point", "range", "write")

    def __init__(self, seed: int, clients: int = OLTP_SESSIONS) -> None:
        self.seed = seed
        self.clients = clients
        self.mix = WORKLOADS["L4"]  # (point, small, large, insert, delete) %
        self.range_rows = max(1, int(OLTP_ROWS * LARGE_READ_FRACTION))
        self.capacity = 2 * (OLTP_ROWS + OLTP_SESSIONS * OLTP_OWN_KEYS)
        rng = random.Random(seed)
        self.hot_keys = list(range(OLTP_ROWS))
        rng.shuffle(self.hot_keys)
        weights = [1.0 / (rank + 1) ** OLTP_ZIPF_S for rank in range(OLTP_ROWS)]
        self.cum_weights = list(itertools.accumulate(weights))
        # Live rows each session owns, as of the ops generated so far.
        self.own = [self._initial_own(client) for client in range(OLTP_SESSIONS)]

    @staticmethod
    def _own_key(client: int, index: int) -> int:
        return OLTP_ROWS + client * _SESSION_KEY_STRIDE + index

    def _initial_own(self, client: int) -> list[int]:
        return [self._own_key(client, index) for index in range(OLTP_OWN_KEYS)]

    def rows(self) -> list:
        rows = kv_rows(OLTP_ROWS, seed=self.seed)
        for client in range(OLTP_SESSIONS):
            rows += [(key, _value(key)) for key in self._initial_own(client)]
        return rows

    def build(self) -> Built:
        db = ObliDB(cipher=CIPHER, seed=self.seed, wal=True)
        db.sql(
            "CREATE TABLE kv (key INT, value STR(56))"
            f" CAPACITY {self.capacity} METHOD both KEY key"
        )
        db.insert_many("kv", self.rows(), fast=True)
        server = ObliDBServer(db)
        callers = [server.session(f"s{client}").execute for client in range(self.clients)]
        return Built(db, callers, server)

    def ops(self, client: int) -> Iterator[Op]:
        """Client ``client``'s endless op stream, a pure function of the seed.

        Reads touch only base keys, which no session writes, so their
        answers are fixed.  A session inserts keys from its own range and
        deletes only its oldest own row; with none left it inserts instead.
        Starting a stream restarts the client's rows from the set-up state.
        """
        point, small, large, insert, _ = self.mix
        rng = random.Random(self.seed * 1009 + client)
        own = self.own[client] = deque(self._initial_own(client))
        next_own = OLTP_OWN_KEYS
        width = self.range_rows
        while True:
            draw = rng.randrange(100)
            if draw < point:
                key = rng.choices(self.hot_keys, cum_weights=self.cum_weights)[0]
                expected = [(key, _value(key))]
                yield Op(
                    "point",
                    f"SELECT * FROM kv WHERE key = {key}",
                    lambda r, e=expected: list(r.rows) == e,
                )
            elif draw < point + small + large:
                low = rng.randrange(OLTP_ROWS - width + 1)
                expected = [(key, _value(key)) for key in range(low, low + width)]
                yield Op(
                    "range",
                    f"SELECT * FROM kv WHERE key >= {low} AND key <= {low + width - 1}",
                    lambda r, e=expected: sorted(r.rows) == e,
                )
            elif draw < point + small + large + insert or not own:
                key = self._own_key(client, next_own)
                next_own += 1
                own.append(key)
                yield Op(
                    "write",
                    f"INSERT INTO kv VALUES ({key}, '{_value(key)}')",
                    _affected_one,
                )
            else:
                key = own.popleft()
                yield Op("write", f"DELETE FROM kv WHERE key = {key}", _affected_one)

    def user_bytes(self) -> int:
        live = [*range(OLTP_ROWS), *(key for keys in self.own for key in keys)]
        return logical_bytes((key, _value(key)) for key in live)

    def meta(self) -> dict:
        return {
            "tables": {"kv": OLTP_ROWS + OLTP_SESSIONS * OLTP_OWN_KEYS},
            "capacity": self.capacity,
            "method": "both",
            "oblivious_memory_bytes": DEFAULT_OBLIVIOUS_MEMORY_BYTES,
            "wal": True,
            "clients": self.clients,
            "loop": "closed",
            "mix_percent": dict(zip(("point", "small", "large", "insert", "delete"), self.mix)),
            "range_rows": self.range_rows,
            "zipf_s": OLTP_ZIPF_S,
        }


def _affected_one(result) -> bool:
    return result.affected == 1


def make(name: str, seed: int, clients: int | None = None):
    """The workload called ``name`` with inputs from ``seed``."""
    if name == "bdb":
        return BDBWorkload(seed, shards=0)
    if name == "bdb_sharded":
        return BDBWorkload(seed, shards=os.cpu_count() or 1)
    if name == "oltp":
        return OLTPWorkload(seed, clients=clients or OLTP_SESSIONS)
    raise ValueError(f"unknown workload {name!r}")

