"""Which public entry points belong to which layer, and how to wrap them.

Each entry names a module (``"repro.enclave.enclave"``) or a class in it
(``"repro.enclave.enclave:Enclave"``), the attributes to wrap, and an
optional work counter.  Module-level functions are patched in the
namespace that *calls* them (operators and ``compile_statement`` where
``repro.engine.executor`` looks them up, ``parse`` in both SQL front
ends), so the program's own lookups hit the wrapper.

An entry whose module, class or attribute no longer exists is skipped and
reported by :meth:`Instrumentation.install`, so the benchmark keeps running
when a later change deletes a layer; the layer's metrics then read 0.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Callable

from tracer import Tracer

Selector = tuple[str, ...] | Callable[[str], bool]


def _len_arg(index: int) -> Callable[[tuple, dict], int]:
    return lambda args, kwargs: len(args[index])


def _prefixed(*prefixes: str) -> Callable[[str], bool]:
    return lambda name: name.startswith(prefixes)


def _public(name: str) -> bool:
    return not name.startswith("_")


#: (layer, "module[:Class]", attributes, counter name, count function).
#: A count function of None adds 1 per call.  Layer "db" is the ObliDB
#: facade: not a layer of its own, its self time is part of ``other``.
LAYER_TABLE: list[tuple[str, str, Selector, str | None, Callable | None]] = [
    ("crypto", "repro.enclave.enclave:Enclave", ("seal", "open"), "blocks", None),
    (
        "crypto",
        "repro.enclave.enclave:Enclave",
        ("seal_many", "open_many"),
        "blocks",
        _len_arg(1),
    ),
    (
        "memory",
        "repro.enclave.memory:UntrustedMemory",
        _prefixed("read", "write", "exchange_"),
        None,
        None,
    ),
    (
        "ledger",
        "repro.enclave.integrity:RevisionLedger",
        lambda name: name.startswith(("open_", "stage_", "commit_"))
        or name == "advance_range",
        None,
        None,
    ),
    ("flat", "repro.storage.flat:FlatStorage", _public, None, None),
    (
        "btree",
        "repro.storage.btree:ObliviousBPlusTree",
        ("search", "range_scan", "insert", "delete", "update"),
        None,
        None,
    ),
    (
        "oram",
        "repro.oram.path_oram:PathORAM",
        ("read", "write", "update", "dummy_access"),
        "accesses",
        None,
    ),
    (
        "operators",
        "repro.engine.executor",
        (
            "small_select",
            "large_select",
            "continuous_select",
            "hash_select",
            "naive_select",
            "hash_join",
            "opaque_join",
            "zero_om_join",
            "aggregate",
            "group_by_aggregate",
            "bitonic_sort",
            "oblivious_insert",
            "oblivious_update",
            "oblivious_delete",
        ),
        None,
        None,
    ),
    ("parse", "repro.engine.database", ("parse",), None, None),
    ("parse", "repro.serving.server", ("parse",), None, None),
    ("compile", "repro.engine.executor", ("compile_statement",), None, None),
    ("runner", "repro.engine.executor:PlanRunner", ("run",), None, None),
    ("wal", "repro.engine.wal:WriteAheadLog", ("append",), "records", None),
    ("wal", "repro.engine.wal:WriteAheadLog", ("append_many",), "records", _len_arg(1)),
    ("serving", "repro.serving.server:Session", ("execute",), None, None),
    ("shard", "repro.shard.pool:ShardPool", ("submit",), "tasks", None),
    ("shard", "repro.shard.pool:ShardPool", ("collect",), None, None),
    ("shard", "repro.shard.pool:ShardPool", ("crypto_many",), "blocks", _len_arg(3)),
    (
        "db",
        "repro.engine.database:ObliDB",
        ("sql", "execute", "execute_sql", "insert_many"),
        None,
        None,
    ),
]

#: Every layer with a ``<layer>.self_s`` metric, in report order.
LAYERS = (
    "crypto",
    "memory",
    "ledger",
    "flat",
    "btree",
    "oram",
    "operators",
    "parse",
    "compile",
    "runner",
    "wal",
    "serving",
    "shard",
)


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    if class_name:
        owner = getattr(owner, class_name, None)
    return owner


def _names(owner, selector: Selector) -> list[str]:
    if isinstance(selector, tuple):
        return list(selector)
    return sorted(
        name
        for name, value in vars(owner).items()
        if inspect.isfunction(value) and selector(name)
    )


class Instrumentation:
    """Installs a tracer's wrappers on every layer entry point, and removes
    them again (``with Instrumentation(tracer): ...``)."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer
        self._restore: list[tuple[object, str, object | None]] = []
        self.missing: list[str] = []

    def install(self) -> None:
        for layer, target, selector, counter, count in LAYER_TABLE:
            owner = _resolve(target)
            if owner is None:
                self.missing.append(target)
                continue
            for name in _names(owner, selector):
                original = inspect.getattr_static(owner, name, None)
                if not callable(original) or isinstance(
                    original, (staticmethod, classmethod)
                ):
                    self.missing.append(f"{target}.{name}")
                    continue
                # An inherited method is restored by deleting the override.
                own = name in vars(owner)
                self._restore.append((owner, name, original if own else None))
                setattr(owner, name, self._tracer.wrap(layer, original, counter, count))

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            if original is None:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
