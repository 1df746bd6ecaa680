"""The admission state store interface and its in-memory backend.

A store is a set of named :class:`StateNamespace` tables.  Components
hold the namespace object directly (one attribute lookup away from the
raw dict they used to own), so the hot path pays nothing for the
indirection — what the store adds is the cold path: the whole mutable
surface of a framework can be snapshotted, restored, partitioned and
inspected through one object.

Contract
--------
* Keys are strings (client IPs, puzzle seeds, well-known singletons).
* Values are JSON-safe: numbers, strings, booleans, or (nested) lists
  of those.  Components that used to store dataclasses store small
  lists instead (e.g. ``[offset, updated_at]``) and mutate them in
  place — a snapshot deep-copies, so later mutation never corrupts it.
* Namespaces preserve insertion order and support the LRU primitives
  (``move_to_end``, ``popitem``) the caching components rely on.
* :meth:`AdmissionStateStore.execute` applies a list of keyed ops
  (:data:`KEYED_OPS`) in order and returns their results — the one
  batch primitive: in process it is a loop, over the wire it is one
  frame per node (:mod:`repro.state.net`, :mod:`repro.state.sharded`),
  so components phrase each step as *read set -> decide -> write set*
  and never pay per key.
* :meth:`AdmissionStateStore.post` applies write ops whose results no
  decision waits on.  In process it is ``execute``; a networked store
  holds them and sends them at the head of its next frame to the
  owning node, or on :meth:`~AdmissionStateStore.flush`.
"""

from __future__ import annotations

import copy
import operator
from collections import OrderedDict
from typing import Any, Callable, Iterable

__all__ = [
    "StateNamespace",
    "AdmissionStateStore",
    "InMemoryStateStore",
    "KEYED_OPS",
    "check_ops",
]

#: Snapshot document version; bump when the layout changes.
SNAPSHOT_FORMAT = 1


def _delete(table, key: str) -> bool:
    try:
        del table[key]
    except KeyError:
        return False
    return True


def _touch(table, key: str) -> bool:
    try:
        table.move_to_end(key)
    except KeyError:
        return False
    return True


def _first(table) -> list | None:
    for entry in table.items():
        return list(entry)
    return None


#: The keyed-op vocabulary, defined once: op name -> (names of its
#: arguments after the namespace, how many of them are required, how
#: it is performed — a function of ``(table, *args)`` over the
#: namespace surface, or the name of the namespace method that does
#: exactly that).  An op is the array ``(namespace, op, *args)`` in
#: process and on the wire alike; :func:`check_ops` is its one
#: validator.  No op fails on a well-formed request, so a batch can be
#: regrouped by owning node and re-sent after a lost reply: ``delete``
#: and ``move_to_end`` answer whether the key was there, ``first`` the
#: oldest ``[key, value]`` or ``None``, ``partition_len`` its key's partition's size.
KEYED_OPS: dict[str, tuple[tuple[str, ...], int, str | Callable[..., Any]]] = {
    "get": (("key", "default"), 1, "get"),
    "put": (("key", "value"), 2, operator.setitem),
    "delete": (("key",), 1, _delete),
    "contains": (("key",), 1, operator.contains),
    "setdefault": (("key", "default"), 2, "setdefault"),
    "pop_default": (("key", "default"), 2, "pop"),
    "move_to_end": (("key",), 1, _touch),
    "len": ((), 0, len),
    "first": ((), 0, _first),
    "partition_len": (("key",), 1, lambda table, key: len(table)),
}


def check_ops(ops) -> None:
    """Raise ``ValueError`` unless every op is a well-formed keyed op.

    Well-formed is ``(namespace, op, *args)`` as a list or tuple: a
    non-empty string namespace, a :data:`KEYED_OPS` name, a legal
    number of arguments and a string key.  No such op can fail, so a
    checked batch applies whole: the wire client checks before it
    sends and the state server before it applies anything.
    """
    for op in ops:
        if not isinstance(op, (list, tuple)) or len(op) < 2:
            raise ValueError(
                f"a state op is a [namespace, op, *args] array, got {op!r}"
            )
        if type(op[0]) is not str or not op[0]:
            raise ValueError(f"op needs a namespace, got {op[0]!r}")
        try:
            fields, required, _ = KEYED_OPS[op[1]]
        except (KeyError, TypeError):
            raise ValueError(f"unknown state op {op[1]!r}") from None
        if not required <= len(op) - 2 <= len(fields):
            raise ValueError(
                f"state op {op[1]!r} takes {required}..{len(fields)} of "
                f"{fields}, got {len(op) - 2} arguments"
            )
        # Every op that takes arguments takes the key first.
        if fields and type(op[2]) is not str:
            raise ValueError(f"state op {op[1]!r} needs a string key")


_TABLE_OPS: dict[type, dict[str, Callable[..., Any]]] = {}


def table_ops(table) -> dict[str, Callable[..., Any]]:
    """:data:`KEYED_OPS` as plain ``f(table, *args)`` for ``table``'s type.

    Methods are looked up on the type, once per type — as the
    interpreter does for special methods — so running an op is one
    plain call: a C call on the in-memory namespace.
    """
    kind = type(table)
    ops = _TABLE_OPS.get(kind)
    if ops is None:
        ops = _TABLE_OPS[kind] = {
            op: how if callable(how) else getattr(kind, how)
            for op, (_, _, how) in KEYED_OPS.items()
        }
    return ops


class StateNamespace(OrderedDict):
    """One ordered keyed table inside a store (e.g. ``feedback``).

    An :class:`collections.OrderedDict` with a name and the snapshot
    plumbing; the ring store's :class:`~repro.state.sharded.ShardedNamespace`
    and the client's :class:`~repro.state.net.RemoteNamespace` duck-type
    the same surface, so porting a component is a constructor change.
    """

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        super().__init__()
        self.name = name

    def dump(self) -> list[list[Any]]:
        """Entries as an order-preserving, JSON-safe list of pairs."""
        return [[key, copy.deepcopy(value)] for key, value in self.items()]

    def load(self, entries) -> None:
        """Replace the table's content with :meth:`dump` output."""
        self.clear()
        for key, value in entries:
            self[str(key)] = copy.deepcopy(value)

    def partition(self, key: str) -> "StateNamespace":
        """The table holding ``key``: this one (on a ring, a child's)."""
        return self


class AdmissionStateStore:
    """Interface of the state layer; also the shared base class.

    Backends must provide :meth:`namespace` (creating on first use),
    :meth:`namespaces`, :meth:`snapshot`, :meth:`restore`, and
    :meth:`clear`.  ``get``/``put`` convenience wrappers are
    provided here in terms of :meth:`namespace` for callers that do not
    want to hold a namespace object.
    """

    def namespace(self, name: str) -> StateNamespace:
        raise NotImplementedError

    def namespaces(self) -> tuple[str, ...]:
        raise NotImplementedError

    def snapshot(self) -> dict:
        """The whole store as one JSON-safe document."""
        raise NotImplementedError

    def restore(self, snapshot: dict) -> None:
        """Replace the store's content with :meth:`snapshot` output."""
        raise NotImplementedError

    def clear(self) -> None:
        raise NotImplementedError

    # -- convenience keyed access -------------------------------------
    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        return self.namespace(namespace).get(key, default)

    def put(self, namespace: str, key: str, value: Any) -> None:
        self.namespace(namespace)[key] = value

    # -- the batch primitive ------------------------------------------
    def execute(self, ops: Iterable[tuple]) -> list[Any]:
        """Apply ``(namespace, op, *args)`` ops in order; return results.

        Ops come from :data:`KEYED_OPS`; none of them fails on
        well-formed arguments.  A malformed op (unknown name, wrong
        argument count) raises ``ValueError`` or ``TypeError`` like the
        equivalent sequential calls would: ops before it may already be
        applied, later ones never run.  This default uses only the
        namespace surface, so it is correct for every backend;
        networked backends override it to ship one frame per node.
        """
        results = []
        name = table = run = None
        for op in ops:
            if op[0] != name:
                name = op[0]
                table = self.namespace(name)
                run = table_ops(table)
            try:
                apply = run[op[1]]
            except (KeyError, TypeError):
                raise ValueError(f"unknown state op {op[1]!r}") from None
            # Every component's state access runs through this loop, so
            # the common arities are spelled out: a starred call costs
            # twice a plain one.
            arity = len(op)
            if arity == 3:
                results.append(apply(table, op[2]))
            elif arity == 4:
                results.append(apply(table, op[2], op[3]))
            elif arity == 2:
                results.append(apply(table))
            else:
                results.append(apply(table, *op[2:]))  # malformed: raises
        return results

    def post(self, ops: Iterable[tuple]) -> None:
        """Apply write ops that no decision waits on; drop their results.

        Here that is :meth:`execute`.  A networked backend holds posted
        ops and sends them ahead of its next frame to the owning node
        (or on :meth:`flush`), so the same caller's later ops see them
        in order, and a peer once they are sent.
        """
        self.execute(ops)

    def flush(self) -> None:
        """Send every posted op still held; nothing is held here."""

    #: Whether posted ops wait for a frame; never here.
    holds_posted = False


class InMemoryStateStore(AdmissionStateStore):
    """Process-local backend: namespaces over ordered dicts."""

    post = AdmissionStateStore.execute  # nothing is held: one call less

    def __init__(self) -> None:
        self._namespaces: dict[str, StateNamespace] = {}

    def namespace(self, name: str) -> StateNamespace:
        table = self._namespaces.get(name)
        if table is None:
            table = self._namespaces[name] = StateNamespace(name)
        return table

    def namespaces(self) -> tuple[str, ...]:
        return tuple(self._namespaces)

    def __len__(self) -> int:
        return sum(len(table) for table in self._namespaces.values())

    def snapshot(self) -> dict:
        # Empty tables are omitted: ``clear()`` keeps namespaces
        # registered (components hold them by reference), so including
        # them would make snapshot -> restore -> snapshot non-idempotent
        # — a cleared store and a fresh restore target would disagree.
        return {
            "format": SNAPSHOT_FORMAT,
            "kind": "memory",
            "namespaces": {
                name: table.dump()
                for name, table in self._namespaces.items()
                if len(table)
            },
        }

    def restore(self, snapshot: dict) -> None:
        from repro.state.snapshot import check_snapshot

        check_snapshot(snapshot, kind="memory")
        self.clear()
        for name, entries in snapshot.get("namespaces", {}).items():
            self.namespace(name).load(entries)

    def clear(self) -> None:
        # Clear in place: components hold namespace objects by
        # reference, so dropping the tables would silently detach them.
        for table in self._namespaces.values():
            table.clear()
