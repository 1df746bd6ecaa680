"""Snapshot documents: persistence and resharding for admission state.

A snapshot is the JSON-safe dict a store's ``snapshot()`` returns.
This module adds the file and topology plumbing around it:

* :func:`save_snapshot` / :func:`load_snapshot` — one snapshot, one
  auditable JSON file (no pickle);
* :func:`merge_snapshots` — N per-shard memory snapshots → one memory
  snapshot (``repro state snapshot`` collapses a state directory; a
  ring store's own snapshot is this merged document);
* :func:`split_snapshot` — one memory snapshot → N per-shard memory
  snapshots routed by the consistent-hash ring, under one of two
  placement rules: *client affinity* for cluster worker directories
  (``repro state restore`` retargets a snapshot at any worker count,
  which is also the offline resharding path) and *by key* for ring
  stores, whose reads route every entry by its own key;
* :func:`write_shard_files` / :func:`read_shard_files` — the
  ``shard-I-of-N.json`` layout a gateway cluster's state directory
  uses.  Each file records its topology so a worker never loads a
  shard that was split for a different worker count.
"""

from __future__ import annotations

import json
import pathlib

from repro.state.sharding import shard_for

__all__ = [
    "check_snapshot",
    "save_snapshot",
    "load_snapshot",
    "merge_snapshots",
    "split_snapshot",
    "shard_file_name",
    "state_dir_topology",
    "write_shard_file",
    "write_shard_files",
    "read_shard_file",
    "read_shard_files",
]

_FORMAT = 1


def check_snapshot(snapshot: dict, kind: str | None = None) -> dict:
    """Validate a snapshot document's envelope; returns it unchanged."""
    if not isinstance(snapshot, dict):
        raise ValueError("state snapshot must be a JSON object")
    if snapshot.get("format") != _FORMAT:
        raise ValueError(
            f"unsupported state snapshot format {snapshot.get('format')!r}"
        )
    if kind is not None and snapshot.get("kind") != kind:
        raise ValueError(
            f"expected a {kind!r} snapshot, got {snapshot.get('kind')!r}"
        )
    return snapshot


def save_snapshot(snapshot: dict, path) -> None:
    """Write ``snapshot`` to ``path`` as indented, diff-reviewable JSON."""
    pathlib.Path(path).write_text(
        json.dumps(snapshot, indent=2, sort_keys=False) + "\n",
        encoding="utf-8",
    )


def load_snapshot(path) -> dict:
    """Read a snapshot written by :func:`save_snapshot`."""
    try:
        document = json.loads(
            pathlib.Path(path).read_text(encoding="utf-8")
        )
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid state snapshot JSON in {path}: {exc}")
    return check_snapshot(document)


def merge_snapshots(snapshots) -> dict:
    """Merge per-shard memory snapshots into one memory snapshot.

    Client-keyed entries are disjoint across shards by construction
    (each key lives on exactly one shard), so merging is mostly
    concatenation; entry order is shard order, then insertion order
    within the shard.  Keys that *can* repeat — per-worker singletons
    like the adaptive policy's ``load`` — keep the last shard's value,
    matching what restoring the merged document would produce.
    """
    namespaces: dict[str, dict] = {}
    for snapshot in snapshots:
        check_snapshot(snapshot, kind="memory")
        for name, entries in snapshot.get("namespaces", {}).items():
            table = namespaces.setdefault(name, {})
            for key, value in entries:
                table.pop(key, None)  # repeated key: last wins, re-ordered
                table[key] = value
    return {
        "format": _FORMAT,
        "kind": "memory",
        "namespaces": {
            name: [[key, value] for key, value in table.items()]
            for name, table in namespaces.items()
        },
    }


def _routing_key(namespace: str, key: str, value) -> str:
    """The shard-affinity key of one entry.

    Most namespaces are keyed by client IP, which *is* the affinity
    key.  The ``replay`` namespace is keyed by puzzle seed but lives
    on the shard serving the redeeming client, so its entries carry
    the owner IP in the value (``[redeemed_at, owner_ip, token]``, or
    ``[redeemed_at, owner_ip]`` when written before claim tokens) and
    route by that — otherwise resharding would strand redeemed seeds on the
    wrong worker and reopen them.
    """
    if namespace == "replay" and isinstance(value, (list, tuple)):
        if len(value) >= 2 and value[1]:
            return str(value[1])
    return key


def split_snapshot(
    snapshot: dict, shards: int, replicas: int = 64, *, affinity: bool = True
) -> list[dict]:
    """Split a memory snapshot into ``shards`` ring-routed snapshots.

    The ring is the one the gateway cluster and
    :class:`~repro.state.sharded.ShardedStateStore` use; the caller
    names the placement rule its reads follow:

    * ``affinity=True`` (cluster worker directories): entries route by
      their *shard-affinity* key (see :func:`_routing_key`), so a
      restored worker finds exactly the state it would have written;
    * ``affinity=False`` (ring stores, local or networked): every
      entry routes by its own key, because every ring read does — a
      ``replay`` entry split by owner would sit where no seed lookup
      finds it, reopening the puzzle.
    """
    check_snapshot(snapshot, kind="memory")
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    parts: list[dict] = [
        {"format": _FORMAT, "kind": "memory", "namespaces": {}}
        for _ in range(shards)
    ]
    for name, entries in snapshot.get("namespaces", {}).items():
        for key, value in entries:
            route = _routing_key(name, str(key), value) if affinity else str(key)
            owner = shard_for(route, shards, replicas)
            parts[owner]["namespaces"].setdefault(name, []).append(
                [key, value]
            )
    return parts


def shard_file_name(shard: int, shards: int) -> str:
    """The on-disk name of one shard's snapshot in a state directory."""
    return f"shard-{shard}-of-{shards}.json"


def state_dir_topology(state_dir) -> int | None:
    """The worker count a state directory's shard files were split for.

    Returns ``None`` for an empty/missing directory (cold start) and
    raises when the directory mixes topologies.
    """
    directory = pathlib.Path(state_dir)
    if not directory.is_dir():
        return None
    counts = set()
    for path in directory.glob("shard-*-of-*.json"):
        try:
            counts.add(int(path.stem.rsplit("-", 1)[-1]))
        except ValueError:
            continue
    if not counts:
        return None
    if len(counts) != 1:
        raise ValueError(
            f"{directory} mixes shard topologies {sorted(counts)}; "
            "re-split with `repro state restore`"
        )
    return counts.pop()


def _check_shard_file_replicas(document: dict, replicas: int, path) -> None:
    """Fail loudly when a shard file was split with a different ring.

    Files written before ``replicas`` was recorded are treated as the
    historical default (64) — the only ring shape that ever produced
    them.
    """
    recorded = int(document.get("replicas", 64))
    if recorded != replicas:
        raise ValueError(
            f"{path} was split with replicas={recorded}, need "
            f"replicas={replicas}; re-split with `repro state restore`"
        )


def write_shard_file(
    state_dir, shard: int, shards: int, snapshot: dict, replicas: int = 64
) -> pathlib.Path:
    """Write one shard's memory snapshot into ``state_dir``.

    This is what a gateway worker calls at graceful shutdown — each
    worker persists only the shard it owns.  Shard files left over
    from a *different* topology are removed (tolerating sibling
    workers racing the same cleanup) so the directory always describes
    exactly one worker count.
    """
    check_snapshot(snapshot, kind="memory")
    directory = pathlib.Path(state_dir)
    directory.mkdir(parents=True, exist_ok=True)
    for stale in directory.glob("shard-*-of-*.json"):
        if not stale.name.endswith(f"-of-{shards}.json"):
            try:
                stale.unlink()
            except FileNotFoundError:  # pragma: no cover - sibling won
                pass
    path = directory / shard_file_name(shard, shards)
    save_snapshot(
        {
            "format": _FORMAT,
            "kind": "shard-file",
            "shard": shard,
            "shards": shards,
            "replicas": replicas,
            "state": snapshot,
        },
        path,
    )
    return path


def write_shard_files(state_dir, snapshots, replicas: int = 64) -> list[pathlib.Path]:
    """Write per-shard memory snapshots into ``state_dir``.

    Stale shard files from a *different* topology are removed so a
    directory always describes exactly one worker count.
    """
    directory = pathlib.Path(state_dir)
    snapshots = list(snapshots)
    shards = len(snapshots)
    return [
        write_shard_file(directory, index, shards, snapshot, replicas=replicas)
        for index, snapshot in enumerate(snapshots)
    ]


def read_shard_file(
    state_dir, shard: int, shards: int, replicas: int = 64
) -> dict | None:
    """One shard's memory snapshot from ``state_dir``, or None if cold.

    The directory must have been split for this worker count; a
    directory holding a *different* topology is an error, not a silent
    cold start — silently discarding a warmed reputation table is the
    one thing a state directory exists to prevent.  Re-split with
    ``repro state restore --workers N``.
    """
    topology = state_dir_topology(state_dir)
    if topology is not None and topology != shards:
        raise ValueError(
            f"{state_dir} holds state split for {topology} workers, "
            f"need {shards}; re-split with `repro state restore "
            f"--workers {shards}`"
        )
    path = pathlib.Path(state_dir) / shard_file_name(shard, shards)
    if not path.exists():
        return None
    document = json.loads(path.read_text(encoding="utf-8"))
    check_snapshot(document, kind="shard-file")
    if int(document["shard"]) != shard or int(document["shards"]) != shards:
        raise ValueError(
            f"{path} holds shard {document['shard']} of "
            f"{document['shards']}, expected {shard} of {shards}"
        )
    _check_shard_file_replicas(document, replicas, path)
    return check_snapshot(document["state"], kind="memory")


def read_shard_files(
    state_dir, shards: int | None = None, replicas: int | None = None
) -> list[dict]:
    """Read a state directory back into per-shard memory snapshots.

    Returns an empty list when the directory has no shard files (a
    cold start).  When ``shards`` is given, the directory's topology
    must match it — a worker never loads state split for a different
    worker count.
    """
    directory = pathlib.Path(state_dir)
    if not directory.is_dir():
        return []
    found = sorted(directory.glob("shard-*-of-*.json"))
    if not found:
        return []
    documents = []
    for path in found:
        document = json.loads(path.read_text(encoding="utf-8"))
        check_snapshot(document, kind="shard-file")
        documents.append(document)
    counts = {document["shards"] for document in documents}
    if len(counts) != 1:
        raise ValueError(
            f"{directory} mixes shard topologies {sorted(counts)}; "
            "re-split with `repro state restore`"
        )
    total = counts.pop()
    if shards is not None and total != shards:
        raise ValueError(
            f"{directory} holds state for {total} shards, need {shards}; "
            "re-split with `repro state restore`"
        )
    if len(documents) != total:
        raise ValueError(
            f"{directory} has {len(documents)} shard files for a "
            f"{total}-shard topology"
        )
    ordered: list[dict] = [dict()] * total
    for document, path in zip(documents, found):
        if replicas is not None:
            _check_shard_file_replicas(document, replicas, path)
        index = int(document["shard"])
        if not 0 <= index < total:
            raise ValueError(f"shard index {index} out of range 0..{total - 1}")
        ordered[index] = check_snapshot(document["state"], kind="memory")
    return ordered
