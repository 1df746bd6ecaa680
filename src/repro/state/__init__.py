"""The admission state layer: every mutable per-client byte, made explicit.

The paper's adaptive issuer is stateful per client — behavioural
reputation offsets, cached scores, load estimates, replay protection.
Historically each component kept that state in a private dict, which
meant the serving tier could neither shard it across workers nor carry
it across a restart.  This package turns the state layer into a
first-class subsystem:

* :class:`StateNamespace` — one ordered keyed table (e.g. the feedback
  offsets), with the dict-ish operations the components need;
* :class:`AdmissionStateStore` — the interface every backend satisfies:
  ``namespace()`` access plus whole-store ``snapshot()``/``restore()``;
* :class:`InMemoryStateStore` — the process-local implementation every
  framework owns by default;
* :class:`ShardedStateStore` — the ring store: partitions the keyspace
  over N child stores by consistent hash, the same routing the
  multi-worker gateway uses; :class:`MultiNodeStateStore` is that
  store over state servers, with live resharding
  (``repro state topology``) and its :class:`HandoffReport`;
* :class:`HashRing` / :func:`stable_hash` — the deterministic routing
  shared by the sharded store and the gateway cluster (never Python's
  salted ``hash()``);
* :mod:`repro.state.snapshot` — JSON snapshot files, plus the
  merge/split helpers behind ``repro state snapshot``/``restore``;
* :mod:`repro.state.net` — the networked backend: a
  :class:`StateServer` hosting any store over TCP/AF_UNIX
  (``repro state serve``) and the :class:`RemoteStateStore` client.

Values stored in a namespace must be JSON-safe (numbers, strings,
booleans, lists of those) so any snapshot round-trips losslessly.
"""

from repro.state.net import RemoteStateStore, StateServer
from repro.state.sharded import (
    HandoffReport,
    MultiNodeStateStore,
    ShardedStateStore,
)
from repro.state.sharding import HashRing, shard_for, stable_hash
from repro.state.snapshot import (
    load_snapshot,
    merge_snapshots,
    read_shard_file,
    read_shard_files,
    save_snapshot,
    shard_file_name,
    split_snapshot,
    state_dir_topology,
    write_shard_file,
    write_shard_files,
)
from repro.state.store import (
    AdmissionStateStore,
    InMemoryStateStore,
    StateNamespace,
)

__all__ = [
    "AdmissionStateStore",
    "InMemoryStateStore",
    "StateNamespace",
    "ShardedStateStore",
    "StateServer",
    "RemoteStateStore",
    "MultiNodeStateStore",
    "HandoffReport",
    "HashRing",
    "shard_for",
    "stable_hash",
    "load_snapshot",
    "save_snapshot",
    "merge_snapshots",
    "split_snapshot",
    "shard_file_name",
    "state_dir_topology",
    "read_shard_file",
    "read_shard_files",
    "write_shard_file",
    "write_shard_files",
]
