"""Evaluation workloads.

Figure 5's micro-benchmark operates on "a list of 10000 64-byte objects"
with "simple (quasi-empty) methods, in order not to mask the overhead
being measured" (Section 5).  :class:`BenchNode` is that object:
``@managed(size=64)`` pins the accounted footprint, and its methods are
exactly the paper's test primitives:

* ``depth``     — Test A1's recursive step (passes an int down the list);
* ``probe``     — Test A2's outer recursion (each step triggers an inner
  ``peek`` recursion of depth 10 that returns an object reference);
* ``get_next``  — Tests B1/B2's iteration step.
"""

from __future__ import annotations

import hashlib
import random
from typing import Any, List, Optional

from repro.runtime.obicomp import managed


def blob(seed_a: int, seed_b: int, nbytes: int) -> str:
    """Deterministic high-entropy hex content (defeats the codec's zlib
    pass, as real application state would)."""
    chunks: List[str] = []
    length = 0
    counter = 0
    while length < nbytes:
        digest = hashlib.sha256(
            f"{seed_a}:{seed_b}:{counter}".encode("ascii")
        ).hexdigest()
        chunks.append(digest)
        length += len(digest)
        counter += 1
    return "".join(chunks)[:nbytes]


@managed(size=64)
class BenchNode:
    """One 64-byte list element with quasi-empty methods."""

    def __init__(self, index: int) -> None:
        self.index = index
        self.next: Optional["BenchNode"] = None

    # -- Test A1: recursion depth ------------------------------------------------

    def depth(self, i: int) -> int:
        nxt = self.next
        if nxt is None:
            return i
        return nxt.depth(i + 1)

    # -- Test A2: outer recursion with inner reference-returning recursion --------

    def peek(self, k: int) -> "BenchNode":
        if k == 0:
            return self
        nxt = self.next
        if nxt is None:
            return self
        return nxt.peek(k - 1)

    def probe(self, i: int) -> int:
        target = self.peek(10)  # the returned reference may cross a boundary
        nxt = self.next
        if nxt is None:
            return i
        return nxt.probe(i + 1)

    # -- Tests B1/B2: full iteration -----------------------------------------------

    def get_next(self) -> Optional["BenchNode"]:
        return self.next

    def get_index(self) -> int:
        return self.index


def build_list(n: int) -> BenchNode:
    """A fresh n-element list of BenchNodes (raw, unmanaged graph)."""
    head = BenchNode(0)
    node = head
    for index in range(1, n):
        node.next = BenchNode(index)
        node = node.next
    return head


def build_managed_list(space: Any, n: int, cluster_size: int) -> Any:
    """Build and ingest an n-element list; returns the root handle."""
    head = build_list(n)
    return space.ingest(head, cluster_size=cluster_size, root_name="bench-head")


# ---------------------------------------------------------------------------
# Richer workloads for the ablation benches
# ---------------------------------------------------------------------------


@managed
class Record:
    """A variable-size record for victim/selection ablations."""

    def __init__(self, key: int, payload: str) -> None:
        self.key = key
        self.payload = payload
        self.links: List[Any] = []

    def get_key(self) -> int:
        return self.key

    def get_payload(self) -> str:
        return self.payload

    def link_count(self) -> int:
        return len(self.links)


def build_record_clusters(
    space: Any,
    cluster_count: int,
    records_per_cluster: int,
    payload_bytes: int = 256,
    seed: int = 7,
) -> List[Any]:
    """``cluster_count`` independent record chains, one swap-cluster each.

    Returns the root handles; used by the victim-policy and compression
    ablations, where access skew across clusters matters.
    """
    rng = random.Random(seed)
    handles = []
    for cluster_index in range(cluster_count):
        head = Record(cluster_index * records_per_cluster, "x" * payload_bytes)
        node = head
        for record_index in range(1, records_per_cluster):
            record = Record(
                cluster_index * records_per_cluster + record_index,
                "".join(rng.choice("abcdefgh") for _ in range(payload_bytes)),
            )
            node.links.append(record)
            node = record
        handle = space.ingest(
            head,
            cluster_size=records_per_cluster,
            root_name=f"records-{cluster_index}",
        )
        handles.append(handle)
    return handles


def zipf_indexes(n_clusters: int, samples: int, s: float = 1.2, seed: int = 11) -> List[int]:
    """A Zipf-skewed access trace over cluster indexes."""
    rng = random.Random(seed)
    weights = [1.0 / ((rank + 1) ** s) for rank in range(n_clusters)]
    total = sum(weights)
    weights = [weight / total for weight in weights]
    return rng.choices(range(n_clusters), weights=weights, k=samples)
