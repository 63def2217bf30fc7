"""Exception taxonomy for the OBIWAN object-swapping reproduction.

Every exception raised by the library derives from :class:`ObiError`, so
applications can catch middleware failures with a single handler while the
concrete subclasses keep failure modes distinguishable (swap-store gone,
heap exhausted, codec mismatch, ...).
"""

from __future__ import annotations


class ObiError(Exception):
    """Base class for all errors raised by the repro library."""


class NotManagedError(ObiError):
    """An operation required a managed object/class but got a plain one."""


class AlreadyManagedError(ObiError):
    """An object was adopted into a space twice, or into two spaces."""


class IntegrityError(ObiError):
    """Referential-integrity invariant violated (raw cross-cluster edge,
    stale proxy, inconsistent proxy tables)."""


class CodecError(ObiError):
    """XML (de)serialization failed or the document is malformed."""


class SwapError(ObiError):
    """Base class for swap-out/swap-in failures."""


class ClusterNotResidentError(SwapError):
    """Operation needed a resident swap-cluster but it is swapped out."""


class ClusterNotSwappedError(SwapError):
    """Swap-in requested for a cluster that is already resident."""


class ClusterPinnedError(SwapError):
    """Swap-out requested for a cluster pinned by :meth:`Space.pin`."""


class SwapStoreUnavailableError(SwapError):
    """The device holding a swapped cluster's XML cannot be reached."""


class NoSwapDeviceError(SwapError):
    """No nearby device is available/has room to receive a swap-cluster."""


class RetryExhaustedError(SwapError):
    """A retried swap-store operation failed on every attempt.

    Raised by the resilience layer when a :class:`repro.resilience.
    RetryPolicy` runs out of attempts or overruns its deadline against a
    single device.  The last underlying failure (usually a
    :class:`TransportError`) is chained as ``__cause__``; the pipeline
    treats this as "that device is unreachable" and moves on to failover
    candidates.
    """


class AllStoresUnreachableError(SwapStoreUnavailableError):
    """Every candidate device failed, retries and failover included.

    The terminal availability failure of the resilient swap pipeline:
    retries were exhausted against each holder/candidate in turn and no
    fallback applied (or local degradation was disabled/out of room).
    Subclasses :class:`SwapStoreUnavailableError` so existing handlers
    for single-device unavailability keep working.
    """


class HeapExhaustedError(ObiError):
    """The managed heap cannot satisfy an allocation even after policy ran."""


class StoreFullError(ObiError):
    """An XML store device refused a payload for lack of capacity."""


class UnknownKeyError(ObiError):
    """An XML store device was asked for a key it does not hold."""


class TransportError(ObiError):
    """A simulated link is down or the peer is out of range."""


class DeviceNotFoundError(ObiError):
    """Discovery could not resolve the requested device id."""


class ReplicationError(ObiError):
    """Cluster fetch / proxy replacement failed during replication."""


class SyncError(ReplicationError):
    """A replica push/pull could not be performed (unknown objects,
    non-resident cluster, malformed push document)."""


class SyncConflictError(SyncError):
    """Reintegration found concurrent changes: the master moved past the
    replica's base version (push), or the local replica has unpushed
    changes that a pull would overwrite."""


class PolicyError(ObiError):
    """A policy document is malformed or an action/condition failed."""


class ExpressionError(PolicyError):
    """A policy condition uses syntax outside the safe-expression subset."""
