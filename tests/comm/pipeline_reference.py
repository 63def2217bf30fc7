"""The generator-based channel booking, kept as a reference.

``ReferenceTransferScheduler.channel`` and ``reference_ship_channel``
are the earlier ``contextlib`` implementations of
:meth:`repro.comm.pipeline.TransferScheduler.channel` and
:meth:`repro.core.sched.AsyncSwapScheduler.ship_channel`, unchanged in
behaviour.  ``tests/comm/test_pipeline_lockstep.py`` runs random booking
sequences on them and on the library in lockstep and requires the two
to agree on every window, busy time and statistic.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

from repro.clock import SimulatedClock
from repro.comm.pipeline import ChannelSlot, TransferScheduler
from repro.core.sched import SwapOp, SwapOpKind, SwapOpState


class ReferenceTransferScheduler(TransferScheduler):
    """A :class:`TransferScheduler` whose ``channel`` is the generator."""

    @contextmanager
    def channel(
        self, link: Any, not_before: float = 0.0
    ) -> Iterator[ChannelSlot]:
        slot = ChannelSlot()
        target = self._underlying(link)
        if target is None or target.clock is not self.clock:
            # unknown link, or one already running on a shadow clock
            # (nested channel) — run inline rather than double-schedule
            slot.start_s = self.clock.now()
            try:
                yield slot
            except BaseException:
                slot.end_s = self.clock.now()
                slot.failed = True
                raise
            slot.end_s = self.clock.now()
            return
        index = min(
            range(self.channels), key=lambda i: self._channel_free[i]
        )
        slot.channel_index = index
        start = max(
            self.clock.now(),
            not_before,
            self._channel_free[index],
            self._link_free.get(id(target), 0.0),
        )
        shadow = SimulatedClock(start)
        target.clock = shadow
        slot.start_s = start
        charged_before = target.stats.seconds_charged
        failed = False
        try:
            yield slot
        except BaseException:
            failed = True
            raise
        finally:
            target.clock = self.clock
            end = shadow.now()
            slot.end_s = end
            slot.failed = failed
            self.stats.transfers += 1
            self._channel_free[index] = end
            self._link_free[id(target)] = end
            if failed:
                self.stats.failed_transfers += 1
                self.stats.failed_s += end - start
                target.stats.seconds_failed += (
                    target.stats.seconds_charged - charged_before
                )
            else:
                self.stats.serial_s += end - start


@contextmanager
def reference_ship_channel(
    sched: Any, holder: Any, kind: str = "ship"
) -> Iterator[None]:
    """The generator ``ship_channel`` against ``sched``'s op ledger."""
    op_kind = SwapOpKind.DELTA_SHIP if kind == "delta" else SwapOpKind.SHIP
    sched._seq += 1
    op = SwapOp(
        seq=sched._seq,
        kind=op_kind,
        sid=-1,
        issued_s=sched.clock.now(),
        device_id=holder.device_id,
    )
    sched.stats.ops_issued += 1
    try:
        with sched.transfers.channel(getattr(holder, "_link", None)) as slot:
            yield
    except BaseException:
        op.state = SwapOpState.FAILED
        op.start_s = slot.start_s
        op.complete_s = slot.end_s
        op.busy_s = slot.duration_s
        raise
    op.start_s = slot.start_s
    op.complete_s = slot.end_s
    op.busy_s = slot.duration_s
    sched.stats.writebacks += 1
    op.state = SwapOpState.IN_FLIGHT
    sched.queue.push(op)
    sched.stats.max_queue_depth = max(
        sched.stats.max_queue_depth, len(sched.queue)
    )
    for done in sched.queue.pop_due(sched.clock.now()):
        if done.state is SwapOpState.IN_FLIGHT:
            done.state = SwapOpState.DONE
