"""Wire faults: every daemon-side fault kind as a stream wrapper.

The daemon has no fault branches; it passes each accepted connection
through :attr:`~repro.runtime.daemon.CheckpointDaemon.on_stream`, the
hook type the source has too.  :meth:`StreamFault.arm` installs a hook
wrapping connections in a :class:`FaultStream`, which watches frame
tags go by and disturbs the wire at the fault's point.  One fault may
be armed on several daemons: its ``times`` budget is shared, and each
firing counts ``daemon.injected_*`` on the daemon that consumed it —
how a caller learns which host fired.  Nothing here is random.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Dict, NoReturn, Optional

from repro.chaos.schedule import FaultKind
from repro.obs.metrics import get_registry
from repro.obs.telemetry import TelemetrySource
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.frames import (
    PAGE_FRAME_TYPES,
    TYPE_HEARTBEAT,
    TYPE_READY,
    TYPE_RESULT,
    TYPE_TELEMETRY,
)
from repro.runtime.shaping import ShapedStream

#: The kinds a wrapper realises, with the counter each firing bumps on
#: the daemon that consumed it (None: the peer's failure is the record).
STREAM_FAULT_COUNTERS: Dict[str, Optional[str]] = {
    FaultKind.DISCONNECT: "daemon.injected_aborts",
    FaultKind.MID_RESULT: "daemon.injected_aborts",
    FaultKind.STALL_OVER: "daemon.injected_stalls",
    FaultKind.STALL_UNDER: "daemon.injected_stalls",
    FaultKind.TRUNCATE_READY: "daemon.injected_truncations",
    FaultKind.TELEMETRY_LOSS: "daemon.injected_telemetry_drops",
    FaultKind.HEARTBEAT_LOSS: None,
}

_PROBE_OPENERS = {
    FaultKind.TELEMETRY_LOSS: TYPE_TELEMETRY,
    FaultKind.HEARTBEAT_LOSS: TYPE_HEARTBEAT,
}


@dataclass
class StreamFault:
    """One wire fault with an occurrence budget.

    Attributes:
        kind: A key of :data:`STREAM_FAULT_COUNTERS`: ``disconnect``
            aborts right after the ``param``-th applied page frame (a
            transport drop; the session stays resumable),
            ``mid_result`` sends half the RESULT and aborts, the
            stalls sleep ``param`` seconds before READY,
            ``truncate_ready`` sends READY short by ``param`` bytes on
            a live connection, and the probe losses abort a TELEMETRY
            or HEARTBEAT opener unanswered.
        param: Page frames, seconds or bytes, per ``kind``.
        times: Firings left, shared by every stream the fault wraps.
    """

    kind: str
    param: float = 0
    times: int = 1

    def __post_init__(self) -> None:
        if self.kind not in STREAM_FAULT_COUNTERS:
            raise ValueError(f"{self.kind!r} is not a wire fault kind")

    @property
    def spent(self) -> bool:
        """True once every budgeted firing happened."""
        return self.times <= 0

    def arm(self, daemon: CheckpointDaemon) -> "StreamFault":
        """Wrap ``daemon``'s future connections in this fault; returns self."""
        daemon.on_stream = lambda stream: FaultStream(
            stream, self, daemon.telemetry
        )
        return self


class FaultStream(ShapedStream):
    """A daemon connection that realises one :class:`StreamFault`.

    :meth:`~repro.runtime.frames.FrameCodec.read_frame` reads each tag,
    and nothing else, with a one-byte ``recv``: the first one is the
    opener, and one after a page-frame tag means that frame was
    applied.  The daemon sends whole frames, so a send starts with its
    tag.
    """

    def __init__(
        self, inner: ShapedStream, fault: StreamFault,
        telemetry: TelemetrySource,
    ) -> None:
        # The hook runs before any frame moved, so adopting the wrapped
        # stream's state (reader, writer, shaping, counters) is exact.
        vars(self).update(vars(inner))
        self.fault = fault
        self._telemetry = telemetry
        self._opener_read = False
        self._in_page_frame = False
        self._pages_applied = 0

    def _fire(self) -> bool:
        """Take one firing from the shared budget and count it here."""
        if self.fault.spent:
            return False
        self.fault.times -= 1
        counter = STREAM_FAULT_COUNTERS[self.fault.kind]
        if counter is not None:
            get_registry().counter(counter).add()
            self._telemetry.counter(counter).add()
        return True

    def _drop(self) -> NoReturn:
        self.abort()
        raise ConnectionResetError(f"injected {self.fault.kind}")

    async def recv(
        self, num_bytes: int, timeout_s: Optional[float] = None
    ) -> bytes:
        """Read like the wrapped stream; drops at a disconnect or probe."""
        kind = self.fault.kind
        if num_bytes == 1 and self._in_page_frame:
            # The daemon asks for the next tag: the page frame before
            # it has been applied.
            self._in_page_frame = False
            self._pages_applied += 1
            if (
                kind == FaultKind.DISCONNECT
                and self._pages_applied >= self.fault.param
                and self._fire()
            ):
                self._drop()
        data = await super().recv(num_bytes, timeout_s)
        if num_bytes == 1:
            opener, self._opener_read = not self._opener_read, True
            self._in_page_frame = data[0] in PAGE_FRAME_TYPES
            if opener and data[0] == _PROBE_OPENERS.get(kind) and self._fire():
                self._drop()
        return data

    async def send(self, data: bytes) -> None:
        """Send like the wrapped stream; stalls, cuts or drops a frame."""
        kind = self.fault.kind
        tag = data[0] if data else None
        if tag == TYPE_READY and kind in (
            FaultKind.STALL_OVER, FaultKind.STALL_UNDER,
        ) and self._fire():
            await asyncio.sleep(self.fault.param)
        elif tag == TYPE_READY and kind == FaultKind.TRUNCATE_READY \
                and self._fire():
            data = data[: max(1, len(data) - int(self.fault.param))]
        elif tag == TYPE_RESULT and kind == FaultKind.MID_RESULT \
                and self._fire():
            # The session is committed; the source is left hanging.
            await super().send(data[: max(1, len(data) // 2)])
            self._drop()
        await super().send(data)
