"""Seeded fault schedules: which fault fires in which soak round.

A :class:`FaultSchedule` is a pure function of its seed — two runs with
the same seed inject exactly the same faults at exactly the same
points, which is what makes a chaos failure a *reproducible* failure.
Schedules serialize to JSON so a failing seed can be committed next to
the regression test it produced.

At most one fault fires per round.  That restraint is deliberate: some
fault pairs would break the accounting the invariants rely on (a
telemetry drop and a daemon restart in the same round would lose the
dying daemon's unpolled counters, turning an injected fault into a
false-positive rollup violation).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class FaultKind:
    """The fault vocabulary, one constant per unified hook.

    Each kind maps to one fault point in the cluster; the wire kinds
    are realised by :class:`~repro.chaos.streams.StreamFault` wrappers
    on the daemons' connections:

    * ``DISCONNECT`` — daemon aborts the connection after ``param``
      applied protocol messages (page frames).
    * ``MID_RESULT`` — daemon sends half the RESULT frame, then aborts.
    * ``STALL_OVER`` / ``STALL_UNDER`` — daemon stalls before READY for
      longer / shorter than the source's ``io_timeout_s``.
    * ``TRUNCATE_READY`` — daemon drops the last ``param`` bytes of a
      READY frame but keeps the connection open (stream desync).
    * ``RESTART`` — daemon is killed mid-session and restarted on the
      same port, recovering from its durable state directory.
    * ``CORRUPT_SEGMENT`` — one durable segment's bytes are flipped on
      disk; the next scrub must quarantine it, nothing else.
    * ``TELEMETRY_LOSS`` — one aggregator poll of one host is dropped.
    * ``HEARTBEAT_LOSS`` — one registry heartbeat of one host is
      dropped (the host looks dead until the next poll).
    * ``SLOW_LINK`` — the migration runs over a shaped WAN link instead
      of loopback (modelled time; no wall-clock sleeps).
    """

    DISCONNECT = "disconnect"
    MID_RESULT = "mid_result"
    STALL_OVER = "stall_over"
    STALL_UNDER = "stall_under"
    TRUNCATE_READY = "truncate_ready"
    RESTART = "restart"
    CORRUPT_SEGMENT = "corrupt_segment"
    TELEMETRY_LOSS = "telemetry_loss"
    HEARTBEAT_LOSS = "heartbeat_loss"
    SLOW_LINK = "slow_link"


FAULT_KINDS: Tuple[str, ...] = (
    FaultKind.DISCONNECT,
    FaultKind.MID_RESULT,
    FaultKind.STALL_OVER,
    FaultKind.STALL_UNDER,
    FaultKind.TRUNCATE_READY,
    FaultKind.RESTART,
    FaultKind.CORRUPT_SEGMENT,
    FaultKind.TELEMETRY_LOSS,
    FaultKind.HEARTBEAT_LOSS,
    FaultKind.SLOW_LINK,
)

#: Generation weights.  Protocol-level faults dominate (they exercise
#: the retry/resume machinery, where the bugs historically were);
#: restarts and corruption are rarer, like in production.
_WEIGHTS: Dict[str, int] = {
    FaultKind.DISCONNECT: 4,
    FaultKind.MID_RESULT: 3,
    FaultKind.STALL_OVER: 2,
    FaultKind.STALL_UNDER: 2,
    FaultKind.TRUNCATE_READY: 3,
    FaultKind.RESTART: 2,
    FaultKind.CORRUPT_SEGMENT: 2,
    FaultKind.TELEMETRY_LOSS: 2,
    FaultKind.HEARTBEAT_LOSS: 2,
    FaultKind.SLOW_LINK: 2,
}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    Attributes:
        round_no: Zero-based soak round the fault fires in.
        kind: One of :data:`FAULT_KINDS`.
        param: Kind-specific integer (message count for disconnects and
            restarts, bytes cut for truncation, digest selector for
            corruption; unused otherwise).
        host_index: Deterministic host selector for faults that target
            a specific host (probe drops, corruption); taken modulo the
            live host list at runtime.
    """

    round_no: int
    kind: str
    param: int = 0
    host_index: int = 0

    def __post_init__(self) -> None:
        if self.round_no < 0:
            raise ValueError(f"round_no must be >= 0, got {self.round_no}")
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")

    def describe(self) -> str:
        """One human-readable line, stable across runs."""
        return (
            f"round {self.round_no:3d}: {self.kind}"
            f"(param={self.param}, host_index={self.host_index})"
        )


@dataclass(frozen=True)
class FaultSchedule:
    """A seeded, serializable list of faults for one soak run."""

    seed: int
    faults: Tuple[FaultSpec, ...]

    @classmethod
    def generate(
        cls,
        seed: int,
        rounds: int,
        intensity: float = 0.8,
        kinds: Optional[Sequence[str]] = None,
    ) -> "FaultSchedule":
        """Draw at most one weighted fault per round from ``seed``.

        Args:
            seed: The PRNG seed; the whole schedule is a pure function
                of it (plus the other arguments).
            rounds: Number of soak rounds to schedule for.
            intensity: Probability that a given round has a fault.
            kinds: Restrict the vocabulary (default: all kinds).
        """
        if rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {rounds}")
        if not 0.0 <= intensity <= 1.0:
            raise ValueError(f"intensity must be in [0, 1], got {intensity}")
        chosen = tuple(kinds) if kinds is not None else FAULT_KINDS
        for kind in chosen:
            if kind not in FAULT_KINDS:
                raise ValueError(f"unknown fault kind {kind!r}")
        rng = random.Random(seed)
        weights = [_WEIGHTS[kind] for kind in chosen]
        faults: List[FaultSpec] = []
        for round_no in range(rounds):
            if rng.random() >= intensity:
                continue
            kind = rng.choices(chosen, weights=weights, k=1)[0]
            faults.append(
                FaultSpec(
                    round_no=round_no,
                    kind=kind,
                    param=rng.randrange(1, 9),
                    host_index=rng.randrange(64),
                )
            )
        return cls(seed=seed, faults=tuple(faults))

    def for_round(self, round_no: int) -> Tuple[FaultSpec, ...]:
        """The faults scheduled for ``round_no`` (empty or length one)."""
        return tuple(f for f in self.faults if f.round_no == round_no)

    def kind_counts(self) -> Dict[str, int]:
        """How many times each kind appears (only non-zero entries)."""
        counts: Dict[str, int] = {}
        for fault in self.faults:
            counts[fault.kind] = counts.get(fault.kind, 0) + 1
        return dict(sorted(counts.items()))

    def describe(self) -> str:
        """The whole schedule, one line per fault."""
        header = f"fault schedule seed={self.seed} ({len(self.faults)} faults)"
        return "\n".join([header] + [f.describe() for f in self.faults])

    # --- serialization --------------------------------------------------

    def to_json(self) -> str:
        """Stable JSON encoding (committable next to a regression)."""
        return json.dumps(
            {
                "version": 1,
                "seed": self.seed,
                "faults": [
                    {
                        "round": f.round_no,
                        "kind": f.kind,
                        "param": f.param,
                        "host_index": f.host_index,
                    }
                    for f in self.faults
                ],
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultSchedule":
        """Inverse of :meth:`to_json`; validates kinds and version."""
        data = json.loads(text)
        version = data.get("version")
        if version != 1:
            raise ValueError(f"unsupported schedule version {version!r}")
        faults = tuple(
            FaultSpec(
                round_no=int(entry["round"]),
                kind=str(entry["kind"]),
                param=int(entry.get("param", 0)),
                host_index=int(entry.get("host_index", 0)),
            )
            for entry in data.get("faults", [])
        )
        return cls(seed=int(data["seed"]), faults=faults)
