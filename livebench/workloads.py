"""The four benchmark workloads: inputs from the seed, set-up, timed ops, checks.

Every workload drives the program only through its public API —
:class:`MigrationSource` / :meth:`MigrationSource.migrate`,
:class:`CheckpointDaemon`, :class:`Orchestrator` and
:func:`fig1_similarity.run` — and receives only inputs generated here
from ``--seed``.  Each also describes its inputs for the per-layer
replay (:meth:`replay_inputs`), so :mod:`layers` times each layer's
public calls on exactly the data the workload moved.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from repro.cluster.schedule import ping_pong_schedule
from repro.cluster.vdi import fingerprint_at, replay_vdi
from repro.core.fingerprint import Fingerprint
from repro.core.protocol import first_round_traffic
from repro.core.strategies import VECYCLE, VECYCLE_DEDUP, MigrationStrategy
from repro.core.transfer import compute_transfer_set
from repro.experiments import fig1_similarity
from repro.experiments.live_cluster import demo_machine
from repro.mem.pagestore import PageStore
from repro.obs.trace import span
from repro.orchestrator import (
    BestCheckpoint,
    ClusterRegistry,
    MigrationExecutor,
    Orchestrator,
    TelemetryAggregator,
)
from repro.runtime.crossval import CrossValidation, Scenario, idle_vm_scenario
from repro.runtime.daemon import CheckpointDaemon
from repro.runtime.source import (
    MigrationError,
    MigrationSource,
    RetryPolicy,
    RuntimeConfig,
    SourceState,
)
from repro.traces.generate import generate_trace

from harness import PAGE, Phase, counter_delta, counter_snapshot

UNSHAPED = RuntimeConfig(time_scale=0.0)


@dataclasses.dataclass
class ReplayMigration:
    """One migration's inputs, as the per-layer replay needs them.

    ``checkpoint`` is the destination's checkpoint (content ids) or
    None on a first visit; ``known`` is what the source remembered of
    that host's checkpoint, which turns the full announce into a
    DIGEST_DELTA manifest.
    """

    current: np.ndarray
    checkpoint: Optional[np.ndarray]
    known: Optional[np.ndarray]
    dirty_slots: Optional[np.ndarray]
    strategy: MigrationStrategy
    vm_id: str


def analytic_for(scenario: Scenario):
    """The analytic transfer set and first-round traffic for ``scenario``."""
    method = scenario.strategy.method
    checkpoint = scenario.checkpoint
    unique = 0
    if checkpoint is not None and method.uses_hashes:
        unique = checkpoint.num_unique
    elif checkpoint is None and method.uses_checkpoint:
        # The model has no first-visit case for checkpoint methods.  A
        # same-size checkpoint sharing no content is equivalent: the
        # (empty) announce matches nothing and every page goes in full.
        hashes = scenario.current.hashes
        checkpoint = Fingerprint(
            hashes=hashes.max() + np.arange(1, hashes.shape[0] + 1, dtype=np.uint64)
        )
    transfer_set = compute_transfer_set(
        method,
        scenario.current,
        checkpoint=checkpoint,
        dirty_slots=scenario.dirty_slots,
    )
    return transfer_set, first_round_traffic(
        transfer_set, scenario.strategy.wire, announce_unique_pages=unique
    )


async def migrate_checked(phase: Phase, scenario: Scenario, analytic, host, port):
    """One timed ``migrate()`` from a fresh source PageStore, then its checks.

    Returns ``(metrics, source, problems)``: the failed checks, which
    the caller extends and then counts as one failed migration;
    ``metrics`` and ``source`` are None if ``migrate()`` raised.
    """
    transfer_set, traffic = analytic
    source = MigrationSource(
        SourceState(
            vm_id=scenario.vm_id,
            hashes=scenario.current.hashes,
            pagestore=PageStore(),
            dirty_slots=scenario.dirty_slots,
        ),
        scenario.strategy,
        config=UNSHAPED,
    )
    phase.attempted += 1
    started = time.perf_counter()
    try:
        metrics = await source.migrate(host, port)
    except MigrationError as exc:
        return None, None, [str(exc)]
    wall = time.perf_counter() - started
    problems = outcome_problems(metrics)
    if not problems:
        crossval = CrossValidation(
            scenario=scenario,
            runtime=metrics,
            transfer_set=transfer_set,
            analytic=traffic,
            announce_overhead_bytes=metrics.announce_bytes - traffic.announce_bytes,
        )
        if crossval.payload_delta_bytes or metrics.messages != traffic.messages:
            problems.append(
                f"crossval: payload delta {crossval.payload_delta_bytes}, "
                f"messages {metrics.messages} vs {traffic.messages}"
            )
    phase.ops.append(wall)
    record_migration(phase, metrics, scenario.num_pages)
    return metrics, source, problems


def outcome_problems(metrics) -> List[str]:
    """``validate()`` and the completed outcome, as a list of failed checks."""
    problems = []
    if metrics.outcome != "completed":
        problems.append(f"outcome {metrics.outcome}")
    try:
        metrics.validate()
    except ValueError as exc:
        problems.append(f"validate: {exc}")
    return problems


def record_migration(phase: Phase, metrics, num_pages: int) -> None:
    phase.migrate_s.append(metrics.wall_time_s)
    phase.downtimes.append(metrics.downtime_s)
    phase.wire_bytes += metrics.total_bytes
    phase.vm_bytes += num_pages * PAGE
    phase.announce_bytes.append(metrics.announce_bytes)


class ReturnIdle:
    """64 MiB idle VM returning to a host that kept its checkpoint."""

    name = "return-idle"
    size_mib = 64

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.scenario = idle_vm_scenario(
            size_mib=self.size_mib,
            updates_percent=1.0,
            duplicate_fraction=0.05,
            strategy=VECYCLE,
            seed=seed,
        )
        self.analytic = analytic_for(self.scenario)

    def prepare(self) -> List[float]:
        return []

    async def _round(self, phase: Phase, scenario: Scenario, analytic) -> None:
        started = time.perf_counter()
        daemon = CheckpointDaemon(name="dest", time_scale=0.0)
        await daemon.start()
        try:
            daemon.install_checkpoint(
                scenario.vm_id, scenario.checkpoint, scenario.strategy.checksum
            )
            phase.setups.append(time.perf_counter() - started)
            before = counter_snapshot()
            _, _, problems = await migrate_checked(
                phase, scenario, analytic, daemon.host, daemon.port
            )
            phase.round_counts.append(counter_delta(before, counter_snapshot()))
        finally:
            await daemon.stop()
        if problems:
            phase.fail(scenario.vm_id, problems)

    async def round(self, phase: Phase, traced: bool = False) -> None:
        await self._round(phase, self.scenario, self.analytic)

    async def warmup(self) -> Phase:
        small = idle_vm_scenario(
            size_mib=1, updates_percent=1.0, duplicate_fraction=0.05,
            strategy=VECYCLE, seed=self.seed,
        )
        phase = Phase()
        await self._round(phase, small, analytic_for(small))
        return phase

    def replay_inputs(self) -> Dict[str, Any]:
        scenario = self.scenario
        return {
            "migrations": [
                ReplayMigration(
                    current=scenario.current.hashes,
                    checkpoint=scenario.checkpoint.hashes,
                    known=None,
                    dirty_slots=scenario.dirty_slots,
                    strategy=scenario.strategy,
                    vm_id=scenario.vm_id,
                )
            ],
            "installs": [("dest", scenario.vm_id, scenario.checkpoint)],
            "replay_repository": False,
        }


class FirstVisit:
    """16 MiB VM arriving at an in-memory daemon that has never seen it."""

    name = "first-visit"
    size_mib = 16

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.scenario = self._scenario(self.size_mib)
        self.analytic = analytic_for(self.scenario)
        self.expected = self._expected(self.scenario)

    def _scenario(self, size_mib: int) -> Scenario:
        base = idle_vm_scenario(
            size_mib=size_mib, updates_percent=0.0, duplicate_fraction=0.0,
            strategy=VECYCLE, seed=self.seed,
        )
        return dataclasses.replace(
            base, vm_id=f"fresh-{size_mib}mib", checkpoint=None, dirty_slots=None
        )

    @staticmethod
    def _expected(scenario: Scenario) -> List[bytes]:
        return PageStore().digests_for(
            scenario.current.hashes, scenario.strategy.checksum
        )

    def prepare(self) -> List[float]:
        return []

    async def _round(self, phase, scenario, analytic, expected) -> None:
        started = time.perf_counter()
        daemon = CheckpointDaemon(name="dest", time_scale=0.0)
        await daemon.start()
        phase.setups.append(time.perf_counter() - started)
        before = counter_snapshot()
        try:
            metrics, source, problems = await migrate_checked(
                phase, scenario, analytic, daemon.host, daemon.port
            )
        finally:
            await daemon.stop()
        phase.round_counts.append(counter_delta(before, counter_snapshot()))
        if metrics is not None:
            hosted = daemon.checkpoint_digests(scenario.vm_id)
            if not hosted == source.final_digests() == frozenset(expected):
                problems.append("hosted checkpoint digests differ from the source's")
        if problems:
            phase.fail(scenario.vm_id, problems)

    async def round(self, phase: Phase, traced: bool = False) -> None:
        await self._round(phase, self.scenario, self.analytic, self.expected)

    async def warmup(self) -> Phase:
        small = self._scenario(1)
        phase = Phase()
        await self._round(phase, small, analytic_for(small), self._expected(small))
        return phase

    def replay_inputs(self) -> Dict[str, Any]:
        """The one workload whose every page goes in full, so it also
        replays the repository persist of those pages."""
        scenario = self.scenario
        return {
            "migrations": [
                ReplayMigration(
                    current=scenario.current.hashes,
                    checkpoint=None,
                    known=None,
                    dirty_slots=None,
                    strategy=scenario.strategy,
                    vm_id=scenario.vm_id,
                )
            ],
            "installs": [],
            "replay_repository": True,
        }


def _timed(samples: List[float], name: str, method: Callable) -> Callable:
    """Wrap an instance's async method: time each call inside a span."""

    async def wrapper(*args, **kwargs):
        with span(f"bench.{name}"):
            started = time.perf_counter()
            try:
                return await method(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - started)

    return wrapper


def _timed_sync(samples: List[float], name: str, method: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with span(f"bench.{name}"):
            started = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                samples.append(time.perf_counter() - started)

    return wrapper


class PingPongCluster:
    """One VM ping-ponging between two orchestrated hosts, plus a decoy."""

    name = "pingpong-cluster"
    num_pages = 4096
    migrations = 12
    interval_hours = 4.0
    vm_id = "pingpong-vm"

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.strategy = VECYCLE_DEDUP
        self.events = ping_pong_schedule(self.interval_hours, self.migrations)
        # The trace covers the whole schedule, so no migration replays a
        # snapshot clamped past the trace's end.
        days = int(self.events[-1].time_hours // 24) + 1
        trace = generate_trace(
            demo_machine(num_pages=self.num_pages, trace_days=days, seed=seed)
        )
        self.fingerprints = [
            fingerprint_at(trace, event.time_hours)[0] for event in self.events
        ]
        method = self.strategy.method
        analytic = replay_vdi(trace, schedule=self.events, methods=(method,))
        self.expected_full: List[float] = [
            record.fractions[method] * fp.num_pages
            for record, fp in zip(analytic.records, self.fingerprints)
        ]
        self.hosts = sorted(
            {e.source for e in self.events} | {e.destination for e in self.events}
        ) + ["standby-1"]
        self.layer_samples: Dict[str, List[float]] = {}

    def prepare(self) -> List[float]:
        return []

    async def _round(self, phase: Phase, fingerprints, expected, traced: bool) -> None:
        started = time.perf_counter()
        pagestore = PageStore()
        registry = ClusterRegistry()
        orchestrator = Orchestrator(
            registry,
            BestCheckpoint(),
            executor=MigrationExecutor(),
            strategy=self.strategy,
            config=RuntimeConfig(
                time_scale=0.0,
                retry=RetryPolicy(max_attempts=3, base_backoff_s=0.02),
            ),
            pagestore=pagestore,
        )
        aggregator = TelemetryAggregator(registry)
        daemons: Dict[str, CheckpointDaemon] = {}
        try:
            for name in self.hosts:
                daemon = CheckpointDaemon(name=name, pagestore=pagestore)
                await daemon.start()
                daemons[name] = daemon
                registry.register(name, daemon.host, daemon.port)
            phase.setups.append(time.perf_counter() - started)
            if traced:
                samples = self.layer_samples
                registry.poll_all = _timed(
                    samples.setdefault("registry.poll_s", []),
                    "registry.poll_all", registry.poll_all,
                )
                orchestrator.place = _timed_sync(
                    samples.setdefault("placement.place_s", []),
                    "orchestrator.place", orchestrator.place,
                )
                aggregator.poll_all = _timed(
                    samples.setdefault("telemetry.poll_s", []),
                    "telemetry.poll_all", aggregator.poll_all,
                )
            before = counter_snapshot()
            location = self.events[0].source
            orchestrator.locations[self.vm_id] = location
            for index, fingerprint in enumerate(fingerprints):
                step_started = time.perf_counter()
                # The §3.3 departure checkpoint the next return recycles.
                daemons[location].install_checkpoint(
                    self.vm_id, fingerprint, algorithm=self.strategy.checksum
                )
                phase.attempted += 1
                decision, outcome = await orchestrator.migrate_vm(
                    self.vm_id, fingerprint.hashes, source_host=location
                )
                if outcome is None or not outcome.ok or outcome.metrics is None:
                    # The rest of the schedule cannot run without this hop.
                    skipped = len(fingerprints) - index - 1
                    phase.attempted += skipped
                    phase.fail(
                        f"migration {index}",
                        [str(outcome.error) if outcome is not None else "deferred",
                         f"{skipped} later migrations skipped"],
                        count=1 + skipped,
                    )
                    break
                location = decision.destination
                await aggregator.poll_all()
                phase.ops.append(time.perf_counter() - step_started)
                metrics = outcome.metrics
                record_migration(phase, metrics, fingerprint.num_pages)
                problems = outcome_problems(metrics)
                if metrics.pages_full != expected[index]:
                    problems.append(
                        f"live full pages {metrics.pages_full} "
                        f"!= replay_vdi {expected[index]}"
                    )
                if problems:
                    phase.fail(f"migration {index}", problems)
            phase.round_counts.append(counter_delta(before, counter_snapshot()))
        finally:
            for daemon in daemons.values():
                await daemon.stop()

    async def round(self, phase: Phase, traced: bool = False) -> None:
        await self._round(phase, self.fingerprints, self.expected_full, traced)

    async def warmup(self) -> Phase:
        phase = Phase()
        await self._round(
            phase, self.fingerprints[:2], self.expected_full[:2], traced=False
        )
        return phase

    def replay_inputs(self) -> Dict[str, Any]:
        """Which checkpoint and which remembered digests each return meets.

        Mirrors the schedule: before leaving a host the VM's state is
        installed there; arriving at a host leaves the orchestrator
        remembering the migrated image, which it presents on the next
        visit and so earns a DIGEST_DELTA manifest.
        """
        installed: Dict[str, np.ndarray] = {}
        knowledge: Dict[str, np.ndarray] = {}
        migrations = []
        installs = []
        for event, fingerprint in zip(self.events, self.fingerprints):
            installed[event.source] = fingerprint.hashes
            installs.append((event.source, self.vm_id, fingerprint))
            migrations.append(
                ReplayMigration(
                    current=fingerprint.hashes,
                    checkpoint=installed.get(event.destination),
                    known=knowledge.get(event.destination),
                    dirty_slots=None,
                    strategy=self.strategy,
                    vm_id=self.vm_id,
                )
            )
            knowledge[event.destination] = fingerprint.hashes
        return {
            "migrations": migrations,
            "installs": installs,
            "replay_repository": False,
        }


def fig1_digest(results) -> str:
    """SHA-256 over every machine's binned similarity arrays, in order."""
    digest = hashlib.sha256()
    for name, decay in results.items():
        digest.update(name.encode("utf-8"))
        for array in (
            decay.bin_hours, decay.minimum, decay.average, decay.maximum, decay.counts
        ):
            digest.update(np.ascontiguousarray(array).tobytes())
    return digest.hexdigest()


class Fig1Sweep:
    """The Figure 1 similarity sweep at default scale, one worker.

    Each round runs one machine through the same public call,
    ``fig1_similarity.run(machines=[spec], workers=1)``, cycling through
    the six machines; ``run()`` itself does no more than that, one
    machine after another.  A whole sweep is 7–9 s, so a run would hold
    two or three; machine by machine it holds about sixteen, each with
    the machine floor sampled around it, and the sweep's time is the
    sum of the six machines' medians (:func:`harness.sum_of_medians`).
    """

    name = "fig1-sweep"
    min_rounds = len(fig1_similarity.FIGURE1_MACHINES)
    # Each machine's fig1_similarity.run(workers=1) output at default
    # scale.  The presets carry their own seeds, so the output ignores
    # --seed.
    PINNED_SHA256 = {
        "Server A": "0d3a2e0793028d2d2b651c9ae0af99d7e98834eed0bb93337f003b408b9b5d5f",
        "Server B": "c2aabee056c1782b974f232f932058cced3710eb80bb5ac1202d12c73608845c",
        "Laptop A": "765105aabd7f66547c07b67d62fd74d5e71f48ecc6d5aee0a1b8d9fde9714958",
        "Laptop B": "7c34e986db4f45a856c9efb429f8658fa687d6105b81c0c67a5ebf2f6e2f4632",
        "Crawler A": "9f55028cb88facb324a40e4e44a96b63dd357ef53d911a0f5ab69ac61a594d3b",
        "Crawler B": "25c026a0943b533cc6561497e0fd41b9e010243a788392bde2dd990a5a84055b",
    }

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.rounds = 0

    def prepare(self, repeats: int = 3) -> List[float]:
        """Import the sweep in a fresh interpreter, ``repeats`` times.

        The sweep has no in-process set-up, so its ``setup_s`` is program
        start: interpreter start-up, the NumPy import and the ``repro``
        modules.  A change to the package's import cost moves it; a
        change to the sweep itself barely does.
        """
        src = str(Path(fig1_similarity.__file__).resolve().parents[2])
        env = dict(os.environ, PYTHONPATH=src)
        samples = []
        for _ in range(repeats):
            started = time.perf_counter()
            subprocess.run(
                [sys.executable, "-c", "import repro.experiments.fig1_similarity"],
                env=env, check=True, timeout=60,
            )
            samples.append(time.perf_counter() - started)
        return samples

    async def round(self, phase: Phase, traced: bool = False) -> str:
        machines = fig1_similarity.FIGURE1_MACHINES
        spec = machines[self.rounds % len(machines)]
        self.rounds += 1
        phase.attempted += 1
        started = time.perf_counter()
        results = fig1_similarity.run(machines=[spec], workers=1)
        wall = time.perf_counter() - started
        if fig1_digest(results) != self.PINNED_SHA256[spec.name]:
            phase.fail(spec.name, ["fig1 output digest differs from the pinned one"])
        phase.ops.append(wall)
        phase.round_counts.append({"fig1.machines": len(results)})
        return spec.name

    async def warmup(self) -> Optional[Phase]:
        return None

    def replay_inputs(self) -> Dict[str, Any]:
        return {"machines": fig1_similarity.FIGURE1_MACHINES}


WORKLOADS = {
    cls.name: cls for cls in (ReturnIdle, FirstVisit, PingPongCluster, Fig1Sweep)
}

# The order ``--workload all`` runs them in; BENCHMARK.json lists the same.
BENCHMARK_WORKLOADS = tuple(WORKLOADS)

RUNTIME_WORKLOADS = ("return-idle", "first-visit", "pingpong-cluster")
