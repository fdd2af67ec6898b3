#!/usr/bin/env python3
"""Live-migration benchmark: one workload per run, end to end or per layer.

Run from the repository root::

    python3 livebench/run.py --workload return-idle --seed 7 --seconds 25 --trace 0
    python3 livebench/run.py --workload all --seed 7 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: half the budget untraced,
half with the program's tracer on, then a replay of the workload's
inputs through each layer's public calls; it reports the per-layer
metrics and writes the spans as a Chrome trace and JSONL under
``livebench/out/``.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when any correctness check fails.  See README.md.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# name -> (unit, better, bound); BENCHMARK.json mirrors this table.  The
# timings are taken over the same-run machine floor (harness.machine_floor):
# raw seconds on a shared box swing too far between runs to gate on.
# setup_s stays in seconds, scaled to a reference floor
# (harness.setup_seconds).
END_TO_END = {
    "op_over_floor.p50": ("ratio", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mib": ("MiB", "lower", 0.2),
}

SPAN_NAMES = (
    "runtime.migrate",
    "connect",
    "announce",
    "round",
    "complete",
    "close",
    "daemon.session",
    "daemon.announce",
    "daemon.round",
    "orchestrator.migrate",
    "orchestrator.place",
    "orchestrator.heartbeat",
    "orchestrator.telemetry",
)

# name -> (unit, better)
PER_LAYER = {
    "pagestore.synth_mib_per_s": ("MiB/s", "higher"),
    "pagestore.digests_for_s": ("s", "lower"),
    "checksum.md5_mib_per_s": ("MiB/s", "higher"),
    "floor.hashlib_md5_mib_per_s": ("MiB/s", "higher"),
    "planner.plan_s": ("s", "lower"),
    "planner.recycled_fraction": ("ratio", "higher"),
    "frames.announce_encode_s": ("s", "lower"),
    "frames.page_encode_s": ("s", "lower"),
    "frames.decode_s": ("s", "lower"),
    "shaping.loopback_mib_per_s": ("MiB/s", "higher"),
    "castore.put_s": ("s", "lower"),
    "repo.put_page_ms.p50": ("ms", "lower"),
    "repo.commit_s": ("s", "lower"),
    "repo.recover_s": ("s", "lower"),
    "repo.segments_written": ("count", "lower"),
    "repo.fsync_batched": ("count", "lower"),
    "daemon.install_checkpoint_s": ("s", "lower"),
    "registry.poll_s.p50": ("s", "lower"),
    "placement.place_s.p50": ("s", "lower"),
    "telemetry.poll_s.p50": ("s", "lower"),
    "executor.retries_per_migration": ("count", "lower"),
    "traces.generate_s": ("s", "lower"),
    "similarity.decay_s": ("s", "lower"),
    "runtime.migration_s.p50": ("s", "lower"),
    "runtime.vm_mib_per_s_over_md5": ("ratio", "higher"),
    "runtime.downtime_s.p50": ("s", "lower"),
    "runtime.wire_bytes_per_vm_byte": ("ratio", "lower"),
    "runtime.pages_full": ("count", "lower"),
    "runtime.pages_checksum_only": ("count", "higher"),
    "runtime.pages_ref": ("count", "higher"),
    "runtime.announce_bytes": ("count", "lower"),
    "obs.trace_overhead": ("ratio", "lower"),
    "layers.explained_fraction": ("ratio", "higher"),
    **{f"span.{name}.self_s": ("s", "lower") for name in SPAN_NAMES},
}


def _check_catalog() -> None:
    """BENCHMARK.json and this file must name the same metrics."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text("utf-8"))
    declared = (
        {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]},
        {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]},
    )
    from workloads import BENCHMARK_WORKLOADS

    workloads = tuple(w["name"] for w in spec["workloads"])
    if declared != (END_TO_END, PER_LAYER) or workloads != BENCHMARK_WORKLOADS:
        sys.exit("livebench: BENCHMARK.json differs from the benchmark's catalog")


def _bootstrap() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"livebench: program sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    # Tracing and worker pools are the benchmark's decision, not the
    # caller's environment's.
    os.environ.pop("REPRO_TRACE", None)
    os.environ.pop("REPRO_WORKERS", None)
    os.environ["REPRO_FLIGHT_DIR"] = str(OUT / "flight")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _counts_per_op(phase) -> dict:
    """The first round's exact counts, per operation."""
    if not phase.round_counts:
        return {}
    per_round = len(phase.ops) / len(phase.round_counts) or 1.0
    return {k: v / per_round for k, v in phase.round_counts[0].items()}


def _vm_mib_per_s(phase) -> float:
    """VM RAM migrated ÷ summed ``migrate()`` wall time."""
    from harness import MIB, ratio

    return ratio(phase.vm_bytes / MIB, sum(phase.migrate_s))


def _vm_mib_per_s_over_md5(phase) -> float:
    """``vm_mib_per_s`` ÷ the median MD5 MiB/s sampled in the same phase."""
    from harness import median, ratio

    return ratio(_vm_mib_per_s(phase), median(phase.round_md5))


def _report_table(workload, phase, setups, e2e: dict, runtime: bool) -> list:
    """The raw metrics the report prints: rows ``(name, value, unit, samples)``."""
    from harness import median, ratio

    ops = len(phase.ops)
    migrations = len(phase.migrate_s)
    rows = []
    if runtime:
        rows += [
            ("migration_s.p50", median(phase.migrate_s), "s", migrations),
            ("downtime_s.p50", median(phase.downtimes), "s", migrations),
            ("vm_mib_per_s", _vm_mib_per_s(phase), "MiB/s", migrations),
            ("vm_mib_per_s_over_md5", _vm_mib_per_s_over_md5(phase), "ratio",
             migrations),
            ("wire_bytes_per_vm_byte", ratio(phase.wire_bytes, phase.vm_bytes),
             "ratio", migrations),
        ]
        if workload.name == "pingpong-cluster":
            rows.append(("migrations_per_s", ratio(ops, sum(phase.ops)), "1/s", ops))
    rows += [
        ("workload_s", phase.wall_s, "s", 1),
        ("op_over_floor.p50", e2e["op_over_floor.p50"]["value"], "ratio",
         len(phase.round_ops)),
        ("setup_s", e2e["setup_s"]["value"], "s", len(setups)),
        ("setup_raw_s", median(setups), "s", len(setups)),
        ("failed_ratio", ratio(phase.failed, phase.attempted), "ratio",
         phase.attempted),
        ("peak_rss_mib", e2e["peak_rss_mib"]["value"], "MiB", 1),
    ]
    return rows


def _end_to_end(phase, setups, setup_floors) -> dict:
    from harness import peak_rss_mib, setup_seconds, sum_of_medians

    values = {
        "op_over_floor.p50": sum_of_medians(
            phase,
            [op / floor for op, floor in zip(phase.round_ops, phase.round_floor_s)],
        ),
        "setup_s": setup_seconds(setups, setup_floors),
        "peak_rss_mib": peak_rss_mib(),
    }
    return {
        name: _metric(values[name], unit) for name, (unit, *_) in END_TO_END.items()
    }


def _per_layer(workload, untraced, traced, span_totals, layer, floor) -> dict:
    from harness import mean, median, ratio, sum_of_medians

    counts = _counts_per_op(untraced)
    samples = getattr(workload, "layer_samples", {})
    values = {k: v for k, v in layer.items() if not k.startswith("_")}
    values.update(
        {
            "floor.hashlib_md5_mib_per_s": floor,
            "registry.poll_s.p50": median(samples.get("registry.poll_s", [])),
            "placement.place_s.p50": median(samples.get("placement.place_s", [])),
            "telemetry.poll_s.p50": median(samples.get("telemetry.poll_s", [])),
            "executor.retries_per_migration": counts.get("runtime.retries", 0.0)
            + counts.get("orchestrator.migrations.retried", 0.0),
            "runtime.migration_s.p50": median(untraced.migrate_s),
            "runtime.vm_mib_per_s_over_md5": _vm_mib_per_s_over_md5(untraced),
            "runtime.downtime_s.p50": median(untraced.downtimes),
            "runtime.wire_bytes_per_vm_byte": ratio(
                untraced.wire_bytes, untraced.vm_bytes
            ),
            "runtime.pages_full": counts.get("runtime.messages.full", 0.0),
            "runtime.pages_checksum_only": counts.get("runtime.messages.checksum", 0.0),
            "runtime.pages_ref": counts.get("runtime.messages.ref", 0.0),
            "runtime.announce_bytes": counts.get("runtime.announce_bytes", 0.0),
            "obs.trace_overhead": ratio(
                sum_of_medians(traced, traced.round_ops),
                sum_of_medians(untraced, untraced.round_ops),
            ),
            "layers.explained_fraction": ratio(
                layer["_explained_s"],
                mean(untraced.migrate_s)
                if untraced.migrate_s
                else sum_of_medians(untraced, untraced.round_ops),
            ),
        }
    )
    for name in SPAN_NAMES:
        values[f"span.{name}.self_s"] = ratio(span_totals.get(name, 0.0), len(traced.ops))
    return {
        name: _metric(values.get(name, 0.0), unit)
        for name, (unit, _) in PER_LAYER.items()
    }


async def _traced(workload, args, runtime: bool, record: dict):
    """Untraced half, traced half, then the per-layer replay with spans on."""
    from harness import run_phase
    from layers import replay_fig1, replay_runtime, span_self_times
    from repro.obs import trace as tracer
    from repro.obs.export import write_chrome_trace, write_jsonl
    from repro.obs.metrics import get_registry
    from workloads import fig1_digest

    untraced = await run_phase(workload, args.seconds / 2)
    tracer.reset()
    tracer.enable()
    try:
        traced = await run_phase(workload, args.seconds / 2, traced=True)
        span_totals = span_self_times(tracer.get_tracer().finished())
        if runtime:
            layer = await replay_runtime(workload.replay_inputs(), OUT / "state")
        else:
            layer = replay_fig1(workload.replay_inputs()["machines"])
    finally:
        tracer.disable()
    errors = list(layer.get("_errors", []))
    if runtime:
        replayed = layer["_announce_bytes"]
        measured = untraced.announce_bytes[: len(replayed)]
        if replayed != measured:
            errors.append(f"announce replay {replayed} != measured {measured}")
    else:
        errors += [
            f"fig1 layer replay of {name}: digest differs from the pinned one"
            for name, decay in layer["_results"].items()
            if fig1_digest({name: decay}) != workload.PINNED_SHA256[name]
        ]
    base = OUT / f"{args.workload}-seed{args.seed}"
    spans = tracer.get_tracer().finished()
    write_chrome_trace(f"{base}.trace.json", spans)
    write_jsonl(f"{base}.trace.jsonl", spans, get_registry())
    record["trace_files"] = [f"{base}.trace.json", f"{base}.trace.jsonl"]
    return [untraced, traced], span_totals, layer, errors


async def _measure(args) -> dict:
    from harness import environment, machine_floor, median, run_phase
    from workloads import RUNTIME_WORKLOADS, WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, OUT)
    runtime = args.workload in RUNTIME_WORKLOADS
    # Set-up done once per run (fig1-sweep's) is bracketed by the floor
    # like a round.
    floor_before = machine_floor(args.seed)[1]
    setups = workload.prepare()
    floor_after = machine_floor(args.seed)[1]
    setup_floors = [math.sqrt(floor_before * floor_after)] * len(setups)
    errors = []
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "discarded": [],
    }
    warm = await workload.warmup()
    if warm is not None:
        record["discarded"].append({
            "what": "one warm-up round at reduced size",
            "op_s": warm.ops,
            "reason": "first-use costs (imports, sockets, allocator growth) "
                      "are paid once per process, not per migration",
        })
        errors += warm.errors
    state_fs = None
    if args.trace == 0:
        phases = [await run_phase(workload, args.seconds)]
    else:
        phases, span_totals, layer, replay_errors = await _traced(
            workload, args, runtime, record
        )
        errors += replay_errors
        state_fs = layer.get("_state_fs")
    floor = median(f for phase in phases for f in phase.round_md5)
    setups += phases[0].setups
    setup_floors += phases[0].setup_floor_s
    if args.trace == 0:
        metrics = _end_to_end(phases[0], setups, setup_floors)
        record["report_metrics"] = _report_table(
            workload, phases[0], setups, metrics, runtime
        )
    else:
        metrics = _per_layer(workload, *phases, span_totals, layer, floor)
    record["environment"] = environment(floor, state_fs)

    all_counts = [c for p in phases for c in p.round_counts]
    repeat = all(c == all_counts[0] for c in all_counts)
    if not repeat:
        errors.append("exact counts differ between rounds of the same inputs")
    for phase in phases:
        errors += phase.errors
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    record.update(
        {
            "metrics": metrics,
            "counts_per_round": all_counts[0] if all_counts else {},
            "counts_repeat_exactly": repeat,
            "samples": {
                "op_s": [x for p in phases for x in p.ops],
                "round_op_s": [x for p in phases for x in p.round_ops],
                "round_floor_s": [x for p in phases for x in p.round_floor_s],
                "setup_s": setups,
                "setup_floor_s": setup_floors,
            },
            "errors": errors,
        }
    )
    return {
        "result": {
            "correct": not errors and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
        "record": record,
    }


def _print_report(record: dict) -> None:
    head = (
        f"{record['workload']}  seed={record['seed']}  "
        f"seconds={record['seconds']:g}  trace={record['trace']}"
    )
    print(head)
    if record["trace"] == 0:
        print(f"  {'metric':<28s} {'value':>14s}  {'unit':<6s} n")
        for name, value, unit, samples in record["report_metrics"]:
            print(f"  {name:<28s} {value:>14.6g}  {unit:<6s} {samples}")
    else:
        for name in ("obs.trace_overhead", "layers.explained_fraction"):
            print(f"  {name:<34s} {record['metrics'][name]['value']:>12.4f}")
        print(f"  {'layer metric':<34s} {'value':>12s}  unit")
        for name, entry in record["metrics"].items():
            print(f"  {name:<34s} {entry['value']:>12.6g}  {entry['unit']}")
    print("  exact counts per round"
          f" (repeat exactly: {record['counts_repeat_exactly']}):")
    for name, value in record["counts_per_round"].items():
        print(f"    {name:<38s} {value:g}")
    env = record["environment"]
    print(f"  environment: md5 floor {env['md5_floor_mib_per_s']:.1f} MiB/s, "
          f"nproc {env['nproc']}, python {env['python']}, "
          f"state fs {env['state_dir_fs']}, {env['transport']}")
    for entry in record["discarded"]:
        print(f"  discarded: {entry['what']} ({entry['reason']})")
    for error in record["errors"]:
        print(f"  CHECK FAILED: {error}")


def _run_all(args) -> int:
    """Run every gated workload in its own process; merge the results."""
    from workloads import BENCHMARK_WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in BENCHMARK_WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        status = status or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = entry
    print(json.dumps(merged))
    return status or (0 if merged["correct"] else 1)


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    _check_catalog()
    if args.workload == "all":
        return _run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"livebench: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")
    outcome = asyncio.run(_measure(args))
    record, result = outcome["record"], outcome["result"]
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", "utf-8")
    _print_report(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
