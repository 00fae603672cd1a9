"""The three library workloads: one ``partition_join`` call, timed from outside.

``probe_heavy`` spends its time probing, ``long_lived`` in sampling, Grace
partitioning, tuple-cache migration and charged storage, ``result_heavy`` in
emitting result tuples.  The end-to-end run times whole calls with nothing
around them; the traced run replays the driver through its public phase
functions under the suite's span recorder and proves, by outcome counters
and per-phase charged ledger, that it measured the same program.
"""

from __future__ import annotations

import dataclasses
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.core.joiner import JoinOutcome, join_partitions
from repro.core.partition_join import (
    ALL_EXECUTION_MODES,
    PartitionJoinConfig,
    PartitionJoinResult,
    partition_join,
)
from repro.core.partitioner import do_partitioning
from repro.core.planner import PartitionPlan, determine_part_intervals
from repro.exec import backend_name, get_kernels
from repro.model.relation import ValidTimeRelation
from repro.obs import ObservabilityConfig
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec

from benchmarks.suite import generators, oracle
from benchmarks.suite.metrics import RunResult, median, peak_rss_mb
from benchmarks.suite.spans import SpanRecorder, clock, timed
from benchmarks.suite.speed import SpeedGauge, gauged

Pair = Tuple[ValidTimeRelation, ValidTimeRelation]

#: Timed calls a run makes at the least, however short ``--seconds`` is.
MIN_CALLS = 3
#: Times set-up is repeated; ``setup_s`` is the median.
SETUP_REPEATS = 3
#: Calls per side of the observability on/off comparison.
OBS_CALLS = 3


@dataclass(frozen=True)
class LibraryWorkload:
    make_pair: Callable[[int, int], Pair]
    config: PartitionJoinConfig
    #: Also measure the program's own observability overhead (``obs.*``).
    obs_overhead: bool = False


_WIDE_PAGES = PageSpec(8192, 16)

WORKLOADS: Dict[str, LibraryWorkload] = {
    "probe_heavy": LibraryWorkload(
        generators.probe_heavy_pair,
        PartitionJoinConfig(memory_pages=48, page_spec=_WIDE_PAGES, execution="batch"),
        obs_overhead=True,
    ),
    "long_lived": LibraryWorkload(
        generators.long_lived_pair,
        PartitionJoinConfig(memory_pages=128, execution="batch"),
    ),
    "result_heavy": LibraryWorkload(
        generators.result_heavy_pair,
        PartitionJoinConfig(memory_pages=48, page_spec=_WIDE_PAGES, execution="batch"),
    ),
}


def rows_of(relation: ValidTimeRelation) -> List[oracle.Row]:
    """A relation as the oracle's plain rows."""
    return [(tup.key, tup.payload, tup.vs, tup.ve) for tup in relation.tuples]


class Fingerprint(NamedTuple):
    """What every repetition must reproduce: outcome counters and the bill."""

    n_result_tuples: int
    overflow_blocks: int
    cache_tuples_peak: int
    cache_tuples_spilled: int
    charged_cost: float


def _fingerprint(
    outcome: JoinOutcome, layout: DiskLayout, config: PartitionJoinConfig
) -> Fingerprint:
    return Fingerprint(
        outcome.n_result_tuples,
        outcome.overflow_blocks,
        outcome.cache_tuples_peak,
        outcome.cache_tuples_spilled,
        layout.tracker.stats.cost(config.cost_model),
    )


def _ledger(layout: DiskLayout) -> Dict[str, Dict[str, int]]:
    return {name: stats.as_dict() for name, stats in layout.tracker.phases.items()}


def _set_up(workload: LibraryWorkload, seed: int, scale: int):
    """Generate the inputs and make the warm-up call."""
    pair, generate_s = clock(lambda: workload.make_pair(seed, scale))
    warm = partition_join(*pair, workload.config)
    return pair, warm, generate_s


def _check_against_oracle(result: RunResult, pair: Pair, run: PartitionJoinResult) -> None:
    result.attempted += 1
    expected = oracle.natural_join(rows_of(pair[0]), rows_of(pair[1]))
    if Counter(rows_of(run.result)) != expected:
        result.fail(
            f"result multiset differs from the oracle "
            f"({run.outcome.n_result_tuples} vs {sum(expected.values())} tuples)"
        )


def _record_inputs(result: RunResult, pair: Pair, reference: Fingerprint) -> None:
    for role, relation in zip(("r", "s"), pair):
        result.inputs_sha256[role] = generators.sha256_columns(relation)
    result.exact = {
        "charged_cost": reference.charged_cost,
        "service_cost": 0.0,
        "result_tuples": float(reference.n_result_tuples),
    }


def run_end_to_end(
    name: str, seed: int, seconds: float, scale: int, setups: int
) -> RunResult:
    """Set up, time whole calls for *seconds*, then verify against the oracle."""
    workload = WORKLOADS[name]
    config = workload.config
    result = RunResult()

    setup_gauge = SpeedGauge()
    (pair, warm, _), first_setup = gauged(setup_gauge, lambda: _set_up(workload, seed, scale))
    reference = _fingerprint(warm.outcome, warm.layout, config)
    del warm

    samples: List[float] = []
    gauge = SpeedGauge()
    gauge.pause()
    loop_begin = time.perf_counter()
    while True:
        run, elapsed = clock(lambda: partition_join(*pair, config))
        gauge.pause()
        samples.append(elapsed)
        result.attempted += 1
        fingerprint = _fingerprint(run.outcome, run.layout, config)
        if fingerprint != reference:
            result.fail(f"call {len(samples)} disagrees with the first: {fingerprint}")
        if len(samples) >= MIN_CALLS and time.perf_counter() - loop_begin >= seconds:
            break
    rss = peak_rss_mb()  # before the oracle or another set-up allocates anything

    # The repeated set-ups come after the loop, so the loop ran on the heap a
    # fresh process has and not on what earlier set-ups left behind.
    setup_seconds = [first_setup] + [
        gauged(setup_gauge, lambda: _set_up(workload, seed, scale))[1]
        for _ in range(setups - 1)
    ]
    _check_against_oracle(result, pair, run)
    _record_inputs(result, pair, reference)
    result.raw = {
        "setup_s": median(setup_seconds),
        "join_p50_ms": median(samples) * 1e3,
        "ops_per_s": len(samples) / sum(samples),
        "setup_speed_factor": setup_gauge.factor(),
        "loop_speed_factor": gauge.factor(),
    }
    result.values = {
        "setup_s": result.raw["setup_s"] * setup_gauge.factor(),
        "join_p50_ms": result.raw["join_p50_ms"] * gauge.factor(),
        "ops_per_s": result.raw["ops_per_s"] / gauge.factor(),
        "charged_cost": reference.charged_cost,
        "peak_rss_mb": rss,
    }
    result.n_samples = {
        "setup_s": len(setup_seconds),
        "join_p50_ms": len(samples),
        "ops_per_s": len(samples),
    }
    return result


# -- the traced run -----------------------------------------------------------


def _replay(pair: Pair, config: PartitionJoinConfig, recorder: SpanRecorder):
    """``partition_join``'s driver, phase by phase, one span per layer.

    Mirrors the driver's batch-mode path exactly -- same seeded RNG, same
    head parking between phases, same tracker phases -- so its ledger can be
    compared with a one-call run's.  Returns ``(outcome, layout, plan)``;
    when the driver would take its private single-partition shortcut the
    whole call is timed instead and *plan* is None.
    """
    r, s = pair
    with recorder.span("partition_join.replay"):
        layout = DiskLayout(spec=config.page_spec)
        with recorder.span("storage.place"):
            r_file = layout.place_relation(r)
            s_file = layout.place_relation(s)
        buff_size = config.buff_size
        if min(r_file.n_pages, s_file.n_pages) <= buff_size:
            with recorder.span("partition_join.call"):
                run = partition_join(r, s, config)
            return run.outcome, run.layout, None
        tracker = layout.tracker
        with recorder.span("core.planner.sample"), tracker.phase("sample"):
            plan = determine_part_intervals(
                buff_size,
                r_file,
                inner_tuples=len(s),
                cost_model=config.cost_model,
                rng=random.Random(config.seed),
                allow_scan_sampling=config.allow_scan_sampling,
                max_candidates=config.max_plan_candidates,
            )
        layout.disk.park_heads()
        partition_map = plan.partition_map()
        with recorder.span("core.partitioner.partition"), tracker.phase("partition"):
            r_parts = do_partitioning(
                r_file, partition_map, layout, "r", config.memory_pages,
                execution=config.execution,
            )
            layout.disk.park_heads()
            s_parts = do_partitioning(
                s_file, partition_map, layout, "s", config.memory_pages,
                execution=config.execution,
            )
        layout.disk.park_heads()
        with recorder.span("core.joiner.join"), tracker.phase("join"):
            outcome = join_partitions(
                r_parts,
                s_parts,
                partition_map,
                buff_size,
                layout,
                r.schema.join_result_schema(s.schema),
                execution=config.execution,
                prefetch_depth=config.prefetch_depth,
                sweep_workers=config.sweep_workers,
                supervision=config.supervision_policy(),
            )
        return outcome, layout, plan


def _kernel_micro_loop(
    pair: Pair, config: PartitionJoinConfig, recorder: SpanRecorder, values: Dict[str, float]
) -> None:
    """Probe the first outer block against every inner page, no storage involved."""
    kernels = get_kernels()
    capacity = config.page_spec.capacity
    block = list(pair[0].tuples[: config.buff_size * capacity])
    inner = pair[1].tuples
    pages = [list(inner[at : at + capacity]) for at in range(0, len(inner), capacity)]
    interner = kernels.make_interner()
    index, build_s = timed(
        recorder, "exec.kernels.build_index", lambda: kernels.build_probe_index(block, interner)
    )

    def probe_every_page() -> int:
        return sum(
            len(kernels.probe(index, kernels.page_batch(page, interner))) for page in pages
        )

    _, probe_s = timed(recorder, "exec.kernels.probe", probe_every_page)
    per_key = Counter(tup.key for tup in block)
    candidates = sum(per_key[tup.key] for tup in inner)
    values["exec.kernels.build_index_ns_per_tuple"] = build_s * 1e9 / max(1, len(block))
    values["exec.kernels.probe_ns_per_candidate"] = probe_s * 1e9 / max(1, candidates)
    values["exec.kernels.backend"] = 1.0 if backend_name() == "numpy" else 0.0


def _mode_table(
    pair: Pair,
    config: PartitionJoinConfig,
    reference: Fingerprint,
    recorder: SpanRecorder,
    result: RunResult,
) -> None:
    """One single-shot row per execution mode the program has today."""
    lanes = os.cpu_count() or 1
    result.notes.append(f"mode table (single shot, lanes={lanes}):")
    for mode in ALL_EXECUTION_MODES:
        mode_config = dataclasses.replace(
            config, execution=mode, sweep_workers=lanes, parallel_workers=lanes
        )
        result.attempted += 1
        try:
            run, elapsed = timed(
                recorder, f"mode.{mode}", lambda: partition_join(*pair, mode_config)
            )
        except Exception as error:  # a broken mode is a failed row, not a dead suite
            result.fail(f"mode {mode} raised {type(error).__name__}: {error}")
            continue
        n_result = run.outcome.n_result_tuples
        if n_result != reference.n_result_tuples:
            result.fail(
                f"mode {mode} returned {n_result} tuples, expected {reference.n_result_tuples}"
            )
        cost = run.total_cost(config.cost_model)
        result.values[f"mode.{mode}.join_ms"] = elapsed * 1e3
        result.values[f"mode.{mode}.charged_cost"] = cost
        result.notes.append(
            f"  mode {mode:<22} {elapsed * 1e3:10.1f} ms  cost {cost:10.1f}  "
            f"{elapsed * 1e9 / max(1, n_result):10.0f} ns/result tuple"
        )


def _observability_overhead(pair: Pair, config: PartitionJoinConfig) -> float:
    """``join_p50_ms`` with the program's observability on, over off, minus 1."""
    observed = dataclasses.replace(config, observability=ObservabilityConfig())
    off: List[float] = []
    on: List[float] = []
    for _ in range(OBS_CALLS):
        off.append(clock(lambda: partition_join(*pair, config))[1])
        on.append(clock(lambda: partition_join(*pair, observed))[1])
    return median(on) / median(off) - 1.0


def _layer_values(
    values: Dict[str, float],
    recorder: SpanRecorder,
    pair: Pair,
    config: PartitionJoinConfig,
    reference: Fingerprint,
    layout: DiskLayout,
    plan: Optional[PartitionPlan],
) -> None:
    """Medians of the replays' layer spans, with the last replay's ledger."""
    n_tuples = len(pair[0]) + len(pair[1])
    place_s = median(recorder.durations("storage.place"))
    values["storage.place_s"] = place_s
    values["storage.place_pages"] = float(
        sum(config.page_spec.pages_for_tuples(len(relation)) for relation in pair)
    )
    values["storage.place_ns_per_tuple"] = place_s * 1e9 / n_tuples
    if plan is None:
        # The private single-partition shortcut: the call minus placement.
        join_s = median(recorder.durations("partition_join.call")) - place_s
        values["core.planner.n_partitions"] = 1.0
    else:
        join_s = median(recorder.durations("core.joiner.join"))
        sample_s = median(recorder.durations("core.planner.sample"))
        partition_s = median(recorder.durations("core.partitioner.partition"))
        tracker = layout.tracker
        values["core.planner.sample_s"] = sample_s
        values["core.planner.sample_cost"] = tracker.phase_cost("sample", config.cost_model)
        values["core.planner.n_samples"] = float(plan.sample_plan.n_samples)  # drawn, not required
        values["core.planner.n_partitions"] = float(plan.num_partitions)
        values["core.partitioner.partition_s"] = partition_s
        values["core.partitioner.partition_cost"] = tracker.phase_cost(
            "partition", config.cost_model
        )
        values["core.partitioner.ns_per_tuple"] = partition_s * 1e9 / n_tuples
    values["core.joiner.join_s"] = join_s
    values["core.joiner.join_cost"] = layout.tracker.phase_cost("join", config.cost_model)
    values["core.joiner.ns_per_probed_tuple"] = join_s * 1e9 / n_tuples
    values["core.joiner.ns_per_result_tuple"] = join_s * 1e9 / max(1, reference.n_result_tuples)
    values["core.joiner.overflow_blocks"] = float(reference.overflow_blocks)
    values["core.joiner.cache_tuples_peak"] = float(reference.cache_tuples_peak)
    values["core.joiner.cache_tuples_spilled"] = float(reference.cache_tuples_spilled)


def run_traced(name: str, seed: int, seconds: float, scale: int) -> Tuple[RunResult, SpanRecorder]:
    """The per-layer run: replayed phases, mode table, kernel micro-loop."""
    workload = WORKLOADS[name]
    config = workload.config
    recorder = SpanRecorder()
    result = RunResult()
    values = result.values

    pair, warm, generate_s = _set_up(workload, seed, scale)
    reference = _fingerprint(warm.outcome, warm.layout, config)
    reference_ledger = _ledger(warm.layout)
    del warm
    _record_inputs(result, pair, reference)
    values["workloads.generate_s"] = generate_s
    values["workloads.result_tuples"] = float(reference.n_result_tuples)

    # Alternate an untraced call with a traced replay, so both see the same
    # machine state and their ratio is the suite's own tracing overhead.
    untraced: List[float] = []
    loop_begin = time.perf_counter()
    while True:
        run, elapsed = clock(lambda: partition_join(*pair, config))
        untraced.append(elapsed)
        outcome, layout, plan = _replay(pair, config, recorder)
        result.attempted += 2
        fingerprint = _fingerprint(run.outcome, run.layout, config)
        replayed = _fingerprint(outcome, layout, config)
        if fingerprint != reference:
            result.fail(f"untraced call disagrees with the first: {fingerprint}")
        if replayed != reference or _ledger(layout) != reference_ledger:
            result.fail(
                f"replayed phases disagree with the one-call run: {replayed} vs "
                f"{reference}, ledger {_ledger(layout)} vs {reference_ledger}"
            )
        if time.perf_counter() - loop_begin >= seconds / 2:
            break
    _check_against_oracle(result, pair, run)

    roots = [span for span in recorder.spans if span.name == "partition_join.replay"]
    covered = min(1.0 - recorder.self_seconds(root) / root.seconds for root in roots)
    result.notes.append(
        f"traced replay: {len(roots)} repetitions, layer spans cover "
        f"{covered:.4f} of the call's span"
    )
    if covered < 0.95:
        print(f"warning: layer spans cover only {covered:.3f} of the replay", file=sys.stderr)

    _layer_values(values, recorder, pair, config, reference, layout, plan)
    traced_total = median([root.seconds for root in roots])
    values["trace.overhead_share"] = traced_total / median(untraced) - 1.0
    for metric in ("storage.place_s", "core.joiner.join_s", "trace.overhead_share"):
        result.n_samples[metric] = len(roots)

    _kernel_micro_loop(pair, config, recorder, values)
    _mode_table(pair, config, reference, recorder, result)
    if workload.obs_overhead:
        values["obs.overhead_share"] = _observability_overhead(pair, config)
        result.n_samples["obs.overhead_share"] = OBS_CALLS
    return result, recorder
