"""Hold the shape of the sweep driver (ROADMAP item 5, closed in PR 22).

``core/joiner.py::join_partitions`` once grew to 412 lines and 21
parameters, re-entered from three hand-assembled call sites in
``core/partition_join.py``.  These checks keep the next perf PR from
rebuilding that: no long functions, no wide private signatures, one way
into the sweep and one place where a call becomes a result.  The Grace
partitioner (``core/partitioner.py``) is held to the same two shape rules.

The kernels have one backend, numpy: no module may switch on numpy's
presence or define a pure-Python twin of a kernel again.

A carried row moves as its position: ``PageBatch.take`` -- how routing,
migration and the outer purge move rows -- gathers columns and positions,
never loops over the rows it moves.

A billed pass is billed on columns: every multi-run ``charge_runs`` call of
a fault-free ``batch`` join hands the disk a ``Schedule``, never a list it
would walk run by run, and checks a stream's stored pages once a step, not
once per overflow block.  The compute is per step too: one index over the
step's whole outer partition, one probe kernel call per billed stream.  And a join keys in its outer relation's codes:
no per-dictionary translator between a relation's codes and a join's ids
comes back.

Every engine emits the natural-join row: a predicate join is the forward
sweep's (``PartitionJoinConfig(execution="forward-sweep", predicate=...)``),
not a per-pair result callback threaded through each engine.

The pruned probe sorts its pairs only when it must: an endpoint-sorted
block's windows expand in emission order, so a one-partition join of
endpoint-sorted relations makes no ``argsort`` over its pairs, where the
same rows unsorted still make one per chunk.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
CORE = SRC / "core"
BATCH = SRC / "exec" / "batch.py"
MAX_FUNCTION_LINES = 120
MAX_PRIVATE_PARAMETERS = 10
#: What selected a kernel backend, and the twins it selected between.
BACKEND_SWITCH = ("HAVE_NUMPY", "use_numpy", "REPRO_EXEC_BACKEND", "np is None")
KERNEL_TWINS = ("PythonKernels", "PrunedProbeIndexPython", "probe_pruned_python", "_PythonRun")
#: The per-pair result callback every engine once took, and its type.
PAIR_HOOK, PAIR_HOOK_TYPE = "pair_fn", "PairFn"


def functions(path):
    tree = ast.parse(path.read_text())
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]


def calls_of(path, name):
    """Calls of *name* in the code of *path* (docstrings are not code)."""
    return [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == name
    ]


@pytest.mark.parametrize("module", ["joiner.py", "partition_join.py", "partitioner.py"])
def test_no_function_spans_more_than_120_lines(module):
    too_long = {
        node.name: node.end_lineno - node.lineno + 1
        for node in functions(CORE / module)
        if node.end_lineno - node.lineno + 1 > MAX_FUNCTION_LINES
    }
    assert not too_long


@pytest.mark.parametrize("module", ["joiner.py", "partition_join.py", "partitioner.py"])
def test_no_private_function_takes_more_than_10_parameters(module):
    def n_parameters(node):
        args = node.args
        named = len(args.posonlyargs) + len(args.args) + len(args.kwonlyargs)
        return named + (args.vararg is not None) + (args.kwarg is not None)

    too_wide = {
        node.name: n_parameters(node)
        for node in functions(CORE / module)
        if node.name.startswith("_")
        and not node.name.startswith("__")
        and n_parameters(node) > MAX_PRIVATE_PARAMETERS
    }
    assert not too_wide


def test_partition_join_enters_the_sweep_once_and_answers_in_one_place():
    module = CORE / "partition_join.py"
    assert len(calls_of(module, "join_partitions")) == 1
    assert len(calls_of(module, "PartitionJoinResult")) <= 2


def test_one_kernel_backend():
    """No backend switch and no pure-Python kernel twin anywhere in the package."""
    switches, twins = [], []
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        name = path.relative_to(SRC).as_posix()
        switches += [(name, word) for word in BACKEND_SWITCH if word in text]
        twins += [
            (name, node.name)
            for node in ast.walk(ast.parse(text))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in KERNEL_TWINS
        ]
    assert not switches
    assert not twins


def test_no_per_pair_result_callback():
    """No function in the package takes a ``pair_fn`` parameter and no
    module defines ``PairFn``."""
    hooks, types = [], []
    for path in sorted(SRC.rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                parameters = [*args.posonlyargs, *args.args, *args.kwonlyargs]
                parameters += [arg for arg in (args.vararg, args.kwarg) if arg is not None]
                hooks += [(name, node.lineno) for arg in parameters if arg.arg == PAIR_HOOK]
            if isinstance(node, ast.ClassDef) and node.name == PAIR_HOOK_TYPE:
                types.append((name, node.lineno))
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                types += [
                    (name, node.lineno)
                    for target in targets
                    if isinstance(target, ast.Name) and target.id == PAIR_HOOK_TYPE
                ]
    assert not hooks
    assert not types


def method(path, class_name, name):
    """The definition of *class_name*.*name* in *path*."""
    (cls,) = [
        node
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef) and node.name == class_name
    ]
    (found,) = [node for node in cls.body if isinstance(node, ast.FunctionDef) and node.name == name]
    return found


@pytest.mark.parametrize("class_name", ["PageBatch", "RowRefs"])
def test_a_take_moves_positions_not_rows(class_name):
    """No loop in ``take`` but one over a literal tuple of columns, and no
    row list read (``tolist``): a per-row gather would be both."""
    take = method(BATCH, class_name, "take")
    loops = [
        node
        for node in ast.walk(take)
        if isinstance(node, (ast.For, ast.While, ast.comprehension))
        and not isinstance(getattr(node, "iter", None), ast.Tuple)
    ]
    reads = [
        node for node in ast.walk(take) if isinstance(node, ast.Attribute) and node.attr == "tolist"
    ]
    assert not loops and not reads


def test_no_code_translator_remains():
    """The join's ids are its outer relation's codes (tests/unit/
    test_key_space.py): nothing translates a dictionary into them."""
    found = [
        path.relative_to(SRC).as_posix()
        for path in sorted(SRC.rglob("*.py"))
        if "CodeTranslator" in path.read_text() or "ensure_interned" in path.read_text()
    ]
    assert not found


def test_every_multi_run_charge_of_a_billed_join_is_a_column_schedule(monkeypatch):
    """On the chaos long-lived fixture (Grace routing, dozens of interleaved
    billed passes), each ``charge_runs`` call that bills more than one run
    gets a ``Schedule``."""
    from repro.core.partition_join import partition_join
    from repro.storage.disk import Schedule, SimulatedDisk

    from tests.chaos.conftest import long_lived_config, long_lived_pair

    shapes = []
    charge_runs = SimulatedDisk.charge_runs

    def noting(disk, runs, *, retry=False):
        shapes.append(type(runs) is Schedule or len(runs) == 1)
        return charge_runs(disk, runs, retry=retry)

    monkeypatch.setattr(SimulatedDisk, "charge_runs", noting)
    run = partition_join(*long_lived_pair(), long_lived_config("batch", checkpoint_interval=0))
    assert run.outcome.cache_tuples_spilled and len(shapes) > 10
    assert all(shapes)


def test_a_step_checks_each_stream_once(monkeypatch):
    """Overflow blocks pass over the same old cache and inner partition
    again; nothing writes to either during the step, so only the first
    pass over a stream checks its stored pages (``joiner._stored_bounds``)
    and later blocks bill on the bounds it found."""
    from repro.core import joiner
    from repro.core.partition_join import partition_join

    from tests.chaos.conftest import long_lived_config, long_lived_pair

    checked, passes = [], []
    stored_bounds, one_pass = joiner._stored_bounds, joiner.PartitionSweep._pass

    def noting_check(resident, heap, carried):
        checked.append(heap)
        return stored_bounds(resident, heap, carried)

    def noting_pass(sweep, *args):
        passes.append(args[1])
        return one_pass(sweep, *args)

    monkeypatch.setattr(joiner, "_stored_bounds", noting_check)
    monkeypatch.setattr(joiner.PartitionSweep, "_pass", noting_pass)
    run = partition_join(*long_lived_pair(), long_lived_config("batch", checkpoint_interval=0))
    assert run.outcome.overflow_blocks > 0 and len(passes) > len(checked)
    assert len({id(heap) for heap in checked}) == len(checked)


def test_a_billed_step_builds_one_index_and_probes_each_stream_once(monkeypatch):
    """Overflow blocks split the steps of the chaos long-lived fixture, yet
    a fault-free ``batch`` join builds one index a step -- over the whole
    outer partition -- and probes each billed stream (the inner partition,
    and the old cache from the second step on) in one kernel call a step.
    A checksummed disk's passes still walk, probing run by run against the
    same one index a step."""
    from repro.core import joiner
    from repro.core.partition_join import partition_join
    from repro.exec.kernels import Kernels
    from repro.storage.layout import DiskLayout

    from tests.chaos.conftest import long_lived_config, long_lived_pair

    seen = dict.fromkeys(("index", "kernel", "walked", "step"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            seen[key] += 1
            return fn(*args, **kwargs)

        return counted

    for owner, name, key in (
        (joiner._BatchEngine, "build_index", "index"),
        (joiner, "probe_pruned_chunks", "kernel"),
        (Kernels, "probe_column_chunks", "kernel"),
        (joiner.PartitionSweep, "_probe_pages", "walked"),
        (joiner.PartitionSweep, "step", "step"),
    ):
        monkeypatch.setattr(owner, name, counting(key, getattr(owner, name)))
    pair, config = long_lived_pair(), long_lived_config("batch", checkpoint_interval=0)
    run = partition_join(*pair, config)
    steps = run.plan.num_partitions
    assert run.outcome.overflow_blocks > steps // 2 and seen["step"] == steps
    assert (seen["index"], seen["kernel"], seen["walked"]) == (steps, 2 * steps - 1, 0)

    seen.update(dict.fromkeys(seen, 0))
    checksummed = DiskLayout(spec=config.page_spec, checksums=True)
    checked = partition_join(*pair, config, layout=checksummed)
    assert seen["index"] == seen["step"] == steps and seen["walked"] > 2 * steps
    assert list(checked.result.tuples) == list(run.result.tuples)


def interval_pair(sort):
    """1 000 x 1 000 rows on 4 keys, intervals of up to a quarter of a
    10 000-chronon span: a pruned index, and several chunks of pairs.
    Endpoint-sorted with *sort*, else in drawn order."""
    import random

    from repro.model.relation import ValidTimeRelation
    from repro.model.schema import RelationSchema
    from repro.model.vtuple import VTTuple
    from repro.time.interval import Interval

    rng = random.Random(45)
    relations = []
    for name in ("r", "s"):
        spans = []
        for _ in range(1000):
            start = rng.randrange(10_000)
            spans.append((start, start + rng.randrange(2500), rng.randrange(4)))
        if sort:
            spans.sort()
        rows = [VTTuple((key,), (row,), Interval(start, end))
                for row, (start, end, key) in enumerate(spans)]
        relations.append(ValidTimeRelation(RelationSchema(name, ("k",), (f"{name}_p",)), rows))
    return relations


@pytest.mark.parametrize("sort", [True, False])
def test_an_endpoint_sorted_one_partition_join_sorts_no_pairs(monkeypatch, sort):
    """Every ``np.argsort`` in ``exec/pruned_probe.py`` right after an
    expansion is an emission sort: none when both relations are
    endpoint-sorted, one per expansion when they are not."""
    from dataclasses import replace

    import numpy as np

    from repro.core.partition_join import PartitionJoinConfig, partition_join
    from repro.exec import pruned_probe
    from repro.storage.page import PageSpec

    events = []

    class Numpy:
        def __getattr__(self, name):
            return getattr(np, name)

        def argsort(self, *args, **kwargs):
            events.append("sort")
            return np.argsort(*args, **kwargs)

    expand = pruned_probe.expand_candidates

    def expanding(*args):
        events.append("expand")
        return expand(*args)

    monkeypatch.setattr(pruned_probe, "np", Numpy())
    monkeypatch.setattr(pruned_probe, "expand_candidates", expanding)
    r, s = interval_pair(sort)
    config = PartitionJoinConfig(memory_pages=256, page_spec=PageSpec(8192, 16))
    run = partition_join(r, s, replace(config, execution="batch"))
    monkeypatch.undo()

    expansions = events.count("expand")
    emission_sorts = sum(1 for a, b in zip(events, events[1:]) if (a, b) == ("expand", "sort"))
    assert run.plan.num_partitions == 1 and expansions > 2
    assert emission_sorts == (0 if sort else expansions)
    assert list(run.result.tuples) == list(partition_join(r, s, config).result.tuples)
