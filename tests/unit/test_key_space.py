"""One key space per join: the batch engine's ids are the outer relation's
dictionary codes.

A relation version's columns carry key codes in its own dictionary
(``columns().keys``).  The batch engine's interner starts as a copy of the
dictionary every outer file carries, so outer codes are its ids as they
stand; any other dictionary -- the inner relation's -- maps through one
lookup table, an inner key the outer relation lacks becoming ``-1``.
Whatever the two dictionaries share or order differently, the rows must be
the ``tuple`` engine's, and no join may write to a relation's dictionary --
not even where a decomposition grows the join's interner (a checksummed
disk walks its passes; a thawed sweep decomposes its restored rows).
"""

import importlib
import random

import pytest

from repro.core import joiner
from repro.core.partition_join import PartitionJoinConfig, partition_join, resume_join
from repro.exec.batch import KeyInterner
from repro.model.errors import SimulatedCrashError
from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.resilience import FaultInjector, RecoveryLog
from repro.storage.layout import DiskLayout
from repro.storage.page import PageSpec

from tests.chaos.conftest import CHAOS_SEED, long_lived_config, long_lived_pair

SPEC = PageSpec(page_bytes=256, tuple_bytes=32)


def relation(name, n_rows, keys, seed):
    """*n_rows* rows keyed from *keys* in that first-seen order, then at
    random; intervals of 1..80 chronons over a 400-chronon lifespan."""
    rng = random.Random(seed)
    schema = RelationSchema(name, join_attributes=("k",), payload_attributes=(f"p_{name}",))
    rows = []
    for row in range(n_rows):
        key = keys[row] if row < len(keys) else rng.choice(keys)
        start = rng.randrange(400)
        rows.append((key, f"{name}{row}", start, start + 1 + rng.randrange(80)))
    return ValidTimeRelation.from_rows(schema, rows)


def dictionary(rel):
    keys = rel.columns().keys
    return keys, list(keys.keys_in_id_order())


@pytest.fixture
def engines(monkeypatch):
    """Every batch engine a join builds."""
    built = []
    init = joiner._BatchEngine.__init__

    def noting(engine, *args, **kwargs):
        init(engine, *args, **kwargs)
        built.append(engine)

    monkeypatch.setattr(joiner._BatchEngine, "__init__", noting)
    return built


def assert_keyed_as_tuple(r, s, memory_pages=8, layout=None, **config):
    """The batch join of *r* and *s* emits the tuple engine's rows, in
    order, and leaves both relations' dictionaries as they were."""
    before = [dictionary(rel) for rel in (r, s)]
    settings = dict(memory_pages=memory_pages, page_spec=SPEC, **config)
    expected = partition_join(r, s, PartitionJoinConfig(execution="tuple", **settings))
    got = partition_join(
        r, s, PartitionJoinConfig(execution="batch", **settings), layout=layout
    )
    assert list(got.result.tuples) == list(expected.result.tuples)
    for rel, (keys, order) in zip((r, s), before):
        assert rel.columns().keys is keys
        assert list(keys.keys_in_id_order()) == order
    return got


KEY_SETS = {
    "disjoint": (list(range(0, 10)), list(range(10, 20))),
    "partly shared": (list(range(0, 12)), list(range(6, 18))),
    "reordered": (list(range(12)), list(reversed(range(12)))),
    "inner-only keys": (list(range(8)), list(range(8)) + [100, 101, 102]),
}


@pytest.mark.parametrize("case", sorted(KEY_SETS))
@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_outer_codes_are_the_ids_whatever_the_dictionaries_share(case, direction, engines):
    outer_keys, inner_keys = KEY_SETS[case]
    r = relation("r", 300, outer_keys, CHAOS_SEED + 11)
    s = relation("s", 300, inner_keys, CHAOS_SEED + 12)
    assert_keyed_as_tuple(r, s, sweep_direction=direction)
    (engine,) = engines
    assert engine._outer is r.columns().keys
    assert engine._interner is not engine._outer
    assert len(engine._interner) == len(engine._outer)  # nothing interned


def test_a_dictionary_grown_by_with_rows(engines):
    """A child version's dictionary is a grown copy of its parent's: the
    parent's codes mean the same keys in it, the new keys come after."""
    parent = relation("r", 200, list(range(10)), CHAOS_SEED + 21)
    parent_keys, parent_order = dictionary(parent)
    more = relation("r", 80, [10, 11, 3, 12], CHAOS_SEED + 22)
    child = parent.with_rows(list(more))
    child_keys, child_order = dictionary(child)
    assert child_keys is not parent_keys and child_order[: len(parent_order)] == parent_order
    s = relation("s", 250, list(range(2, 14)), CHAOS_SEED + 23)
    assert_keyed_as_tuple(child, s)
    assert_keyed_as_tuple(s, parent)
    assert list(parent_keys.keys_in_id_order()) == parent_order
    assert [engine._outer for engine in engines] == [child_keys, s.columns().keys]


def test_swapped_inputs_adopt_the_relation_the_sweep_holds_outer(monkeypatch, engines):
    """A small *s* and a large *r* swap the sweep's roles: the key space is
    then *s*'s dictionary."""
    swapped = []
    join_partitions = joiner.join_partitions

    def noting(*args, **kwargs):
        swapped.append(kwargs["swapped_inputs"])
        return join_partitions(*args, **kwargs)

    monkeypatch.setattr(importlib.import_module("repro.core.partition_join"), "join_partitions", noting)
    r = relation("r", 600, list(range(10)), CHAOS_SEED + 31)
    s = relation("s", 40, list(range(5, 15)), CHAOS_SEED + 32)
    assert_keyed_as_tuple(r, s)
    assert swapped[-1] is True
    assert engines[-1]._outer is s.columns().keys


def test_a_checksummed_disk_walks_in_the_same_key_space(engines):
    """Checksums serve every page through a read: no pass is billed, every
    delivery is checked against the carried rows, and the ids stay the
    outer codes."""
    r = relation("r", 300, list(range(12)), CHAOS_SEED + 41)
    s = relation("s", 300, list(range(6, 20)), CHAOS_SEED + 42)
    assert_keyed_as_tuple(r, s, layout=DiskLayout(spec=SPEC, checksums=True))
    assert engines[-1]._outer is r.columns().keys


def test_a_thawed_sweep_grows_its_own_interner(engines):
    """A resumed sweep decomposes the restored cache's rows, interning the
    inner keys the outer relation lacks: the join's interner grows, the
    outer relation's dictionary does not, and the rows are the tuple
    engine's."""
    r, s = long_lived_pair()
    inner_only = [key for key in dictionary(s)[1] if r.columns().keys.lookup(key) < 0]
    assert inner_only
    before = [dictionary(rel) for rel in (r, s)]
    config = long_lived_config("batch")
    probe = DiskLayout(fault_injector=FaultInjector(seed=CHAOS_SEED))
    partition_join(r, s, config, layout=probe, recovery=RecoveryLog())
    join_ops = probe.tracker.phases["join"].total_ops
    injector = FaultInjector(seed=CHAOS_SEED)
    injector.schedule_crash(at_op=probe.disk.fault_injector.ops_seen - join_ops // 2)
    layout, recovery = DiskLayout(fault_injector=injector), RecoveryLog()
    with pytest.raises(SimulatedCrashError):
        partition_join(r, s, config, layout=layout, recovery=recovery)
    run = resume_join(r, s, config, layout=layout, recovery=recovery)
    expected = partition_join(r, s, long_lived_config("tuple"))
    assert list(run.result.tuples) == list(expected.result.tuples)
    engine = engines[-1]
    assert engine._outer is r.columns().keys
    assert len(engine._interner) > len(engine._outer)
    for rel, (keys, order) in zip((r, s), before):
        assert rel.columns().keys is keys and list(keys.keys_in_id_order()) == order


def test_a_fault_free_batch_join_interns_no_key(monkeypatch):
    """The chaos long-lived fixture, split once beforehand: a fault-free
    ``batch`` join maps the inner codes through one lookup table and the
    outer codes not at all, so it calls ``KeyInterner.intern`` 0 times."""
    r, s = long_lived_pair()
    r.columns(), s.columns()
    calls = []
    intern = KeyInterner.intern

    def counting(interner, key):
        calls.append(key)
        return intern(interner, key)

    monkeypatch.setattr(KeyInterner, "intern", counting)
    run = partition_join(r, s, long_lived_config("batch", checkpoint_interval=0))
    assert run.outcome.n_result_tuples and run.outcome.cache_tuples_spilled
    assert calls == []
