"""A relation's boxed rows across a chain of writes.

``ValidTimeRelation.columns()`` boxes a version's rows once into one object
array -- the source its carried rows are positions into -- and a derived
version (``with_rows`` / ``without_rows``) takes its parent's columns over.
Over a long chain of alternating writes every version's columns must still
name exactly its rows, and a chain of live versions -- what a served
relation keeps -- must not keep every ancestor's array alive.
"""

import weakref

from hypothesis import given, settings, strategies as st

from repro.model.relation import ValidTimeRelation
from repro.model.schema import RelationSchema
from repro.model.vtuple import VTTuple
from repro.time.interval import Interval

SCHEMA = RelationSchema("r", join_attributes=("k",), payload_attributes=("p",))
WRITES = 200


def fresh_rows(rng, count, serial):
    """*count* new rows over a few keys and values, so some equal live ones."""
    rows = []
    for k in range(count):
        start = rng.randrange(8)
        payload = (f"v{rng.randrange(4)}",) if k % 2 else (f"w{serial}.{k}",)
        rows.append(VTTuple((f"k{rng.randrange(5)}",), payload, Interval(start, start + 2)))
    return rows


def assert_columns_name_the_rows(relation):
    columns = relation._columns
    assert columns is not None  # taken over from the parent, not split again
    rows, want = columns.tuples.tolist(), relation.tuples
    assert len(rows) == len(want) and all(got is row for got, row in zip(rows, want))
    keys = columns.keys.keys_in_id_order()
    assert [keys[code] for code in columns.key_ids.tolist()] == [row.key for row in want]
    assert columns.starts.tolist() == [row.vs for row in want]
    assert columns.ends.tolist() == [row.ve for row in want]
    return columns.tuples.source


@given(st.randoms(use_true_random=False))
@settings(max_examples=8, deadline=None)
def test_alternating_writes_keep_one_boxed_source(rng):
    relation = ValidTimeRelation(SCHEMA, fresh_rows(rng, 40, "base"))
    relation.columns()
    versions, sources = [relation], [weakref.ref(relation.columns().tuples.source)]
    for write in range(WRITES):
        if write % 2 == 0:
            relation = relation.with_rows(fresh_rows(rng, rng.randrange(6), write))
        else:
            live = list(relation.tuples)
            doomed = rng.sample(live, min(len(live), rng.randrange(5)))
            # A value-equal copy is doomed like the row it equals.
            doomed = [VTTuple(row.key, row.payload, row.valid) for row in doomed]
            relation, missing = relation.without_rows(doomed)
            assert not missing
        versions.append(relation)
        sources.append(weakref.ref(assert_columns_name_the_rows(relation)))
        # Every superseded version handed its columns on ...
        assert all(version._columns is None for version in versions[:-1])
        # ... so the live chain keeps one boxed array, not one per ancestor.
        assert len({id(ref()) for ref in sources if ref() is not None}) == 1
