import copy
import pickle
import weakref

import pytest

from autsign import Automorphism, IntMatrix, Multigraph, Orientation, SweepParams, TheoremFailure

# (a valid record, one of its fields, a value that makes it invalid)
BAD_FIELDS = [
    (Multigraph(2, (0, 1)), "vertex_count", -1),
    (Multigraph(2, (0, 1)), "endpoint", (0,)),
    (Multigraph(2, (0, 1)), "endpoint", (0, 2)),
    (Orientation((1, 2)), "tail", (1, 1)),
    (IntMatrix(0, 0, ()), "rows", -1),
    (IntMatrix(0, 0, ()), "cols", -1),
    (IntMatrix(1, 2, (3, 4)), "entries", (3,)),
    (SweepParams(1, 0), "max_vertices", 0),
    (SweepParams(1, 0), "max_edges", -1),
    (SweepParams(1, 0), "max_multiplicity", 0),
]


def builders(record, fields):
    """Each way of building a record of the type of ``record`` with
    ``fields``, by name."""
    cls = type(record)
    return {
        "positional": lambda: cls(*fields.values()),
        "keyword": lambda: cls(**fields),
        "_make": lambda: cls._make(fields.values()),
        "_replace": lambda: record._replace(**fields),
        # tuple.__new__ skips the checks, as a pickle from elsewhere may
        "unpickle": lambda: pickle.loads(pickle.dumps(tuple.__new__(cls, fields.values()))),
        "copy": lambda: copy.deepcopy(tuple.__new__(cls, fields.values())),
    }


@pytest.mark.parametrize("how", list(builders(SweepParams(1, 0), {})))
@pytest.mark.parametrize(
    "record, name, value", BAD_FIELDS,
    ids=[f"{type(r).__name__}-{name}={value}" for r, name, value in BAD_FIELDS],
)
def test_every_way_of_building_a_validated_record_checks_it(record, name, value, how):
    good = record._asdict()
    built = builders(record, good)[how]()
    assert type(built) is type(record)
    assert built == record
    with pytest.raises(ValueError):
        builders(record, good | {name: value})[how]()


def test_records_are_tuples_with_named_fields():
    failure = TheoremFailure("v 2", (1, 0), (1, 0), -1, 1)
    assert failure == ("v 2", (1, 0), (1, 0), -1, 1)
    assert failure._asdict()["vertex_perm"] == (1, 0)
    graph, vertices, hep, hom, comb = failure
    assert (graph, hom, comb) == ("v 2", -1, 1)
    assert repr(SweepParams(2, 1)) == (
        "SweepParams(max_vertices=2, max_edges=1, max_multiplicity=1,"
        " allow_loops=False, connected_only=False)"
    )


def test_a_multigraph_takes_no_attribute_but_caches_its_structure():
    g = Multigraph(3, (0, 1, 1, 2))
    for name in ("vertex_count", "components", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, None)
    assert g.components.component_count == 1
    assert "components" in vars(g)


def test_an_automorphism_is_immutable_compared_by_value_and_weakly_referenceable():
    a = Automorphism((1, 0), (0,))
    with pytest.raises(AttributeError):
        a.vertex_perm = (0,)
    with pytest.raises(AttributeError):
        del a.half_edge_perm
    with pytest.raises(AttributeError):
        a.extra = 1
    b = Automorphism((1, 0), (0,))
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != Automorphism((0, 1), (0,))
    assert a != ((1, 0), (0,))
    assert repr(a) == "Automorphism(half_edge_perm=(1, 0), vertex_perm=(0,))"
    for twin in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert twin == a and type(twin) is Automorphism
    ref = weakref.ref(b)
    del b
    assert ref() is None
