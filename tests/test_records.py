"""What the record classes promise their callers.

Value records compare and hash by their fields and refuse assignment;
``TorsionCocycle`` compares its table by value; ``CharacterTable`` compares
by identity; result records compare by their fields and have no hash.
``FiniteGroup``'s hash keys the ``lru_cache`` of every per-group table.
"""

import copy
import inspect

import pytest

from corpus_build import double_semion_pointed, toric_code_pointed
from gxcat.chartab import CharacterTable, character_table
from gxcat.cohomology import CohomologyGroup, TorsionCocycle, cohomology_group
from gxcat.corpus import CorpusEntry, corpus_list
from gxcat.fusion import (
    GradedFusionRing,
    RingGAction,
    SectorReport,
    ValidationReport,
    pointed_ring,
    trivial_action,
)
from gxcat.gauging import CrossedProductResult, EquivariantizationResult, RoundTripReport
from gxcat.groups import (
    ConjugacyData,
    FiniteGroup,
    LinearCharacter,
    abelian_characters,
    build_group,
    conjugacy_data,
    cyclic,
)
from gxcat.pointed import DoubleData, KirillovMatrix, PointedGXData

# each value record twice: two different values of it
VALUES = {
    FiniteGroup: lambda: (build_group("S3"), build_group("Z6")),
    ConjugacyData: lambda: (conjugacy_data(build_group("S3")), conjugacy_data(build_group("Z6"))),
    LinearCharacter: lambda: tuple(abelian_characters(cyclic(4), 4)[1:3]),
    CohomologyGroup: lambda: (cohomology_group(cyclic(2), 3, 2), cohomology_group(cyclic(3), 3, 3)),
    GradedFusionRing: lambda: (pointed_ring(cyclic(2)), pointed_ring(cyclic(3))),
    RingGAction: lambda: (trivial_action(pointed_ring(cyclic(2))), trivial_action(pointed_ring(cyclic(3)))),
    PointedGXData: lambda: (toric_code_pointed(), double_semion_pointed()),
    CorpusEntry: lambda: tuple(corpus_list()[:2]),
    TorsionCocycle: lambda: tuple(cohomology_group(cyclic(4), 3, 4).representatives[0].scaled(k) for k in (1, 2)),
}

# the constructor parameters of every record, in order, with their defaults
SIGNATURES = {
    FiniteGroup: "(name, mul, element_names)",
    ConjugacyData: "(classes, reps, centralizers, class_of)",
    LinearCharacter: "(values, n)",
    TorsionCocycle: "(group, degree, n, table)",
    CohomologyGroup: "(invariant_factors, representatives, generator_orders)",
    CharacterTable: "(group, class_reps, class_sizes, m, coef, dims)",
    GradedFusionRing: "(name, simples, unit, dual, coeffs, group, grading)",
    RingGAction: "(group, perms)",
    ValidationReport: "(issues, dims=None)",
    SectorReport: "(sectors, full_spectrum, m3_homogeneous, global_dim)",
    EquivariantizationResult: "(simples, global_dim, input_global_dim, group_order)",
    CrossedProductResult: "(blocks, global_dim, input_global_dim, group_order, output_ring, output_dims=None)",
    RoundTripReport: "(input_global_dim, crossed_global_dim, regauged_global_dim, dims_match, simple_counts)",
    PointedGXData: "(gamma, group, deg, action, n, assoc, braid)",
    DoubleData: "(group, n, simples, s_matrix, fusion)",
    KirillovMatrix: "(basis, entries, invertible)",
    CorpusEntry: "(name, kind, path, golden, sha256)",
}

RESULTS = [ValidationReport, SectorReport, EquivariantizationResult, CrossedProductResult, RoundTripReport,
           DoubleData, KirillovMatrix]


def _fields(cls):
    return list(inspect.signature(cls).parameters)


def _rebuilt(record, **changes):
    """A new record of the same class from deep copies of the fields of record."""
    fields = {f: copy.deepcopy(getattr(record, f)) for f in _fields(type(record))}
    return type(record)(**{**fields, **changes})


def _signature(cls):
    params = inspect.signature(cls).parameters.values()
    return "(" + ", ".join(p.name + ("" if p.default is p.empty else f"={p.default!r}") for p in params) + ")"


@pytest.mark.parametrize("cls", SIGNATURES, ids=lambda c: c.__name__)
def test_constructor_parameters_and_defaults(cls):
    assert _signature(cls) == SIGNATURES[cls]


@pytest.mark.parametrize("cls", VALUES, ids=lambda c: c.__name__)
def test_value_records_compare_and_hash_by_their_fields(cls):
    a, other = VALUES[cls]()
    assert type(a) is type(other) is cls
    b = _rebuilt(a)
    assert b is not a
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other and not a == other
    assert a != _rebuilt(other) and len({a, other}) == 2
    assert a != object()


@pytest.mark.parametrize("cls", [c for c in VALUES if c is not TorsionCocycle], ids=lambda c: c.__name__)
def test_every_field_takes_part_in_equality(cls):
    a, _ = VALUES[cls]()
    for f in _fields(cls):
        assert a != _rebuilt(a, **{f: ("changed", f)}), f


@pytest.mark.parametrize("cls", [*VALUES, CharacterTable], ids=lambda c: c.__name__)
def test_value_records_refuse_assignment_and_deletion(cls):
    a = character_table(build_group("S3")) if cls is CharacterTable else VALUES[cls]()[0]
    for f in _fields(cls):
        before = getattr(a, f)
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is before
    with pytest.raises(AttributeError):
        a.no_such_field = 1


@pytest.mark.parametrize("cache", [conjugacy_data, character_table], ids=lambda f: f.__name__)
def test_a_rebuilt_group_hits_the_per_group_cache(cache):
    g = build_group("D4")
    first = cache(g)
    again = _rebuilt(g)
    assert again is not g and again == g
    hits = cache.cache_info().hits
    assert cache(again) is first
    assert cache.cache_info().hits == hits + 1


def test_character_tables_compare_by_identity():
    table = character_table(build_group("S3"))
    copy_ = _rebuilt(table)
    assert table == table and hash(table) == hash(table)
    assert table != copy_ and not table == copy_
    assert len({table, copy_}) == 2


@pytest.mark.parametrize("cls", RESULTS, ids=lambda c: c.__name__)
def test_result_records_compare_by_fields_and_have_no_hash(cls):
    fields = [[f, i] for i, f in enumerate(_fields(cls))]
    a, b = cls(*copy.deepcopy(fields)), cls(*copy.deepcopy(fields))
    assert a == b and not a != b
    with pytest.raises(TypeError):
        hash(a)
    first = _fields(cls)[0]
    setattr(b, first, "changed")
    assert b.__dict__[first] == "changed"
    assert a != b
    assert a != object()


def test_defaults_and_repr():
    assert ValidationReport([]).dims is None
    assert CrossedProductResult([], 1, 1, 2, None).output_dims is None
    assert repr(LinearCharacter((0, 1), 2)) == "LinearCharacter(values=(0, 1), n=2)"
    assert repr(ValidationReport([], [1])) == "ValidationReport(issues=[], dims=[1])"
