"""The package's immutable records: each keeps the field order, defaults,
construction, immutability, equality, hash and repr of the frozen dataclass it
replaced (the validation messages are pinned by the solver and generator tests)."""

from fractions import Fraction

import pytest

from centrosim import (BlockPartition, FactorizationReport, GaussFacts, IntertwinerSearch,
                       IntertwinerSolution, Matrix, PalindromicSpec, RankNormalForm,
                       RiccatiWitness, SearchOptions, TransformReport, split_blocks)
from centrosim.matrix import _ExactField

# Each record's fields in order, with the default of each optional field.
RECORDS = [
    (BlockPartition, ("parity", "s", "A", "B", "C", "D", "x", "w", "y", "z", "mu"),
     {"x": None, "w": None, "y": None, "z": None, "mu": None}),
    (GaussFacts, ("rank", "nullspace", "inverse"), {}),
    (RankNormalForm, ("T", "S", "r", "T_inv", "S_inv"), {}),
    (SearchOptions, ("d_max", "grid_numer_max", "grid_denom_max", "max_solutions", "tol"),
     {"d_max": 3, "grid_numer_max": 5, "grid_denom_max": 3, "max_solutions": None,
      "tol": None}),
    (IntertwinerSolution, ("X", "sylvester_residual", "quadratic_residual", "rank", "inverse"),
     {}),
    (IntertwinerSearch, ("solutions", "basis", "diagnostic", "discriminant", "best_residual"),
     {"discriminant": None, "best_residual": None}),
    (RiccatiWitness, ("orientation", "W", "residual", "blocks"), {}),
    (TransformReport, ("Q", "Q_inv", "result", "certification"), {}),
    (FactorizationReport, ("factors", "factor_dets", "product", "direct_det", "match"), {}),
    (PalindromicSpec, ("t", "c", "sign"), {}),
]
NAMES = [cls.__name__ for cls, _, _ in RECORDS]


def _values(cls, other=False):
    """Valid values for every field of cls, or other valid values, each
    different from the first."""
    if cls is SearchOptions:
        return (5, 7, 3, 2, 1e-7) if other else (4, 6, 2, 1, 1e-6)
    if cls is PalindromicSpec:
        return ((Fraction(3), (Fraction(2), Fraction(3), Fraction(3)), 1) if other
                else (Fraction(2), (Fraction(1), Fraction(3), Fraction(3)), -1))
    fields = next(f for c, f, _ in RECORDS if c is cls)
    return (f"{fields[0]}{other}", *(Matrix([[i + 100 * other]]) for i in range(1, len(fields))))


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=NAMES)
def test_records_build_by_position_and_keyword_with_their_defaults(cls, fields, defaults):
    values = _values(cls)
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert [getattr(by_position, f) for f in fields] == list(values)
    assert by_keyword == by_position
    required = [v for f, v in zip(fields, values) if f not in defaults]
    bare = cls(*required)
    assert {f: getattr(bare, f) for f in defaults} == defaults
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*required, no_such_field=1)


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=NAMES)
def test_records_are_immutable(cls, fields, defaults):
    record = cls(*_values(cls))
    for name in (*fields, "no_such_field"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        if name in fields:
            with pytest.raises(AttributeError):
                delattr(record, name)
    assert record == cls(*_values(cls))


@pytest.mark.parametrize("cls, fields, defaults", RECORDS, ids=NAMES)
def test_records_compare_hash_and_print_by_fields(cls, fields, defaults):
    values, others = _values(cls), _values(cls, other=True)
    record, twin = cls(*values), cls(*values)
    assert record == twin and hash(record) == hash(twin) == hash(values)
    for i in range(len(fields)):
        other = cls(*values[:i], others[i], *values[i + 1:])
        assert record != other and not record == other
        assert len({record, twin, other}) == 2
    assert record != values
    shown = ", ".join(f"{f}={getattr(record, f)!r}" for f in fields)
    assert repr(record) == f"{cls.__name__}({shown})"


def test_records_of_other_classes_with_equal_fields_are_not_equal():
    assert TransformReport(1, 2, 3, "x") != RiccatiWitness(1, 2, 3, "x")


def test_intertwiner_search_iterates_its_solutions():
    search = IntertwinerSearch(("a", "b"), (), None)
    assert list(search) == ["a", "b"] and len(search) == 2 and search[1] == "b"
    assert not IntertwinerSearch((), (), "exhausted")
    sol = IntertwinerSolution(Matrix([[1]]), None, None, 1, Matrix([[1]]))
    assert sol.invertible
    assert not IntertwinerSolution(Matrix([[0]]), None, None, 0, None).invertible
    assert IntertwinerSearch((sol,), (), None).invertible_solutions == (sol,)


def test_palindromic_spec_stores_fractions():
    spec = PalindromicSpec(t="1/2", c=[1, "2/3", "2/3"], sign=1)
    assert spec.t == Fraction(1, 2) and type(spec.t) is Fraction
    assert spec.c == (1, Fraction(2, 3), Fraction(2, 3))
    assert all(type(v) is Fraction for v in spec.c)
    assert spec.size == 3


def test_block_operands_are_computed_once_per_partition(monkeypatch):
    calls = []
    operand = _ExactField.operand

    def counted(self, M):
        calls.append(M)
        return operand(self, M)

    monkeypatch.setattr(_ExactField, "operand", counted)
    M = Matrix([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 17]])
    bp = split_blocks(M, "even", 2)
    first = bp.operands
    assert bp.operands is first and len(calls) == 4
    assert calls == [bp.A, bp.B, bp.C, bp.D]
    # The cache is no field: it changes neither equality, hash nor repr.
    twin = split_blocks(M, "even", 2)
    assert bp == twin and hash(bp) == hash(twin) and repr(bp) == repr(twin)
    assert twin.operands == first and len(calls) == 8
