"""The exception types, record base classes and size guards of gxcat, importable without numpy.

Every layer imports its exceptions from here, and the CLI maps them to its
exit codes from here, before any layer is loaded.  Every layer loads this
module, so the record bases live here too, and so do the guards that the
CLI can run before it loads the layer they protect.  ``ValidationReport``,
the report of the ring and pointed-data validators, lives here so that
neither validator loads the other's layer.
"""

from operator import itemgetter

__all__ = ["GroupError", "InvariantError", "ResourceLimit", "FusionError", "CorpusError", "Record", "FrozenRecord",
           "ValidationReport", "CELL_CAP", "MAX_N", "guard_cells", "guard_cohomology"]

CELL_CAP = 1 << 25  # dense cells of one bar differential, cochain check or braid system
MAX_N = 360  # the largest coefficient modulus of cohomology_group


class GroupError(ValueError):
    pass


class InvariantError(RuntimeError):
    """A mathematical self-check failed: a defect of the computation, not of its input.

    Raised instead of ``assert`` so that the check survives ``python -O``.
    """


class ResourceLimit(RuntimeError):
    """Raised when a computation would exceed the desk-scale guards."""


class FusionError(ValueError):
    pass


class CorpusError(RuntimeError):
    pass


def guard_cells(order, k, what):
    """The shape (rows, cols) of the degree-k bar differential of a group of
    this order; ResourceLimit when it holds more than CELL_CAP cells."""
    rows = (order - 1) ** (k + 1)
    cols = (order - 1) ** k
    if rows * cols > CELL_CAP:
        raise ResourceLimit(f"{what}: differential matrix {rows}x{cols} exceeds the cell cap")
    return rows, cols


def guard_cohomology(order, k, n):
    """Refuse what ``cohomology_group`` refuses, before numpy is loaded: a
    degree k outside 1..4, an N outside 1..MAX_N, and a differential over
    the cell cap."""
    if k < 1 or k > 4:
        raise GroupError("degree k must be in 1..4")
    if n < 1 or n > MAX_N:
        raise GroupError(f"N must be in 1..{MAX_N}")
    guard_cells(order, k, "cohomology_group")


class Record:
    """A record whose fields are the names in ``_fields``, which its
    ``__init__`` assigns.  Records of one class compare equal when their
    fields do.  A mutable (result) record has no hash.
    """

    _fields = ()

    def __init_subclass__(cls):
        if cls._fields:  # instance __dict__ -> the tuple of the fields, or the one field
            cls._field_values = itemgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._field_values(self.__dict__) == other._field_values(other.__dict__)

    __hash__ = None

    def __repr__(self):
        fields = ", ".join(f"{f}={self.__dict__[f]!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class FrozenRecord(Record):
    """A value record: it hashes by the tuple of its fields and refuses
    assignment and deletion.  ``__init__`` fills ``self.__dict__`` directly."""

    def __hash__(self):
        return hash(self._field_values(self.__dict__))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of a frozen {type(self).__name__}")


class ValidationReport(Record):
    _fields = ("issues",)

    def __init__(self, issues):
        self.__dict__.update(issues=issues)

    @property
    def passed(self):
        return not self.issues

    def add(self, code, message, witness=None):
        self.issues.append({"code": code, "message": message, "witness": witness})

    def to_json(self):
        return {"passed": self.passed, "issues": self.issues}
