"""The exception types and record base classes of gxcat, importable without numpy.

Each exception is re-exported by the module that raises it first
(``groups``, ``cohomology``, ``fusion``, ``corpus``), so both import paths
name the same class.  The CLI maps them to its exit codes from here, before
any layer is loaded.  Every layer loads this module, so the record bases
live here too.
"""

from __future__ import annotations

from operator import itemgetter

__all__ = ["GroupError", "InvariantError", "ResourceLimit", "FusionError", "CorpusError", "Record", "FrozenRecord"]


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


class Record:
    """A record whose fields are the names in ``_fields``, which its
    ``__init__`` assigns.  Records of one class compare equal when the
    tuples of their fields do.  A mutable (result) record has no hash.
    """

    _fields = ()

    def __init_subclass__(cls):
        if cls._fields:  # two or more names, so that the getter returns a tuple
            cls._field_values = itemgetter(*cls._fields)  # instance __dict__ -> tuple of the fields

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
