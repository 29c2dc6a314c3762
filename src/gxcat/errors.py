"""The exception types of gxcat, importable without numpy.

Each is re-exported by the module that raises it first (``groups``,
``cohomology``, ``fusion``, ``corpus``), so both import paths name the
same class.  The CLI maps them to its exit codes from here, before any
layer is loaded.
"""

from __future__ import annotations

__all__ = ["GroupError", "InvariantError", "ResourceLimit", "FusionError", "CorpusError"]


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
