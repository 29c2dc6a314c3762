"""The flat-index coboundary kernel that ``gxcat.cohomology`` replaced with
first-argument slabs, kept as a test oracle, and the textbook formula.

``faces``, ``coboundary_table`` and ``bar_matrix`` are the former
implementations, unchanged but for their names: each face of dc is a flat
index array into G^k over all |G|^(k+1) tuples at once.
``textbook_coboundary`` evaluates

    (dc)(g1,...,g_{k+1}) = c(g2,...,g_{k+1})
        + sum_i (-1)^i c(g1,...,g_i g_{i+1},...,g_{k+1})
        + (-1)^{k+1} c(g1,...,g_k)

one tuple at a time through ``TorsionCocycle.__call__``.
"""

import itertools

import numpy as np

from gxcat.cohomology import first_witness


def _inner(k):
    return (slice(1, None),) * k


def faces(g, k):
    """Yield (sign, index) for the k+2 faces of the (k+1)-tuples of g.

    index[T] is the flat position in G^k of the face of the tuple at flat
    position T of G^(k+1); (dc)[T] = sum over faces of sign * c[index[T]].
    """
    m = g.order
    t = np.arange(m ** (k + 1))
    yield 1, t % m**k
    for i in range(1, k + 1):
        # merge slots i-1 and i: (high, a, b, low) -> (high, ab, low)
        low = m ** (k - i)
        a, b = t // (low * m) % m, t // low % m
        yield (-1) ** i, (t // (low * m * m) * m + g.mul_array[a, b]) * low + t % low
    yield (-1) ** (k + 1), t // m


def coboundary_table(c):
    flat = c.table.ravel()
    total = sum(sign * flat[idx] for sign, idx in faces(c.group, c.degree))
    return (total % c.n).reshape((c.group.order,) * (c.degree + 1))


def is_cocycle(c):
    """(True, None) if dc = 0, else (False, lexicographically least witness)."""
    wit = first_witness(coboundary_table(c))
    return wit is None, wit


def bar_matrix(g, k):
    """Integer matrix of the degree-k differential C^k -> C^{k+1}."""
    if k == 0:
        return np.zeros(((g.order - 1), 1), dtype=np.int64)
    m = g.order
    rows, cols = (m - 1) ** (k + 1), (m - 1) ** k
    column = np.full((m,) * k, -1, dtype=np.int64)
    column[_inner(k)] = np.arange(cols).reshape((m - 1,) * k)
    column = column.ravel()
    mat = np.zeros((rows, cols), dtype=np.int64)
    r = np.arange(rows)
    for sign, idx in faces(g, k):
        col = column[idx.reshape((m,) * (k + 1))[_inner(k + 1)].ravel()]
        keep = col >= 0
        np.add.at(mat, (r[keep], col[keep]), sign)
    return mat


def textbook_coboundary(c):
    """dc over G^(k+1), one tuple and one face at a time."""
    g, k, mul = c.group, c.degree, c.group.mul
    out = np.zeros((g.order,) * (k + 1), dtype=np.int64)
    for t in itertools.product(range(g.order), repeat=k + 1):
        total = c(*t[1:]) + (-1) ** (k + 1) * c(*t[:-1])
        for i in range(1, k + 1):
            total += (-1) ** i * c(*t[: i - 1], mul[t[i - 1]][t[i]], *t[i + 1 :])
        out[t] = total % c.n
    return out
