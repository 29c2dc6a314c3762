"""Modular data compared up to relabeling, exactly.

``match(a, b)`` looks for a bijection between the simples of two twisted
doubles that carries dims, T and S of one onto the other.  Every value is
compared by its key: its coefficients reduced modulo Phi_m in the field
Q(zeta_m) that holds every value of both sides, so a match is exact across
conductors.  The keys of ``gxcat.cyclo.Cyc`` values take one
``cyclo.emit``; a hash on the values would put every primitive root of one
order in one bucket.

The search colours each simple by (dim, T) and refines the colours on the
multiset of (colour, S entry) over its row, jointly on both sides, until no
colour splits.  It then backtracks through the colour classes, in the order
of a's simples, checking every S entry between the simples placed so far.
"""

import math
from collections import Counter

from gxcat.cyclo import Cyc, emit


def modular_data(double):
    """(dims, T, S) of a DoubleData."""
    return double.dims, [s["t"] for s in double.simples], double.s_matrix


def match(a, b):
    """A list p with b's simple p[i] in the place of a's simple i, so that
    dims, T and S agree entry for entry; None when there is no such list.
    a and b are (dims, T, S) triples, with S a square list of lists."""
    (da, ta, sa), (db, tb, sb) = a, b
    size = len(da)
    if len(db) != size:
        return None
    keys = _keys([*ta, *tb, *(v for row in sa for v in row), *(v for row in sb for v in row)])
    ta, tb, flat_a, flat_b = keys[:size], keys[size:2 * size], keys[2 * size:-size * size], keys[-size * size:]
    sa = [flat_a[i:i + size] for i in range(0, len(flat_a), size)]
    sb = [flat_b[i:i + size] for i in range(0, len(flat_b), size)]
    ids = {}
    ca = [ids.setdefault((d, t), len(ids)) for d, t in zip(da, ta)]
    cb = [ids.setdefault((d, t), len(ids)) for d, t in zip(db, tb)]
    while True:
        colours = {}

        def refine(col, s):
            return [colours.setdefault((col[i], frozenset(Counter(zip(col, s[i])).items())), len(colours))
                    for i in range(len(col))]

        na, nb = refine(ca, sa), refine(cb, sb)
        if Counter(na) != Counter(nb):
            return None
        if len(set(na)) == len(set(ca)):
            break
        ca, cb = na, nb
    perm, used = [None] * size, [False] * size

    def place(i):
        if i == size:
            return True
        for j in range(size):
            if used[j] or cb[j] != ca[i] or sa[i][i] != sb[j][j] or any(
                    sa[i][k] != sb[j][perm[k]] or sa[k][i] != sb[perm[k]][j] for k in range(i)):
                continue
            perm[i], used[j] = j, True
            if place(i + 1):
                return True
            used[j] = False
        return False

    return perm if place(0) else None


def _keys(values):
    """One small int per value, equal exactly when the values are: their
    reduced coefficients in Q(zeta_m), m the lcm of the conductors."""
    m = math.lcm(*(v.n for v in values))
    lifted = [v.lift(m) for v in values]
    ours = [i for i, v in enumerate(lifted) if isinstance(v, Cyc)]
    reduced = dict(zip(ours, emit([lifted[i] for i in ours])))
    ids = {}
    return [ids.setdefault(tuple(map(tuple, reduced.get(i, v.to_json())["coeffs"])), len(ids))
            for i, v in enumerate(lifted)]
