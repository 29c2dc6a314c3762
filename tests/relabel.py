"""Modular data compared up to relabeling, exactly.

``match(a, b)`` looks for a bijection between the simples of two twisted
doubles that carries dims, T and S of one onto the other.  Every value is
compared with ``==`` on ``gxcat.cyclo.Cyc``, which reduces modulo the
cyclotomic polynomial, so a match is exact across conductors.

The search colours each simple by (dim, T) and refines the colours on the
multiset of (colour, S entry) over its row, jointly on both sides, until no
colour splits.  It then backtracks through the colour classes, in the order
of a's simples, checking every S entry between the simples placed so far.
"""

from collections import Counter


def modular_data(double):
    """(dims, T, S) of a DoubleData."""
    return double.dims, [s["t"] for s in double.simples], double.s_matrix


def match(a, b):
    """A list p with b's simple p[i] in the place of a's simple i, so that
    dims, T and S agree entry for entry; None when there is no such list.
    a and b are (dims, T, S) triples, with S a square list of lists."""
    ids = {}

    def key(v):
        return ids.setdefault(v, len(ids))

    (da, ta, sa), (db, tb, sb) = a, b
    if len(da) != len(db):
        return None
    sa = [[key(v) for v in row] for row in sa]
    sb = [[key(v) for v in row] for row in sb]
    ca = [key((d, t)) for d, t in zip(da, ta)]
    cb = [key((d, t)) for d, t in zip(db, tb)]
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
    size = len(ca)
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
