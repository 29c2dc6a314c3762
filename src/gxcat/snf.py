"""Integer, Z/m and field linear algebra: Smith normal form, solvers, kernels.

snf_mod is the one integer elimination: it diagonalizes over Z/m (m < 2**31,
so products of two residues fit in int64) with the Euclidean steps of the
Smith form over Z on balanced residues, returns the column transform and
applies its row steps to any right-hand sides it is given.  Cohomology
reads integer invariants off it with m a large multiple of |G|; the braid
solver and the enumerator call it through solution_lattice with m = N, and
lattice_points lists every point of the small solution cosets of all
right-hand sides in one array (the invariant associators, the braid tables,
the characters of a group).
nullspace_fp is the one elimination over a prime field: Gauss-Jordan over
F_p on int64 arrays, returning a kernel basis.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ResourceLimit

__all__ = [
    "snf_mod",
    "dot_mod",
    "solve_mod",
    "solution_lattice",
    "lattice_points",
    "kernel_mod",
    "invariant_factor_chain",
    "nullspace_fp",
]


ENUM_STATE_CAP = 1 << 16


def _as_int_matrix(a):
    arr = np.array(a, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("matrix expected")
    return arr


def invariant_factor_chain(values, modulus=None):
    """Canonical invariant-factor chain from any diagonal form.

    Per prime, the exponent multiset of a diagonalized presentation is an
    invariant, so pairwise gcd/lcm stabilization yields the Smith chain.
    With a modulus, entries are first replaced by gcd(value, modulus).  A 1
    has no prime factor, so the 1s are set aside and put back in front: the
    stabilization is quadratic in the other entries only.
    """
    vals = [abs(int(v)) for v in values]
    if modulus is not None:
        vals = [math.gcd(v, modulus) for v in vals]
    ones = vals.count(1)
    vals = [v for v in vals if v > 1]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                g = math.gcd(vals[i], vals[j])
                l = vals[i] // g * vals[j]
                if (vals[i], vals[j]) != (g, l):
                    vals[i], vals[j] = g, l
                    changed = True
    return [1] * ones + sorted(vals)


def _unit_for(d, g, n):
    """A unit u mod n with u * g == d (mod n), where g = gcd(d, n)."""
    if g == 0:
        return 1
    base = (d // g) % (n // g)
    for k in range(g + 1):
        u = base + k * (n // g)
        if math.gcd(u, n) == 1:
            return u % n
    raise ArithmeticError("unit search failed")  # unreachable


def _balanced(x, m):
    """Residues of x mod m in (m//2 - m, m//2].

    x itself is returned when every entry already lies there: two reductions
    instead of two int64 divisions and three temporaries.  With m near 2**31
    almost no step of an elimination wraps, so this is the common case.
    """
    half = m // 2
    if not x.size or (x.min() > half - m and x.max() <= half):
        return x
    return half - (half - x) % m


_ZERO_ROW = np.iinfo(np.uint64).max


def _row_keys(block):
    """Each row's least nonzero |x| minus 1, read as unsigned: a zero row
    reads 2**64 - 1, above every other key."""
    size = np.abs(block)
    size -= 1
    return size.view(np.uint64).min(axis=1, initial=_ZERO_ROW)


def snf_mod(a, m, rhs=None):
    """Diagonalize an integer matrix over Z/m, carrying right-hand sides.

    Returns (diag, q, c): p @ a @ q == diag(diag) (mod m) for some p
    invertible mod m, and c == p @ rhs (mod m) (rhs is a matrix with one
    column per right-hand side, default none).  Each diagonal entry divides
    m; there is no global divisibility chain (invariant_factor_chain gives
    it).  q and c hold residues in [0, m).

    The steps are those of the Euclidean Smith form over Z, on balanced
    residues: the pivot is the nonzero entry of least absolute value (the
    first in C order on ties), the pivot column and row are cleared by
    floor-division steps, a remainder swaps in as the new pivot, and a
    negative pivot is negated.  While no entry wraps around m the entries
    are exactly those of the elimination over Z.  Each finished pivot is
    scaled by a unit so that it divides m.  Rows are combined only with
    rows, so p is never formed.

    The pivot search reads one key per row, its least nonzero |x|.  After
    step t the rows below t are zero in columns <= t, so the first row with
    the least key, and in it the first column holding that |x|, is the
    first least entry of the remaining block in C order.  A column swap
    keeps every key; a row swap swaps two.  A +-1 pivot divides everything,
    so its column is cleared in one row step on the rows that hold a
    nonzero there, restricted to the columns where the pivot row is
    nonzero; its row then only needs zeroing in a, and q changes only in
    the rows where its column t is nonzero.  Only those rows get new keys.
    Any other pivot runs the general clearing loop and rekeys every row
    below it.  Entries of a stay balanced throughout, so skipping the
    columns where the pivot row is zero skips only no-op steps.
    """
    if not 1 <= m < 1 << 31:
        raise ValueError(f"modulus {m} outside 1..2**31-1: products of residues must fit in int64")
    a = _balanced(_as_int_matrix(a), m)
    rows, cols = a.shape
    c = np.zeros((rows, 0), dtype=np.int64) if rhs is None else _as_int_matrix(rhs)
    for part in _blocks(c):
        c[:, part] = _balanced(c[:, part], m)
    q = np.eye(cols, dtype=np.int64)
    keys = _row_keys(a)
    diag = []
    for t in range(min(rows, cols)):
        pi = t + int(np.argmin(keys[t:]))
        if keys[pi] == _ZERO_ROW:
            break
        pj = t + int(np.argmax(np.abs(a[pi, t:]) == int(keys[pi]) + 1))
        _swap(a, c, t, pi)
        keys[[t, pi]] = keys[[pi, t]]
        _swap(a.T, q.T, t, pj)
        p = int(a[t, t])
        if abs(p) == 1:
            # x // p == x * p: one row step clears column t, and since the
            # rows below are now 0 there, the column steps change row t only
            hit = t + 1 + np.flatnonzero(a[t + 1:, t])
            support = t + np.flatnonzero(a[t, t:])
            if len(hit):
                f = (a[hit, t] * p)[:, None]
                block = np.ix_(hit, support)
                a[block] = _balanced(a[block] - f * a[t, support], m)
                _row_step(c, hit, f, t, m)
                keys[hit] = _row_keys(a[hit, t + 1:])
            support = support[1:]
            if len(support):
                f = a[t, support] * p
                live = np.flatnonzero(q[:, t])
                block = np.ix_(live, support)
                q[block] = _balanced(q[block] - q[live, t, None] * f, m)
                a[t, support] = 0
        else:
            # clear column t with row steps, then row t with column steps
            # (the same code on the transposes); repeat until neither swaps
            # a pivot in
            while _clear(a, c, t, m) | _clear(a.T, q.T, t, m):
                pass
            keys[t + 1:] = _row_keys(a[t + 1:, t + 1:])
        if a[t, t] < 0:
            a[t], c[t] = -a[t], _balanced(-c[t], m)
        d = int(a[t, t])
        g = math.gcd(d, m)
        if d != g:
            ui = pow(_unit_for(d, g, m), -1, m)
            a[t], c[t] = _balanced(a[t] * ui, m), _balanced(c[t] * ui, m)
        diag.append(g)
    return diag, q % m, np.remainder(c, m, out=c)


def _blocks(c):
    """Column slices of c, at most 1024 wide: a row step on a wide right-hand
    side then needs temporaries of one block, not of its full width."""
    return [slice(j, j + 1024) for j in range(0, c.shape[1], 1024)]


def _row_step(c, hit, f, t, m):
    """c[hit] -= f * c[t] (mod m, balanced), in place, a block of columns at a time."""
    for part in _blocks(c):
        c[hit, part] = _balanced(c[hit, part] - f * c[t, part], m)


def _swap(a, c, i, j):
    """Exchange rows i and j of a and of its companion c."""
    if i != j:
        a[[i, j]] = a[[j, i]]
        c[[i, j]] = c[[j, i]]


def _clear(a, c, t, m):
    """Clear a[t+1:, t] against the pivot a[t, t], applying each row step to c too.

    Rows are taken in order.  A run of rows whose entry the pivot divides
    is cleared in one update; any other row is reduced by floor division
    and its nonzero remainder becomes the pivot.  Returns whether any did.
    """
    swapped = False
    i = t + 1
    while i < len(a):
        col = a[i:, t]
        bad = np.flatnonzero(col % a[t, t])
        end = i + int(bad[0]) if len(bad) else len(a)
        hit = i + np.flatnonzero(col[: end - i])
        if len(hit):
            f = (a[hit, t] // a[t, t])[:, None]
            a[hit, t:] = _balanced(a[hit, t:] - f * a[t, t:], m)
            _row_step(c, hit, f, t, m)
        if end == len(a):
            break
        f = a[end, t] // a[t, t]
        a[end, t:] = _balanced(a[end, t:] - f * a[t, t:], m)
        _row_step(c, end, f, t, m)
        _swap(a, c, t, end)
        swapped = True
        i = end + 1
    return swapped


def dot_mod(a, m, b):
    """a @ b mod m for residues in [0, m), m < 2**31 and fewer than 2**16
    inner terms: b is split into 16-bit halves so no sum leaves int64.
    The modulus comes second, as in snf_mod(a, m, rhs)."""
    lo = a @ (b & 0xFFFF) % m
    hi = a @ (b >> 16) % m
    return (hi * 0x10000 + lo) % m


def solution_lattice(a, n, b):
    """Solutions of a @ x == b[:, j] (mod n) for every column j of b, from
    one diagonalization of a.

    Returns (parts, gens, orders): parts[j] is one solution or None, and the
    solutions of column j are parts[j] plus the span of the columns of gens,
    column i of order orders[i].
    """
    diag, q, c = snf_mod(a, n, b)
    k = len(diag)
    d = np.array(diag, dtype=np.int64).reshape(k, 1)
    # rows past the diagonal must vanish; on it, d y == c (mod n) needs d | c
    ok = ~c[k:].any(axis=0) & ~(c[:k] % d).any(axis=0)
    y = np.zeros((len(q), c.shape[1]), dtype=np.int64)
    y[:k] = (c[:k] // d) % (n // d)
    x = dot_mod(q, n, y)
    parts = [x[:, j] if ok[j] else None for j in range(c.shape[1])]
    # column i of q spans a cyclic kernel summand of order diag[i], or n past the diagonal
    full = list(diag) + [n] * (len(q) - k)
    keep = [i for i, o in enumerate(full) if o > 1]
    orders = [full[i] for i in keep]
    gens = (q[:, keep] * (n // np.array(orders, dtype=np.int64))) % n
    return parts, gens, orders


def lattice_points(a, n, rhs):
    """Every solution x of a @ x == rhs[:, j] (mod n), for all columns j of
    rhs at once.  Returns (counts, points): counts[j] is 0 or the size of
    column j's coset, and points is int64 with one solution per row, the
    cosets in column order, each in lexicographic order.  ResourceLimit
    when a solvable column has more than ENUM_STATE_CAP solutions."""
    parts, gens, orders = solution_lattice(a, n, rhs)
    solved = [part for part in parts if part is not None]
    total = math.prod(orders)
    if total > ENUM_STATE_CAP and solved:
        raise ResourceLimit(f"solution lattice has {total} points, over the enumeration cap")
    counts = np.array([0 if part is None else total for part in parts], dtype=np.int64)
    if not solved:
        return counts, np.zeros((0, np.shape(a)[1]), dtype=np.int64)
    points = (np.array(solved)[:, None] + (gens @ np.indices(orders).reshape(len(orders), total)).T) % n
    if total > 1:  # a lone point needs no sort (at width 0 lexsort would get no keys)
        # a coset wraps mod n, so each is sorted on its own
        order = np.lexsort(points.transpose(2, 0, 1)[::-1], axis=-1)
        points = np.take_along_axis(points, order[..., None], axis=1)
    return counts, points.reshape(len(solved) * total, np.shape(a)[1])


def solve_mod(a, n, b):
    """One solution x of a @ x == b (mod n), or None."""
    return solution_lattice(a, n, np.reshape(b, (-1, 1)))[0][0]


def kernel_mod(a, n):
    """Generators of {x : a @ x == 0 mod n} as columns, with their orders."""
    _, gens, orders = solution_lattice(a, n, None)
    return gens, orders


def nullspace_fp(a, p):
    """Basis (rows) of the right nullspace of a over F_p, by Gauss-Jordan
    elimination; the rank of a is its column count minus the basis size.

    Row i is 1 at the i-th non-pivot column f, 0 at the other non-pivot
    columns and past f; so f is its last nonzero entry.
    """
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if a[i, c]), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[range(len(free)), free] = 1
    basis[:, pivots] = -a[:len(pivots), free].T % p
    return basis
