"""Integer, Z/N and field linear algebra: Smith normal form, solvers, kernels.

snf_z_transforms diagonalizes over Z with Python ints and returns the
change-of-basis matrices.  snf_mod works over Z/N: all elementary operations
are integer-unimodular, so the tracked transforms stay invertible mod N while
every entry is kept reduced -- no coefficient explosion.  rref_fp and rref
are Gauss-Jordan over F_p (int64 arrays) and over an exact field (lists of
Fraction or Cyc entries).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "snf_z_transforms",
    "snf_mod",
    "solve_mod",
    "solution_lattice",
    "kernel_mod",
    "invariant_factor_chain",
    "modinv",
    "rref",
    "rref_fp",
    "nullspace_fp",
]


def _as_int_matrix(a):
    arr = np.array(a, dtype=np.int64)
    if arr.ndim != 2:
        raise ValueError("matrix expected")
    return arr


def invariant_factor_chain(values, modulus=None):
    """Canonical invariant-factor chain from any diagonal form.

    Per prime, the exponent multiset of a diagonalized presentation is an
    invariant, so pairwise gcd/lcm stabilization yields the Smith chain.
    With a modulus, entries are first replaced by gcd(value, modulus).
    """
    vals = [abs(int(v)) for v in values]
    if modulus is not None:
        vals = [math.gcd(v, modulus) for v in vals]
    vals = [v for v in vals if v != 0]
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
    return sorted(vals)


def snf_z_transforms(a):
    """SNF over Z with transforms: returns (diag, u_inv, v) where
    u @ a @ v = diag(diag) and u_inv is the inverse of the row transform.

    Entries are Python ints (object dtype) to avoid overflow; intended for
    small matrices (representative pullback).
    """
    a = np.array(a, dtype=object)
    rows, cols = a.shape
    u_inv = np.eye(rows, dtype=object)
    v = np.eye(cols, dtype=object)
    t = 0
    diag = []
    while t < min(rows, cols):
        sub = a[t:, t:]
        nz = [(i + t, j + t) for i, j in zip(*np.nonzero(sub))]
        if not nz:
            break
        pi, pj = min(nz, key=lambda ij: abs(a[ij]))
        a[[t, pi]] = a[[pi, t]]
        u_inv[:, [t, pi]] = u_inv[:, [pi, t]]
        a[:, [t, pj]] = a[:, [pj, t]]
        v[:, [t, pj]] = v[:, [pj, t]]
        while True:
            done = True
            for i in range(t + 1, rows):
                if a[i, t]:
                    q = a[i, t] // a[t, t]
                    a[i] -= q * a[t]
                    u_inv[:, t] += q * u_inv[:, i]
                    if a[i, t]:
                        a[[t, i]] = a[[i, t]]
                        u_inv[:, [t, i]] = u_inv[:, [i, t]]
                        done = False
            for j in range(t + 1, cols):
                if a[t, j]:
                    q = a[t, j] // a[t, t]
                    a[:, j] -= q * a[:, t]
                    v[:, j] -= q * v[:, t]
                    if a[t, j]:
                        a[:, [t, j]] = a[:, [j, t]]
                        v[:, [t, j]] = v[:, [j, t]]
                        done = False
            if done and not any(a[i, t] for i in range(t + 1, rows)):
                break
        if a[t, t] < 0:
            a[t] = -a[t]
            u_inv[:, t] = -u_inv[:, t]
        diag.append(int(a[t, t]))
        t += 1
    return diag, u_inv, v


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


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


def modinv(u, n):
    g, x, _ = _xgcd(u % n, n)
    if g != 1:
        raise ArithmeticError("not a unit")
    return x % n


def snf_mod(a, n, transforms=False):
    """Diagonalize an integer matrix over Z/n.

    Returns (diag, p, q) with p @ a @ q == diag(diag) mod n, p and q
    invertible mod n, and each diagonal entry a divisor of n.  There is no
    global divisibility chain (use invariant_factor_chain for that); the
    diagonal is enough for solving and kernel computations.
    """
    a = (_as_int_matrix(a) % n).astype(np.int64)
    rows, cols = a.shape
    p = np.eye(rows, dtype=np.int64) if transforms else None
    q = np.eye(cols, dtype=np.int64) if transforms else None

    def rowcomb(i1, i2, x, y, z, w):
        # (r_i1, r_i2) <- (x r_i1 + y r_i2, z r_i1 + w r_i2), det = 1
        a[i1], a[i2] = (x * a[i1] + y * a[i2]) % n, (z * a[i1] + w * a[i2]) % n
        if transforms:
            p[i1], p[i2] = (x * p[i1] + y * p[i2]) % n, (z * p[i1] + w * p[i2]) % n

    def colcomb(j1, j2, x, y, z, w):
        a[:, j1], a[:, j2] = (x * a[:, j1] + y * a[:, j2]) % n, (z * a[:, j1] + w * a[:, j2]) % n
        if transforms:
            q[:, j1], q[:, j2] = (x * q[:, j1] + y * q[:, j2]) % n, (z * q[:, j1] + w * q[:, j2]) % n

    diag = []
    t = 0
    while t < min(rows, cols):
        sub = a[t:, t:]
        nz = np.nonzero(sub)
        if len(nz[0]) == 0:
            break
        gcds = np.gcd(sub[nz], n)
        k = int(np.argmin(gcds))
        pi, pj = int(nz[0][k]) + t, int(nz[1][k]) + t
        if pi != t:
            rowcomb(t, pi, 0, 1, -1, 0)
        if pj != t:
            colcomb(t, pj, 0, 1, -1, 0)
        while True:
            changed = False
            for i in range(t + 1, rows):
                b = int(a[i, t])
                if b:
                    pv = int(a[t, t])
                    if b % pv == 0:
                        rowcomb(t, i, 1, 0, -(b // pv), 1)
                    else:
                        g, x, y = _xgcd(pv, b)
                        rowcomb(t, i, x, y, -(b // g), pv // g)
                    changed = True
            for j in range(t + 1, cols):
                b = int(a[t, j])
                if b:
                    pv = int(a[t, t])
                    if b % pv == 0:
                        colcomb(t, j, 1, 0, -(b // pv), 1)
                    else:
                        g, x, y = _xgcd(pv, b)
                        colcomb(t, j, x, y, -(b // g), pv // g)
                    changed = True
            if not changed:
                break
        d = int(a[t, t])
        g = math.gcd(d, n)
        if d != g:
            u = _unit_for(d, g, n)
            ui = modinv(u, n)
            a[t] = (a[t] * ui) % n
            if transforms:
                p[t] = (p[t] * ui) % n
        diag.append(g)
        t += 1
    return diag, p, q


def solution_lattice(a, n, b):
    """Solutions of a @ x == b[:, j] (mod n) for every column j of b, from
    one diagonalization of a.

    Returns (parts, gens, orders): parts[j] is one solution or None, and the
    solutions of column j are parts[j] plus the span of the columns of gens,
    column i of order orders[i].
    """
    a = _as_int_matrix(a)
    diag, p, q = snf_mod(a, n, transforms=True)
    k = len(diag)
    d = np.array(diag, dtype=np.int64).reshape(k, 1)
    c = (p @ (np.asarray(b, dtype=np.int64) % n)) % n
    # rows past the diagonal must vanish; on it, d y == c (mod n) needs d | c
    ok = ~c[k:].any(axis=0) & ~(c[:k] % d).any(axis=0)
    y = np.zeros((a.shape[1], c.shape[1]), dtype=np.int64)
    y[:k] = (c[:k] // d) % (n // d)
    x = (q @ y) % n
    parts = [x[:, j] if ok[j] else None for j in range(c.shape[1])]
    # column i of q spans a cyclic kernel summand of order diag[i], or n past the diagonal
    full = list(diag) + [n] * (a.shape[1] - k)
    keep = [i for i, o in enumerate(full) if o > 1]
    orders = [full[i] for i in keep]
    gens = (q[:, keep] * (n // np.array(orders, dtype=np.int64))) % n
    return parts, gens, orders


def solve_mod(a, n, b):
    """One solution x of a @ x == b (mod n), or None."""
    return solution_lattice(a, n, np.reshape(b, (-1, 1)))[0][0]


def kernel_mod(a, n):
    """Generators of {x : a @ x == 0 mod n} as columns, with their orders."""
    _, gens, orders = solution_lattice(a, n, np.zeros((np.shape(a)[0], 0), dtype=np.int64))
    return gens, orders


def rref(rows):
    """Row-reduced echelon form over an exact field; returns (rows, pivot columns).

    Entries are Fraction, Cyc or anything with exact +, -, * and 1 / x.  Each
    pivot is inverted once; only the nonzero rows are returned.
    """
    a = [list(row) for row in rows]
    cols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        support = [j for j in range(c, cols) if a[r][j] != 0]
        inv = 1 / a[r][c]
        for j in support:
            a[r][j] = a[r][j] * inv
        for i in range(len(a)):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                for j in support:
                    a[i][j] = a[i][j] - f * a[r][j]
        pivots.append(c)
        r += 1
        if r == len(a):
            break
    return a[:r], pivots


def rref_fp(a, p):
    """Row-reduced echelon form over F_p; returns (matrix, pivot columns)."""
    a = (np.array(a, dtype=np.int64) % p).copy()
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if a[i, c] % p), None)
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * modinv(int(a[r, c]), p)) % p
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] = (a[i] - a[i, c] * a[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return a[:r], pivots


def nullspace_fp(a, p):
    """Basis (rows) of the right nullspace of a over F_p."""
    red, pivots = rref_fp(a, p)
    cols = np.asarray(a).shape[1]
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = np.zeros(cols, dtype=np.int64)
        v[f] = 1
        for r, c in enumerate(pivots):
            v[c] = (-red[r, f]) % p
        basis.append(v)
    return np.array(basis, dtype=np.int64).reshape(len(basis), cols)
