"""Exact character tables of small finite groups.

Characters are computed Dixon-style: joint eigenvectors of the class
multiplication matrices over a prime field F_p with p = 1 mod exp(G),
then lifted to exact cyclotomic values through eigenvalue-multiplicity
recovery.  On top of that sit central extensions and projective
representation data: the dimensions (and section characters) of the
alpha-projective irreps of a group are read off the ordinary irreps of
its central extension by Z/N on which the centre acts by the standard
injective character.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cohomology import TorsionCocycle, is_cocycle
from .cyclo import Cyc
from .groups import FiniteGroup, GroupError, conjugacy_data, validate_table
from .snf import modinv, nullspace_fp, rref_fp

__all__ = [
    "CharacterTable",
    "character_table",
    "irrep_dims",
    "rep_fusion_data",
    "central_extension",
    "projective_irrep_data",
    "projective_irrep_dims",
]

EXTENSION_ORDER_CAP = 192


def _is_prime(n):
    if n < 2:
        return False
    for d in range(2, int(n**0.5) + 1):
        if n % d == 0:
            return False
    return True


def _dixon_prime(order, exponent):
    p = max(int(2 * math.isqrt(order)) + 1, 2)
    while True:
        if (p - 1) % exponent == 0 and _is_prime(p):
            return p
        p += 1


def _primitive_root(p):
    for w in range(2, p):
        seen, x = set(), 1
        ok = True
        for _ in range(p - 1):
            x = x * w % p
            if x in seen:
                ok = False
                break
            seen.add(x)
        if ok and x == 1:
            return w
    raise ArithmeticError("no primitive root")  # pragma: no cover


@dataclass(frozen=True)
class CharacterTable:
    group: FiniteGroup
    class_reps: tuple
    class_sizes: tuple
    chars: tuple  # per irrep, tuple of Cyc values per class
    dims: tuple


@lru_cache(maxsize=None)
def character_table(g: FiniteGroup) -> CharacterTable:
    data = conjugacy_data(g)
    classes, reps, cls = data.classes, data.reps, data.class_of
    r = len(classes)
    m = g.exponent
    p = _dixon_prime(g.order, m)
    zgen = pow(_primitive_root(p), (p - 1) // m, p)

    # class multiplication constants a[i][j][k]: K_i K_j = sum_k a_ijk K_k
    a = np.zeros((r, r, r), dtype=np.int64)
    for i, ci in enumerate(classes):
        for x in ci:
            xi = g.inv[x]
            for k, zk in enumerate(reps):
                a[i][cls[g.mul[xi][zk]]][k] += 1

    mats = [a[i] for i in range(r)]  # (M_i)_{jk} acting on column vectors

    # split the full space into joint eigenspaces over F_p
    spaces = [np.eye(r, dtype=np.int64)]  # columns span each subspace
    for mi in mats:
        if all(s.shape[1] == 1 for s in spaces):
            break
        nxt = []
        for s in spaces:
            if s.shape[1] == 1:
                nxt.append(s)
                continue
            # restriction b of mi to the column space of s: mi s = s b
            _, piv = rref_fp(s.T, p)
            s_rows = s[piv, :] % p
            inv_rows = _inv_fp(s_rows, p)
            b = inv_rows @ ((mi @ s)[piv, :] % p) % p
            for lam in range(p):
                ns = nullspace_fp((b - lam * np.eye(b.shape[0], dtype=np.int64)) % p, p)
                if ns.shape[0]:
                    nxt.append((s @ ns.T) % p)
        spaces = nxt
    assert all(s.shape[1] == 1 for s in spaces) and len(spaces) == r

    inv_class = [cls[g.inv[rep]] for rep in reps]
    sizes = [len(c) for c in classes]
    chars = []
    dims = []
    for s in spaces:
        w = s[:, 0] % p
        w = w * modinv(int(w[0]), p) % p  # normalize omega(K_0) = 1
        denom = sum(int(w[k]) * int(w[inv_class[k]]) * modinv(sizes[k], p) for k in range(r)) % p
        d2 = g.order * modinv(denom, p) % p
        d = next(t for t in range(1, int(math.isqrt(g.order)) + 1) if t * t % p == d2)
        chi_p = [d * int(w[k]) * modinv(sizes[k], p) % p for k in range(r)]
        chars.append(tuple(_lift_char(g, reps, cls, chi_p, d, m, p, zgen)))
        dims.append(d)
    assert sum(d * d for d in dims) == g.order

    # canonical order: trivial character first, then by dimension and values
    def key(i):
        vals = tuple(v.reduced() for v in chars[i])
        trivial = all(c == Cyc.rational(1) for c in chars[i])
        return (not trivial, dims[i], vals)

    order = sorted(range(r), key=key)
    chars = tuple(chars[i] for i in order)
    dims = tuple(dims[i] for i in order)
    return CharacterTable(g, reps, tuple(sizes), chars, dims)


def _inv_fp(mat, p):
    n = mat.shape[0]
    aug = np.concatenate([mat % p, np.eye(n, dtype=np.int64)], axis=1)
    red, piv = rref_fp(aug, p)
    if piv[:n] != list(range(n)):
        raise ArithmeticError("singular matrix mod p")
    return red[:, n:]


def _lift_char(g, reps, cls, chi_p, d, m, p, zgen):
    """Exact cyclotomic character values from mod-p data."""
    out = []
    for k, rep in enumerate(reps):
        o = g.element_order(rep)
        # chi on the powers of rep
        chis = []
        x = 0
        for _ in range(o):
            chis.append(chi_p[cls[x]])
            x = g.mul[x][rep]
        zeta_o = pow(zgen, m // o, p)
        inv_o = modinv(o, p)
        coeffs = {}
        for t in range(o):
            s = 0
            for j in range(o):
                s += chis[j] * pow(zeta_o, (-j * t) % o, p)
            mt = s % p * inv_o % p
            assert mt <= d, "multiplicity lift out of range"
            if mt:
                coeffs[t * (m // o)] = mt
        out.append(Cyc(m, coeffs))
    return out


def irrep_dims(g):
    return list(character_table(g).dims)


def rep_fusion_data(g):
    """Fusion data of Rep(G): labels, integer dims, sparse coefficients.

    N_{ab}^c = <chi_a chi_b, chi_c>, computed exactly from the character
    table.  Labels are pi0 (trivial), pi1, ... in table order.
    """
    tab = character_table(g)
    r = len(tab.class_reps)
    labels = [f"pi{i}" for i in range(len(tab.dims))]
    coeffs = {}
    for ia in range(len(labels)):
        for ib in range(len(labels)):
            prod = [tab.chars[ia][k] * tab.chars[ib][k] for k in range(r)]
            for ic in range(len(labels)):
                s = Cyc.rational(0)
                for k in range(r):
                    s = s + prod[k] * tab.chars[ic][k].conj() * tab.class_sizes[k]
                val = s.as_rational()
                assert val is not None, "character inner product must be rational"
                nv = val / g.order
                assert nv.denominator == 1 and nv >= 0, "non-integral fusion multiplicity"
                if nv:
                    coeffs[(ia, ib, ic)] = int(nv)
    duals = []
    for ia in range(len(labels)):
        dual = next(ic for ic in range(len(labels)) if coeffs.get((ia, ic, 0), 0) == 1)
        duals.append(dual)
    return labels, list(tab.dims), coeffs, duals


def central_extension(h: FiniteGroup, values, n, name=None):
    """Extension of h by a central Z/n from a normalized 2-cocycle.

    Elements are pairs (x, a) with index x*n + a; (x,a)(y,b) =
    (xy, a + b + alpha(x,y)).  alpha(e,.) = alpha(.,e) = 0 keeps index 0
    the identity.
    """

    def alpha(x, y):
        return values.get((x, y), 0) % n

    order = h.order * n
    if order > EXTENSION_ORDER_CAP:
        raise GroupError(f"central extension order {order} exceeds cap {EXTENSION_ORDER_CAP}")
    mul = [
        [h.mul[x][y] * n + (ax + by + alpha(x, y)) % n for y in h.elements() for by in range(n)]
        for x in h.elements()
        for ax in range(n)
    ]
    if order <= 64:
        validate_table(mul, "central extension")
    grp = FiniteGroup(
        name or f"{h.name}~Z{n}",
        tuple(tuple(row) for row in mul),
        tuple(
            f"({h.element_names[x]},{ax})" for x in h.elements() for ax in range(n)
        ),
    )
    return grp


def _reduce_cocycle(alpha):
    """Divide out the common gcd so the trivial cocycle needs no extension."""
    g = math.gcd(alpha.n, int(np.gcd.reduce(alpha.table, axis=None)))
    return {k: v // g for k, v in alpha.values}, alpha.n // g


def _coerce_cocycle(h, alpha, n):
    """Accept a degree-2 TorsionCocycle or raw values with their N."""
    if not isinstance(alpha, TorsionCocycle):
        return TorsionCocycle.make(h, 2, n, alpha)
    if alpha.degree != 2:
        raise ValueError("projective representations need a degree-2 cocycle")
    if alpha.group.mul != h.mul:
        raise ValueError("cocycle lives on a different group")
    return alpha


def projective_irrep_data(h: FiniteGroup, alpha, n=None):
    """(dim, section character) pairs for the alpha-projective irreps of h.

    The section character is chi((x, 0)) on the central extension; its
    values depend on alpha itself, not just the cohomology class.
    """
    alpha = _coerce_cocycle(h, alpha, n)
    ok, wit = is_cocycle(alpha)
    if not ok:
        raise ValueError("alpha is not a 2-cocycle: coboundary nonzero at triple ({}, {}, {})".format(*wit))
    red, n_red = _reduce_cocycle(alpha)
    if n_red == 1:
        tab = character_table(h)
        cls = conjugacy_data(h).class_of
        return [(tab.dims[i], tuple(tab.chars[i][cls[x]] for x in h.elements()))
                for i in range(len(tab.dims))], 1
    ext = central_extension(h, red, n_red)
    tab = character_table(ext)
    cls = conjugacy_data(ext).class_of
    zeta = Cyc.root(n_red, 1)
    out = []
    for i, d in enumerate(tab.dims):
        centre_val = tab.chars[i][cls[1]]  # element (e, 1) has index 1
        if centre_val == zeta * d:
            section = tuple(tab.chars[i][cls[x * n_red]] for x in h.elements())
            out.append((d, section))
    assert sum(d * d for d, _ in out) == h.order, "twisted algebra dimension check"
    return out, n_red


def projective_irrep_dims(h: FiniteGroup, alpha, n=None):
    """Multiset (sorted list) of alpha-projective irreducible dimensions."""
    data, _ = projective_irrep_data(h, alpha, n)
    dims = sorted(d for d, _ in data)
    assert sum(d * d for d in dims) == h.order
    return dims
