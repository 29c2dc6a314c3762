"""Exact character tables of small finite groups, and exact character sums.

Characters are computed Dixon-style: joint eigenvectors of the class
multiplication matrices over a prime field F_p with p = 1 mod exp(G),
with the eigenvalues read off as the roots of a characteristic
polynomial, then lifted to exact cyclotomic integers through
eigenvalue-multiplicity recovery, one F_p DFT per class.  Every value is
kept as an int64 coefficient vector over one zeta_m.  On top of that
sit central extensions and projective representation data: the
dimensions and section characters of the alpha-projective irreps of an
abelian group are read off one Z/M lattice coset of characters of the
radical of alpha; those of a nonabelian group are the ordinary irreps of
its central extension by Z/N on which the centre acts by the standard
injective character, so EXTENSION_ORDER_CAP applies only to nonabelian
groups.

Sums of products of character values (fusion multiplicities, unitarity)
are evaluated the same way, in F_p with p = 1 mod M under every embedding
zeta_M -> z^k, and made exact by a certificate (see character_sums).
"""

import math
from functools import lru_cache

import numpy as np

from .cohomology import TorsionCocycle, bar_matrix, is_cocycle
from .cyclo import reduction_bound, reduction_matrix
from .errors import FrozenRecord, GroupError, InvariantError, ResourceLimit
from .groups import FiniteGroup, conjugacy_data, subgroup, validate_table
from .exact import factorize
from .snf import dot_mod, lattice_points, nullspace_fp

__all__ = [
    "CharacterTable",
    "character_table",
    "character_sums",
    "rep_fusion_data",
    "fusion_coefficients",
    "central_extension",
    "projective_irrep_data",
    "projective_irrep_dims",
]

EXTENSION_ORDER_CAP = 192  # central extensions of nonabelian groups; abelian ones need none
PRIME_CAP = 1 << 31  # F_p products of two residues stay inside int64
SUM_BLOCK_CELLS = 1 << 16  # rows of a x rows of b x terms x embeddings per block of a character sum


def prime_1_mod(m, lower):
    """The least prime p >= lower with p = 1 (mod m); p < 2**31 or ResourceLimit."""
    p = max(lower, 2)
    p += (1 - p) % m
    while p < PRIME_CAP:
        if factorize(p) == {p: 1}:
            return p
        p += m
    raise ResourceLimit(f"no prime p = 1 mod {m} with {lower} <= p < 2**31")


def primitive_root(p):
    """The least generator of F_p^*: w with w^((p-1)/q) != 1 for each prime q | p - 1."""
    factors = factorize(p - 1)
    for w in range(1, p):
        if all(pow(w, (p - 1) // q, p) != 1 for q in factors):
            return w
    raise ArithmeticError("no primitive root")  # pragma: no cover


def character_sums(a, b, c, terms, blocks=None):
    """Exact V[i, j, k] = sum_t w_t a[i, u_t] b[j, v_t] conj(c[k, x_t]).

    a, b and c are int64 coefficient arrays (rows, columns, M) of cyclotomic
    integers over one zeta_M, and terms = (u, v, x, w) are int arrays of
    column indices and weights; terms = (u, v, x, w, s) weights term t by
    w_t zeta_M^s_t instead.  Returns (values, rational): where rational is
    True the sum is the integer in values; where it is False the sum is not
    rational.  blocks, an int array, puts each term in one of the blocks
    0, ..., G - 1, and each block is summed apart: V[g, i, j, k] runs over
    the terms of block g, and values and rational lead with an axis of
    length G.

    Each sum is evaluated in F_p, p = 1 mod M, under all phi(M) embeddings
    zeta_M -> z^k, gcd(k, M) = 1.  If they all agree on the balanced residue
    r, the sum is = r mod p Z[zeta_M], since p splits completely.  Its
    coefficients on the basis 1, ..., zeta^(phi(M) - 1) are bounded by
    B = (sum of |coefficients| over the terms) * (max |coefficient| of x^e
    mod Phi_M), so p > 2B makes it equal to r.  The first factor is taken
    as sum |w_t| times the largest coefficient sum of an entry of a, of b
    and of c.  p is the least such prime; ResourceLimit if none lies below
    2**31.  If the embeddings disagree, the sum is not a rational integer.

    The terms that share a block and an x are summed first.  Each block's
    runs of x are cut into pieces of the mean number of runs of a block,
    and each piece is padded to that width, so fewer than twice the runs
    plus one per block meet c, in one batched matrix product.  All
    embeddings are taken at once, and the rows of a in blocks, as many rows
    (at least one) as keep block rows x rows of b x (terms, or padded runs
    if more) x phi(M) within SUM_BLOCK_CELLS.  Beside the images of a, b
    and c (their rows x columns x phi(M)), only values and rational grow
    with the number of rows.
    """
    m = a.shape[-1]
    u, v, x, w, *s = (np.asarray(t, dtype=np.int64) for t in terms)
    s = s[0] if s else np.zeros_like(u)
    block = np.zeros(len(u), dtype=np.int64) if blocks is None else np.asarray(blocks, dtype=np.int64)
    count = int(block.max(initial=0)) + 1
    norm = [int(np.abs(t).sum(axis=-1).max(initial=0)) for t in (a, b, c)]
    bound = int(np.abs(w).sum()) * math.prod(norm) * reduction_bound(m)
    p = prime_1_mod(m, 2 * bound + 1)
    units = [k for k in range(1, m + 1) if math.gcd(k, m) == 1]
    z = pow(primitive_root(p), (p - 1) // m, p)
    # powers[e, i] = z^(e * units[i]): row e maps zeta^e under every embedding
    powers = np.array([[pow(z, e * k, p) for k in units] for e in range(m)], dtype=np.int64)

    order = np.lexsort((x, block))  # the runs of terms that share a block and an x
    u, v, x, w, s, block = u[order], v[order], x[order], w[order] % p, s[order] % m, block[order]
    starts = np.flatnonzero(np.concatenate(([True], (x[1:] != x[:-1]) | (block[1:] != block[:-1]))))
    # each block's runs are cut into pieces of width runs, width the mean number of runs of a block,
    # and every block has at least one piece; place is a run's column among the pieces' padded runs
    run_block = block[starts]
    width = -(-len(starts) // count) or 1
    if width >= 1 << 16:
        raise ResourceLimit(f"{width} distinct character columns in one sum")
    length = np.bincount(run_block, minlength=count)  # runs per block
    run = np.arange(len(starts)) - (np.cumsum(length) - length)[run_block]  # a run's place in its block
    per = np.maximum(-(-length // width), 1)  # pieces per block
    first, total = np.cumsum(per) - per, int(per.sum())
    place = (first[run_block] + run // width) * width + run % width

    def images(t):  # every entry of t under every embedding, embedding first
        return dot_mod(t.reshape(-1, m) % p, p, powers).T.reshape(len(units), *t.shape[:2])

    # conj(c) under k is c under -k, and the units run symmetrically: ic is c's images reversed
    ia, ib, ic = images(a), images(b), images(c)[::-1]
    w = powers[s].T * w % p  # each weight under every embedding
    right = np.zeros((len(units), total * width, c.shape[0]), dtype=np.int64)
    right[:, place] = ic[:, :, x[starts]].transpose(0, 2, 1)
    right = right.reshape(len(units), total, width, c.shape[0])
    vals = np.empty((count, a.shape[0], b.shape[0] * c.shape[0]), dtype=np.int64)
    rational = np.empty(vals.shape, dtype=bool)
    step = max(1, SUM_BLOCK_CELLS // max(1, b.shape[0] * max(len(u), total * width) * len(units)))
    for lo in range(0, a.shape[0], step):  # a block of rows of a at a time, under every embedding
        rows = slice(lo, lo + step)
        ab = ia[:, rows, u] * w[:, None] % p
        ab = ab[:, :, None, :] * ib[:, :, v][:, None] % p
        part = np.zeros(ab.shape[:3] + (total * width,), dtype=np.int64)
        part[..., place] = np.add.reduceat(ab, starts, axis=3) % p
        left = part.reshape(len(units), -1, total, width).transpose(0, 2, 1, 3)
        image = np.add.reduceat(dot_mod(left, p, right), first, axis=1) % p
        image = image.reshape(len(units), count, -1, vals.shape[2])
        vals[:, rows] = image[0]  # the first embedding's values, rational where the others agree
        rational[:, rows] = (image[1:] == image[0]).all(axis=0)
    np.subtract(vals, p, out=vals, where=vals > p // 2)  # balanced residues, in place
    shape = (count, a.shape[0], b.shape[0], c.shape[0])
    vals, rational = vals.reshape(shape), rational.reshape(shape)
    return (vals[0], rational[0]) if blocks is None else (vals, rational)


class CharacterTable(FrozenRecord):
    _fields = ("group", "class_reps", "class_sizes", "m", "coef", "dims")
    # coef is an array: compare tables by identity
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, group, class_reps, class_sizes, m, coef, dims):
        # coef: read-only int64 (irreps, classes, m): each value on 1, zeta_m, ..., zeta_m^(m-1)
        self.__dict__.update(group=group, class_reps=class_reps, class_sizes=class_sizes, m=m, coef=coef, dims=dims)


@lru_cache(maxsize=None)
def character_table(g: FiniteGroup) -> CharacterTable:
    """The irreducible characters of g, computed over F_p (Dixon; Schneider,
    J. Symb. Comput. 9, 1990) and lifted to int coefficients over zeta_m,
    m = exp(g).

    Order: the trivial character first, then by degree, then by the
    coefficients of the values mod Phi_exp(g).  Every self-check raises
    InvariantError.
    """
    data = conjugacy_data(g)
    reps = data.reps
    cls = np.asarray(data.class_of)
    r = len(reps)
    m = g.exponent
    p = prime_1_mod(m, 2 * math.isqrt(g.order) + 1)
    zgen = pow(primitive_root(p), (p - 1) // m, p)

    # class multiplication constants a[i, j, k]: K_i K_j = sum_k a_ijk K_k,
    # counting x in K_i with x^-1 z_k in K_j for the representative z_k
    a = np.zeros((r, r, r), dtype=np.int64)
    j = cls[g.mul_array[np.asarray(g.inv)][:, list(reps)]]
    np.add.at(a, (cls[:, None], j, np.arange(r)), 1)

    # split the full space into joint eigenspaces over F_p; (a_i)_{jk} acts
    # on columns.  Each space s is kept with rows where s[rows] = I, so the
    # restriction b of a_i (a_i s = s b) is (a_i s)[rows]: a nullspace_fp
    # basis is 1 at its free columns, and row j is 0 past its free column.
    spaces = [(np.eye(r, dtype=np.int64), np.arange(r))]
    for mi in a:
        if all(len(rows) == 1 for _, rows in spaces):
            break
        nxt = []
        for s, rows in spaces:
            if len(rows) == 1:
                nxt.append((s, rows))
                continue
            for _, ns in _eigenspaces_fp((mi @ s)[rows] % p, p):
                free = ns.shape[1] - 1 - np.argmax(ns[:, ::-1] != 0, axis=1)  # last nonzero
                nxt.append(((s @ ns.T) % p, rows[free]))
        spaces = nxt
    if len(spaces) != r or any((s[rows] != np.eye(len(rows), dtype=np.int64)).any() for s, rows in spaces):
        raise InvariantError(f"{g.name}: the class algebra did not split into {r} joint eigenlines mod {p}")

    # omega_s(K_k) normalized to omega_s(K_0) = 1; chi_s = d_s omega_s(K_k) / |K_k|
    w = np.stack([s[:, 0] for s, _ in spaces])
    w = w * np.array([pow(int(v), -1, p) for v in w[:, 0]], dtype=np.int64)[:, None] % p
    sizes = [len(c) for c in data.classes]
    inv_sizes = np.array([pow(k, -1, p) for k in sizes], dtype=np.int64)
    inv_class = cls[np.asarray(g.inv)[list(reps)]]
    denom = (w * w[:, inv_class] % p * inv_sizes % p).sum(axis=1) % p
    dims = []
    for den in denom.tolist():
        d2 = g.order * pow(den, -1, p) % p
        dims.append(next(t for t in range(1, math.isqrt(g.order) + 1) if t * t % p == d2))
    if sum(d * d for d in dims) != g.order:
        raise InvariantError(f"{g.name}: the squared character degrees do not sum to |G|")
    chi = np.array(dims, dtype=np.int64)[:, None] * w % p * inv_sizes % p
    coef = _lift(g, reps, cls, chi, dims, m, p, zgen)

    # canonical order: trivial character first, then by dimension and the
    # values' coefficients mod Phi_m, each class's phi(m) in turn
    red = coef @ reduction_matrix(m)
    trivial = (red[:, :, 0] == 1).all(axis=1) & ~red[:, :, 1:].any(axis=(1, 2))
    order = sorted(range(r), key=lambda i: (not trivial[i], dims[i], red[i].ravel().tolist()))
    coef = coef[order]
    coef.setflags(write=False)
    return CharacterTable(g, reps, tuple(sizes), m, coef, tuple(dims[i] for i in order))


def _charpoly_fp(b, p):
    """det(x I - b) over F_p, coefficients low -> high (monic).

    b is first brought to upper Hessenberg form h by similarity (pivot row
    swap, then row j -= u_j row c+1 and column c+1 += u_j column j), then
    p_k = (x - h_kk) p_(k-1) - sum_(i<k) h_ik (h_(i+1,i) ... h_(k,k-1)) p_(i-1)
    on the leading k x k blocks; Cohen, A Course in Computational Algebraic
    Number Theory, Algorithm 2.2.9.  O(k^3) and independent of p.
    """
    h = np.array(b, dtype=np.int64) % p
    n = h.shape[0]
    for c in range(n - 2):
        nz = np.flatnonzero(h[c + 1:, c])
        if not len(nz):
            continue
        i = c + 1 + int(nz[0])
        if i != c + 1:
            h[[i, c + 1]] = h[[c + 1, i]]
            h[:, [i, c + 1]] = h[:, [c + 1, i]]
        u = h[c + 2:, c] * pow(int(h[c + 1, c]), -1, p) % p
        h[c + 2:] = (h[c + 2:] - u[:, None] * h[c + 1]) % p
        h[:, c + 1] = (h[:, c + 1] + dot_mod(h[:, c + 2:], p, u)) % p
    polys = [np.ones(1, dtype=np.int64)]
    for k in range(n):
        nxt = np.zeros(k + 2, dtype=np.int64)
        nxt[1:] = polys[k]
        nxt[:-1] -= h[k, k] * polys[k] % p
        t = 1
        for i in range(k - 1, -1, -1):
            t = t * int(h[i + 1, i]) % p
            if not t:
                break
            nxt[:i + 1] -= int(h[i, k]) * t % p * polys[i] % p
        polys.append(nxt % p)
    return polys[n]


def _eigenspaces_fp(b, p):
    """[(lambda, nullspace_fp(b - lambda I, p))] over the roots lambda in F_p of
    det(x I - b), ascending.  The polynomial is evaluated at all of F_p in one
    Horner pass; InvariantError if a root has no eigenvector."""
    xs = np.arange(p, dtype=np.int64)
    vals = np.zeros(p, dtype=np.int64)
    for c in _charpoly_fp(b, p)[::-1].tolist():
        vals = (vals * xs + c) % p
    out = []
    eye = np.eye(len(b), dtype=np.int64)
    for lam in np.flatnonzero(vals == 0).tolist():
        ns = nullspace_fp((b - lam * eye) % p, p)
        if not ns.shape[0]:
            raise InvariantError(f"root {lam} of the characteristic polynomial mod {p} has no eigenvector")
        out.append((lam, ns))
    return out


def _lift(g, reps, cls, chi, dims, m, p, zgen):
    """Exact character values from their images chi (characters, classes) in F_p.

    On the powers of a class representative of order o, chi_s restricts to a
    sum of o-th roots of unity; their multiplicities are one F_p DFT of the
    values on those powers, for all characters at once.  Returns the int
    coefficients (characters, classes, m) of each value on 1, zeta_m, ...,
    zeta_m^(m-1); InvariantError if a multiplicity is above the degree.
    """
    coef = np.zeros(chi.shape + (m,), dtype=np.int64)
    mul, orders = g.mul_array, g.element_orders
    dims = np.asarray(dims, dtype=np.int64)[:, None]
    for k, rep in enumerate(reps):
        o = int(orders[rep])
        powers = [0]
        for _ in range(o - 1):
            powers.append(int(mul[powers[-1], rep]))
        # dft[j, t] = zeta_o^(-j t) / o, so mult[s, t] = sum_j chi_s(rep^j) dft[j, t]
        zeta_o = pow(zgen, m // o, p)
        roots = np.array([pow(zeta_o, e, p) for e in range(o)], dtype=np.int64)
        t = np.arange(o)
        dft = roots[np.outer(t, -t) % o] * pow(o, -1, p) % p
        mult = dot_mod(chi[:, cls[powers]], p, dft)
        if (mult > dims).any():
            raise InvariantError(f"{g.name}: multiplicity lift out of range at class {k}")
        coef[:, k, t * (m // o)] = mult
    return coef


def rep_fusion_data(g):
    """Fusion data of Rep(G): labels, integer dims, sparse coefficients.

    N_{ab}^c = <chi_a chi_b, chi_c> = sum_k |K_k| chi_a chi_b conj(chi_c) / |G|
    over the classes K_k, one certified character sum.  Labels are pi0
    (trivial), pi1, ... in table order.
    """
    tab = character_table(g)
    labels = [f"pi{i}" for i in range(len(tab.dims))]
    k = np.arange(len(tab.class_reps))
    vals, rational = character_sums(tab.coef, tab.coef, tab.coef, (k, k, k, tab.class_sizes))
    coeffs, duals = fusion_coefficients(
        vals, rational, g.order, labels, "Rep(G) fusion multiplicities must be non-negative integers")
    return labels, list(tab.dims), coeffs, duals


def fusion_coefficients(vals, rational, scale, labels, message):
    """The nonzero N = vals / scale from a character sum over (labels,)*3, as
    {(i, j, k): N} in C order, and each label's dual: the one k with N[i, k, 0]
    = 1.  InvariantError(message) unless every value is rational and a
    non-negative multiple of scale, and when a label has no or several duals.
    ``vals`` is consumed: it is divided by scale in place, so that the s^3
    sums are held once."""
    if not rational.all() or (vals % scale).any() or (vals < 0).any():
        raise InvariantError(message)
    mult = np.floor_divide(vals, scale, out=vals)
    nz = np.nonzero(mult)  # in C order
    coeffs = dict(zip(zip(*(i.tolist() for i in nz)), mult[nz].tolist()))
    duals = []
    for i, label in enumerate(labels):
        partners = [k for k in range(len(labels)) if coeffs.get((i, k, 0), 0) == 1]
        if len(partners) != 1:
            raise InvariantError(f"{label} must have exactly one dual, found {len(partners)}")
        duals.append(partners[0])
    return coeffs, duals


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
    """alpha's table and N divided by their common gcd, so the trivial
    cocycle needs no extension."""
    g = math.gcd(alpha.n, int(np.gcd.reduce(alpha.table, axis=None)))
    return alpha.table // g, alpha.n // g


def projective_irrep_data(h: FiniteGroup, alpha: TorsionCocycle):
    """(dims, sections, N) for the alpha-projective irreps of h: their
    dimensions, their section characters and the N of alpha reduced by the
    gcd of its values.

    The section character of an irrep is chi((x, 0)) on the central
    extension of h by Z/N; sections is the int64 array (irreps, |h|, m) of
    its values on 1, zeta_m, ..., zeta_m^(m-1), m the exponent of that
    extension.  The values depend on alpha itself, not just the cohomology
    class.  Abelian h reads them off one lattice coset (_lattice_irreps);
    any other h splits the character table of the extension
    (_extension_irreps), which EXTENSION_ORDER_CAP bounds.
    """
    if alpha.degree != 2:
        raise ValueError("projective representations need a degree-2 cocycle")
    if alpha.group.mul != h.mul:
        raise ValueError("cocycle lives on a different group")
    ok, wit = is_cocycle(alpha)
    if not ok:
        raise ValueError("alpha is not a 2-cocycle: coboundary nonzero at triple ({}, {}, {})".format(*wit))
    return (_lattice_irreps if h.is_abelian else _extension_irreps)(h, alpha)


def _extension_irreps(h, alpha):
    """projective_irrep_data from character tables: of h itself when alpha
    reduces to N = 1, else of its central extension, keeping the irreps on
    which (e, 1) acts by zeta_N, in table order."""
    a, n_red = _reduce_cocycle(alpha)
    if n_red == 1:
        tab = character_table(h)
        return tab.dims, tab.coef[:, np.asarray(conjugacy_data(h).class_of)], 1
    cells = np.argwhere(a)
    ext = central_extension(h, dict(zip(map(tuple, cells.tolist()), a[tuple(cells.T)].tolist())), n_red)
    tab = character_table(ext)
    cls = np.asarray(conjugacy_data(ext).class_of)
    dims = np.array(tab.dims, dtype=np.int64)
    # (e, 1) has index 1, and acts by d zeta_N = d zeta_m^(m / N); (x, 0) has index x N
    keep = np.flatnonzero(tab.coef[:, cls[1], tab.m // n_red] == dims)
    if (dims[keep] ** 2).sum() != h.order:
        raise InvariantError(f"{h.name}: twisted algebra dimension check failed")
    return tuple(dims[keep].tolist()), tab.coef[np.ix_(keep, cls[::n_red])], n_red


def _lattice_irreps(h, alpha):
    """projective_irrep_data for abelian h, with no extension and no table.

    With alpha reduced mod N, the radical R = {x : alpha(x, y) = alpha(y, x)
    for all y} lifts to the centre of the extension.  Every irrep has the
    same dimension d, d^2 |R| = |H|, and section d zeta_M^phi(x) on R and 0
    off it, for phi one of the |R| solutions of d^1 phi = (M / N) alpha on
    R mod M: one lattice_points coset.  M is the exponent of the extension:
    the lcm of N, the order of its central (e, 1), and of the orders
    ord(x) N / gcd(N, s_x) of its elements (x, 0), where (x, 0)^ord(x) =
    (e, s_x) with s_x = sum_{i=1}^{ord(x)-1} alpha(x^i, x).  Every (x, a)
    is (x, 0)(e, a), a product of commuting elements, so no other order
    adds to it; and N divides M, so M / N is exact even when every s_x is
    0 mod N.

    The irreps come in the order of _extension_irreps: by the coefficients
    mod Phi_M of the sections over h in element order, with the trivial
    character first when N = 1.
    """
    a, n = _reduce_cocycle(alpha)
    radical = np.flatnonzero((a == a.T).all(axis=1))
    d = math.isqrt(h.order // len(radical))
    if d * d * len(radical) != h.order:
        raise InvariantError(f"{h.name}: |H| / |R| = {h.order} / {len(radical)} is not a square")
    orders, xs = h.element_orders, np.arange(h.order)
    power, s = xs, np.zeros(h.order, dtype=np.int64)
    for i in range(1, int(orders.max())):
        s += np.where(orders > i, a[power, xs], 0)
        power = h.mul_array[power, xs]
    m = math.lcm(n, int(np.lcm.reduce(orders * n // np.gcd(s, n))))
    r = h if len(radical) == h.order else subgroup(h, radical.tolist())[0]
    inner = radical[1:]
    rhs = (m // n) * a[np.ix_(inner, inner)].reshape(-1, 1)
    _, sols = lattice_points(bar_matrix(r, 1), m, rhs)
    if len(sols) != len(radical):
        raise InvariantError(f"{h.name}: {len(sols)} characters on the radical, not {len(radical)}")
    phis = np.hstack([np.zeros((len(sols), 1), dtype=np.int64), sols])  # phi(e) = 0
    # every section is 0 off R and d zeta_M^phi on it, so its coefficients
    # mod Phi_M over h order the irreps as those of phi over R do
    keys = reduction_matrix(m)[phis].reshape(len(phis), -1)
    trivial = (n == 1) & ~phis.any(axis=1)
    order = sorted(range(len(phis)), key=lambda i: (not trivial[i], keys[i].tolist()))
    sections = np.zeros((len(phis), h.order, m), dtype=np.int64)
    sections[np.arange(len(phis))[:, None], radical, phis[order]] = d
    return (d,) * len(phis), sections, n


def projective_irrep_dims(h: FiniteGroup, alpha: TorsionCocycle):
    """Multiset (sorted list) of alpha-projective irreducible dimensions."""
    dims = sorted(projective_irrep_data(h, alpha)[0])
    if sum(d * d for d in dims) != h.order:
        raise InvariantError(f"{h.name}: projective irreducible dimensions do not square-sum to |H|")
    return dims
