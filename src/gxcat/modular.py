"""Modular data: the simples, T, S and fusion ring of a twisted quantum
double D^w(G), and the Kirillov pairing matrix of pointed crossed data.

A simple of D^w(G) is a conjugacy class A with representative a and a
section character alpha of a projective irrep of the centralizer C(a), for
the cocycle that w transgresses to at a (``cohomology.transgress``,
``chartab.projective_irrep_data``).  Every value is an int coefficient row
over one zeta_m, every sum over them is one certified
``chartab.character_sums``, and every self-check raises InvariantError.
S is the class-pair sum of Coste, Gannon and Ruelle; the fusion ring is the
tensor product of induced modules of Dijkgraaf, Pasquier and Roche, so it
needs neither S nor Verlinde.
"""

import math

import numpy as np

from . import snf
from .chartab import character_sums, fusion_coefficients, prime_1_mod, primitive_root, projective_irrep_data
from .cohomology import TorsionCocycle, is_cocycle, slant, transgress
from .cyclo import Cyc, emit, reduction_matrix
from .errors import InvariantError, Record
from .fusion import GradedFusionRing
from .groups import FiniteGroup, conjugacy_data

__all__ = ["DoubleData", "KirillovMatrix", "twisted_double", "kirillov_S"]


class DoubleData(Record):
    _fields = ("group", "n", "simples", "s_matrix", "fusion")

    def __init__(self, group, n, simples, s_matrix, fusion):
        # simples: dicts with class_rep, class_size, irrep, irrep_dim, dim, t (Cyc)
        # s_matrix: list of lists of Cyc; fusion: GradedFusionRing
        self.__dict__.update(group=group, n=n, simples=simples, s_matrix=s_matrix, fusion=fusion)

    @property
    def dims(self):
        return [s["dim"] for s in self.simples]

    def to_json(self):
        r = len(self.simples)
        cells = emit([s["t"] for s in self.simples] + [v for row in self.s_matrix for v in row])
        return {
            "group": self.group.name,
            "N": self.n,
            "simples": [dict(s, t=t) for s, t in zip(self.simples, cells)],
            "s_matrix": [cells[i:i + r] for i in range(r, len(cells), r)],
            "has_fusion_ring": True,
        }


def twisted_double(group: FiniteGroup, omega: TorsionCocycle) -> DoubleData:
    """Module data of the omega-twisted double: one simple per (conjugacy
    class, projective centralizer irrep with transgressed multiplier).

    S (_s_matrix) and the fusion ring (_induced_fusion) are computed
    exactly for every group and omega, each from the sections alone.  T
    entries are the normalized character values at the class
    representative.  Every self-check raises InvariantError.
    """
    ok, wit = is_cocycle(omega)
    if not ok:
        raise ValueError(f"omega is not closed (witness {wit})")
    g = group
    data = conjugacy_data(g)
    n = omega.n
    simples = []
    for ci, rep in enumerate(data.reps):
        tau, cent, embed = transgress(omega, rep)
        dims, sections, _ = projective_irrep_data(cent, tau)
        # rep is central in its centralizer, so each section value at rep is
        # dim zeta_m^t: dim at one exponent t and 0 at every other
        at_rep = sections[:, embed.index(rep)]
        for ii, (dim, section) in enumerate(zip(dims, sections)):
            t = int(at_rep[ii].argmax())
            if at_rep[ii, t] != dim or np.count_nonzero(at_rep[ii]) != 1:
                raise InvariantError(f"T entry of ({g.element_names[rep]};{ii}) is not a root of unity")
            simples.append({
                "class_rep": g.element_names[rep],
                "class_index": ci,
                "class_size": len(data.classes[ci]),
                "irrep": ii,
                "irrep_dim": dim,
                "dim": len(data.classes[ci]) * dim,
                "t": Cyc.root(section.shape[-1], t),
                "section": section,
                "embed": embed,
            })
    total = sum(s["dim"] ** 2 for s in simples)
    if total != g.order**2:
        raise InvariantError(f"double dimension identity failed: sum of dim^2 is {total}, not |G|^2 = {g.order**2}")

    cond, coef, den = _s_matrix(omega, data, simples)
    _check_unitary(coef, den)
    fusion = _induced_fusion(f"D({g.name})" if omega.is_zero() else f"D^w({g.name})", omega, data, simples)
    m = coef.shape[-1]
    s_matrix = [[Cyc.from_ints(c, row[j][::m // c], den) for j, c in enumerate(crow)]
                for row, crow in zip(coef.tolist(), cond.tolist())]
    public = [
        {k: s[k] for k in ("class_rep", "class_size", "irrep", "irrep_dim", "dim", "t")}
        for s in simples
    ]
    return DoubleData(g, n, public, s_matrix, fusion)


def _conductor(omega, simples):
    """The lcm of the section conductors and of the order of omega's values."""
    n = omega.n
    return math.lcm(n // math.gcd(n, int(np.gcd.reduce(omega.table, axis=None))),
                    *(s["section"].shape[-1] for s in simples))


def _lift_sections(omega, simples):
    """(m, values, pos): every section value of every simple as an int
    coefficient row over zeta_m, m the lcm of the section conductors and of
    the order of omega's values, each lifted by stride (zeta_c^e =
    zeta_m^(e m / c)), then one zero row; pos[s, x] is the row of
    section_s(x), and the zero row where x is off the centralizer and in
    the extra last row s = len(simples)."""
    g, m = omega.group, _conductor(omega, simples)
    sizes = [len(s["embed"]) for s in simples]
    values = np.zeros((sum(sizes) + 1, m), dtype=np.int64)
    offset = 0
    for s, k in zip(simples, sizes):
        values[offset:offset + k, ::m // s["section"].shape[-1]] = s["section"]
        offset += k
    pos = np.full((len(simples) + 1, g.order), offset, dtype=np.int64)
    pos[np.repeat(np.arange(len(simples)), sizes), np.concatenate([s["embed"] for s in simples])] = np.arange(offset)
    return m, values, pos


def _check_unitary(coef, den):
    """S S^dagger = I for S = coef / den, with coef (size, size, m) the int
    coefficients of den * S on 1, zeta_m, ..., zeta_m^(m-1): checked as
    (den S)(den S)^dagger = den^2 I, one certified character sum."""
    size, _, m = coef.shape
    one = np.zeros((1, 1, m), dtype=np.int64)
    one[0, 0, 0] = 1
    cols = np.arange(size)
    vals, rational = character_sums(coef, one, coef, (cols, np.zeros(size), cols, np.ones(size)))
    bad = ~rational[:, 0] | (vals[:, 0] != den * den * np.eye(size, dtype=np.int64))
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise InvariantError(f"S not unitary at ({i},{j})")


def _s_matrix(omega, data, simples):
    """S of the twisted double from the sections (Coste-Gannon-Ruelle):

        S_AB = sum over t in G with x = t b t^-1 in C(a) of
               zeta_n^e conj(theta_A(x)) conj(theta_B(t^-1 a t)) / (|C(a)| |C(b)|),
        e = p(a, x) - tau_x(a, t) + tau_x(t, t^-1 a t)

    for the class representatives a of A and b of B, with p(a, x) the phase
    w(a,x,ax) - w(a,ax,x) + w(ax,a,x) - w(a,x,a) - w(x,a,x) of the commuting
    pair and tau = cohomology.slant carrying theta_B from b to x; e is 0 when
    omega is.  The section values are the rows of _lift_sections over one
    zeta_m; for each pair of classes the sum is one integer matrix product of
    the conjugated rows, a cyclic convolution over zeta_m with each term
    turned by its e.  An entry is emitted in Q(zeta_c), c the lcm of the conductors
    of its two simples' sections and of the order of its phases, when some x
    commutes with a, and c = 1 when none does.

    Returns (cond, coef, den): the conductor c of every entry, and den * S as
    int coefficients on the powers of zeta_M, M = lcm of the conductors, with
    den the least common denominator of all coefficients.
    """
    g, n, w = omega.group, omega.n, omega.table
    m, values, pos = _lift_sections(omega, simples)
    cond = np.array([s["section"].shape[-1] for s in simples], dtype=np.int64)
    bar = values[:, -np.arange(m) % m]
    conj, inv, mul = g.conj_array, np.asarray(g.inv), g.mul_array
    klass = np.array([s["class_index"] for s in simples])
    size = np.array([len(s["embed"]) for s in simples], dtype=np.int64)
    shift = (np.arange(m) - np.arange(m)[:, None]) % m  # shift[i, e] = e - i
    raw = np.zeros((len(simples), len(simples), m), dtype=np.int64)
    entry_cond = np.ones((len(simples), len(simples)), dtype=np.int64)
    for ca, a in enumerate(data.reps):
        rows = np.flatnonzero(klass == ca)
        for cb, b in enumerate(data.reps):
            cols = np.flatnonzero(klass == cb)
            ts = np.flatnonzero(mul[a, conj[:, b]] == mul[conj[:, b], a])  # t b t^-1 in C(a)
            x, y = conj[ts, b], conj[inv[ts], a]
            ax = mul[a, x]
            e = (w[a, x, ax] - w[a, ax, x] + w[ax, a, x] - w[a, x, a] - w[x, a, x]
                 - slant(omega, x, a, ts) + slant(omega, x, ts, y)) % n
            # (rows, terms, m): each term turned by its e, zeta_n^e = zeta_m^(e m / n)
            u = bar[pos[np.ix_(rows, x)][..., None], (np.arange(m) - (e * m // n)[:, None]) % m]
            v = bar[pos[np.ix_(cols, y)]][:, :, shift]  # (cols, terms, m, m)
            terms = len(ts) * m
            num = u.reshape(len(rows), terms) @ v.transpose(1, 2, 0, 3).reshape(terms, len(cols) * m)
            raw[np.ix_(rows, cols)] = num.reshape(len(rows), len(cols), m)
            if len(ts):
                entry_cond[np.ix_(rows, cols)] = np.lcm(np.lcm.outer(cond[rows], cond[cols]),
                                                        n // math.gcd(n, int(np.gcd.reduce(e))))
    raw[np.arange(m) % (m // entry_cond)[..., None] != 0] = 0  # not emitted in Q(zeta_c)
    den = np.multiply.outer(size, size)
    common = np.gcd(np.gcd.reduce(raw, axis=2), den)
    reduced = den // common
    lcd = math.lcm(*reduced.ravel().tolist())
    big_m = math.lcm(*entry_cond.ravel().tolist())
    scaled = raw // common[..., None] * (lcd // reduced)[..., None]
    return entry_cond, scaled[:, :, ::m // big_m], lcd


def _induced_fusion(name, omega, data, simples):
    """The fusion ring of the double from the tensor product of induced
    modules (Dijkgraaf, Pasquier and Roche, Nucl. Phys. B Proc. Suppl. 18B,
    1990), with c the representative of the class C:

        N_{(A,alpha),(B,beta)}^{(C,gamma)} = (1/|C(c)|) sum over h in C(c) and
            x in A with y = x^-1 c in B and hx = xh of
            zeta_n^(Gamma_h(x, y) + phi_x(h) + phi_y(h))
            alpha(t_x^-1 h t_x) beta(t_y^-1 h t_y) conj(gamma(h)),

        Gamma_h(x, y) = w(x,y,h) + w(h, h^-1 x h, h^-1 y h) - w(x, h, h^-1 y h),
        phi_x(h) = tau_x(h, t_x) - tau_x(t_x, t_x^-1 h t_x),

    with t_x the least t such that t r t^-1 = x for the representative r of
    x's class, and tau_x = cohomology.slant at the target grade x, on all of
    G x G.  h commutes with x and with c, so with y, and Gamma_h(x, y) =
    w(x,y,h) + w(h,x,y) - w(x,h,y).

    Each term (c, x, h) fixes the classes (C, A, B), and the terms of each
    triple make one block of one blocked character_sums, each weighted by
    L / |C(c)|, L the lcm of the centralizer orders, times its phase
    zeta_n^e = zeta_m^(e m / n).  The rows of the sum are slots: the i-th
    row of alpha, beta and gamma is the i-th irrep of the term's class,
    read on the columns (A, k), k in C(a), of one table (0 past the class's
    last irrep), so a block holds N for every alpha, beta and gamma of its
    triple and nothing else.
    fusion_coefficients certifies that every N is a non-negative integer
    and that every simple has one dual.
    """
    g, n, w, m = omega.group, omega.n, omega.table, _conductor(omega, simples)
    conj, inv, mul = g.conj_array, np.asarray(g.inv), g.mul_array
    reps, class_of = np.asarray(data.reps), np.asarray(data.class_of)
    classes, size = len(reps), len(simples)
    count = np.bincount([s["class_index"] for s in simples], minlength=classes)  # irreps per class
    first = np.cumsum(count) - count
    embeds = [simples[f]["embed"] for f in first.tolist()]  # C(c) of each representative c
    cent = np.array([len(e) for e in embeds], dtype=np.int64)
    # slots[i, (A, k)]: the i-th irrep of class A at k in C(a), over zeta_m, and 0 past the last irrep;
    # at[A, k] is the column (A, k), and simple[A, i] the i-th irrep of A, or size past the last
    col_class, col_h = np.repeat(np.arange(classes), cent), np.concatenate(embeds)
    edges = (np.cumsum(cent) - cent).tolist()
    slots = np.zeros((int(count.max()), len(col_h), m), dtype=np.int64)
    for s in simples:
        lo = edges[s["class_index"]]
        slots[s["irrep"], lo:lo + len(s["embed"]), ::m // s["section"].shape[-1]] = s["section"]
    slot = np.arange(len(slots))
    simple = np.where(slot < count[:, None], first[:, None] + slot, size)
    at = np.zeros((classes, g.order), dtype=np.int64)
    at[col_class, col_h] = np.arange(len(col_h))
    transport = np.argmax(conj[:, reps[class_of]] == np.arange(g.order), axis=0)  # t_x

    commute = mul == mul.T
    kc, x, h = np.nonzero(commute[reps][:, None] & commute)  # h in C(c) and in C(x), by C
    y = mul[inv[x], reps[kc]]
    # phi_x(h) and phi_y(h) from one slant pair over (x, y), each t_z^-1 h t_z
    z, hz = np.concatenate([x, y]), np.concatenate([h, h])
    tz = transport[z]
    hzt = conj[inv[tz], hz]
    tau = slant(omega, z, np.stack([hz, tz]), np.stack([tz, hzt]))
    phi = tau[0] - tau[1]
    hx, hy = hzt[:len(x)], hzt[len(x):]
    e = (w[x, y, h] + w[h, x, y] - w[x, h, y] + phi[:len(x)] + phi[len(x):]) % n
    ka, kb = class_of[x], class_of[y]
    triple = (kc * classes + ka) * classes + kb
    used = np.zeros(classes**3, dtype=bool)
    used[triple] = True
    block = (np.cumsum(used) - 1)[triple]  # the triples with terms, numbered in order
    big_l = math.lcm(*cent.tolist())
    terms = at[ka, hx], at[kb, hy], at[kc, h], big_l // cent[kc], e * m // n
    part, exact = character_sums(slots, slots, slots, terms, block)
    # block (C, A, B) slot (i, j, k) is N at the i-th irrep of A, j-th of B and k-th of C, when each is one
    triples = np.flatnonzero(used)
    ta, tb, tc = simple[triples // classes % classes], simple[triples % classes], simple[triples // classes**2]
    index = np.broadcast_arrays(ta[:, :, None, None], tb[:, None, :, None], tc[:, None, None, :])
    keep = (index[0] < size) & (index[1] < size) & (index[2] < size)
    index = tuple(i[keep] for i in index)
    vals = np.zeros((size,) * 3, dtype=np.int64)
    rational = np.ones(vals.shape, dtype=bool)
    vals[index], rational[index] = part[keep], exact[keep]
    del part, exact, index, keep
    labels = [f"({s['class_rep']};{s['irrep']})" for s in simples]
    coeffs, dual = fusion_coefficients(vals, rational, big_l, labels, "double fusion must be a non-negative integer")
    return GradedFusionRing.make(name, labels, 0, tuple(dual), coeffs)


# ---------------------------------------------------------------------------
# Kirillov pairing matrix


class KirillovMatrix(Record):
    _fields = ("basis", "entries", "invertible")

    def __init__(self, basis, entries, invertible):
        # basis: (object name, group element name) pairs; entries: a Cyc matrix
        self.__dict__.update(basis=basis, entries=entries, invertible=invertible)

    def to_json(self):
        return {
            "basis": [list(b) for b in self.basis],
            "entries": [emit(row) for row in self.entries],
            "invertible": self.invertible,
        }


def kirillov_S(d) -> KirillovMatrix:
    """Pairing matrix on  (+)_{x, k : action_k(x) = x} Hom(beta_k(x), x).

    The entry between basis slots (x, k) and (y, l) vanishes unless
    k = deg(y) and l = deg(x); when it survives, both crossings evaluate to
    braid scalars (over-crossing = braid, under-crossing as the action
    twist makes the loops close):

        S[(x,k),(y,l)] = zeta ^ ( braid(x, y) + braid(action_{deg x}(y), x) ).

    d is pointed crossed data, a ``pointed.PointedGXData``.  With trivial G
    this is the double-braiding matrix of the underlying braided pointed
    category.  The verdict is exact (_invertible_roots).
    """
    gam, g = d.gamma, d.group
    reduction_matrix(d.n)  # the entries are read mod Phi_N: refuse an N past the cell cap first
    basis = [(x, k) for x in gam.elements() for k in g.elements() if d.act(k, x) == x]
    expo = np.full((len(basis),) * 2, -1, dtype=np.int64)  # -1: the entry is 0
    for i, (x, k) in enumerate(basis):
        for j, (y, l) in enumerate(basis):
            if k == d.deg[y] and l == d.deg[x]:
                expo[i, j] = d.monodromy(x, y) % d.n
    entries = [[Cyc.root(d.n, e) if e >= 0 else Cyc.rational(0, d.n) for e in row] for row in expo.tolist()]
    return KirillovMatrix(
        [(gam.element_names[x], g.element_names[k]) for x, k in basis],
        entries,
        _invertible_roots(expo, d.n),
    )


def _invertible_roots(expo, n):
    """Whether the square matrix with entries zeta_n^expo (0 where expo < 0)
    is invertible over Q(zeta_n).

    Over F_p, p = 1 mod n, each embedding zeta_n -> z^k (gcd(k, n) = 1)
    reduces the matrix modulo one prime above p.  Full rank under one of
    them proves det != 0.  Rank below full under all phi(n) of them puts
    det in p Z[zeta_n], so p^phi(n) divides its norm.  By Hadamard every
    conjugate of det has |.| <= prod_i sqrt(r_i), r_i the nonzero entries
    of row i, so a nonzero det has |norm| <= (prod_i r_i)^(phi(n) / 2):
    once the primes tried satisfy (prod p)^2 > prod_i r_i, det = 0.
    """
    bound = math.prod((expo >= 0).sum(axis=1).tolist())
    units = [k for k in range(1, n + 1) if math.gcd(k, n) == 1]
    p, tried = min(math.isqrt(bound), 1 << 30), 1
    while tried * tried <= bound:
        p = prime_1_mod(n, p + 1)
        z = pow(primitive_root(p), (p - 1) // n, p)
        for k in units:
            # powers[e] = z^(k e); the trailing 0 is powers[-1]
            powers = np.array([pow(z, k * e, p) for e in range(n)] + [0], dtype=np.int64)
            if not len(snf.nullspace_fp(powers[expo], p)):
                return True
        tried *= p
    return False
