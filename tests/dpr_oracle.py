"""The fusion of a twisted double from induced characters, in complex floats.

A simple (A, alpha) of D^w(G) is a class A with representative a and alpha
a section character of C(a) for the transgressed cocycle, as
``chartab.projective_irrep_data`` gives it.  Dijkgraaf, Pasquier and Roche
(Nucl. Phys. B Proc. Suppl. 18B, 1990) give the tensor product of the
induced modules; with c the representative of C, its multiplicities are

    N_{(A,alpha),(B,beta)}^{(C,gamma)} = (1/|C(c)|) sum over h in C(c) and
        x in A with y = x^-1 c in B and hx = xh of
        zeta_n^(Gamma_h(x, y) + phi_x(h) + phi_y(h))
        alpha(t_x^-1 h t_x) beta(t_y^-1 h t_y) conj(gamma(h)),

    Gamma_h(x, y) = w(x,y,h) + w(h, h^-1 x h, h^-1 y h) - w(x, h, h^-1 y h),
    phi_x(h) = tau_x(h, t_x) - tau_x(t_x, t_x^-1 h t_x),

with t_x the least t that conjugates the representative of x's class to x
and tau_x = ``cohomology.slant`` at grade x, on all of G x G.  Neither S
nor Verlinde enters, so this judges the S of ``twisted_double``.
"""

import itertools

import numpy as np

from gxcat.chartab import projective_irrep_data
from gxcat.cohomology import TorsionCocycle, cohomology_group, slant, transgress
from gxcat.groups import conjugacy_data


def h3_classes(g):
    """Every class of H^3(G, mu_|G|) as (coefficients, cocycle): the sums of
    the representatives with each coefficient below its generator's order."""
    h = cohomology_group(g, 3, g.order)
    for ks in itertools.product(*(range(o) for o in h.generator_orders)):
        yield ks, h3_class(g, g.order, ks)


def h3_class(g, n, coefficients):
    """The cocycle sum of coefficient times representative of H^3(G, mu_n)."""
    reps = cohomology_group(g, 3, n).representatives
    table = sum((k * r.table for k, r in zip(coefficients, reps)), np.zeros((g.order,) * 3, dtype=np.int64))
    return TorsionCocycle.from_table(g, 3, n, table)


def dpr_fusion(g, omega):
    """N[i, j, k] over the simples of ``twisted_double(g, omega)``, in its
    order, as complex floats."""
    data = conjugacy_data(g)
    n, w, mul, conj, inv = omega.n, omega.table, g.mul_array, g.conj_array, np.asarray(g.inv)
    chars = []  # per class: (irreps, |G|) section values, 0 off the centralizer
    for rep in data.reps:
        tau, _, embed = transgress(omega, rep)
        _, sections, _ = projective_irrep_data(tau.group, tau)
        m = sections.shape[-1]
        values = np.zeros((len(sections), g.order), dtype=complex)
        values[:, embed] = sections @ np.exp(2j * np.pi * np.arange(m) / m)
        chars.append(values)
    transport = np.array([min(t for t in g.elements() if conj[t, data.reps[data.class_of[x]]] == x)
                          for x in g.elements()])
    offsets = np.cumsum([0] + [len(c) for c in chars])
    out = np.zeros((offsets[-1],) * 3, dtype=complex)
    for ca, cb, cc in itertools.product(range(len(chars)), repeat=3):
        c = data.reps[cc]
        terms = [(x, h) for x in data.classes[ca] if data.class_of[mul[inv[x], c]] == cb
                 for h in g.elements() if mul[h, c] == mul[c, h] and mul[h, x] == mul[x, h]]
        if not terms:
            continue
        x, h = np.array(terms, dtype=np.int64).T
        y, tx = mul[inv[x], c], transport[x]
        ty = transport[y]
        phi_x = slant(omega, x, h, tx) - slant(omega, x, tx, conj[inv[tx], h])
        phi_y = slant(omega, y, h, ty) - slant(omega, y, ty, conj[inv[ty], h])
        gamma = w[x, y, h] + w[h, x, y] - w[x, h, y]  # h commutes with x and y
        phase = np.exp(2j * np.pi * (gamma + phi_x + phi_y) / n)
        block = np.einsum("t,it,jt,kt->ijk", phase, chars[ca][:, conj[inv[tx], h]],
                          chars[cb][:, conj[inv[ty], h]], chars[cc][:, h].conj())
        out[offsets[ca]:offsets[ca + 1], offsets[cb]:offsets[cb + 1], offsets[cc]:offsets[cc + 1]] = \
            block / np.count_nonzero(mul[:, c] == mul[c, :])
    return out
