"""The dense hexagon solver that ``gxcat.pointed`` replaced, kept as a test oracle.

It writes the braid unknowns over every non-unit cell, adds one covariance
row per cell that each symmetry moves, holds the associator side as a dense
rows x |Gamma|^3 matrix R, and finds the closed invariant associators from
the stacked ``[bar_matrix(3); invariance_rows]`` system.  The orbit
solver in ``gxcat.pointed`` must give the same associator list and the same
sorted braid tables per associator.
"""

import math

import numpy as np

from gxcat import snf
from gxcat.cohomology import TorsionCocycle, bar_matrix
from gxcat.errors import ResourceLimit
from gxcat.snf import ENUM_STATE_CAP


def dense_solutions(mat, n, rhss, cap=ENUM_STATE_CAP):
    """Yield, for each column of rhss in turn, all solutions of mat x = rhs
    (mod n), sorted lexicographically, as tuples of ints."""
    parts, gens, orders = snf.solution_lattice(mat, n, rhss)
    total = math.prod(orders)
    offsets = None
    for part in parts:
        if part is None:
            yield []
            continue
        if total > cap:
            raise ResourceLimit(f"solution lattice has {total} points, over the enumeration cap")
        if offsets is None:
            offsets = gens @ np.indices(orders).reshape(len(orders), total)
        yield sorted(set(map(tuple, ((part[:, None] + offsets) % n).T.tolist())))


def invariance_rows(g, k, perms):
    """Rows c(p(t)) - c(t) over the bar_matrix columns of degree k.

    perms are automorphisms of g (so they fix the identity), taken in
    order; within each, one row per non-identity tuple t with p(t) != t, in
    lexicographic order.  Their kernel is the cochains every p leaves fixed.
    """
    m = g.order
    cols = (m - 1) ** k
    position = np.arange(cols).reshape((m - 1,) * k)
    blocks = [np.zeros((0, cols), dtype=np.int64)]
    for p in perms:
        q = np.asarray(p)[1:] - 1
        image = position[np.ix_(*[q] * k)].ravel()
        moved = np.flatnonzero(image != np.arange(cols))
        block = np.zeros((len(moved), cols), dtype=np.int64)
        block[np.arange(len(moved)), image[moved]] += 1
        block[np.arange(len(moved)), moved] -= 1
        blocks.append(block)
    return np.vstack(blocks)


def dense_braid_system(gamma, group, deg, action):
    """Integer matrices (A, R) such that the hexagons and covariance read
    A b = R a (mod N).

    b runs over the non-unit braid cells (x, y), x, y != e, in lexicographic
    order; a is the flat associator table over Gamma^3.  Rows: the first
    hexagon at every (x, z, t), the second at every (x, y, z), both in
    lexicographic order, then covariance for each k in G and each non-unit
    cell that action_k moves.
    """
    o = gamma.order
    mul, act = gamma.mul_array, np.asarray(action)
    by = act[np.asarray(deg)]
    x, y, z = np.indices((o, o, o)).reshape(3, -1)
    az, at, xy, yz = by[x, y], by[x, z], mul[x, y], by[y, z]
    k, cx, cy = np.indices((group.order, o - 1, o - 1)).reshape(3, -1)
    cx, cy = cx + 1, cy + 1
    moved = (act[k, cx] != cx) | (act[k, cy] != cy)
    k, cx, cy = k[moved], cx[moved], cy[moved]
    blocks = [  # (braid terms (x, y, coef), associator terms ((x, y, z), coef))
        ([(x, mul[y, z], 1), (x, y, -1), (x, z, -1)], [((x, y, z), -1), ((az, x, z), 1), ((az, at, x), -1)]),
        ([(xy, z, 1), (x, yz, -1), (y, z, -1)], [((x, y, z), 1), ((x, yz, y), -1), ((by[xy, z], x, y), 1)]),
        ([(act[k, cx], act[k, cy], 1), (cx, cy, -1)], []),
    ]
    amats, rmats = [], []
    for braid_terms, assoc_terms in blocks:
        size = len(braid_terms[0][0])
        amat = np.zeros((size, o * o), dtype=np.int64)
        rmat = np.zeros((size, o**3), dtype=np.int8)
        for p, q, coef in braid_terms:
            np.add.at(amat, (np.arange(size), p * o + q), coef)
        for cell, coef in assoc_terms:
            np.add.at(rmat, (np.arange(size), np.ravel_multi_index(cell, (o, o, o))), coef)
        amats.append(amat.reshape(size, o, o)[:, 1:, 1:].reshape(size, (o - 1) ** 2))
        rmats.append(rmat)
    return np.vstack(amats), np.vstack(rmats)


def dense_braid_rhs(gamma, system, n, assocs):
    """The right-hand sides R a mod n, one column per associator."""
    o = gamma.order
    tables = np.array([assoc.table.ravel() for assoc in assocs], dtype=np.int64).reshape(len(assocs), o**3)
    return system[1] @ tables.T % n


def dense_braid_tables(gamma, system, n, assocs, cap=ENUM_STATE_CAP):
    """Yield, for each associator in turn, the sorted braid tables that solve the system with it."""
    o = gamma.order
    for sols in dense_solutions(system[0], n, dense_braid_rhs(gamma, system, n, assocs), cap):
        tables = []
        for sol in sols:
            table = np.zeros((o, o), dtype=np.int64)
            table[1:, 1:] = np.reshape(sol, (o - 1, o - 1))
            tables.append(tuple(map(tuple, table.tolist())))
        yield tables


def dense_invariant_system(group, action):
    """The stacked ``[bar_matrix(3); invariance_rows(3)]`` matrix: its kernel
    mod n is the closed invariant 3-cochains."""
    return np.vstack([bar_matrix(group, 3), invariance_rows(group, 3, action)])


def dense_invariant_associators(group, action, n, cap=ENUM_STATE_CAP):
    """The closed invariant associator vectors mod n, sorted, as tuples."""
    mat = dense_invariant_system(group, action)
    (vectors,) = dense_solutions(mat, n, np.zeros((len(mat), 1), dtype=np.int64), cap)
    return vectors


def cocycles(group, n, vectors):
    return [TorsionCocycle.from_vector(group, 3, n, v) for v in vectors]
