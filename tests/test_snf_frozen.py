"""Outputs of the Z/m elimination frozen before its pivot search and unit
steps were rewritten to touch only the rows and columns a step changes.

``tests/data/snf_frozen.json`` holds, for every case of ``cases()``, the
sha256 of ``(diag, q, c) = snf_mod(a, m, rhs)`` as computed by the kernel
that rescanned the whole remaining block for each pivot (written with
``python tests/test_snf_frozen.py > tests/data/snf_frozen.json``):

* ``bar/<G>/<k>/<m>``: ``bar_matrix(G, k)`` for every (G, k) of
  ``test_lattice_frozen.cases()``, at the cohomology modulus of H^k(G, U(1))
  and at m in {2, 3, 4, 6}, and D4 at k = 3 (2401x343);
* ``enum/<G>/<n>/...``: the systems the holomorphic enumeration solved for
  the enumerate-workload groups before it moved to orbit coordinates, built
  by the dense oracle in ``dense_hexagons.py``: the stacked ``bar_matrix(3)``
  and ``invariance_rows`` system with its zero right-hand side, the gauge
  system ``invariance @ d2`` (which the enumeration still solves), and the
  dense braid matrix with the right-hand side of every closed invariant
  associator;
* ``holo/<G>/<n>/braid``: the dense braid matrix of holo-crossed at the
  trivial associator;
* ``enum/<G>/<n>/orbit-assoc``, ``enum/<G>/<n>/orbit-braid`` and
  ``holo/<G>/<n>/orbit-braid``: the systems solved now, on orbit
  coordinates: ``bar_matrix(3)`` summed over the orbit columns, and the
  ``_braid_system`` matrix with the right-hand side of every closed
  invariant associator (or the zero one for holo); their digests were
  written by ``reference_snf_mod``;
* ``rand/<seed>/<m>/<rhs>``: seeded random matrices of at most 30x30 whose
  entries share small factors, so pivots other than +-1 occur, at moduli
  from 1 to just below 2**31, with and without right-hand sides.

``reference_snf_mod`` below is that kernel, kept as the oracle of the
hypothesis test: the two must agree bit for bit on any input.
"""

import hashlib
import json
import math
import pathlib
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_hexagons import dense_braid_system, invariance_rows
from gxcat.cohomology import TorsionCocycle, _modulus, bar_matrix
from gxcat.groups import build_group, orbit_labels
from gxcat.pointed import _braid_system, _cell_images, _conjugation_action
from gxcat.snf import snf_mod, solution_lattice
from test_lattice_frozen import cases as lattice_cases

FROZEN = pathlib.Path(__file__).parent / "data" / "snf_frozen.json"

# a composite just below 2**31 that 1..16 divide, so most pivots scale by a non-trivial unit
COMPOSITE = (2**31 - 1) // 720720 * 720720
RANDOM_MODULI = (1, 2, 4, 6, 7, 12, 360, 2**31 - 1, COMPOSITE)
ENUM_JOBS = (("Z2", 4), ("Z3", 3), ("Z3", 6), ("Z4", 2), ("Z2xZ2", 2), ("S3", 2))
# holo-crossed solves the braid system of D4 at the trivial associator only
HOLO_JOBS = (("S3", 1), ("D4", 1), ("D4", 2))


# ---------------------------------------------------------------------------
# the kernel before the rewrite: a full-block pivot scan and _clear rounds


def _ref_balanced(x, m):
    return m // 2 - (m // 2 - x) % m


def _ref_unit_for(d, g, n):
    if g == 0:
        return 1
    base = (d // g) % (n // g)
    for k in range(g + 1):
        u = base + k * (n // g)
        if math.gcd(u, n) == 1:
            return u % n
    raise ArithmeticError("unit search failed")


def _ref_swap(a, c, i, j):
    if i != j:
        a[[i, j]] = a[[j, i]]
        c[[i, j]] = c[[j, i]]


def _ref_clear(a, c, t, m):
    swapped = False
    i = t + 1
    while i < len(a):
        col = a[i:, t]
        bad = np.flatnonzero(col % a[t, t])
        end = i + int(bad[0]) if len(bad) else len(a)
        hit = i + np.flatnonzero(col[: end - i])
        if len(hit):
            f = (a[hit, t] // a[t, t])[:, None]
            a[hit, t:] = _ref_balanced(a[hit, t:] - f * a[t, t:], m)
            c[hit] = _ref_balanced(c[hit] - f * c[t], m)
        if end == len(a):
            break
        f = a[end, t] // a[t, t]
        a[end, t:] = _ref_balanced(a[end, t:] - f * a[t, t:], m)
        c[end] = _ref_balanced(c[end] - f * c[t], m)
        _ref_swap(a, c, t, end)
        swapped = True
        i = end + 1
    return swapped


def reference_snf_mod(a, m, rhs=None):
    a = _ref_balanced(np.array(a, dtype=np.int64), m)
    rows, cols = a.shape
    c = _ref_balanced(np.zeros((rows, 0), dtype=np.int64) if rhs is None else np.array(rhs, dtype=np.int64), m)
    q = np.eye(cols, dtype=np.int64)
    diag = []
    for t in range(min(rows, cols)):
        size = np.abs(a[t:, t:])
        size -= 1
        at = np.argmin(size.view(np.uint64))
        if size.flat[at] < 0:
            break
        pi, pj = np.unravel_index(at, size.shape)
        _ref_swap(a, c, t, t + pi)
        _ref_swap(a.T, q.T, t, t + pj)
        while _ref_clear(a, c, t, m) | _ref_clear(a.T, q.T, t, m):
            pass
        if a[t, t] < 0:
            a[t], c[t] = -a[t], _ref_balanced(-c[t], m)
        d = int(a[t, t])
        g = math.gcd(d, m)
        if d != g:
            ui = pow(_ref_unit_for(d, g, m), -1, m)
            a[t], c[t] = _ref_balanced(a[t] * ui, m), _ref_balanced(c[t] * ui, m)
        diag.append(g)
    return diag, q % m, c % m


# ---------------------------------------------------------------------------
# the frozen cases


def digest(diag, q, c):
    h = hashlib.sha256(json.dumps([int(d) for d in diag]).encode())
    for arr in (q, c):
        arr = np.ascontiguousarray(arr, dtype=np.int64)
        h.update(json.dumps(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def random_matrix(seed):
    """A seeded matrix of at most 30x30 whose rows share factors 2, 3 or 5,
    with a few zero rows and columns and a few entries far from zero."""
    rng = np.random.default_rng(seed)
    rows, cols = (int(x) for x in rng.integers(1, 31, 2))
    a = rng.integers(-4, 5, (rows, cols)) * rng.choice([1, 2, 3, 4, 5, 6, 10], (rows, 1))
    a[rng.random((rows, cols)) < 0.3] = 0
    a[rng.random(rows) < 0.1] = 0
    a[:, rng.random(cols) < 0.1] = 0
    big = rng.random((rows, cols)) < 0.05
    a[big] = rng.integers(-2**31, 2**31, int(big.sum()))
    return a


def _closed_invariant_associators(group, n, stacked):
    parts, gens, orders = solution_lattice(stacked, n, np.zeros((stacked.shape[0], 1), dtype=np.int64))
    if math.prod(orders) > 1 << 12:
        raise ValueError("too many associators for a fixture case")
    offsets = gens @ np.indices(orders).reshape(len(orders), math.prod(orders))
    vecs = sorted(set(map(tuple, ((parts[0][:, None] + offsets) % n).T.tolist())))
    return [TorsionCocycle.from_vector(group, 3, n, v).table.ravel() for v in vecs]


@lru_cache(maxsize=None)
def cases():
    """(key, thunk) for every frozen case; a thunk returns (a, m, rhs)."""
    out = []
    for name, k in lattice_cases():
        g = build_group(name)
        for m in (_modulus(g, g.order), 2, 3, 4, 6):
            out.append((f"bar/{name}/{k}/{m}", lambda g=g, k=k, m=m: (bar_matrix(g, k), m, None)))
    g = build_group("D4")
    out.append((f"bar/D4/3/{_modulus(g, g.order)}", lambda g=g: (bar_matrix(g, 3), _modulus(g, g.order), None)))
    for name, n in ENUM_JOBS:
        out += _enum_cases(name, n)
    for name, n in HOLO_JOBS:
        out.append((f"holo/{name}/{n}/braid", lambda name=name, n=n: _trivial_braid(name, n)))
        out.append((f"holo/{name}/{n}/orbit-braid", lambda name=name, n=n: _trivial_braid(name, n, orbit=True)))
    for seed in range(12):
        for m in RANDOM_MODULI:
            out.append((f"rand/{seed}/{m}/none", lambda seed=seed, m=m: (random_matrix(seed), m, None)))
            out.append((f"rand/{seed}/{m}/rhs", lambda seed=seed, m=m: _with_rhs(seed, m)))
    return tuple(out)


def _with_rhs(seed, m):
    a = random_matrix(seed)
    rhs = np.random.default_rng(1000 + seed).integers(-3 * m, 3 * m, (a.shape[0], 3))
    return a, m, rhs


def _trivial_braid(name, n, orbit=False):
    g = build_group(name)
    deg, action = tuple(g.elements()), _conjugation_action(g)
    amat = _braid_system(g, deg, action)[0] if orbit else dense_braid_system(g, g, deg, action)[0]
    return amat, n, np.zeros((len(amat), 1), dtype=np.int64)


def _enum_cases(name, n):
    g = build_group(name)
    action = _conjugation_action(g)

    def stacked():
        return np.vstack([bar_matrix(g, 3), invariance_rows(g, 3, action)])

    def stacked_system():
        mat = stacked()
        return mat, n, np.zeros((len(mat), 1), dtype=np.int64)

    def gauge():
        invariance = invariance_rows(g, 3, action)
        return invariance @ bar_matrix(g, 2) % n, n, None

    def braid():
        amat, rmat = dense_braid_system(g, g, tuple(g.elements()), action)
        tables = np.array(_closed_invariant_associators(g, n, stacked()), dtype=np.int64)
        return amat, n, rmat @ tables.reshape(len(tables), -1).T % n

    def orbit_assoc():
        labels, reps = orbit_labels(_cell_images(action, 3))
        mat = bar_matrix(g, 3) @ np.eye(len(reps), dtype=np.int64)[labels]
        return mat, n, np.zeros((len(mat), 1), dtype=np.int64)

    def orbit_braid():
        amat, _, cells = _braid_system(g, tuple(g.elements()), action)
        flat = np.array(_closed_invariant_associators(g, n, stacked()), dtype=np.int64).reshape(-1, g.order**3).T
        return amat, n, (flat[cells[0]] - flat[cells[1]] + flat[cells[2]]) % n

    out = [
        (f"enum/{name}/{n}/stacked", stacked_system),
        (f"enum/{name}/{n}/braid", braid),
        (f"enum/{name}/{n}/orbit-assoc", orbit_assoc),
        (f"enum/{name}/{n}/orbit-braid", orbit_braid),
    ]
    if len(invariance_rows(g, 3, action)):
        out.append((f"enum/{name}/{n}/gauge", gauge))
    return out


FROZEN_CASES = json.loads(FROZEN.read_text()) if FROZEN.exists() else {}


def test_case_list_matches_fixture():
    assert sorted(key for key, _ in cases()) == sorted(FROZEN_CASES)


@pytest.mark.parametrize("prefix", sorted({key.rsplit("/", 2)[0] for key in FROZEN_CASES}))
def test_matches_frozen_snf(prefix):
    got = {key: digest(*snf_mod(*thunk())) for key, thunk in cases() if key.startswith(prefix + "/")}
    want = {key: v for key, v in FROZEN_CASES.items() if key.startswith(prefix + "/")}
    assert got == want


def test_reference_matches_fixture_on_random_cases():
    for key, thunk in cases():
        if key.startswith("rand/"):
            assert digest(*reference_snf_mod(*thunk())) == FROZEN_CASES[key], key


@st.composite
def systems(draw):
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    m = draw(st.sampled_from(RANDOM_MODULI + (3, 8, 30, 2**16)))
    scale = draw(st.sampled_from([1, 2, 3, 6, 2**20]))
    entry = st.one_of(st.integers(-6, 6).map(lambda x: x * scale), st.integers(-2**31, 2**31))
    a = np.array(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))
    width = draw(st.integers(0, 2))
    rhs = None if width == 0 else np.array(
        draw(st.lists(st.lists(st.integers(-m, m), min_size=width, max_size=width), min_size=rows, max_size=rows)))
    return a.reshape(rows, cols), m, rhs


@given(systems())
@settings(max_examples=300, deadline=None)
def test_matches_reference_kernel(system):
    a, m, rhs = system
    got, want = snf_mod(a, m, rhs), reference_snf_mod(a, m, rhs)
    assert got[0] == want[0]
    assert np.array_equal(got[1], want[1]) and got[1].dtype == want[1].dtype
    assert np.array_equal(got[2], want[2]) and got[2].shape == want[2].shape


if __name__ == "__main__":
    # python tests/test_snf_frozen.py [--reference] [KEY ...] > out.json
    kernel = reference_snf_mod if "--reference" in sys.argv else snf_mod
    keys = set(sys.argv[1:]) - {"--reference"}
    now = {key: digest(*kernel(*thunk())) for key, thunk in cases() if not keys or key in keys}
    print("{\n" + ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(now.items())) + "\n}")
