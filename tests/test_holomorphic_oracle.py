"""The holomorphic enumeration of abelian groups against the classification
of braided pointed categories by quadratic forms.

For abelian G the conjugation action is trivial, so each state of
``enumerate_holomorphic(G, N)`` is a braided pointed category on G with
values in Z/N, and every 2-cochain is a gauge move.  Such categories up to
gauge are H^3_ab(G, Z/N), which Eilenberg and Mac Lane identify with
Quad(G, Z/N): the q: G -> Z/N with q(x^-1) = q(x) whose
b(x, y) = q(xy) - q(x) - q(y) is bilinear (see Joyal and Street,
"Braided tensor categories", Adv. Math. 102 (1993)); q(x) is the
self-braiding c(x, x).  The oracle lists Quad(G, Z/N) by brute force and
its orbits under Aut(G), q -> q o psi, with Aut(G) found from the images of
a minimal generating set.  Each enumerated orbit must be one Aut-orbit of
quadratic forms, read off its representative's self-braidings, every
Aut-orbit must be reached once, and each orbit holds solutions / |Quad|
states per quadratic form.
"""

import itertools

import pytest

from gxcat.groups import build_group
from gxcat.pointed import enumerate_holomorphic
from orbit_oracles import minimal_generators

CASES = [
    ("Z1", 2, 1), ("Z2", 2, 2), ("Z2", 4, 4), ("Z2", 8, 4), ("Z3", 2, 1), ("Z3", 3, 3), ("Z3", 6, 3),
    ("Z4", 2, 2), ("Z4", 4, 4), ("Z2xZ2", 2, 4), ("Z2xZ2", 4, 10),
]


def automorphisms(g):
    """Every automorphism of g as a tuple psi with psi[x] the image of x."""
    gens = minimal_generators(g) if g.order > 1 else []
    found = []
    for images in itertools.product(g.elements(), repeat=len(gens)):
        psi, frontier = {0: 0}, [0]
        while frontier and psi is not None:
            nxt = []
            for x in frontier:
                for s, t in zip(gens, images):
                    y, v = g.mul[x][s], g.mul[psi[x]][t]
                    if y not in psi:
                        psi[y] = v
                        nxt.append(y)
                    elif psi[y] != v:
                        psi = None
                        break
                if psi is None:
                    break
            frontier = nxt
        if psi is None or len(set(psi.values())) < g.order:
            continue
        psi = tuple(psi[x] for x in g.elements())
        if all(psi[g.mul[x][y]] == g.mul[psi[x]][psi[y]] for x in g.elements() for y in g.elements()):
            found.append(psi)
    return found


def quadratic_forms(g, n):
    """Quad(G, Z/N), each form as the tuple of its values."""
    forms = []
    for rest in itertools.product(range(n), repeat=g.order - 1):
        q = (0, *rest)
        b = [[(q[g.mul[x][y]] - q[x] - q[y]) % n for y in g.elements()] for x in g.elements()]
        if all(q[g.inv[x]] == q[x] for x in g.elements()) and all(
            b[g.mul[x][y]][z] == (b[x][z] + b[y][z]) % n for x in g.elements() for y in g.elements() for z in g.elements()
        ):
            forms.append(q)
    return forms


def aut_orbits(forms, auts):
    """The orbits of Aut(G) on the forms, each a frozenset."""
    seen, orbits = set(), []
    for q in forms:
        if q not in seen:
            orbit = frozenset(tuple(q[p[x]] for x in range(len(q))) for p in auts)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def test_oracle_counts_z2xz2_n4():
    g = build_group("Z2xZ2")
    assert len(automorphisms(g)) == 6
    orbits = aut_orbits(quadratic_forms(g, 4), automorphisms(g))
    assert sorted(map(len, orbits)) == [1, 1, 3, 3, 3, 3, 3, 3, 6, 6]


@pytest.mark.parametrize("name, n, count", CASES)
def test_enumeration_orbits_are_aut_orbits_of_quadratic_forms(name, n, count):
    g = build_group(name)
    forms = quadratic_forms(g, n)
    orbits = aut_orbits(forms, automorphisms(g))
    assert len(orbits) == count
    found, states = enumerate_holomorphic(g, n)
    assert len(states) % len(forms) == 0
    per_form = len(states) // len(forms)
    reached = []
    for orbit in found:
        rep = orbit["representative"]
        q = tuple(rep.b(x, x) for x in g.elements())
        (aut_orbit,) = [o for o in orbits if q in o]
        assert orbit["size"] == per_form * len(aut_orbit)
        reached.append(aut_orbit)
    assert len(reached) == len(set(reached)) == count
