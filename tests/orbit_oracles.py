"""The pure-Python orbit, coset and character loops that ``gxcat.groups``
and ``gxcat.gauging`` replaced with ``groups.orbit_labels`` and
``snf.lattice_points``, kept as test oracles.

Each function is the former implementation with only its inputs made
explicit: conjugacy classes by one orbit loop per element, cosets by one
sorted set per unassigned element, the orbits of a permutation action by
one set per unseen point, the characters of G into Z/n by a BFS over
the abelianization from a minimal generating set, and the orbits of the
holomorphic enumeration by a closure over every move that lands on a state.
"""

import itertools

from gxcat.errors import GroupError, InvariantError
from gxcat.groups import FiniteGroup, LinearCharacter, build_group


def relabel(g, p):
    """The group g with element i renamed p[i] (p fixes the identity 0)."""
    mul = [[0] * g.order for _ in range(g.order)]
    for i in range(g.order):
        for j in range(g.order):
            mul[p[i]][p[j]] = p[g.mul[i][j]]
    return build_group({"name": g.name, "order": g.order, "mul": mul})


def orbits_loop(perms):
    """The orbits of a permutation action, each a sorted tuple, ordered by
    least member (the former ``gauging._orbits``)."""
    seen, orbits = set(), []
    for i in range(len(perms[0])):
        if i in seen:
            continue
        orb = sorted({p[i] for p in perms})
        seen.update(orb)
        orbits.append(tuple(orb))
    return orbits


def conjugacy_loop(g: FiniteGroup):
    """(classes, reps, centralizers, class_of) by the former class loop."""
    classes = orbits_loop([[g.conj(t, x) for x in g.elements()] for t in g.elements()])
    reps = tuple(c[0] for c in classes)
    cents = tuple(tuple(x for x in g.elements() if g.mul[x][r] == g.mul[r][x]) for r in reps)
    class_of = [0] * g.order
    for i, c in enumerate(classes):
        for x in c:
            class_of[x] = i
    return tuple(classes), reps, cents, tuple(class_of)


def subgroup_closure(g, gens):
    """Closure of gens under multiplication, as a sorted tuple."""
    elems, frontier = {0}, [0]
    while frontier:
        nxt = []
        for a in frontier:
            for s in gens:
                b = g.mul[a][s]
                if b not in elems:
                    elems.add(b)
                    nxt.append(b)
        frontier = nxt
    return tuple(sorted(elems))


def commutator_subgroup(g):
    comms = {g.mul[g.mul[a][b]][g.mul[g.inv[a]][g.inv[b]]] for a in g.elements() for b in g.elements()}
    return subgroup_closure(g, comms)


def quotient_loop(g, normal_elems):
    """(mul, names, cmap) of the quotient by the former coset loop."""
    nset = set(normal_elems)
    for t in g.elements():
        if any(g.conj(t, x) not in nset for x in nset):
            raise GroupError("subgroup is not normal")
    cosets, assigned = [], {}
    for x in g.elements():
        if x in assigned:
            continue
        coset = tuple(sorted({g.mul[x][h] for h in nset}))
        for y in coset:
            assigned[y] = len(cosets)
        cosets.append(coset)
    order = sorted(range(len(cosets)), key=lambda i: cosets[i][0])
    relabeled = {old: new for new, old in enumerate(order)}
    cosets = [cosets[i] for i in order]
    cmap = {x: relabeled[assigned[x]] for x in g.elements()}
    mul = [[cmap[g.mul[c1[0]][c2[0]]] for c2 in cosets] for c1 in cosets]
    names = ["e"] + [f"[{g.element_names[c[0]]}]" for c in cosets[1:]]
    return mul, names, cmap


def minimal_generators(g):
    gens, span = [], {0}
    while len(span) < g.order:
        best = max((x for x in g.elements() if x not in span), key=lambda x: (g.element_orders[x], -x))
        gens.append(best)
        span = set(subgroup_closure(g, gens))
    return gens


def characters_bfs(g, n):
    """All homomorphisms G -> Z/n by the former BFS over G/[G,G]."""
    mul, _, cmap = quotient_loop(g, commutator_subgroup(g))
    q = FiniteGroup("Gab", tuple(map(tuple, mul)), tuple(range(len(mul))))
    exp = q.exponent
    if n % exp != 0:
        raise GroupError(f"N={n} must be a multiple of the abelianization exponent {exp}")
    gens = minimal_generators(q) if q.order > 1 else []
    orders = [q.element_orders.item(x) for x in gens]
    chars = []
    for combo in itertools.product(*(range(o) for o in orders)):
        val, frontier, ok = {0: 0}, [0], True
        while frontier and ok:
            nxt = []
            for a in frontier:
                for gi, c, o in zip(gens, combo, orders):
                    b = q.mul[a][gi]
                    v = (val[a] + c * (n // o)) % n
                    if b in val:
                        if val[b] != v:
                            ok = False
                            break
                    else:
                        val[b] = v
                        nxt.append(b)
                if not ok:
                    break
            frontier = nxt
        if ok and len(val) == q.order:
            chars.append(LinearCharacter(tuple(val[cmap[x]] for x in g.elements()), n))
    chars = sorted(set(chars), key=lambda ch: ch.values)
    if len(chars) != q.order:
        raise InvariantError("character count must equal |G_ab|")
    return chars


def closure_orbits(states, shifts, perms, n):
    """(least member, size) of each orbit of the enumeration moves, by the
    closure that ``pointed.enumerate_holomorphic`` ran before it read orbits
    off gauge cosets: a move translates a state by a row of shifts (mod n)
    or gathers its columns by a row of perms, and counts only where it
    lands on a state; from each state not yet reached, in row order, the
    orbit is every state reachable by moves."""
    index = {row.tobytes(): i for i, row in enumerate(states)}
    targets = [(states + s) % n for s in shifts] + [states[:, p] for p in perms]
    adj = [[index.get(row.tobytes()) for row in t] for t in targets]
    seen, out = set(), []
    for start in range(len(states)):
        if start in seen:
            continue
        orbit, todo = {start}, [start]
        while todo:
            i = todo.pop()
            for j in (a[i] for a in adj):
                if j is not None and j not in orbit:
                    orbit.add(j)
                    todo.append(j)
        seen |= orbit
        out.append((min(orbit), len(orbit)))
    return out
