import decimal
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cyc_oracle import Cyc, rref
from gxcat import cyclo
from gxcat.cyclo import cyclotomic_poly
from gxcat.exact import CertReal, QuadReal, factorize, scalar_eq, squarefree_split
from gxcat.snf import (
    dot_mod,
    invariant_factor_chain,
    kernel_mod,
    nullspace_fp,
    snf_mod,
    solution_lattice,
    solve_mod,
)

# near 2**31 and divisible by 1..16, so the small invariant factors of the
# tests survive reduction mod M
NEAR_2_31 = (2**31 - 1) // 720720 * 720720


class TestQuadReal:
    def test_golden_ratio(self):
        phi = QuadReal.root_of(1, 1)
        assert phi * phi == phi + 1
        assert abs(float(phi) - (1 + math.sqrt(5)) / 2) < 1e-14

    def test_sqrt2(self):
        r = QuadReal.sqrt_int(2)
        assert r * r == QuadReal(2)
        assert QuadReal.sqrt_int(8) == QuadReal(0, 2, 2)

    def test_field_ops(self):
        a = QuadReal(Fraction(1, 2), Fraction(3, 2), 5)
        b = QuadReal(2, -1, 5)
        assert (a + b) - b == a
        assert (a * b) / b == a

    def test_sign(self):
        assert QuadReal(1, -1, 2).sign() < 0  # 1 - sqrt(2) < 0
        assert QuadReal(3, -2, 2).sign() > 0  # 3 - 2 sqrt(2) > 0
        assert QuadReal(0).sign() == 0

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.fractions(min_value=-20, max_value=20, max_denominator=50), min_size=4, max_size=4),
        st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11]),
        st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11]),
    )
    def test_order_across_fields_matches_high_precision(self, coefs, m, n):
        a, b, c, d = coefs
        x, y = QuadReal(a, b, m), QuadReal(c, d, n)
        with decimal.localcontext() as ctx:
            ctx.prec = 80

            def dec(q, r):
                return decimal.Decimal(q.a.numerator) / q.a.denominator + \
                    decimal.Decimal(q.b.numerator) / q.b.denominator * decimal.Decimal(r).sqrt()

            diff = dec(x, x.m) - dec(y, y.m)
        # an exact tie shows as |diff| < 1e-70 at 80 digits
        want = 0 if abs(diff) < decimal.Decimal("1e-70") else (1 if diff > 0 else -1)
        assert (x < y) == (want < 0)
        assert (y < x) == (want > 0)
        assert (x <= y) == (want <= 0)

    def test_order_across_fields_where_floats_tie(self):
        # p^2 - 2 q^2 = 1 makes q sqrt(2) = p - 1/(2p) + ..., within float
        # rounding of p once p ~ 1e12, so the float path calls the two equal
        p, q = 3, 2
        while p < 10**12:
            p, q = 3 * p + 4 * q, 2 * p + 3 * q
        x = QuadReal(0, q, 2)
        y = QuadReal(p, Fraction(1, 10**30), 3)
        assert float(x) == float(y)
        assert x < y and not y < x
        below = QuadReal(p, Fraction(-1, 10**12), 3)  # p - 1.7e-12 < p - 1/(2p)
        assert float(below) == float(x) and below < x and not x < below

    def test_mixed_fields_demote(self):
        c = QuadReal(0, 1, 2) * QuadReal(0, 1, 5)
        assert isinstance(c, CertReal)
        assert scalar_eq(c, CertReal(math.sqrt(10), 1e-9))

    def test_json(self):
        phi = QuadReal.root_of(1, 1)
        assert phi.to_json() == {"a": 1, "b": 1, "m": 5, "den": 2}


class TestFactorize:
    N_MAX = 10**4

    def test_matches_a_sieve(self):
        least = list(range(self.N_MAX + 1))  # least prime factor
        for p in range(2, math.isqrt(self.N_MAX) + 1):
            if least[p] == p:
                for k in range(p * p, self.N_MAX + 1, p):
                    least[k] = min(least[k], p)
        for n in range(1, self.N_MAX + 1):
            want, rest = {}, n
            while rest > 1:
                want[least[rest]] = want.get(least[rest], 0) + 1
                rest //= least[rest]
            got = factorize(n)
            assert got == want and list(got) == sorted(want), n

    def test_refuses_below_one(self):
        for n in (0, -4):
            with pytest.raises(ValueError):
                factorize(n)

    def test_squarefree_split(self):
        for n in range(1, self.N_MAX + 1):
            f, m = squarefree_split(n)
            assert f * f * m == n, n
            assert all(m % (d * d) for d in range(2, math.isqrt(m) + 1)), n

    def test_zero_splits_as_zero_squared_times_one(self):
        # so a double root (discriminant 0) and the square root of 0 are exact
        assert squarefree_split(0) == (0, 1)
        assert QuadReal.root_of(2, -1) == 1
        assert QuadReal.sqrt_int(0) == 0

    def test_root_trace_is_mu_over_phi(self):
        # the trace of a primitive d-th root of unity is the sum of all of them
        for d in range(1, 301):
            units = [k for k in range(1, d + 1) if math.gcd(k, d) == 1]
            mu = round(sum(math.cos(2 * math.pi * k / d) for k in units))
            assert cyclo._root_trace(d) == Fraction(mu, len(units)), d


class TestCyc:
    def test_fourth_root(self):
        i = Cyc.root(4)
        assert i * i == Cyc.rational(-1)
        assert i * i.conj() == 1

    def test_sixth_root_identity(self):
        z = Cyc.root(6)
        # zeta_6 satisfies z^2 - z + 1 = 0
        assert z * z - z + 1 == 0

    def test_conductor_lift(self):
        assert Cyc.root(2) == Cyc.root(4, 2)
        assert Cyc.root(3) + Cyc.root(3, 2) == Cyc.rational(-1)

    def test_equal_across_conductors_collide_in_a_set(self):
        assert len({Cyc.root(4, 1), Cyc.root(8, 2)}) == 1

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(st.integers(0, 11), st.fractions(max_denominator=6), max_size=4),
        st.sampled_from([1, 2, 3, 4, 5, 6, 12]),
        st.integers(1, 4),
        st.sampled_from([2, 3, 5]),
        st.integers(-2, 2),
    )
    def test_hash_agrees_with_eq_across_conductors(self, coeffs, n, step, p, r):
        a = Cyc(n, coeffs)
        # lift to another conductor, then add r * (1 + zeta_p + ... + zeta_p^(p-1)) = 0
        b = a.lift(n * step) + sum((Cyc.root(p, j) for j in range(p)), Cyc.rational(0)) * r
        assert a == b
        assert hash(a) == hash(b)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 4, 6, 8, 12]).flatmap(lambda n: st.tuples(
            st.just(n),
            st.lists(st.fractions(max_denominator=6), min_size=n, max_size=n),
            st.lists(st.fractions(max_denominator=6), min_size=n, max_size=n),
        )),
        st.integers(-3, 3),
    )
    def test_arithmetic_matches_the_general_constructor(self, case, k):
        # Cyc(n, seq) adds seq[i] into coefficient i mod n: every result below
        # is spelled as one such sequence
        n, ca, cb = case
        a, b = Cyc(n, ca), Cyc(n, cb)
        assert (a + b).c == Cyc(n, ca + cb).c
        assert (a - b).c == Cyc(n, ca + [-v for v in cb]).c
        assert (-a).c == Cyc(n, [-v for v in ca]).c
        assert (a * k).c == Cyc(n, [v * k for v in ca]).c
        assert a.conj().c == Cyc(n, {-i: v for i, v in enumerate(ca)}).c
        assert a.lift(2 * n).c == Cyc(2 * n, {2 * i: v for i, v in enumerate(ca)}).c
        prod = [0] * (n * n)
        for i in range(n):
            for j in range(n):
                prod[n * i + (i + j) % n] = ca[i] * cb[j]  # distinct slots, = i + j mod n
        assert (a * b).c == Cyc(n, prod).c
        assert Cyc.from_ints(n, [int(v * 6) for v in ca], 6).c == Cyc(n, [Fraction(int(v * 6), 6) for v in ca]).c

    def test_gxcat_cyc_does_no_field_arithmetic(self):
        # gxcat computes on int coefficient arrays; its Cyc only prints and compares
        ops = ("__add__", "__sub__", "__mul__", "__neg__", "conj", "inv", "__rtruediv__")
        assert [op for op in ops if hasattr(cyclo.Cyc, op)] == []
        assert Cyc.root(4, 1) == cyclo.Cyc.root(8, 2) and hash(Cyc.root(4, 1)) == hash(cyclo.Cyc.root(8, 2))

    def test_inverse(self):
        z = Cyc.root(5) + Cyc.rational(2)
        assert z * z.inv() == 1

    def test_cyclotomic_poly(self):
        assert list(cyclotomic_poly(1)) == [-1, 1]
        assert list(cyclotomic_poly(2)) == [1, 1]
        assert list(cyclotomic_poly(4)) == [1, 0, 1]
        assert list(cyclotomic_poly(6)) == [1, -1, 1]


def brute_coker_invariants(mat, rows, cols):
    """Order-style oracle: invariant factors via gcds of minors."""
    import itertools

    from math import gcd

    def minors(k):
        best = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                sub = [[mat[i][j] for j in c] for i in r]
                best = gcd(best, round(np.linalg.det(np.array(sub, dtype=float))))
        return abs(best)

    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        d = minors(k)
        if d == 0:
            break
        out.append(d // prev)
        prev = d
    return [x for x in out if x != 0]


def stabilized_chain(values, modulus=None):
    """The invariant-factor chain by pairwise gcd/lcm stabilization over
    every entry, 1s included (invariant_factor_chain sets the 1s aside)."""
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
                if (vals[i], vals[j]) != (g, vals[i] // g * vals[j]):
                    vals[i], vals[j] = g, vals[i] // g * vals[j]
                    changed = True
    return sorted(vals)


# a diagonal like that of a bar differential: hundreds of 1s, a few torsion entries, zeros
UNIT_HEAVY = [1] * 290 + [2, 0, 4, 1, 6, 0, 3, 12, 8, 1, 9, 2, 5] + [1] * 200 + [0, 0, 24]


class TestSnf:
    @given(st.lists(st.sampled_from([1, 1, 1, 1, 0, -1, 2, 3, 4, 6, 8, 9, 12, 25, 36]), max_size=40),
           st.sampled_from([None, 12, 36, 720720]))
    @example(UNIT_HEAVY, None)
    @example(UNIT_HEAVY, 48)
    @example(UNIT_HEAVY, NEAR_2_31)
    @settings(max_examples=200, deadline=None)
    def test_invariant_factor_chain_matches_full_stabilization(self, values, modulus):
        got = invariant_factor_chain(values, modulus)
        assert got == stabilized_chain(values, modulus)
        assert all(b % a == 0 for a, b in zip(got, got[1:]))

    @given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3), min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_snf_z_matches_minor_gcds(self, rows):
        mat = [row[:] for row in rows]
        got = invariant_factor_chain(snf_mod(mat, NEAR_2_31)[0])
        want = brute_coker_invariants(mat, 3, 3)
        assert got == invariant_factor_chain(want, modulus=NEAR_2_31)

    @given(
        st.integers(1, 3).flatmap(lambda r: st.integers(1, 3).flatmap(
            lambda c: st.lists(st.lists(st.integers(-6, 6), min_size=c, max_size=c), min_size=r, max_size=r))),
        st.sampled_from([2, 3, 4, 6, 12, 36, 2**31 - 1]),
        st.lists(st.integers(0, 2**31), min_size=6, max_size=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_solution_lattice_against_brute_force(self, rows, m, seeds):
        mat = np.array(rows, dtype=np.int64)
        r, c = mat.shape
        # one solvable right-hand side and one arbitrary one
        rhs = np.stack([mat @ np.array(seeds[:c]) % m, np.array(seeds[3:3 + r]) % m], axis=1)
        diag, q, _ = snf_mod(mat, m)
        assert all(m % d == 0 for d in diag)
        aq = [[sum(int(mat[i, k]) * int(q[k, j]) for k in range(c)) for j in range(c)] for i in range(r)]
        for i, d in enumerate(diag):
            assert all(aq[row][i] % d == 0 for row in range(r))
        parts, gens, orders = solution_lattice(mat, m, rhs)

        def image(x):  # with Python ints: residues near 2**31 overflow int64 products
            return [sum(int(a) * int(b) for a, b in zip(row, x)) % m for row in rows]

        for part, b in zip(parts, rhs.T):
            assert part is None or image(part) == b.tolist()
        for col, order in zip(gens.T, orders):
            assert image(col) == [0] * r and not (order * col % m).any()
        if m < 2**31 - 1:
            xs = np.indices((m,) * c).reshape(c, -1)
            images = mat @ xs % m
            assert math.prod(orders) == int((~images.any(axis=0)).sum())
            solvable = [bool((images == b[:, None]).all(axis=0).any()) for b in rhs.T]
        else:
            # m is prime: sizes and solvability follow from ranks over F_m,
            # each the column count minus the nullity
            rank = c - len(nullspace_fp(mat, m))
            assert math.prod(orders) == m ** (c - rank)
            solvable = [c + 1 - len(nullspace_fp(np.column_stack([mat, b]), m)) == rank for b in rhs.T]
        assert [part is not None for part in parts] == solvable

    def test_dot_mod_near_2_31_matches_python_ints(self):
        m = 2**31 - 1
        rng = np.random.default_rng(5)
        a, b = rng.integers(0, m, (4, 50)), rng.integers(0, m, (50, 3))
        want = [[sum(int(x) * int(y) for x, y in zip(row, col)) % m for col in b.T] for row in a]
        assert dot_mod(a, m, b).tolist() == want

    def test_modulus_must_leave_products_in_int64(self):
        with pytest.raises(ValueError):
            snf_mod([[1]], 2**31)
        assert snf_mod([[1]], 2**31 - 1)[0] == [1]

    @given(
        st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
        st.sampled_from([2, 4, 6]),
        st.lists(st.integers(0, 5), min_size=3, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_solve_mod_finds_solutions(self, rows, n, x):
        mat = np.array(rows, dtype=np.int64)
        b = (mat @ np.array(x)) % n
        sol = solve_mod(mat, n, b)
        assert sol is not None
        assert np.array_equal((mat @ sol) % n, b % n)

    def test_kernel_mod(self):
        mat = np.array([[2, 0], [0, 3]], dtype=np.int64)
        gens, orders = kernel_mod(mat, 6)
        # kernel of diag(2,3) mod 6 is 3Z/6 x 2Z/6, order 6
        assert sorted(orders) == [2, 3]
        for col in gens.T:
            assert np.array_equal((mat @ col) % 6, np.zeros(2, dtype=np.int64))


def small_int_matrices(max_side=4):
    return st.integers(1, max_side).flatmap(
        lambda r: st.integers(1, max_side).flatmap(
            lambda c: st.lists(
                st.lists(st.integers(-5, 5), min_size=c, max_size=c), min_size=r, max_size=r
            )
        )
    )


class TestRref:
    @given(small_int_matrices())
    @settings(max_examples=60, deadline=None)
    def test_rank_matches_snf_diagonal(self, rows):
        red, pivots = rref([[Fraction(x) for x in row] for row in rows])
        diag = snf_mod(rows, NEAR_2_31)[0]
        assert len(pivots) == len(red) == sum(1 for d in diag if d != 0)
        for r, c in enumerate(pivots):
            assert [red[i][c] for i in range(len(red))] == [int(i == r) for i in range(len(red))]

    @given(st.integers(1, 4).flatmap(
        lambda t: st.lists(st.lists(st.integers(-5, 5), min_size=t, max_size=t), min_size=t, max_size=t)
    ))
    @settings(max_examples=60, deadline=None)
    def test_inverse_from_augmented_identity(self, rows):
        t = len(rows)
        a = [[Fraction(x) for x in row] for row in rows]
        red, pivots = rref([row + [Fraction(int(i == j)) for j in range(t)] for i, row in enumerate(a)])
        if pivots[:t] != list(range(t)):
            assert round(np.linalg.det(np.array(rows, dtype=float))) == 0
            return
        inv = [row[t:] for row in red]
        for i in range(t):
            for j in range(t):
                assert sum(a[i][k] * inv[k][j] for k in range(t)) == int(i == j)

    @given(
        st.sampled_from([1, 2, 3, 4, 5, 6, 8, 12]),
        st.lists(st.integers(-3, 3), min_size=1, max_size=12),
    )
    @settings(max_examples=40, deadline=None)
    def test_cyc_reciprocal(self, n, coeffs):
        c = Cyc(n, coeffs)
        if c.is_zero():
            with pytest.raises(ZeroDivisionError):
                1 / c
            return
        assert c * (1 / c) == 1
