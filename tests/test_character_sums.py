"""The certified F_p character-sum kernel and the invariant checks built on it."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

import gxcat.chartab as chartab
import gxcat.pointed as pointed
from cyc_oracle import reduced_by_division
from gxcat.chartab import character_sums, fusion_coefficients, prime_1_mod, primitive_root, rep_fusion_data
from gxcat.cohomology import ResourceLimit, TorsionCocycle
from gxcat.corpus import load_entry
from gxcat.cyclo import Cyc, cyclotomic_poly, reduction_bound
from gxcat.groups import InvariantError, symmetric

CONDUCTORS = [1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 16, 24]


def _one(m):
    t = np.zeros((1, 1, m), dtype=np.int64)
    t[0, 0, 0] = 1
    return t


def _rational_combination(rng, m, value, spread, rounds):
    """Coefficients over zeta_m of `value` plus random multiples of zeta_m^j times
    the sum of all d-th roots of unity (d | m, d > 1), each of which is 0."""
    coef = np.zeros(m, dtype=np.int64)
    coef[0] = value
    for d in [d for d in range(2, m + 1) if m % d == 0]:
        for _ in range(rounds):
            c, j = rng.randint(-spread, spread), rng.randrange(m)
            for i in range(d):
                coef[(j + i * (m // d)) % m] += c
    return coef


@pytest.mark.parametrize("m", CONDUCTORS)
def test_rational_combinations_come_back_exact(m):
    rng = random.Random(m)
    values = [rng.randint(-50, 50) for _ in range(4)]
    table = np.stack([_rational_combination(rng, m, v, 20, 3) for v in values]).reshape(4, 1, m)
    got, rational = character_sums(table, _one(m), _one(m), ([0], [0], [0], [1]))
    assert rational.all() and got[:, 0, 0].tolist() == values
    # weighted products of three values, the last conjugated; smaller
    # coefficients keep the cubed bound below 2**31
    values = [rng.randint(-5, 5) for _ in range(4)]
    flat = np.stack([_rational_combination(rng, m, v, 1, 1) for v in values]).reshape(1, 4, m)
    u = [rng.randrange(4) for _ in range(6)]
    v = [rng.randrange(4) for _ in range(6)]
    x = [rng.randrange(4) for _ in range(6)]
    w = [rng.randint(1, 5) for _ in range(6)]
    got, rational = character_sums(flat, flat, flat, (u, v, x, w))
    want = sum(wt * values[i] * values[j] * values[k] for i, j, k, wt in zip(u, v, x, w))
    assert rational.all() and int(got[0, 0, 0]) == want


def test_a_root_of_unity_alone_is_not_rational():
    zeta3 = np.zeros((1, 1, 3), dtype=np.int64)
    zeta3[0, 0, 1] = 1
    _, rational = character_sums(zeta3, _one(3), _one(3), ([0], [0], [0], [1]))
    assert not rational.any()
    # zeta_3 conj(zeta_3) = 1 is rational
    got, rational = character_sums(zeta3, _one(3), zeta3, ([0], [0], [0], [1]))
    assert rational.all() and got.item() == 1


def test_bound_beyond_2_31_is_refused():
    big = np.zeros((1, 1, 4), dtype=np.int64)
    big[0, 0, 0] = 1 << 30
    with pytest.raises(ResourceLimit, match="2\\*\\*31"):
        character_sums(big, _one(4), _one(4), ([0], [0], [0], [1]))


@pytest.mark.parametrize("m", CONDUCTORS)
def test_reduction_bound_matches_polynomial_division(m):
    phi = list(cyclotomic_poly(m))
    best = 0
    for e in range(m):
        red = reduced_by_division(Cyc.root(m, e))
        best = max(best, max(abs(c) for c in red))
        assert len(red) == len(phi) - 1
    assert reduction_bound(m) == best


@pytest.mark.parametrize("m", CONDUCTORS)
def test_reduced_matches_polynomial_division(m):
    # small and int64-overflowing numerators, both sides of the guard in reduced
    rng = random.Random(m)
    for scale in (1, 1 << 62):
        for _ in range(20):
            coeffs = {rng.randrange(m): Fraction(rng.randint(-scale, scale), rng.randint(1, 12))
                      for _ in range(rng.randint(0, m))}
            v = Cyc(m, coeffs)
            assert v.reduced() == reduced_by_division(v), coeffs


def test_primitive_root_matches_brute_force_below_500():
    for p in range(2, 500):
        if any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
            continue
        brute = next(w for w in range(1, p) if len({pow(w, k, p) for k in range(1, p)}) == p - 1)
        assert primitive_root(p) == brute, p


def test_prime_search_takes_a_lower_bound():
    assert prime_1_mod(4, 1) == 5
    assert prime_1_mod(8, 18) == 41
    assert prime_1_mod(1, 3) == 3
    with pytest.raises(ResourceLimit):
        prime_1_mod(16, 1 << 31)


def _corrupt_section(monkeypatch, call, change, at_rep=False):
    """Make the double's call number `call` to projective_irrep_data return its
    last irrep with the section value at the identity changed, or at the class
    representative with at_rep.  A value is its int coefficient row over
    zeta_m; off the representative, T stays a root of unity."""
    real, real_transgress = pointed.projective_irrep_data, pointed.transgress
    calls, rep_rows = [], []

    def spy(omega, a):
        tau, cent, embed = real_transgress(omega, a)
        rep_rows.append(embed.index(a))
        return tau, cent, embed

    def corrupted(cent, tau):
        dims, sections, n = real(cent, tau)
        calls.append(cent)
        if len(calls) == call:
            sections = sections.copy()
            row = rep_rows[-1] if at_rep else 0
            sections[-1, row] = change(sections[-1, row])
        return dims, sections, n

    monkeypatch.setattr(pointed, "transgress", spy)
    monkeypatch.setattr(pointed, "projective_irrep_data", corrupted)


def _plus_one(v):
    """v + 1: one more on the coefficient of zeta_m^0."""
    v = v.copy()
    v[0] += 1
    return v


def _times_root(k):
    """v zeta_k: the coefficients rolled by m / k places."""
    def change(v):
        assert len(v) % k == 0
        return np.roll(v, len(v) // k)
    return change


@pytest.mark.parametrize("change", [_plus_one, _times_root(3)])
def test_corrupt_section_raises_on_untwisted_double(monkeypatch, change):
    s3 = symmetric(3)
    _corrupt_section(monkeypatch, 3, change)  # the class of 3-cycles
    with pytest.raises(InvariantError, match="S not unitary"):
        pointed.twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {}))


def test_corrupt_section_raises_on_pointed_double(monkeypatch):
    omega = load_entry("cocycle_Z4_h3_0")
    _corrupt_section(monkeypatch, 4, _times_root(4))
    with pytest.raises(InvariantError, match="S not unitary"):
        pointed.twisted_double(omega.group, omega)


def test_section_at_the_class_representative_must_be_a_root_of_unity(monkeypatch):
    # d zeta^t + 1 at the representative of the 3-cycles: T is not a root of unity
    s3 = symmetric(3)
    _corrupt_section(monkeypatch, 3, _plus_one, at_rep=True)
    with pytest.raises(InvariantError, match=r"T entry of \(.*;2\) is not a root of unity"):
        pointed.twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {}))


def test_verlinde_integrality_is_checked_without_unitarity(monkeypatch):
    # with the unitarity check gone, the corrupt S reaches the Verlinde sum
    s3 = symmetric(3)
    _corrupt_section(monkeypatch, 3, _plus_one)
    monkeypatch.setattr(pointed, "_check_unitary", lambda coef, den: None)
    with pytest.raises(InvariantError, match="double fusion must be a non-negative integer"):
        pointed.twisted_double(s3, TorsionCocycle.make(s3, 3, 6, {}))


def test_rep_fusion_integrality_is_checked(monkeypatch):
    # one more than a multiple of |G| in one cell: not an integer multiplicity
    real = chartab.character_sums

    def off_by_one(*args):
        vals, rational = real(*args)
        vals = vals.copy()
        vals[1, 1, 1] += 1
        return vals, rational

    monkeypatch.setattr(chartab, "character_sums", off_by_one)
    with pytest.raises(InvariantError, match="Rep\\(G\\) fusion multiplicities must be non-negative integers"):
        rep_fusion_data(symmetric(3))


def test_fusion_coefficients_reads_c_order_and_duals():
    # Z3 fusion scaled by 6: N_ij^k = 1 exactly when k = i + j mod 3
    vals = np.zeros((3, 3, 3), dtype=np.int64)
    for i in range(3):
        for j in range(3):
            vals[i, j, (i + j) % 3] = 6
    coeffs, duals = fusion_coefficients(vals, np.ones(vals.shape, dtype=bool), 6, "abc", "bad")
    assert list(coeffs) == sorted(coeffs) and len(coeffs) == 9
    assert set(coeffs.values()) == {1}
    assert duals == [0, 2, 1]
    for bad in (vals - 12, vals + 1):
        with pytest.raises(InvariantError, match="^bad$"):
            fusion_coefficients(bad, np.ones(vals.shape, dtype=bool), 6, "abc", "bad")
    with pytest.raises(InvariantError, match="^bad$"):
        fusion_coefficients(vals, vals == 0, 6, "abc", "bad")
    vals[1, 1, 0] = 6  # b now has two duals
    with pytest.raises(InvariantError, match="b must have exactly one dual, found 2"):
        fusion_coefficients(vals, np.ones(vals.shape, dtype=bool), 6, "abc", "bad")
