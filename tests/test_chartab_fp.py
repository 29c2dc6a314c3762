"""The F_p steps of character_table: eigenvalues from the characteristic
polynomial against the scan over every lambda in F_p, and the range check
of the cyclotomic lift."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gxcat.chartab as chartab
from gxcat.chartab import _charpoly_fp, _eigenspaces_fp, character_table
from gxcat.groups import InvariantError, symmetric
from gxcat.snf import nullspace_fp

PRIMES = [5, 7, 13, 17, 97]


def scan_eigenspaces(b, p):
    """The old eigenvalue step: a nullspace for every lambda in F_p."""
    eye = np.eye(len(b), dtype=np.int64)
    out = []
    for lam in range(p):
        ns = nullspace_fp((b - lam * eye) % p, p)
        if ns.shape[0]:
            out.append((lam, ns))
    return out


def det_mod(a, p):
    """Determinant over F_p by Python-int elimination."""
    a = [[int(v) % p for v in row] for row in a]
    n, det = len(a), 1
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det = det * a[c][c] % p
        inv = pow(a[c][c], -1, p)
        for r in range(c + 1, n):
            f = a[r][c] * inv % p
            if f:
                a[r] = [(x - f * y) % p for x, y in zip(a[r], a[c])]
    return det % p


def _unipotent_inverse(n_mat, p):
    """(I + N)^-1 = sum_j (-N)^j for a nilpotent N."""
    k = len(n_mat)
    out, term = np.eye(k, dtype=np.int64), np.eye(k, dtype=np.int64)
    for _ in range(k):
        term = -term @ n_mat % p
        out = (out + term) % p
    return out


@st.composite
def matrices(draw):
    """(b, p): random, scalar, nilpotent, repeated-root and row-swap matrices."""
    p = draw(st.sampled_from(PRIMES))
    k = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["random", "scalar", "nilpotent", "repeated", "swap"]))

    def square():
        return np.array(draw(st.lists(st.integers(0, p - 1), min_size=k * k, max_size=k * k)),
                        dtype=np.int64).reshape(k, k)

    if kind == "random":
        return square(), p
    if kind == "scalar":
        return draw(st.integers(0, p - 1)) * np.eye(k, dtype=np.int64), p
    if kind == "swap":
        if k < 3:
            k = 3
        b = square()
        b[1, 0] = 0
        b[2, 0] = draw(st.integers(1, p - 1))
        return b, p
    # nilpotent: strictly upper triangular; repeated: diagonal from at most two
    # values, with a random strictly upper part (Jordan-like blocks); both then
    # conjugated by a random (I + lower)(I + upper)
    b = np.triu(square(), 1)
    if kind == "repeated":
        values = draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=2))
        b = (b + np.diag([values[i % len(values)] for i in range(k)])) % p
    low, up = np.tril(square(), -1), np.triu(square(), 1)
    conj = (np.eye(k, dtype=np.int64) + low) @ (np.eye(k, dtype=np.int64) + up) % p
    conj_inv = _unipotent_inverse(up, p) @ _unipotent_inverse(low, p) % p
    return conj @ b % p @ conj_inv % p, p


@settings(max_examples=150, deadline=None)
@given(matrices())
def test_roots_and_nullspaces_match_the_scan(case):
    b, p = case
    got, want = _eigenspaces_fp(b, p), scan_eigenspaces(b, p)
    assert [lam for lam, _ in got] == [lam for lam, _ in want]
    for (_, ns_got), (_, ns_want) in zip(got, want):
        assert np.array_equal(ns_got, ns_want)


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_charpoly_is_det_of_x_minus_b(case):
    b, p = case
    poly = _charpoly_fp(b, p)
    k = len(b)
    assert len(poly) == k + 1 and poly[-1] == 1
    eye = np.eye(k, dtype=np.int64)
    for x in range(p):
        value = sum(int(c) * pow(x, e, p) for e, c in enumerate(poly)) % p
        assert value == det_mod(x * eye - b, p), x


def test_charpoly_of_companion_matrix():
    # companion matrix of x^3 - 2x^2 + 3x - 5: its first column is zero below
    # the subdiagonal, the last column holds the coefficients
    p = 13
    comp = np.array([[0, 0, 5], [1, 0, -3 % p], [0, 1, 2]], dtype=np.int64)
    assert _charpoly_fp(comp, p).tolist() == [(-5) % p, 3, (-2) % p, 1]


def test_out_of_range_multiplicity_raises(monkeypatch):
    real = chartab._lift

    def corrupted(g, reps, cls, chi, dims, m, p, zgen):
        chi = chi.copy()
        chi[-1, -1] = (chi[-1, -1] + 1) % p  # the last character on the 3-cycles
        return real(g, reps, cls, chi, dims, m, p, zgen)

    monkeypatch.setattr(chartab, "_lift", corrupted)
    with pytest.raises(InvariantError, match="multiplicity lift out of range"):
        character_table.__wrapped__(symmetric(3))


def test_uncorrupted_lift_passes():
    tab = character_table.__wrapped__(symmetric(3))
    assert tab.dims == (1, 1, 2)
