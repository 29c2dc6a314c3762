"""The integer Verlinde sum that gave the fusion ring of every twisted double
before ``gxcat.modular`` read it from induced characters, kept as an oracle.

    N_ij^k = sum over l of S_il S_jl conj(S_kl) / S_0l,  S_0l = d_l / |G|,

that is N = |G| V / (den^3 L) with V = sum over l of (L / d_l) coef_il
coef_jl conj(coef_kl), where den S = coef holds the int coefficients of S
over one zeta_M and L is the lcm of the dims d_l.  One certified
``chartab.character_sums``, over the S that ``twisted_double`` prints.  It
shares ``character_sums`` (one unphased block here, many phased blocks in
the induced fusion) and ``fusion_coefficients`` with the ring it checks, so
a fault in either can reach both; the float sum of ``dpr_oracle`` and the
frozen hashes of ``tests/data/double_frozen.json`` judge the ring without
them.
"""

import math

import numpy as np

from gxcat.chartab import character_sums, fusion_coefficients


def verlinde_fusion(double):
    """(coeffs, duals) of the Verlinde ring of a DoubleData: the sorted
    ((i, j, k), N) of its nonzero N and each simple's dual."""
    s = [v for row in double.s_matrix for v in row]
    big_m, den = math.lcm(*(v.n for v in s)), math.lcm(*(v.d for v in s))
    size = len(double.simples)
    coef = np.array([[c * (den // v.d) for c in v.lift(big_m).c] for v in s], dtype=np.int64)
    coef = coef.reshape(size, size, big_m)
    dims = np.array(double.dims, dtype=np.int64)
    big_l = math.lcm(*dims.tolist())
    cols = np.arange(size)
    vals, rational = character_sums(coef, coef, coef, (cols, cols, cols, big_l // dims))
    vals *= double.group.order
    labels = [f"({x['class_rep']};{x['irrep']})" for x in double.simples]
    coeffs, duals = fusion_coefficients(vals, rational, den**3 * big_l, labels, "Verlinde fusion is not integral")
    return tuple(sorted(coeffs.items())), tuple(duals)
