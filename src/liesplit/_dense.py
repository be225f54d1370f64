"""The log of a product of exponentials, for float, exact and polynomial
coefficients alike, cheap enough for optimization loops with m ~ 100
factors at D = 7: the product is built in place on the word arrays of
``free_algebra``, each factor (one letter of a scheme, or one stage of a
graded order-condition pipeline) a right multiplication by exp(sum c_g
G_g) (``rmul_exp``).  Float coefficients run on float64 arrays in strided
vector updates; any other domain on object arrays."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from .free_algebra import Generator, NCSeries, degree_words, log, rmul_exp
from .polynomials import MultiPoly

__all__ = ["dense_product_log"]


def dense_product_log(alphabet: Sequence[Generator], max_degree: int,
                      factors: Sequence[Sequence[tuple[int, object]]]) -> NCSeries:
    """log of prod_i exp(sum_g c_ig * G_g) over ``alphabet``, truncated at
    ``max_degree``, each factor given as its ``(g, c_ig)`` pairs.  With a
    float c_ig and no polynomial one, every c_ig is taken as a float and
    the log is float64; otherwise it holds exact (``Fraction`` or
    ``MultiPoly``) coefficients."""
    degrees = tuple(g.degree for g in alphabet)
    coeffs = [c for exponent in factors for _, c in exponent]
    polys = [c for c in coeffs if isinstance(c, MultiPoly)]
    in_float = not polys and any(isinstance(c, float) for c in coeffs)
    data = {d: np.zeros(len(degree_words(degrees, d)), dtype=float if in_float else object)
            for d in range(max_degree + 1)}
    data[0][0] = 1.0 if in_float else polys[0] ** 0 if polys else Fraction(1)
    for exponent in factors:
        rmul_exp(data, degrees, exponent)
    return log(NCSeries(alphabet, max_degree, data))
