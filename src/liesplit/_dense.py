"""The log of a product of exponentials, for float, exact and polynomial
coefficients alike, cheap enough for optimization loops with m ~ 100
factors at D = 7: the product is built in place on one flat array holding
every degree's words back to back (``free_algebra.degree_offsets``), each
factor (one letter of a scheme, or one stage of a graded order-condition
pipeline) a right multiplication by exp(sum c_g G_g) (``rmul_exp``).
Every domain reads one cached plan per factor shape, the entries of every
word of its exponential, through one accumulate
(``free_algebra._accumulate``): a float64 array takes one ``np.add.at``
per factor, an object array (exact or polynomial coefficients) one
``polynomials.dot`` per target.  The log (``free_algebra.log``, one
truncated Horner sum on the same accumulate) reads the product through
its per-degree slices, as an ``NCSeries``.  Truncations of more than
``free_algebra.MAX_WORDS`` words are refused before anything is allocated."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from . import free_algebra
from .free_algebra import MAX_WORDS, Generator, NCSeries, degree_offsets, rmul_exp
from .polynomials import MultiPoly

__all__ = ["dense_product_log"]


def dense_product_log(alphabet: Sequence[Generator], max_degree: int,
                      factors: Sequence[Sequence[tuple[int, object]]]) -> NCSeries:
    """log of prod_i exp(sum_g c_ig * G_g) over ``alphabet``, truncated at
    ``max_degree``, each factor given as its ``(g, c_ig)`` pairs.  With a
    float c_ig and no polynomial one, every c_ig is taken as a float and
    the log is float64; otherwise it holds exact (``Fraction`` or
    ``MultiPoly``) coefficients.  A generator id outside ``alphabet``, a
    non-finite float c_ig or a truncation with more than ``MAX_WORDS``
    words raises ``ValueError``."""
    degrees = tuple(g.degree for g in alphabet)
    coeffs = [c for exponent in factors for _, c in exponent]
    polys = [c for c in coeffs if isinstance(c, MultiPoly)]
    in_float = not polys and any(isinstance(c, float) for c in coeffs)
    offsets = degree_offsets(degrees, max_degree)
    if offsets[-1] > MAX_WORDS:
        raise ValueError(f"truncation degree {max_degree} needs {offsets[-1]} words, "
                         f"over the limit of {MAX_WORDS}")
    flat = np.zeros(offsets[-1], dtype=float if in_float else object)
    flat[0] = 1.0 if in_float else polys[0] ** 0 if polys else Fraction(1)
    for exponent in factors:
        rmul_exp(flat, degrees, max_degree, exponent)
    # by module attribute, so that a wrapper of free_algebra.log sees the call
    return free_algebra.log(NCSeries(alphabet, max_degree,
                                     {d: flat[offsets[d]:offsets[d + 1]]
                                      for d in range(max_degree + 1)}))
