"""The float log of a product of generator exponentials, cheap enough for
optimization loops with m ~ 100 factors at D = 7: the product is built in
place on the word arrays of ``free_algebra``, each factor a right
multiplication by exp(c*G) in strided vector updates."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .free_algebra import NCSeries, log, make_alphabet, rmul_exp

__all__ = ["dense_product_log"]


def dense_product_log(n: int, max_degree: int,
                      factors: Sequence[tuple[int, float]]) -> list[np.ndarray]:
    """log of prod_i exp(c_i * G_{g_i}) over n unit-degree generators, one
    float array per degree 0..max_degree in the ``degree_words`` layout."""
    data = {d: np.zeros(n ** d) for d in range(max_degree + 1)}
    data[0][0] = 1.0
    for g, c in factors:
        rmul_exp(data, (1,) * n, g, float(c))
    series = log(NCSeries(make_alphabet([f"X{g}" for g in range(n)]), max_degree, data))
    return [series.array(d) for d in range(max_degree + 1)]
