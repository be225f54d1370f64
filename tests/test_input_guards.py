"""Bad input fails fast with a ``ValueError`` that names the problem."""

import numpy as np
import pytest

from liesplit.constraints import symbolic_log
from liesplit.free_algebra import make_alphabet
from liesplit.hall import build_hall_basis, witt_dimension
from liesplit.schemes import build_scheme, epsilon, log_scheme, verify_order, yoshida_recursive
from liesplit.validate import GeneratorSet, build_generators, scaling_fit

_SL3 = build_scheme(2, "SL", 3)  # the leapfrog: no free slot, params {}
_EYE = np.eye(2)

GUARDS = {
    "symbolic_log-p0": (lambda: symbolic_log(_SL3, 0), "need p >= 1"),
    "log_scheme-D0": (lambda: log_scheme(_SL3, {}, 0), "need D >= 1"),
    "verify_order-p0": (lambda: verify_order(_SL3, {}, 0), "order must be >= 1"),
    "epsilon-p0": (lambda: epsilon(_SL3, {}, 0), "order must be >= 1"),
    "yoshida_recursive-q0": (lambda: yoshida_recursive(0), "need q >= 1"),
    "build_generators-n4": (lambda: build_generators("random-general", n=4),
                            "n must be 2 or 3"),
    "build_generators-dim1": (lambda: build_generators("random-general", dim=1),
                              "dim must be at least 2"),
    "scaling_fit-4-points": (
        lambda: scaling_fit(_SL3, {}, build_generators("random-general", dim=4, seed=0),
                            points=4),
        "at least five grid points"),
    "GeneratorSet-missing-matrix": (lambda: GeneratorSet(2, 2, (_EYE,), "custom", None),
                                    "one matrix per term"),
    "GeneratorSet-mismatched-shapes": (
        lambda: GeneratorSet(2, 2, (_EYE, np.eye(3)), "custom", None), "dim x dim"),
    "make_alphabet-degree-count": (lambda: make_alphabet("AB", [1]), "equal length"),
    "make_alphabet-degree-0": (lambda: make_alphabet("AB", [1, 0]), "degrees must be >= 1"),
    "build_hall_basis-D0": (lambda: build_hall_basis(make_alphabet("AB"), 0), "D must be >= 1"),
    "witt_dimension-n0": (lambda: witt_dimension(0, 1), "n >= 1 and k >= 1"),
}


@pytest.mark.parametrize("name", sorted(GUARDS))
def test_bad_input_raises_value_error(name):
    call, message = GUARDS[name]
    with pytest.raises(ValueError, match=message):
        call()
