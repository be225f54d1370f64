"""Catalog of published splitting schemes with parameters and error values.

Entries collect the classical compositions (leapfrog, Euler, the
Forest-Ruth/Yoshida and Suzuki recursions, Kahan-Li, McLachlan, Omelyan et
al.) together with 1-norm-optimized parameter sets: ``opt`` marks the best
found minimum, ``opt-a`` a nearby closed-form solution, ``opt2`` a second
local minimum.  Parameters are stored as exact rationals where a closed
form exists and otherwise verbatim to all published digits; ``epsilon`` is
the published error value (None where none was reported) and ``orderings``
the Hall-basis generator orderings said to attain it (empty if
unspecified).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .schemes import (
    ParamAssignment,
    Scheme,
    build_scheme,
    ordering_str,
    se_chart_closure,
    se_chart_to_slots,
    suzuki_recursive,
    yoshida_recursive,
)

__all__ = ["CatalogEntry", "catalog"]


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    scheme: Scheme
    params: ParamAssignment
    order: int
    epsilon: object          # Fraction | float | None
    orderings: tuple[str, ...]
    notes: str = ""


_ANY2 = ()
_A_FIRST3 = ("A<B<C", "A<C<B")
_A_LATER3 = ("B<A<C", "B<C<A", "C<A<B", "C<B<A")
_ALL6 = tuple(ordering_str(p) for p in permutations("ABC"))

Fr = Fraction


def _se_params(m: int, chart: dict) -> dict:
    """Fill the dependent chart coordinate and convert to slot values."""
    scheme = build_scheme(3, "SE", m)
    dependent, expr = se_chart_closure(scheme)
    chart = dict(chart)
    chart.setdefault(dependent, expr.evaluate(chart))
    return se_chart_to_slots(scheme, chart)


def _build() -> dict[str, CatalogEntry]:
    s3 = math.sqrt(3)
    entries: list[CatalogEntry] = []

    def add(name, scheme, params, order, eps, orderings, provenance="", notes=""):
        if not isinstance(params, ParamAssignment):
            params = ParamAssignment(dict(params), provenance or "catalog")
        entries.append(CatalogEntry(name, scheme, params, order, eps,
                                    orderings, notes))

    # ---------------------------------------------------------- n = 2, p = 2
    add("n2-p2-sl-m3-leapfrog", build_scheme(2, "SL", 3), {}, 2,
        Fr(9, 32), _ANY2, provenance="Strang splitting")

    y = (2 * math.sqrt(326) - 36) ** (1 / 3)
    add("n2-p2-s-m5-mclachlan", build_scheme(2, "S", 5),
        {"a_1": (y * y + 6 * y - 2) / (12 * y)}, 2,
        0.075192, _ANY2, provenance="McLachlan (1995)")

    add("n2-p2-s-m5-opt", build_scheme(2, "S", 5),
        {"a_1": (3 - s3) / 6}, 2,
        0.069778, _ANY2, provenance="closed-form 1-norm minimum")

    # ---------------------------------------------------------- n = 2, p = 4
    sch, pa = yoshida_recursive(2)
    add("n2-p4-sl-m7-yoshida", sch, pa, 4, 0.38640, ("A<B",),
        provenance="Forest & Ruth (1990); Yoshida (1990)")

    s471 = math.sqrt(471)
    add("n2-p4-s-m9-mclachlan", build_scheme(2, "S", 9),
        {"b_1": Fr(6, 11), "a_1": (642 + s471) / 3924,
         "a_2": 121 * (12 - s471) / 3924}, 4,
        0.072483, ("B<A",), provenance="McLachlan (1995)")

    add("n2-p4-s-m9-omelyan", build_scheme(2, "S", 9),
        {"a_1": 0.1720865590295143, "b_1": 0.5915620307551568,
         "a_2": -0.1616217622107222}, 4,
        0.069248, ("B<A",), provenance="Omelyan, Mryglod & Folk (2002)",
        notes="2-norm optimum; 1-norm error value taken as published")

    add("n2-p4-s-m9-opt", build_scheme(2, "S", 9),
        {"b_1": -0.35905925216967795307, "a_1": 0.26756486526206148829,
         "a_2": -0.034180403245134195595}, 4,
        0.068161, ("B<A",), provenance="numeric 1-norm minimum")

    add("n2-p4-s-m9-opt-a", build_scheme(2, "S", 9),
        {"b_1": Fr(-1, 3), "a_1": 17 / 2 - 2.5 * math.sqrt(65 / 6),
         "a_2": 0.15 * (math.sqrt(390) - 20)}, 4,
        None, _ANY2, provenance="closed form near the numeric minimum")

    add("n2-p4-s-m9-opt2", build_scheme(2, "S", 9),
        {"b_1": 0.60417497648530223585, "a_1": 0.17285948240376668244,
         "a_2": -0.14265971252922336963}, 4,
        0.069172, ("B<A",), provenance="second local minimum")

    sch, pa = suzuki_recursive(2)
    add("n2-p4-sl-m11-suzuki", sch, pa, 4, 0.216883, ("A<B",),
        provenance="Suzuki (1990) fractal recursion")

    add("n2-p4-sl-m11-kahan-li", build_scheme(2, "SL", 11),
        {"w_1": (3 + s3) / 6, "w_2": (3 - s3) / 6}, 4,
        0.17706, ("A<B",), provenance="Kahan & Li (1997)",
        notes="mirror solution swaps w_1 and w_2")

    add("n2-p4-sl-m11-mclachlan", build_scheme(2, "SL", 11),
        {"w_1": 0.28, "w_2": 0.62546642846767004501}, 4,
        0.11155, ("A<B",), provenance="McLachlan (1995)")

    add("n2-p4-sl-m11-omelyan", build_scheme(2, "SL", 11),
        {"w_1": 0.3221375960817984, "w_2": 0.5413165481700430}, 4,
        0.13365, ("A<B",), provenance="Omelyan, Mryglod & Folk (2002)")

    add("n2-p4-sl-m11-opt", build_scheme(2, "SL", 11),
        {"w_1": 0.25686635900587695859, "w_2": 0.67762403230558747362}, 4,
        0.10509, ("A<B",), provenance="numeric 1-norm minimum")

    w1a = ((278 - 6 * math.sqrt(2145)) ** (1 / 3)
           + (278 + 6 * math.sqrt(2145)) ** (1 / 3) - 4) / 18
    add("n2-p4-sl-m11-opt-a", build_scheme(2, "SL", 11),
        {"w_1": w1a, "w_2": Fr(2, 3)}, 4,
        None, _ANY2, provenance="closed form near the numeric minimum")

    add("n2-p4-sl-m11-opt2", build_scheme(2, "SL", 11),
        {"w_1": 0.75433412633084310590, "w_2": 0.22503541239785228348}, 4,
        0.16224, ("A<B",), provenance="second local minimum")

    s19 = math.sqrt(19)
    add("n2-p4-s-m11-mclachlan", build_scheme(2, "S", 11),
        {"b_1": Fr(2, 5), "b_2": Fr(-1, 10),
         "a_1": (14 - s19) / 108, "a_2": (20 - 7 * s19) / 108}, 4,
        0.023685, ("A<B",), provenance="McLachlan (1995)")

    add("n2-p4-s-m11-opt", build_scheme(2, "S", 11),
        {"b_1": 0.42652466131587616168, "b_2": -0.12039526945509726545,
         "a_1": 0.095848502741203681182, "a_2": -0.078111158921637922695}, 4,
        0.018684, ("B<A",), provenance="numeric 1-norm minimum")

    s1125991 = math.sqrt(1125991)
    add("n2-p4-s-m11-opt-a", build_scheme(2, "S", 11),
        {"b_1": Fr(3, 7), "b_2": Fr(-3, 25),
         "a_1": 23 * (25454 - 7 * s1125991) / 4233384,
         "a_2": (91875 - 121 * s1125991) / 470376}, 4,
        0.019991, _ANY2, provenance="closed form near the numeric minimum")

    add("n2-p4-s-m11-opt2", build_scheme(2, "S", 11),
        {"b_1": 0.24759965401237406809, "b_2": -0.11679903600878927064,
         "a_1": 0.085676159176699987229, "a_2": 0.49899422969605248140}, 4,
        0.019074, ("A<B",), provenance="second local minimum")

    add("n2-p4-sl-m13-opt", build_scheme(2, "SL", 13),
        {"w_1": (4 + 2 ** (4 / 3) + 2 ** (2 / 3)) / 12,
         "w_2": -((1 + 2 ** (1 / 3)) ** 2) / 6}, 4,
        0.28728, ("A<B",), provenance="closed-form 1-norm minimum")

    add("n2-p4-s-m13-opt", build_scheme(2, "S", 13),
        {"a_2": 0.36781398298317937022, "b_2": -0.092981212295614937267,
         "a_3": -0.068212103824011730130, "a_1": 0.074319284239746906187,
         "b_1": 0.19691743001645597006}, 4,
        0.013886, ("A<B",), provenance="numeric 1-norm minimum",
        notes="published table repeats a_1's digits for b_1, which violates "
              "the order conditions; b_1 re-solved from the third-order "
              "conditions with {a_2, b_2, a_3} fixed (the root matching "
              "a_1's printed digits), restoring the published error value")

    y13 = math.sqrt(18920 * math.sqrt(14575449) - 71143921)
    add("n2-p4-s-m13-opt-a", build_scheme(2, "S", 13),
        {"a_2": Fr(7, 19), "b_2": Fr(-4, 43), "a_3": Fr(-2, 29),
         "a_1": (28509 - 4 * math.sqrt(14575449) - 3 * y13) / 142158,
         "b_1": (6487 - y13) / 28380}, 4,
        0.014704, _ANY2, provenance="closed form near the numeric minimum")

    # ---------------------------------------------------------- n = 2, p = 6
    add("n2-p6-sl-m15-yoshida", build_scheme(2, "SL", 15),
        {"w_1": 0.78451361047755726382, "w_2": 0.23557321335935813368,
         "w_3": -1.17767998417887100695}, 6,
        0.44573, ("A<B",), provenance="Yoshida (1990), numeric solution",
        notes="best of the three real solutions")

    sch, pa = yoshida_recursive(3)
    add("n2-p6-sl-m19-yoshida", sch, pa, 6, 26.18692, ("A<B",),
        provenance="Yoshida (1990) triple-jump recursion")

    add("n2-p6-sl-m19-kahan-li", build_scheme(2, "SL", 19),
        {"w_1": 0.3910302033086847882, "w_2": 0.3340372896111360175,
         "w_3": -0.70622728118756134346, "w_4": 0.081877549648059445768}, 6,
        0.22167, ("A<B",), provenance="Kahan & Li (1997)")

    add("n2-p6-sl-m19-opt", build_scheme(2, "SL", 19),
        {"w_1": 0.18793069262651671457, "w_2": 0.5553,
         "w_3": 0.12837035888423653774, "w_4": -0.84315275357471264676}, 6,
        0.17255, ("B<A",), provenance="numeric 1-norm minimum")

    add("n2-p6-sl-m23-opt", build_scheme(2, "SL", 23),
        {"w_1": 0.11246183971085248218, "w_2": 0.21955991439348897340,
         "w_3": 0.47486253551971306793, "w_4": -0.74, "w_5": 0.018}, 6,
        0.17204, ("A<B",), provenance="numeric 1-norm minimum")

    sch, pa = suzuki_recursive(3)
    add("n2-p6-sl-m51-suzuki", sch, pa, 6, 0.84749, ("B<A",),
        provenance="Suzuki (1990) fractal recursion",
        notes="irreproducible published value: this implementation gives "
              "16.9922 (A<B) and 17.4275 (B<A); the published alternative "
              "quote of 16.992 for A<B matches, but the headline 0.84749 "
              "cannot arise from any relabeling-consistent Hall basis, since "
              "the B<A coordinates of the product are the A<B coordinates of "
              "its letter swap (an identity this implementation satisfies "
              "exactly); retained as printed, so the golden-value check "
              "fails for this entry by design")

    # ---------------------------------------------------------- n = 3, p = 1
    add("n3-p1-n-m3-euler", build_scheme(3, "N", 3), {}, 1,
        Fr(9, 2), _ALL6, provenance="Lie-Trotter product")

    # ---------------------------------------------------------- n = 3, p = 2
    add("n3-p2-sl-m5-leapfrog", build_scheme(3, "SL", 5), {}, 2,
        Fr(325, 96), _A_FIRST3, provenance="Strang splitting")

    add("n3-p2-s-m9-opt", build_scheme(3, "S", 9),
        {"a_1": Fr(1, 6), "b_1": (3 - s3) / 6}, 2,
        1.0496, _A_LATER3, provenance="closed-form 1-norm minimum")

    add("n3-p2-sabc-m11-opt", build_scheme(3, "S-abc", 11),
        {"a_1": 0.098049260850570928723, "b_1": 0.20732225423860549595,
         "c_1": 0.35418178737720793097}, 2,
        2.3391, _ALL6, provenance="numeric 1-norm minimum")

    add("n3-p2-s-m11-opt", build_scheme(3, "S", 11),
        {"a_1": Fr(1, 6), "b_1": (3 - s3) / 6, "b_2": (4 * s3 - 3) / 24}, 2,
        1.3054, _A_LATER3, provenance="closed-form 1-norm minimum")

    # ---------------------------------------------------------- n = 3, p = 4
    sch, pa = yoshida_recursive(2, n=3)
    add("n3-p4-sl-m13-yoshida", sch, pa, 4, 65.721, ("A<C<B",),
        provenance="Forest & Ruth (1990); Yoshida (1990)")

    add("n3-p4-se-m17-opt", build_scheme(3, "SE", 17),
        _se_params(17, {"u": 0.17981480932806103194,
                        "r_1": -0.057483169922767706230,
                        "q_1": 0.73912878293102653974}), 4,
        15.3395, ("A<B<C",), provenance="numeric 1-norm minimum")

    s30 = math.sqrt(30)
    add("n3-p4-se-m17-opt-a", build_scheme(3, "SE", 17),
        _se_params(17, {"u": (57 - 6 * s30 - math.sqrt(231 - 36 * s30)) / 102,
                        "r_1": Fr(-1, 17),
                        "q_1": (3 + math.sqrt(231 - 36 * s30)) / 12}), 4,
        None, _ANY2, provenance="closed form near the numeric minimum")

    sch, pa = suzuki_recursive(2, n=3)
    add("n3-p4-sl-m21-suzuki", sch, pa, 4, 35.239, ("A<B<C",),
        provenance="Suzuki (1990) fractal recursion")

    add("n3-p4-sl-m21-mclachlan", build_scheme(3, "SL", 21),
        {"w_1": 0.28, "w_2": 0.62546642846767004501}, 4,
        19.479, ("A<B<C",),
        provenance="McLachlan (1995), three-term adaptation")

    add("n3-p4-sl-m21-omelyan", build_scheme(3, "SL", 21),
        {"w_1": 0.3221375960817984, "w_2": 0.5413165481700430}, 4,
        22.827, ("A<B<C",),
        provenance="Omelyan, Mryglod & Folk (2002), three-term adaptation")

    add("n3-p4-sl-m21-kahan-li", build_scheme(3, "SL", 21),
        {"w_1": (3 + s3) / 6, "w_2": (3 - s3) / 6}, 4,
        33.346, ("A<B<C",), provenance="Kahan & Li (1997), three-term adaptation")

    add("n3-p4-sl-m21-opt", build_scheme(3, "SL", 21),
        {"w_1": 0.25733995540811130577, "w_2": 0.6765218865807686}, 4,
        18.968, ("A<B<C",), provenance="numeric 1-norm minimum")

    add("n3-p4-sl-m21-opt-a", build_scheme(3, "SL", 21),
        {"w_1": w1a, "w_2": Fr(2, 3)}, 4,
        None, _ANY2, provenance="closed form near the numeric minimum",
        notes="coincides with the two-term m=11 closed form")

    add("n3-p4-sl-m21-opt2", build_scheme(3, "SL", 21),
        {"w_1": 0.75433412633084310590, "w_2": 0.22503541239785228348}, 4,
        29.284, ("A<B<C",), provenance="second local minimum")

    add("n3-p4-se-m21-opt", build_scheme(3, "SE", 21),
        _se_params(21, {"u": 0.095968145884398107402,
                        "q_1": 0.43046123580897338276,
                        "r_1": -0.075403897922216340661,
                        "q_2": -0.12443549678124729963}), 4,
        3.92577, ("B<C<A",), provenance="numeric 1-norm minimum",
        notes="the published argmin label reads C<A<B, but the published "
              "error 3.92577 occurs at B<C<A (reproduced to seven digits; "
              "C<A<B gives 7.7498); the label is corrected here")

    add("n3-p4-sl-m25-opt", build_scheme(3, "SL", 25),
        {"w_1": (2 + 2 ** (-1 / 3) + 2 ** (1 / 3)) / 6,
         "w_2": -((1 + 2 ** (1 / 3)) ** 2) / 6}, 4,
        56.179, ("A<C<B",), provenance="closed-form 1-norm minimum")

    s186 = math.sqrt(186292620253182)
    add("n3-p4-se-m25-opt", build_scheme(3, "SE", 25),
        _se_params(25, {"u": Fr(657, 10000), "r_1": Fr(42, 125),
                        "r_2": Fr(-28, 625),
                        "q_1": (164817921201 - 1207 * s186) / 834300125568,
                        "q_2": (21225084384 - 2887 * s186) / 128353865472}), 4,
        3.3799, ("B<A<C",), provenance="numeric 1-norm minimum")

    # ---------------------------------------------------------- n = 3, p = 6
    add("n3-p6-sl-m29-opt", build_scheme(3, "SL", 29),
        {"w_1": 0.78451361047755726382, "w_2": 0.23557321335935813368,
         "w_3": -1.1776799841788710069}, 6,
        722.85, ("A<B<C",), provenance="Yoshida (1990), numeric solution",
        notes="best of the three real solutions")

    sch, pa = yoshida_recursive(3, n=3)
    add("n3-p6-sl-m37-yoshida", sch, pa, 6, 68024.0, ("A<B<C",),
        provenance="Yoshida (1990) triple-jump recursion")

    add("n3-p6-sl-m37-kahan-li", build_scheme(3, "SL", 37),
        {"w_1": 0.3910302033086847882, "w_2": 0.3340372896111360175,
         "w_3": -0.70622728118756134346, "w_4": 0.081877549648059445768}, 6,
        687.06, ("A<B<C",), provenance="Kahan & Li (1997), three-term adaptation")

    add("n3-p6-sl-m37-opt", build_scheme(3, "SL", 37),
        {"w_1": 0.16659349375998375835, "w_2": 0.56336178134626382570,
         "w_3": 0.14590936034821488251, "w_4": -0.852319424}, 6,
        411.08, ("A<B<C",), provenance="numeric 1-norm minimum")

    add("n3-p6-sl-m37-opt2", build_scheme(3, "SL", 37),
        {"w_1": 0.30049931385485146980, "w_2": 0.56792684581184873321,
         "w_3": -0.89703459487987352595, "w_4": 0.024808114}, 6,
        571.12, ("A<B<C",), provenance="second local minimum")

    sch, pa = suzuki_recursive(3, n=3)
    add("n3-p6-sl-m101-suzuki", sch, pa, 6, 51034.0, ("A<B<C",),
        provenance="Suzuki (1990) fractal recursion")

    result = {e.name: e for e in entries}
    assert len(result) == len(entries), "duplicate catalog names"
    return result


_CATALOG: dict[str, CatalogEntry] | None = None


def catalog() -> dict[str, CatalogEntry]:
    global _CATALOG
    if _CATALOG is None:
        _CATALOG = _build()
    return _CATALOG
