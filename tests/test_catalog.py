"""Catalog integrity and reproduction of published error values."""

import dataclasses
import re
from fractions import Fraction

import pytest

from liesplit.catalog import CatalogEntry, catalog
from liesplit.schemes import (
    epsilon,
    ordering_str,
    se_slots_to_chart,
    suzuki_recursive,
    verify_order,
    yoshida_recursive,
)

CATALOG = catalog()

# Every scheme the published tables name, one entry per parameter set.
EXPECTED_NAMES = frozenset([
    "n2-p2-sl-m3-leapfrog",
    "n2-p2-s-m5-mclachlan", "n2-p2-s-m5-opt",
    "n2-p4-sl-m7-yoshida",
    "n2-p4-s-m9-mclachlan", "n2-p4-s-m9-omelyan",
    "n2-p4-s-m9-opt", "n2-p4-s-m9-opt-a", "n2-p4-s-m9-opt2",
    "n2-p4-sl-m11-suzuki", "n2-p4-sl-m11-kahan-li",
    "n2-p4-sl-m11-mclachlan", "n2-p4-sl-m11-omelyan",
    "n2-p4-sl-m11-opt", "n2-p4-sl-m11-opt-a", "n2-p4-sl-m11-opt2",
    "n2-p4-s-m11-mclachlan",
    "n2-p4-s-m11-opt", "n2-p4-s-m11-opt-a", "n2-p4-s-m11-opt2",
    "n2-p4-sl-m13-opt", "n2-p4-s-m13-opt", "n2-p4-s-m13-opt-a",
    "n2-p6-sl-m15-yoshida", "n2-p6-sl-m19-yoshida", "n2-p6-sl-m19-kahan-li",
    "n2-p6-sl-m19-opt", "n2-p6-sl-m23-opt", "n2-p6-sl-m51-suzuki",
    "n3-p1-n-m3-euler", "n3-p2-sl-m5-leapfrog",
    "n3-p2-s-m9-opt", "n3-p2-sabc-m11-opt", "n3-p2-s-m11-opt",
    "n3-p4-sl-m13-yoshida",
    "n3-p4-se-m17-opt", "n3-p4-se-m17-opt-a",
    "n3-p4-sl-m21-suzuki", "n3-p4-sl-m21-mclachlan",
    "n3-p4-sl-m21-omelyan", "n3-p4-sl-m21-kahan-li",
    "n3-p4-sl-m21-opt", "n3-p4-sl-m21-opt-a", "n3-p4-sl-m21-opt2",
    "n3-p4-se-m21-opt", "n3-p4-sl-m25-opt", "n3-p4-se-m25-opt",
    "n3-p6-sl-m29-opt",
    "n3-p6-sl-m37-yoshida", "n3-p6-sl-m37-kahan-li",
    "n3-p6-sl-m37-opt", "n3-p6-sl-m37-opt2",
    "n3-p6-sl-m101-suzuki",
])

NAME_RE = re.compile(r"n([23])-p([1246])-(n|s|sabc|se|sl)-m(\d+)-[a-z0-9-]+")


def test_expected_names_present():
    assert set(CATALOG) == EXPECTED_NAMES
    assert len(CATALOG) == 53


@pytest.mark.parametrize("name", sorted(CATALOG), ids=str)
def test_entry_well_formed(name):
    e = CATALOG[name]
    mo = NAME_RE.fullmatch(name)
    assert mo, name
    n, p, fam, m = int(mo[1]), int(mo[2]), mo[3], int(mo[4])
    assert e.scheme.n == n
    assert e.order == p
    assert e.scheme.family.lower().replace("-", "") == fam
    assert e.scheme.m == m == len(e.scheme.factors)
    resolved = e.scheme.resolve(e.params.values)
    assert len(resolved) == m
    for letter in e.scheme.letters:
        total = e.scheme.coefficient_sum(letter).evaluate(
            e.scheme.resolve_slots(e.params.values))
        assert abs(float(total) - 1.0) < 1e-12
    for o in e.orderings:
        assert set(o.replace("<", "")) == set(e.scheme.letters[:n])


@pytest.mark.parametrize("name", sorted(CATALOG), ids=str)
def test_entry_reaches_claimed_order(name):
    e = CATALOG[name]
    ok, residuals = verify_order(e.scheme, e.params, e.order)
    assert ok, residuals


@pytest.mark.parametrize(
    "name", sorted(n for n, e in CATALOG.items() if e.epsilon is not None),
    ids=str)
def test_published_error_reproduces(name):
    e = CATALOG[name]
    rep = epsilon(e.scheme, e.params, e.order)
    if isinstance(e.epsilon, Fraction):
        assert rep.epsilon == e.epsilon
    else:
        rel = abs(float(rep.epsilon) - float(e.epsilon)) / abs(float(e.epsilon))
        assert rel <= 1e-3, (float(rep.epsilon), float(e.epsilon))
    if e.orderings:
        assert ordering_str(rep.ordering_best) in e.orderings


@pytest.mark.parametrize("name", sorted(CATALOG), ids=str)
def test_best_ordering_is_first_tied(name):
    """Orderings whose sums tie exactly differ in float by roundoff, which
    must not pick the best: it is the first tied ordering in permutation
    order, and sums apart are far apart.  Through order 4 the exact sums
    at the same parameters, read as Fractions, pick the same ordering."""
    e = CATALOG[name]
    rep = epsilon(e.scheme, e.params, e.order)
    sums = rep.sums_per_ordering
    least = min(sums.values())
    gaps = [(s - least) / least for s in sums.values()]
    assert all(g <= 1e-14 or g >= 1e-3 for g in gaps), gaps
    assert rep.ordering_best == next(o for o, g in zip(sums, gaps) if g <= 1e-14)
    if e.order <= 4 and e.params.values:
        exact = epsilon(e.scheme, {k: Fraction(v) for k, v in e.params.values.items()}, e.order)
        assert exact.ordering_best == rep.ordering_best


def test_exact_error_values_are_rational():
    assert CATALOG["n2-p2-sl-m3-leapfrog"].epsilon == Fraction(9, 32)
    assert CATALOG["n3-p1-n-m3-euler"].epsilon == Fraction(9, 2)
    assert CATALOG["n3-p2-sl-m5-leapfrog"].epsilon == Fraction(325, 96)
    e = CATALOG["n2-p2-sl-m3-leapfrog"]
    rep = epsilon(e.scheme, e.params, e.order)
    assert isinstance(rep.epsilon, Fraction)
    mags = sorted({abs(c) for _, c in rep.coeffs_per_ordering[rep.ordering_best]})
    assert mags == [Fraction(1, 24), Fraction(1, 12)]


# ------------------------------------------- pinned parameter digits


def test_pinned_digits_s_m11_opt():
    v = CATALOG["n2-p4-s-m11-opt"].params.values
    assert v["b_1"] == 0.42652466131587616168
    assert v["b_2"] == -0.12039526945509726545
    assert v["a_1"] == 0.095848502741203681182
    assert v["a_2"] == -0.078111158921637922695


def test_pinned_digits_sl_m19_opt():
    v = CATALOG["n2-p6-sl-m19-opt"].params.values
    assert v["w_1"] == 0.18793069262651671457
    assert v["w_2"] == 0.5553
    assert v["w_3"] == 0.12837035888423653774
    assert v["w_4"] == -0.84315275357471264676


def test_pinned_digits_se_m21_opt():
    e = CATALOG["n3-p4-se-m21-opt"]
    chart = se_slots_to_chart(e.scheme, e.params.values)
    assert abs(chart["u"] - 0.095968145884398107402) < 1e-16
    assert abs(chart["q_1"] - 0.43046123580897338276) < 1e-16
    assert abs(chart["r_1"] - (-0.075403897922216340661)) < 1e-16
    assert abs(chart["q_2"] - (-0.12443549678124729963)) < 1e-16


def test_pinned_value_sl_m37_opt():
    e = CATALOG["n3-p6-sl-m37-opt"]
    assert e.epsilon == 411.08
    assert e.orderings == ("A<B<C",)


def test_recursion_entries_match_builders():
    for name, builder, q in (
        ("n2-p6-sl-m19-yoshida", yoshida_recursive, 3),
        ("n2-p6-sl-m51-suzuki", suzuki_recursive, 3),
    ):
        scheme, params = builder(q)
        e = CATALOG[name]
        assert e.scheme.m == scheme.m
        assert e.params.values == params.values
    for name, builder, q in (
        ("n3-p6-sl-m37-yoshida", yoshida_recursive, 3),
        ("n3-p6-sl-m101-suzuki", suzuki_recursive, 3),
    ):
        scheme, params = builder(q, n=3)
        e = CATALOG[name]
        assert e.scheme.m == scheme.m
        assert e.params.values == params.values


# ---------------------------------- documented publication discrepancies


def test_discrepancy_notes_present():
    for name in ("n2-p4-s-m13-opt", "n3-p4-se-m21-opt", "n2-p6-sl-m51-suzuki"):
        assert CATALOG[name].notes


def test_m51_suzuki_forensics():
    # The implementation reproduces the published A<B value; the published
    # B<A headline is incompatible with the letter-swap identity below and
    # is covered by the entry's notes (its golden check fails by design).
    e = CATALOG["n2-p6-sl-m51-suzuki"]
    rep = epsilon(e.scheme, e.params, e.order)
    by_ord = {ordering_str(o): float(rep.prefactor) * float(s)
              for o, s in rep.sums_per_ordering.items()}
    assert abs(by_ord["A<B"] - 16.992) / 16.992 < 1e-3
    assert abs(by_ord["B<A"] - 17.4275) / 17.4275 < 1e-3

    # Swapping the roles of the two letters everywhere must exchange the
    # two orderings' coefficient 1-norms exactly.
    swapped = dataclasses.replace(
        e.scheme, factors=tuple((1 - i, ex) for i, ex in e.scheme.factors))
    rep_sw = epsilon(swapped, e.params, e.order)
    sums = {ordering_str(o): float(s) for o, s in rep.sums_per_ordering.items()}
    sums_sw = {ordering_str(o): float(s)
               for o, s in rep_sw.sums_per_ordering.items()}
    assert sums["B<A"] == pytest.approx(sums_sw["A<B"], rel=1e-12)
    assert sums["A<B"] == pytest.approx(sums_sw["B<A"], rel=1e-12)


def test_m21_se_label_forensics():
    # The published error value picks out B<C<A; the published label C<A<B
    # belongs to a strictly larger sum.
    e = CATALOG["n3-p4-se-m21-opt"]
    rep = epsilon(e.scheme, e.params, e.order)
    by_ord = {ordering_str(o): float(rep.prefactor) * float(s)
              for o, s in rep.sums_per_ordering.items()}
    assert abs(by_ord["B<C<A"] - 3.92577) / 3.92577 < 1e-5
    assert by_ord["C<A<B"] > 7.7
