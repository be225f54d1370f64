"""Interaction graphs, coarse-graining, and commuting-group partitions."""

import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from liesplit.lattice import (
    CoarseMap,
    InteractionGraph,
    Partition,
    PartitionError,
    build_chain,
    build_honeycomb,
    build_kagome,
    build_square,
    build_triangular,
    coarse_grain,
    graph_from_text,
    graph_to_text,
    partition,
    reduce_to_nearest_neighbor,
    to_dot,
    validate_partition,
)


STRATEGIES = ["chain-parity", "chain-window3", "square-4site", "square-3site",
              "triangular-plaquette", "hexagonal-edges", "kagome-triangles",
              "greedy", "auto"]


def assert_valid(g, part):
    ok, violations = validate_partition(g, part)
    assert ok, violations


def with_onsite(g):
    """One on-site term per site, after the bonds."""
    onsite = tuple(frozenset({s}) for s, _ in g.sites)
    return InteractionGraph(g.dim, g.sites, g.interactions + onsite, g.periodic)


def build_mirrored_triangular(lx, ly, periodic=False):
    """Triangular lattice whose diagonal is (1, -1) instead of (1, 1)."""
    ids = {(x, y): y * lx + x for y in range(ly) for x in range(lx)}
    bonds = []
    for (x, y), s in ids.items():
        for dx, dy in ((1, 0), (0, 1), (1, -1)):
            t = (x + dx, y + dy)
            if periodic:
                t = (t[0] % lx, t[1] % ly)
            if t in ids and t != (x, y):
                bonds.append(frozenset({s, ids[t]}))
    sites = tuple((s, xy) for xy, s in ids.items())
    return InteractionGraph(2, sites, tuple(dict.fromkeys(bonds)),
                            (periodic, periodic))


# ----------------------------------------------------------- graph type

def test_graph_validation():
    sites = ((0, (0,)), (1, (1,)))
    with pytest.raises(ValueError, match="duplicate site ids"):
        InteractionGraph(1, ((0, (0,)), (0, (1,))), (), (False,))
    with pytest.raises(ValueError, match="arity"):
        InteractionGraph(1, ((0, (0, 1)),), (), (False,))
    with pytest.raises(ValueError, match="non-negative"):
        InteractionGraph(1, ((0, (-1,)),), (), (False,))
    with pytest.raises(ValueError, match="unknown sites"):
        InteractionGraph(1, sites, (frozenset({0, 9}),), (False,))
    with pytest.raises(ValueError, match="1d and 2d"):
        InteractionGraph(3, (), (), (False, False, False))
    with pytest.raises(ValueError, match="per dimension"):
        InteractionGraph(1, sites, (), (False, False))


def test_graph_without_sites_is_rejected():
    # the Kagome lattice drops the even-even sites, which is all of 1 x 1
    with pytest.raises(ValueError, match="no sites"):
        build_kagome(1, 1)
    with pytest.raises(ValueError, match="no sites"):
        InteractionGraph(2, (), (), (False, False))


def test_ranges_see_periodic_wrap():
    ring = build_chain(8, periodic=True)
    assert len(ring.interactions) == 8
    assert all(r == (1,) for r in ring.ranges())
    assert ring.max_range() == 1
    open_chain = build_chain(8)
    assert len(open_chain.interactions) == 7


def test_kagome_site_count():
    g = build_kagome(4, 4)
    # even-even positions removed: 16 - 4
    assert len(g.sites) == 12
    with pytest.raises(ValueError, match="even extents"):
        build_kagome(5, 4, periodic=True)


# ------------------------------------------------------ coarse-graining

def test_block_two_halves_ranges():
    g = build_chain(20, reach=5)
    coarse, cmap = coarse_grain(g, 2)
    assert cmap.block_shape == (2,)
    old = g.ranges()
    new = coarse.ranges()
    for k in range(len(g.interactions)):
        (before,), (after,) = old[k], new[cmap.operator_lift[k]]
        assert after <= before // 2 + 1


def test_partial_trailing_block_merges():
    g = build_chain(9, periodic=True)
    coarse, cmap = coarse_grain(g, 2)
    assert coarse.extents() == (4,)
    assert cmap.merged_blocks == ((0,),)
    sq = build_square(7, 5)
    coarse2, cmap2 = coarse_grain(sq, (2, 2))
    assert coarse2.extents() == (3, 2)
    assert cmap2.merged_blocks == ((0,), (1,))


def test_operator_lift_merges_collided_bonds():
    g = build_chain(6, reach=2)
    coarse, cmap = coarse_grain(g, 2)
    k_nn = g.interactions.index(frozenset({1, 2}))
    k_nnn = g.interactions.index(frozenset({0, 2}))
    assert cmap.operator_lift[k_nn] == cmap.operator_lift[k_nnn]
    assert len(coarse.interactions) < len(g.interactions)


def test_block_shape_validation():
    g = build_chain(6)
    with pytest.raises(ValueError, match="arity"):
        coarse_grain(g, (2, 2))
    with pytest.raises(ValueError, match=">= 1"):
        coarse_grain(g, 0)


def test_reduce_r2_chain_is_one_step():
    g = build_chain(12, reach=2)
    reduced, maps = reduce_to_nearest_neighbor(g)
    assert len(maps) == 1
    assert reduced.max_range() == 1
    assert_valid(reduced, partition(reduced))


def test_reduce_nn_chain_is_a_no_op():
    g = build_chain(12)
    reduced, maps = reduce_to_nearest_neighbor(g)
    assert maps == []
    assert reduced is g


@pytest.mark.parametrize("reach", [2, 3, 4, 5, 6])
def test_reduce_step_count_is_logarithmic(reach):
    g = build_chain(40, reach=reach)
    reduced, maps = reduce_to_nearest_neighbor(g)
    assert reduced.max_range() <= 1
    assert len(maps) <= math.ceil(math.log2(reach))


def test_staggered_merge_reaches_triangular():
    # both diagonals have per-axis range 1, so no halving is needed;
    # the staggered two-site merge alone folds them onto one direction
    king = build_square(8, 8, diagonals=True)
    reduced, maps = reduce_to_nearest_neighbor(king)
    assert len(maps) == 1
    assert maps[0].block_shape == (2, 1) and maps[0].staggered
    part = partition(reduced)
    assert part.n == 3
    assert_valid(reduced, part)


def test_staggered_merge_rejects_periodic():
    g = build_square(8, 8, periodic=True, diagonals=True)
    with pytest.raises(ValueError, match="open boundaries only"):
        coarse_grain(g, (2, 1))


# ----------------------------------------------------------- partitions

@pytest.mark.parametrize("periodic", [False, True])
def test_chain_splits_in_two(periodic):
    g = build_chain(8, periodic=periodic)
    part = partition(g)
    assert part.n == 2
    assert part.certificate is None
    assert_valid(g, part)


def test_odd_ring_needs_a_third_group():
    g = build_chain(7, periodic=True)
    part = partition(g)
    assert part.n == 3
    assert part.certificate == ("odd periodic ring of length 7: bond "
                                "(6,0) is uncolorable, third group added")
    assert_valid(g, part)


@pytest.mark.parametrize("periodic", [False, True])
def test_next_nearest_chain_splits_in_three(periodic):
    g = build_chain(9, reach=2, periodic=periodic)
    part = partition(g)
    assert part.n == 3
    assert_valid(g, part)


def test_window_tiling_needs_divisible_ring():
    g = build_chain(10, reach=2, periodic=True)
    with pytest.raises(PartitionError, match="divisible by 3"):
        partition(g, "chain-window3")


def test_onsite_terms_ride_with_their_bond():
    sites = tuple((i, (i,)) for i in range(4))
    inter = (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}),
             frozenset({0}), frozenset({2}))
    g = InteractionGraph(1, sites, inter, (False,))
    part = partition(g)
    assert part.n == 2
    assert_valid(g, part)


@pytest.mark.parametrize("periodic", [False, True])
def test_square_splits_in_two(periodic):
    g = build_square(6, 6, periodic=periodic)
    part = partition(g)
    assert part.n == 2
    assert_valid(g, part)


def test_square_three_site_variant():
    g = build_square(6, 6)
    part = partition(g, "square-3site")
    assert part.n == 3
    assert_valid(g, part)


@pytest.mark.parametrize("periodic", [False, True])
def test_triangular_splits_in_three(periodic):
    g = build_triangular(6, 6, periodic=periodic)
    part = partition(g)
    assert part.n == 3
    assert_valid(g, part)


@pytest.mark.parametrize("periodic", [False, True])
def test_honeycomb_splits_in_three(periodic):
    g = build_honeycomb(6, 6, periodic=periodic)
    part = partition(g)
    assert part.n == 3
    assert_valid(g, part)


@pytest.mark.parametrize("periodic", [False, True])
def test_kagome_splits_in_two(periodic):
    g = build_kagome(8, 8, periodic=periodic)
    part = partition(g)
    assert part.n == 2
    assert_valid(g, part)


@pytest.mark.parametrize("periodic", [False, True])
def test_mirrored_triangular_splits_in_three(periodic):
    g = build_mirrored_triangular(6, 6, periodic=periodic)
    part = partition(g)
    assert part.n == 3
    assert_valid(g, part)


def test_honeycomb_strategy_refuses_square_ladder():
    # a 2-wide square strip has at most three bonds per site, but its
    # vertical bonds start on both sublattices, so their tiles would overlap
    g = build_square(2, 4)
    with pytest.raises(PartitionError, match="not a brick-wall honeycomb"):
        partition(g, "hexagonal-edges")
    part = partition(g)
    assert part.n == 2
    assert_valid(g, part)


@st.composite
def small_lattices(draw):
    kind = draw(st.sampled_from(["chain", "square", "square-diagonals",
                                 "triangular", "mirrored", "honeycomb",
                                 "kagome"]))
    periodic = draw(st.booleans())
    lx, ly = draw(st.integers(2, 7)), draw(st.integers(2, 7))
    if kind == "chain":
        g = build_chain(lx, reach=draw(st.integers(1, 3)), periodic=periodic)
    elif kind == "kagome":
        if periodic:
            lx, ly = lx + lx % 2, ly + ly % 2
        g = build_kagome(lx, ly, periodic=periodic)
    else:
        g = {"square": lambda: build_square(lx, ly, periodic),
             "square-diagonals": lambda: build_square(lx, ly, periodic,
                                                      diagonals=True),
             "triangular": lambda: build_triangular(lx, ly, periodic),
             "mirrored": lambda: build_mirrored_triangular(lx, ly, periodic),
             "honeycomb": lambda: build_honeycomb(lx, ly, periodic),
             }[kind]()
    return with_onsite(g) if draw(st.booleans()) else g


@given(small_lattices())
@example(build_mirrored_triangular(3, 3, periodic=True))
@example(build_mirrored_triangular(6, 6, periodic=True))
@settings(max_examples=120, deadline=3000)
def test_every_strategy_partitions_validly_or_refuses(g):
    for strategy in STRATEGIES:
        try:
            part = partition(g, strategy)
        except PartitionError:
            continue
        ok, violations = validate_partition(g, part)
        assert ok, (strategy, violations)


def test_every_group_commutes_by_support():
    # disjoint supports is the whole point: check it directly once
    g = build_triangular(5, 4)
    part = partition(g)
    for ops in part.operators:
        seen = set()
        for op in ops:
            assert not (op & seen)
            seen |= op


def test_greedy_respects_budget():
    g = build_chain(8)
    part = partition(g, "greedy")
    assert part.n <= 2
    assert_valid(g, part)


def test_greedy_long_chain_has_no_recursion_limit():
    g = build_chain(1500)
    part = partition(g, "greedy")
    assert part.n == 2
    assert_valid(g, part)


def test_greedy_reports_obstruction():
    g = build_chain(3, reach=2)  # three mutually overlapping bonds
    with pytest.raises(PartitionError, match="exceeded the n = 2 budget"):
        partition(g, "greedy")
    try:
        partition(g, "greedy")
    except PartitionError as exc:
        assert "interaction" in exc.certificate


def test_greedy_refuses_a_crowded_site_at_once():
    # three bonds and an on-site term meet at every site; the search over
    # three colours would run for minutes before giving up
    g = with_onsite(build_honeycomb(5, 6, periodic=True))
    t0 = time.perf_counter()
    with pytest.raises(PartitionError, match="exceeded the n = 3 budget") as info:
        partition(g)
    assert time.perf_counter() - t0 < 1.0
    cert = info.value.certificate
    assert len(cert["interactions"]) == 4
    assert all(cert["site"] in g.interactions[k] for k in cert["interactions"])


def _square_with_triangle():
    # a three-site term whose first and last sorted sites wrap the open
    # square the long way: read as a bond, its tile overlaps another
    g = build_square(4, 4)
    ids = {c: i for i, c in g.sites}
    extra = frozenset({ids[(0, 0)], ids[(1, 0)], ids[(0, 3)]})
    return InteractionGraph(2, g.sites, g.interactions + (extra,), g.periodic)


@pytest.mark.parametrize("strategy", ["square-4site", "square-3site",
                                      "triangular-plaquette"])
def test_overlapping_operators_are_refused(strategy):
    g = _square_with_triangle()
    with pytest.raises(PartitionError, match=r"group \d+: operators \d+ and \d+ overlap "
                                             r"on sites \[12\]") as info:
        partition(g, strategy)
    cert = info.value.certificate
    first, second = cert["operators"]
    assert first < second and cert["sites"] == [12]
    assert set(cert) == {"group", "operators", "sites"}


def test_auto_refuses_rather_than_overlap():
    with pytest.raises(PartitionError, match="site 1 lies in 4 interactions"):
        partition(_square_with_triangle())


def test_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        partition(build_chain(4), "voronoi")


def test_validate_partition_catches_breakage():
    g = build_chain(4)  # bonds (0,1), (1,2), (2,3)
    dup = Partition(((0, 1), (1, 2)),
                    ((frozenset({0, 1}), frozenset({1, 2})),
                     (frozenset({1, 2}), frozenset({2, 3}))))
    ok, violations = validate_partition(g, dup)
    assert not ok
    assert any("groups 0 and 1" in v for v in violations)
    assert any("overlap" in v for v in violations)

    sparse = Partition(((0,),), ((frozenset({0, 1}),),))
    ok, violations = validate_partition(g, sparse)
    assert not ok
    assert any("not covered" in v for v in violations)

    adrift = Partition(((0, 2), (1,)),
                       ((frozenset({0, 1}),), (frozenset({1, 2}),)))
    ok, violations = validate_partition(g, adrift)
    assert not ok
    assert any("not inside" in v for v in violations)

    stray = Partition(((0, 1, 2, 7),),
                      ((frozenset({0, 1}), frozenset({2, 3})),))
    ok, violations = validate_partition(g, stray)
    assert not ok
    assert any("out of range" in v for v in violations)


# ------------------------------------------------------------ files

def test_graph_text_round_trip():
    for g in (build_chain(7, reach=2, periodic=True),
              build_kagome(4, 4),
              build_honeycomb(4, 4, periodic=True)):
        assert graph_from_text(graph_to_text(g)) == g


def test_graph_text_comments_and_errors():
    text = "# hand-made\ndim 1\nsite 0 0\nsite 1 1\ninteraction 0 1\n"
    g = graph_from_text(text)
    assert g.periodic == (False,)
    assert g.interactions == (frozenset({0, 1}),)
    with pytest.raises(ValueError, match="unknown record"):
        graph_from_text("dim 1\nvertex 0 0\n")
    with pytest.raises(ValueError, match="missing 'dim'"):
        graph_from_text("site 0 0\n")


@pytest.mark.parametrize("text,match", [
    ("dim 1\nvertex 0 0\n", "line 2: unknown record"),
    ("dim", "line 1: malformed 'dim'"),
    ("dim 1\nsite", "line 2: malformed 'site'"),
    ("dim 1 2\n", "line 1: malformed 'dim'"),
    ("# header\ndim x\n", "line 2: malformed 'dim'"),
    ("dim 1\nperiodic yes\n", "line 2: malformed 'periodic'"),
    ("dim 1\nsite 0 0\ninteraction 0 a\n", "line 3: malformed 'interaction'"),
])
def test_graph_text_errors_name_the_line(text, match):
    with pytest.raises(ValueError, match=match):
        graph_from_text(text)


@pytest.mark.parametrize("text,match", [
    ("dim 1\ndim 1\n", "line 2: 'dim' record repeats line 1"),
    ("dim 1\nperiodic 1\nsite 0 0\nperiodic 0\n", "line 4: 'periodic' record repeats line 2"),
])
def test_graph_text_repeated_singletons_name_both_lines(text, match):
    with pytest.raises(ValueError, match=match):
        graph_from_text(text)


def test_dot_export_colors_groups():
    g = build_chain(6)
    part = partition(g)
    dot = to_dot(g, part)
    assert dot.startswith("graph interactions {")
    assert 'pos="3,0!"' in dot
    assert "color=crimson" in dot and "color=royalblue" in dot
    plain = to_dot(g)
    assert "color=" not in plain
