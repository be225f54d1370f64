"""Interaction graphs: coarse-graining and partitioning into n <= 3 terms.

Everything here is combinatorial: an interaction is just the set of sites
it touches, and a partition is valid when the operators inside one group
have pairwise disjoint supports (so they commute regardless of payload).
Coarse-graining blocks sites into effective sites; a range-Delta coupling
becomes a range floor(Delta/2) or floor(Delta/2)+1 coupling under 2-site
blocks, which is what reduces any finite-range model to nearest neighbors.
The 2d endgame is a staggered (brick-wall) two-site merge: it takes the
square lattice with nearest and next-nearest neighbors to a triangular
lattice with nearest neighbors only.

Each partitioning strategy realizes one of the standard pictures: bond
parity on chains, width-3 windows for next-nearest-neighbor chains,
plaquette checkerboards and L-shaped triples on the square lattice,
three-colored triangles on the triangular lattice, edge directions on the
honeycomb, and up/down triangles on the Kagome lattice, plus a greedy
fallback for anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

__all__ = [
    "CoarseMap",
    "InteractionGraph",
    "Partition",
    "PartitionError",
    "build_chain",
    "build_honeycomb",
    "build_kagome",
    "build_square",
    "build_triangular",
    "coarse_grain",
    "graph_from_text",
    "graph_to_text",
    "partition",
    "reduce_to_nearest_neighbor",
    "to_dot",
    "validate_partition",
]


class PartitionError(ValueError):
    """A strategy cannot meet its group budget; carries the obstruction."""

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


@dataclass(frozen=True)
class InteractionGraph:
    """Sites with integer coordinates plus interactions as site-id sets."""

    dim: int
    sites: tuple[tuple[int, tuple[int, ...]], ...]
    interactions: tuple[frozenset[int], ...]
    periodic: tuple[bool, ...]

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError("only 1d and 2d graphs are supported")
        if len(self.periodic) != self.dim:
            raise ValueError("one periodic flag per dimension")
        ids = {s for s, _ in self.sites}
        if len(ids) != len(self.sites):
            raise ValueError("duplicate site ids")
        for coords in (c for _, c in self.sites):
            if len(coords) != self.dim:
                raise ValueError("coordinate arity must match dim")
            if any(c < 0 for c in coords):
                raise ValueError("coordinates must be non-negative")
        for inter in self.interactions:
            if not inter or not inter <= ids:
                raise ValueError(f"interaction {set(inter)} references "
                                 "unknown sites")

    def coords(self) -> dict[int, tuple[int, ...]]:
        return dict(self.sites)

    def extents(self) -> tuple[int, ...]:
        return tuple(max(c[a] for _, c in self.sites) + 1
                     for a in range(self.dim))

    def ranges(self) -> list[tuple[int, ...]]:
        """Per-axis distance of every interaction (periodic-aware)."""
        pos = self.coords()
        ext = self.extents()
        out = []
        for inter in self.interactions:
            pts = [pos[s] for s in inter]
            deltas = []
            for a in range(self.dim):
                vals = [p[a] for p in pts]
                d = max(vals) - min(vals)
                if self.periodic[a]:
                    d = min(d, ext[a] - d)
                deltas.append(d)
            out.append(tuple(deltas))
        return out

    def max_range(self) -> int:
        return max((max(r) for r in self.ranges()), default=0)


@dataclass(frozen=True)
class CoarseMap:
    """One blocking step: old sites to effective sites."""

    block_shape: tuple[int, ...]
    site_assignment: Mapping[int, int]
    operator_lift: Mapping[int, int]
    staggered: bool = False
    merged_blocks: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True)
class Partition:
    """Interaction indices per group plus the merged operator supports.

    A certificate is attached when the requested budget could not be met
    and an extra group was needed (e.g. the wrap bond of an odd periodic
    chain).
    """

    groups: tuple[tuple[int, ...], ...]
    operators: tuple[tuple[frozenset[int], ...], ...]
    certificate: str | None = None

    @property
    def n(self) -> int:
        return len(self.groups)


# ------------------------------------------------------------- builders

def build_chain(length: int, reach: int = 1, periodic: bool = False
                ) -> InteractionGraph:
    """1d chain with couplings at every distance 1..reach."""
    if length < 2:
        raise ValueError("need at least two sites")
    sites = tuple((i, (i,)) for i in range(length))
    inter = []
    for d in range(1, reach + 1):
        top = length if periodic else length - d
        inter.extend(frozenset({i, (i + d) % length}) for i in range(top))
    return InteractionGraph(1, sites, tuple(inter), (periodic,))


def _grid_sites(lx: int, ly: int):
    ids = {}
    sites = []
    for y in range(ly):
        for x in range(lx):
            ids[(x, y)] = len(sites)
            sites.append((len(sites), (x, y)))
    return ids, tuple(sites)


def build_square(lx: int, ly: int, periodic: bool = False,
                 diagonals: bool = False) -> InteractionGraph:
    """Square lattice with nearest (and optionally diagonal) couplings."""
    ids, sites = _grid_sites(lx, ly)
    offsets = [(1, 0), (0, 1)]
    if diagonals:
        offsets += [(1, 1), (1, -1)]
    inter = _offset_bonds(ids, lx, ly, offsets, periodic)
    return InteractionGraph(2, sites, inter, (periodic, periodic))


def build_triangular(lx: int, ly: int, periodic: bool = False
                     ) -> InteractionGraph:
    """Triangular lattice as a square grid plus the (1,1) diagonal."""
    ids, sites = _grid_sites(lx, ly)
    inter = _offset_bonds(ids, lx, ly, [(1, 0), (0, 1), (1, 1)], periodic)
    return InteractionGraph(2, sites, inter, (periodic, periodic))


def build_honeycomb(lx: int, ly: int, periodic: bool = False
                    ) -> InteractionGraph:
    """Honeycomb in brick-wall form: all x-bonds, y-bonds on even parity."""
    ids, sites = _grid_sites(lx, ly)
    inter = list(_offset_bonds(ids, lx, ly, [(1, 0)], periodic))
    top = ly if periodic else ly - 1
    for y in range(top):
        for x in range(lx):
            if (x + y) % 2 == 0:
                inter.append(frozenset({ids[(x, y)],
                                        ids[(x, (y + 1) % ly)]}))
    return InteractionGraph(2, sites, tuple(inter), (periodic, periodic))


def build_kagome(lx: int, ly: int, periodic: bool = False
                 ) -> InteractionGraph:
    """Kagome lattice: the triangular lattice minus the even-even sites."""
    if periodic and (lx % 2 or ly % 2):
        raise ValueError("periodic Kagome needs even extents")
    ids = {}
    sites = []
    for y in range(ly):
        for x in range(lx):
            if x % 2 == 0 and y % 2 == 0:
                continue
            ids[(x, y)] = len(sites)
            sites.append((len(sites), (x, y)))
    inter = _offset_bonds(ids, lx, ly, [(1, 0), (0, 1), (1, 1)], periodic)
    return InteractionGraph(2, tuple(sites), inter, (periodic, periodic))


def _offset_bonds(ids, lx, ly, offsets, periodic) -> tuple:
    inter = []
    for (x, y) in ids:
        for dx, dy in offsets:
            tx, ty = x + dx, y + dy
            if periodic:
                tx, ty = tx % lx, ty % ly
            if (tx, ty) in ids and (tx, ty) != (x, y):
                bond = frozenset({ids[(x, y)], ids[(tx, ty)]})
                inter.append(bond)
    return tuple(dict.fromkeys(inter))


# -------------------------------------------------------- coarse-graining

def coarse_grain(g: InteractionGraph, block) -> tuple[InteractionGraph,
                                                      CoarseMap]:
    """Block sites into effective sites; block is an int (1d) or a pair.

    A trailing partial block along an axis is merged into its neighbor so
    the blocks always tile; those merges are recorded on the CoarseMap.
    The special 2d block (2, 1) is applied staggered (brick-wall) so that
    nearest plus next-nearest square couplings land on the triangular
    lattice's three bond directions.
    """
    shape = (block,) if isinstance(block, int) else tuple(block)
    if len(shape) != g.dim:
        raise ValueError(f"block arity {len(shape)} does not match "
                         f"dim {g.dim}")
    if any(b < 1 for b in shape):
        raise ValueError("block lengths must be >= 1")
    staggered = g.dim == 2 and shape == (2, 1)
    if staggered and any(g.periodic):
        raise ValueError("the staggered two-site merge supports open "
                         "boundaries only")
    ext = g.extents()
    new_ext = [max(e // b, 1) for e, b in zip(ext, shape)]
    merged = set()

    def assign(coords):
        if staggered:
            # brick-wall pairing plus a shear so the three surviving bond
            # directions are exactly the triangular-lattice ones
            x, y = coords
            c = x - y % 2
            if c < 0:
                c = 0
                merged.add(0)
            return (c // 2 + (y + 1) // 2, y)
        out = []
        for a, (c, b) in enumerate(zip(coords, shape)):
            q = c // b
            if q >= new_ext[a]:  # partial trailing block
                q = new_ext[a] - 1
                merged.add(a)
            out.append(q)
        return tuple(out)

    new_ids: dict[tuple[int, ...], int] = {}
    site_assignment = {}
    for sid, coords in g.sites:
        q = assign(coords)
        if q not in new_ids:
            new_ids[q] = len(new_ids)
        site_assignment[sid] = new_ids[q]
    new_sites = tuple((i, q) for q, i in new_ids.items())

    lifted: dict[frozenset, int] = {}
    operator_lift = {}
    for k, inter in enumerate(g.interactions):
        target = frozenset(site_assignment[s] for s in inter)
        if target not in lifted:
            lifted[target] = len(lifted)
        operator_lift[k] = lifted[target]
    new_graph = InteractionGraph(g.dim, new_sites, tuple(lifted),
                                 g.periodic)
    cmap = CoarseMap(shape, site_assignment, operator_lift,
                     staggered=staggered,
                     merged_blocks=tuple((a,) for a in sorted(merged)))
    return new_graph, cmap


def reduce_to_nearest_neighbor(g: InteractionGraph
                               ) -> tuple[InteractionGraph,
                                          list[CoarseMap]]:
    """Halve ranges until <= 1; in 2d finish with the staggered merge.

    The result is nearest-neighbor: range <= 1 in 1d, and in 2d the bond
    offsets lie in one triangular-adjacency direction set.
    """
    maps: list[CoarseMap] = []
    while g.max_range() > 1:
        g, cmap = coarse_grain(g, 2 if g.dim == 1 else (2, 2))
        maps.append(cmap)
    if g.dim == 2 and not _is_triangular_subset(g):
        g, cmap = coarse_grain(g, (2, 1))
        maps.append(cmap)
    return g, maps


def _signed_offsets(g: InteractionGraph) -> set[tuple[int, ...]]:
    """Bond offsets made lexicographically positive; a one-site
    interaction gives the zero offset."""
    pos, ext = g.coords(), g.extents()
    return {_bond_offset(pos, ext, g.periodic, inter)[1] for inter in g.interactions}


def _is_triangular_subset(g: InteractionGraph) -> bool:
    offs = _signed_offsets(g)
    plain = {(1, 0), (0, 1), (0, 0)}
    return offs <= plain | {(1, 1)} or offs <= plain | {(1, -1)}


# ------------------------------------------------------------ partitioning

def partition(g: InteractionGraph, strategy: str = "auto") -> Partition:
    """Split interactions into groups of disjoint-support operators."""
    strategies = {
        "chain-parity": _partition_chain_parity,
        "chain-window3": _partition_chain_window3,
        "square-4site": _partition_square_4site,
        "square-3site": _partition_square_3site,
        "triangular-plaquette": _partition_triangular,
        "hexagonal-edges": _partition_honeycomb,
        "kagome-triangles": _partition_kagome,
        "greedy": _partition_greedy,
    }
    if strategy != "auto":
        try:
            fn = strategies[strategy]
        except KeyError:
            raise ValueError(f"unknown strategy {strategy!r}; options: "
                             f"{sorted(strategies)} or 'auto'") from None
        return fn(g)
    if g.dim == 1:
        order = ["chain-parity", "chain-window3", "greedy"]
    else:
        # cheapest n first: the four-site checkerboard gives n = 2 on the
        # plain square lattice, so it goes before the n = 3 strategies
        order = ["kagome-triangles", "hexagonal-edges", "square-4site",
                 "triangular-plaquette", "square-3site", "greedy"]
    last: PartitionError | None = None
    for name in order:
        try:
            return strategies[name](g)
        except PartitionError as exc:
            last = exc
    raise last if last is not None else PartitionError("empty strategy list")


def validate_partition(g: InteractionGraph,
                       part: Partition) -> tuple[bool, list[str]]:
    """Groups disjoint and exhaustive; in-group supports pairwise disjoint."""
    violations = []
    seen: dict[int, int] = {}
    for gi, idxs in enumerate(part.groups):
        for k in idxs:
            if k in seen:
                violations.append(f"interaction {k} in groups {seen[k]} "
                                  f"and {gi}")
            seen[k] = gi
            if not 0 <= k < len(g.interactions):
                violations.append(f"interaction index {k} out of range")
    missing = set(range(len(g.interactions))) - set(seen)
    if missing:
        violations.append(f"interactions not covered: {sorted(missing)}")
    for gi, ops in enumerate(part.operators):
        for i in range(len(ops)):
            for j in range(i + 1, len(ops)):
                if ops[i] & ops[j]:
                    violations.append(
                        f"group {gi}: operators {i} and {j} overlap on "
                        f"sites {sorted(ops[i] & ops[j])}")
    for gi, idxs in enumerate(part.groups):
        covered: set[int] = set()
        for s in part.operators[gi]:
            covered |= s
        for k in idxs:
            if k < len(g.interactions) and not g.interactions[k] <= covered:
                violations.append(f"group {gi}: interaction {k} not inside "
                                  "its operators")
    return (not violations, violations)


def _finish(groups: dict, op_of: dict, certificate=None) -> Partition:
    """Assemble a Partition from {group: {operator_key: [indices]}}."""
    out_groups = []
    out_ops = []
    for key in sorted(groups):
        buckets = groups[key]
        idxs = []
        ops = []
        for op_key in sorted(buckets, key=repr):
            members = buckets[op_key]
            idxs.extend(members)
            ops.append(frozenset().union(*(op_of[k] for k in members)))
        out_groups.append(tuple(sorted(idxs)))
        out_ops.append(tuple(ops))
    return Partition(tuple(out_groups), tuple(out_ops),
                     certificate=certificate)


def _bucket(groups: dict, group, op_key, index) -> None:
    groups.setdefault(group, {}).setdefault(op_key, []).append(index)


def _require(condition: bool, message: str, certificate=None) -> None:
    if not condition:
        raise PartitionError(message, certificate)


def _partition_chain_parity(g: InteractionGraph) -> Partition:
    """Even vs odd bonds; odd periodic rings get a third group."""
    _require(g.dim == 1, "chain strategy needs a 1d graph")
    pos = g.coords()
    length = g.extents()[0]
    sup = {k: inter for k, inter in enumerate(g.interactions)}
    groups: dict = {}
    certificate = None
    for k, inter in enumerate(g.interactions):
        xs = sorted(pos[s][0] for s in inter)
        _require(len(inter) <= 2, "chain-parity expects 2-local bonds",
                 certificate=set(inter))
        if len(inter) == 1:
            # ride along with the bond anchored at the same site
            _bucket(groups, xs[0] % 2, ("bond", xs[0]), k)
            continue
        d = xs[1] - xs[0]
        wrap = g.periodic[0] and d == length - 1
        _require(wrap or d == 1, "chain-parity needs nearest-neighbor "
                 "bonds; reduce the graph first", certificate=set(inter))
        left = xs[1] if wrap else xs[0]
        if wrap and length % 2:
            # odd ring: the wrap bond has odd parity on both ends
            _bucket(groups, 2, ("bond", left), k)
            certificate = (f"odd periodic ring of length {length}: bond "
                           f"({xs[1]},{xs[0]}) is uncolorable, third group "
                           "added")
            continue
        _bucket(groups, left % 2, ("bond", left), k)
    return _finish(groups, sup, certificate)


def _partition_chain_window3(g: InteractionGraph) -> Partition:
    """Width-3 windows keyed by min site mod 3 (NN + NNN chains)."""
    _require(g.dim == 1, "chain strategy needs a 1d graph")
    pos = g.coords()
    length = g.extents()[0]
    if g.periodic[0] and length % 3:
        raise PartitionError("periodic window-3 tiling needs length "
                             "divisible by 3",
                             certificate=f"length {length} % 3 != 0")
    sup = {k: inter for k, inter in enumerate(g.interactions)}
    groups: dict = {}
    for k, inter in enumerate(g.interactions):
        xs = sorted(pos[s][0] for s in inter)
        span = xs[-1] - xs[0]
        start = xs[0]
        if g.periodic[0] and span > length // 2:
            # the window owning a wrap bond starts at its largest member
            start = min(x for x in xs if x > length // 2)
            span = max((x - start) % length for x in xs)
        _require(span <= 2, "window strategy needs reach <= 2",
                 certificate=set(inter))
        _bucket(groups, start % 3, ("window", start), k)
    return _finish(groups, sup)


def _wrap_ok(g: InteractionGraph, modulus: tuple[int, ...], what: str):
    ext = g.extents()
    for a in range(g.dim):
        if g.periodic[a] and ext[a] % modulus[a]:
            raise PartitionError(
                f"{what} needs periodic extent divisible by {modulus[a]} "
                f"along axis {a}", certificate=f"extent {ext[a]}")


def _bond_offset(pos, ext, periodic, inter):
    """Anchor site and lexicographically-positive offset of a bond."""
    pts = sorted(pos[s] for s in inter)
    a, b = pts[0], pts[-1]
    delta = []
    for axis in range(len(ext)):
        d = b[axis] - a[axis]
        if periodic[axis] and abs(d) > ext[axis] // 2:
            d = d - ext[axis] if d > 0 else d + ext[axis]
        delta.append(d)
    anchor = a
    if delta[0] < 0 or (delta[0] == 0 and delta[-1] < 0):
        anchor = b
        delta = [-v for v in delta]
    return tuple(anchor), tuple(delta)


def _partition_square_4site(g: InteractionGraph) -> Partition:
    """2x2-plaquette checkerboard: two groups of four-site operators."""
    _require(g.dim == 2, "square strategy needs a 2d graph")
    _wrap_ok(g, (2, 2), "plaquette checkerboard")
    pos = g.coords()
    ext = g.extents()

    def cell_key(cx, cy):
        if g.periodic[0]:
            cx %= ext[0]
        if g.periodic[1]:
            cy %= ext[1]
        return ("cell", cx, cy)

    sup = {k: inter for k, inter in enumerate(g.interactions)}
    groups: dict = {}
    for k, inter in enumerate(g.interactions):
        (x, y), delta = _bond_offset(pos, ext, g.periodic, inter)
        if delta == (0, 0):
            _bucket(groups, 0, cell_key(x - x % 2, y - y % 2), k)
            continue
        _require(delta in {(1, 0), (0, 1)},
                 "plaquette checkerboard needs nearest-neighbor bonds",
                 certificate=set(inter))
        if delta == (1, 0):
            group = x % 2
            _bucket(groups, group, cell_key(x, y - (y - group) % 2), k)
        else:
            group = y % 2
            _bucket(groups, group, cell_key(x - (x - group) % 2, y), k)
    return _finish(groups, sup)


def _partition_square_3site(g: InteractionGraph) -> Partition:
    """L-shaped triples anchored at the bond corner, 3-colored."""
    _require(g.dim == 2, "square strategy needs a 2d graph")
    _wrap_ok(g, (3, 3), "L-triple coloring")
    pos = g.coords()
    ext = g.extents()
    sup = {k: inter for k, inter in enumerate(g.interactions)}
    groups: dict = {}
    for k, inter in enumerate(g.interactions):
        (x, y), delta = _bond_offset(pos, ext, g.periodic, inter)
        _require(delta in {(0, 0), (1, 0), (0, 1)},
                 "L-triple strategy needs nearest-neighbor bonds",
                 certificate=set(inter))
        _bucket(groups, (x + 2 * y) % 3, ("anchor", x, y), k)
    return _finish(groups, sup)


def _partition_triangular(g: InteractionGraph) -> Partition:
    """Triangle plaquettes three-colored so same-color ones are disjoint."""
    _require(g.dim == 2, "triangular strategy needs a 2d graph")
    offs = _signed_offsets(g)
    plain = {(0, 0), (1, 0), (0, 1)}
    if offs <= plain | {(1, 1)}:
        mirror = False
    elif offs <= plain | {(1, -1)}:
        mirror = True
    else:
        raise PartitionError("not a triangular-adjacency graph",
                             certificate=sorted(offs - plain))
    _wrap_ok(g, (3, 3), "triangle three-coloring")
    pos = g.coords()
    ext = g.extents()
    sup = {k: inter for k, inter in enumerate(g.interactions)}
    groups: dict = {}
    for k, inter in enumerate(g.interactions):
        (x, y), delta = _bond_offset(pos, ext, g.periodic, inter)
        if mirror:
            # work in mirrored coordinates where the diagonal is (1, 1)
            x, delta = -x, (-delta[0], delta[1])
            if delta[0] < 0 or (delta[0] == 0 and delta[1] < 0):
                x, y = x + delta[0], y + delta[1]
                delta = (-delta[0], -delta[1])
        # face (a, b) owns bonds H(a,b) = (1,0), D(a,b) = (1,1) and
        # V(a+1,b): anchor of a vertical bond (x,y) lies in face (x-1, y)
        if delta == (1, 1) or delta == (1, 0) or delta == (0, 0):
            a, b = x, y
        elif delta == (0, 1):
            a, b = x - 1, y
        else:
            raise PartitionError("unexpected bond offset",
                                 certificate=delta)
        if g.periodic[0]:
            a %= ext[0]
        _bucket(groups, (a + b) % 3, ("face", a, b), k)
    return _finish(groups, sup)


def _partition_honeycomb(g: InteractionGraph) -> Partition:
    """Edge directions of the brick-wall honeycomb: three 2-site groups."""
    _require(g.dim == 2, "honeycomb strategy needs a 2d graph")
    _wrap_ok(g, (2, 2), "brick-wall edge coloring")
    pos = g.coords()
    ext = g.extents()
    sup = {k: inter for k, inter in enumerate(g.interactions)}
    degree: dict[tuple[int, int], int] = {}
    for inter in g.interactions:
        if len(inter) == 2:
            for s in inter:
                degree[pos[s]] = degree.get(pos[s], 0) + 1
    if any(d > 3 for d in degree.values()):
        raise PartitionError("a site has more than three bonds; not a "
                             "honeycomb", certificate=max(degree.values()))
    groups: dict = {}
    for k, inter in enumerate(g.interactions):
        (x, y), delta = _bond_offset(pos, ext, g.periodic, inter)
        if delta == (1, 0):
            _bucket(groups, x % 2, ("bond", x, y), k)
        elif delta == (0, 1):
            _bucket(groups, 2, ("bond", x, y), k)
        elif delta == (0, 0):
            # ride with the vertical bond touching this site
            yv = y if (x + y) % 2 == 0 else y - 1
            if g.periodic[1]:
                yv %= ext[1]
            _bucket(groups, 2, ("bond", x, yv), k)
        else:
            raise PartitionError("honeycomb strategy needs "
                                 "nearest-neighbor bonds",
                                 certificate=set(inter))
    return _finish(groups, sup)


def _partition_kagome(g: InteractionGraph) -> Partition:
    """Up vs down triangles; each Kagome bond lies in exactly one."""
    _require(g.dim == 2, "Kagome strategy needs a 2d graph")
    _wrap_ok(g, (2, 2), "triangle parity classes")
    pos = g.coords()
    present = set(pos.values())
    if any(x % 2 == 0 and y % 2 == 0 for x, y in present):
        raise PartitionError("not a Kagome graph: even-even sites present",
                             certificate=sorted(
                                 c for c in present
                                 if c[0] % 2 == 0 and c[1] % 2 == 0)[:3])
    ext = g.extents()
    sup = {k: inter for k, inter in enumerate(g.interactions)}
    groups: dict = {}
    for k, inter in enumerate(g.interactions):
        (x, y), delta = _bond_offset(pos, ext, g.periodic, inter)
        # faces of the underlying triangular lattice: up(a,b) survives at
        # (a,b) = (even, odd), down(a,b) at (odd, even); each bond sits in
        # exactly one surviving face
        candidates = []
        if delta == (1, 0):
            candidates = [("up", x, y), ("down", x, y - 1)]
        elif delta == (0, 1):
            candidates = [("up", x - 1, y), ("down", x, y)]
        elif delta == (1, 1):
            candidates = [("up", x, y), ("down", x, y)]
        elif delta == (0, 0):
            # every site is a corner of exactly one up triangle
            if x % 2 == 0:
                a, b = x, y
            elif y % 2 == 1:
                a, b = x - 1, y
            else:
                a, b = x - 1, y - 1
            if g.periodic[0]:
                a %= ext[0]
            if g.periodic[1]:
                b %= ext[1]
            _bucket(groups, 0, ("up", a, b), k)
            continue
        else:
            raise PartitionError("Kagome strategy needs nearest-neighbor "
                                 "bonds", certificate=set(inter))
        face = None
        for kind, a, b in candidates:
            if g.periodic[0]:
                a %= ext[0]
            if g.periodic[1]:
                b %= ext[1]
            if kind == "up" and a % 2 == 0 and b % 2 == 1:
                face = (0, ("up", a, b))
            if kind == "down" and a % 2 == 1 and b % 2 == 0:
                face = (1, ("down", a, b))
        if face is None:
            raise PartitionError("bond not inside any Kagome triangle",
                                 certificate=set(inter))
        _bucket(groups, face[0], face[1], k)
    return _finish(groups, sup)


def _partition_greedy(g: InteractionGraph) -> Partition:
    """Conflict-graph coloring with limited backtracking."""
    budget = 2 if g.dim == 1 else 3
    k = len(g.interactions)
    conflicts: list[set[int]] = [set() for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            if g.interactions[i] & g.interactions[j]:
                conflicts[i].add(j)
                conflicts[j].add(i)
    order = sorted(range(k), key=lambda i: -len(conflicts[i]))
    colors: dict[int, int] = {}
    # depth-first search with an explicit stack: untried[i] holds the
    # colours still to try for order[i], colors holds order[:len(untried)]
    untried: list[list[int]] = []
    while len(untried) < k:
        node = order[len(untried)]
        used = {colors[nb] for nb in conflicts[node] if nb in colors}
        untried.append([c for c in reversed(range(budget)) if c not in used])
        while untried and not untried[-1]:
            untried.pop()
            colors.pop(order[len(untried)], None)
        if not untried:
            break
        colors[order[len(untried) - 1]] = untried[-1].pop()
    if len(colors) < k:
        blocked = order[0]  # every colour of the first interaction failed
        raise PartitionError(
            f"greedy coloring exceeded the n = {budget} budget",
            certificate={"interaction": sorted(g.interactions[blocked]),
                         "conflicts": sorted(conflicts[blocked])})
    groups: dict = {}
    sup = {i: inter for i, inter in enumerate(g.interactions)}
    for i in range(k):
        _bucket(groups, colors[i], ("op", i), i)
    return _finish(groups, sup)


# ------------------------------------------------------------------ files

def graph_to_text(g: InteractionGraph) -> str:
    lines = [f"dim {g.dim}",
             "periodic " + " ".join("1" if p else "0" for p in g.periodic)]
    for sid, coords in g.sites:
        lines.append(f"site {sid} " + " ".join(str(c) for c in coords))
    for inter in g.interactions:
        lines.append("interaction " + " ".join(str(s) for s in sorted(inter)))
    return "\n".join(lines) + "\n"


def graph_from_text(text: str) -> InteractionGraph:
    dim = None
    periodic: tuple[bool, ...] | None = None
    sites = []
    inter = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, *rest = line.split()
        if head not in ("dim", "periodic", "site", "interaction"):
            raise ValueError(f"line {ln}: unknown record {head!r}")
        try:
            values = [int(v) for v in rest]
            if head == "dim":
                (dim,) = values
            elif head == "periodic":
                periodic = tuple(bool(v) for v in values)
            elif head == "site":
                sid, *coords = values
                sites.append((sid, tuple(coords)))
            else:
                inter.append(frozenset(values))
        except ValueError:
            raise ValueError(f"line {ln}: malformed {head!r} record {line!r}") from None
    if dim is None:
        raise ValueError("missing 'dim' record")
    if periodic is None:
        periodic = (False,) * dim
    return InteractionGraph(dim, tuple(sites), tuple(inter), periodic)


def to_dot(g: InteractionGraph, part: Partition | None = None) -> str:
    """GraphViz export; groups get distinct colors when a partition is given."""
    palette = ["crimson", "royalblue", "forestgreen", "darkorange"]
    group_of = {}
    if part is not None:
        for gi, idxs in enumerate(part.groups):
            for k in idxs:
                group_of[k] = gi
    lines = ["graph interactions {", "  node [shape=point];"]
    for sid, coords in g.sites:
        xy = coords if g.dim == 2 else (coords[0], 0)
        lines.append(f'  s{sid} [pos="{xy[0]},{xy[1]}!"];')
    for k, inter in enumerate(g.interactions):
        members = sorted(inter)
        color = palette[group_of.get(k, len(palette) - 1) % len(palette)]
        attr = f' [color={color}]' if part is not None else ""
        if len(members) == 1:
            lines.append(f"  s{members[0]} -- s{members[0]}{attr};")
        else:
            for a, b in zip(members, members[1:]):
                lines.append(f"  s{a} -- s{b}{attr};")
    lines.append("}")
    return "\n".join(lines) + "\n"
