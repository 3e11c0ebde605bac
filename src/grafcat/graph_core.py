"""Graphs with open-ended edges, encoded as arc/flag/vertex diagrams.

A graph is a diagram of finite sets

    A <--s-- H --p--> V

where A is a set of arcs carrying a fixpoint-free involution i, H is a
set of flags (half-edges attached to vertices), V is a set of vertices,
s is injective and p is arbitrary.  An edge is an involution orbit
{a, i(a)}, held as its sorted arc pair (a, i(a)), a < i(a).  An arc in
the image of s points away from the vertex of its flag; arcs outside
the image of s are ports (open ends).  An edge with both arcs in the
image of s is inner, an edge with neither arc in the image is isolated.

All identifiers are opaque strings and all maps are explicit finite
dicts.  Values are treated as immutable after construction, which is
what lets memoised keep per-value results on the value itself.  Graphs,
the dataclass values built on them and etale.ReducedCover (the one
tuple-backed morphism that declares no __slots__) carry such a memo in
their __dict__; EtaleMorphism here and kleisli.Refinement have no
__dict__ and carry none.

Isomorphisms (find_isomorphisms), the renaming prefix_graph returns and
the inclusions into a disjoint_union are EtaleMorphisms: levelwise maps
whose etale clauses the etale module checks.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple


def memoised(fn):
    """fn(value), computed once per value object and stored in the
    value's __dict__ (under a dotted name no attribute can have).  The
    stored result is shared by every caller, who must not change it,
    unless it is a table that fn returns empty for its own module to
    fill, as bm._ghosts (one ghost graph per source and involution) and
    etale._cuts (one cut graph per graph and edge set) are; callers must
    not write into the graphs those tables share either.  Only values
    with a __dict__ take a memo: graphs, the dataclass values and
    etale.ReducedCover, not EtaleMorphism itself and kleisli.Refinement,
    whose __slots__ are empty."""
    key = f"{fn.__module__}.{fn.__qualname__}"
    missing = object()

    @functools.wraps(fn)
    def cached(value):
        # set and read as an attribute: CPython keeps attributes inline
        # until value.__dict__ is asked for, and reads them faster there
        result = getattr(value, key, missing)
        if result is missing:
            result = fn(value)
            object.__setattr__(value, key, result)
        return result

    return cached


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural validation: empty problem list means valid."""

    problems: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class JKGraph:
    """An arc/flag/vertex diagram.

    involution: A -> A, embed: H -> A (the map s), incidence: H -> V
    (the map p).
    """

    arcs: frozenset[str]
    flags: frozenset[str]
    vertices: frozenset[str]
    involution: dict[str, str]
    embed: dict[str, str]
    incidence: dict[str, str]

    def __post_init__(self):
        object.__setattr__(self, "arcs", frozenset(self.arcs))
        object.__setattr__(self, "flags", frozenset(self.flags))
        object.__setattr__(self, "vertices", frozenset(self.vertices))
        object.__setattr__(self, "involution", dict(self.involution))
        object.__setattr__(self, "embed", dict(self.embed))
        object.__setattr__(self, "incidence", dict(self.incidence))


class _EtaleMorphismFields(NamedTuple):
    source: JKGraph
    target: JKGraph
    arc_map: dict[str, str]
    flag_map: dict[str, str]
    vertex_map: dict[str, str]


class EtaleMorphism(_EtaleMorphismFields):
    """Levelwise maps from source to target (see etale.validate_etale).

    An immutable value that compares as the tuple of its five fields.
    The constructor copies the three maps, so no caller's dict is
    aliased; the library's builders hand over maps they have just built
    in one tuple.__new__ call, and may share a map between the values
    they return.  Callers must not write into the maps.
    """

    __slots__ = ()

    def __new__(cls, source, target, arc_map, flag_map, vertex_map):
        maps = dict(arc_map), dict(flag_map), dict(vertex_map)
        return tuple.__new__(cls, (source, target, *maps))


@memoised
def validate_graph(g: JKGraph) -> ValidationReport:
    """Check the diagram clauses; the report lists each violated one.
    Found once per graph; callers read isolated_edges only on a valid
    graph."""
    problems = []
    if g.involution.keys() != g.arcs:
        problems.append("involution-domain: involution must be defined on exactly the arcs")
    else:
        for a in sorted(g.arcs):
            b = g.involution[a]
            if b not in g.arcs:
                problems.append(f"involution-image: i({a!r}) = {b!r} is not an arc")
            elif g.involution[b] != a:
                problems.append(f"involution: i(i({a!r})) != {a!r}")
            elif b == a:
                problems.append(f"fixpoint-free: involution fixes arc {a!r}")
    if g.embed.keys() != g.flags:
        problems.append("embed-domain: embed must be defined on exactly the flags")
    else:
        seen: dict[str, str] = {}
        for h in sorted(g.flags):
            a = g.embed[h]
            if a not in g.arcs:
                problems.append(f"embed-image: s({h!r}) = {a!r} is not an arc")
            elif a in seen:
                problems.append(f"s injective: flags {seen[a]!r} and {h!r} share arc {a!r}")
            else:
                seen[a] = h
    if g.incidence.keys() != g.flags:
        problems.append("incidence-domain: incidence must be defined on exactly the flags")
    else:
        for h in sorted(g.flags):
            if g.incidence[h] not in g.vertices:
                problems.append(f"incidence-image: p({h!r}) is not a vertex")
    return ValidationReport(tuple(problems))


def endpoint_problems(source: JKGraph, target: JKGraph) -> list[str]:
    """One problem for each invalid end of a morphism."""
    return [
        f"{name}-invalid: " + "; ".join(rep.problems)
        for rep, name in ((validate_graph(source), "source"), (validate_graph(target), "target"))
        if not rep.ok
    ]


def embed_image(g: JKGraph) -> set[str]:
    return set(g.embed.values())


@memoised
def edges(g: JKGraph) -> frozenset[tuple[str, str]]:
    """The involution orbits, each as its sorted arc pair, found once
    per graph."""
    return frozenset((a, b) for a, b in g.involution.items() if a < b)


@memoised
def inner_edges(g: JKGraph) -> frozenset[tuple[str, str]]:
    """The edges (sorted arc pairs) with both arcs in the image of
    embed, found once per graph."""
    im = embed_image(g)
    return frozenset(e for e in edges(g) if all(a in im for a in e))


def ports(g: JKGraph) -> set[str]:
    im = embed_image(g)
    return {a for a in g.arcs if a not in im}


@memoised
def isolated_edges(g: JKGraph) -> frozenset[tuple[str, str]]:
    """The edges (sorted arc pairs) with neither arc in the image of
    embed, found once per graph."""
    im = embed_image(g)
    return frozenset(e for e in edges(g) if all(a not in im for a in e))


def local_interface(g: JKGraph, v: str) -> set[str]:
    """The arcs pointing toward v, one for each flag at v."""
    if v not in g.vertices:
        raise ValueError(f"unknown vertex {v!r}")
    return {g.involution[g.embed[h]] for h in flag_view(g)[0][v]}


def is_effective(g: JKGraph) -> bool:
    """Nonempty and without isolated edges."""
    nonempty = bool(g.arcs or g.vertices)
    return nonempty and not isolated_edges(g)


class _UnionFind:
    def __init__(self, items: Iterable):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            # keep the smaller representative for determinism
            if ry < rx:
                rx, ry = ry, rx
            self.parent[ry] = rx


def spanned_subgraph(g: JKGraph, vertices: Iterable[str]) -> JKGraph:
    """The subgraph on the given vertices, their flags, and both arcs of
    the edge at each of those flags."""
    vs = set(vertices)
    flags = {h for h in g.flags if g.incidence[h] in vs}
    arcs = {g.embed[h] for h in flags}
    arcs |= {g.involution[a] for a in arcs}
    return JKGraph(
        arcs,
        flags,
        vs,
        {a: g.involution[a] for a in arcs},
        {h: g.embed[h] for h in flags},
        {h: g.incidence[h] for h in flags},
    )


def _linked(g: JKGraph) -> _UnionFind:
    """Arcs and vertices, tagged so that equal labels stay apart, joined
    along the involution and along every flag."""
    uf = _UnionFind([("a", a) for a in g.arcs] + [("v", v) for v in g.vertices])
    for a in g.arcs:
        uf.union(("a", a), ("a", g.involution[a]))
    for h in g.flags:
        uf.union(("a", g.embed[h]), ("v", g.incidence[h]))
    return uf


def components(g: JKGraph) -> list[JKGraph]:
    """Connected components, sorted by their least vertex or arc label."""
    uf = _linked(g)
    groups: dict[tuple, list] = {}
    for node in uf.parent:
        groups.setdefault(uf.find(node), []).append(node)
    comps = []
    for group in groups.values():
        vs = {x for kind, x in group if kind == "v"}
        if vs:
            comps.append(spanned_subgraph(g, vs))
        else:  # an isolated edge
            a, b = (x for _, x in group)
            comps.append(JKGraph({a, b}, set(), set(), {a: b, b: a}, {}, {}))
    comps.sort(key=lambda c: min(itertools.chain(sorted(c.vertices), sorted(c.arcs)), default=""))
    return comps


def is_connected(g: JKGraph) -> bool:
    uf = _linked(g)
    return len({uf.find(node) for node in uf.parent}) == 1


def unit_graph() -> JKGraph:
    """The graph with one edge and nothing else (two swapped arcs)."""
    return JKGraph({"a1", "a2"}, set(), set(), {"a1": "a2", "a2": "a1"}, {}, {})


def corolla(n: int | Iterable[str]) -> JKGraph:
    """One vertex with the given ports; flag labels get a * suffix."""
    if isinstance(n, int):
        port_labels = [str(i) for i in range(1, n + 1)]
    else:
        port_labels = sorted(str(x) for x in n)
        if len(set(port_labels)) != len(port_labels):
            raise ValueError("duplicate port labels")
    flag_arcs = [p + "*" for p in port_labels]
    if set(port_labels) & set(flag_arcs):
        raise ValueError("port labels collide with their * companions")
    involution = {}
    for p, q in zip(port_labels, flag_arcs):
        involution[p] = q
        involution[q] = p
    return JKGraph(
        set(port_labels) | set(flag_arcs),
        set(flag_arcs),
        {"v"},
        involution,
        {q: q for q in flag_arcs},
        {q: "v" for q in flag_arcs},
    )


def relabel(
    g: JKGraph,
    arc_map: dict[str, str] | None = None,
    flag_map: dict[str, str] | None = None,
    vertex_map: dict[str, str] | None = None,
) -> JKGraph:
    """Apply bijective renamings to the three levels (identity if omitted)."""
    am = arc_map or {}
    fm = flag_map or {}
    vm = vertex_map or {}
    ra = lambda a: am.get(a, a)
    rf = lambda h: fm.get(h, h)
    rv = lambda v: vm.get(v, v)
    return JKGraph(
        {ra(a) for a in g.arcs},
        {rf(h) for h in g.flags},
        {rv(v) for v in g.vertices},
        {ra(a): ra(b) for a, b in g.involution.items()},
        {rf(h): ra(a) for h, a in g.embed.items()},
        {rf(h): rv(v) for h, v in g.incidence.items()},
    )


def prefix_graph(g: JKGraph, pfx: str) -> tuple[JKGraph, EtaleMorphism]:
    """Prepend pfx to every label; returns the copy and the renaming."""
    am = {a: pfx + a for a in g.arcs}
    fm = {h: pfx + h for h in g.flags}
    vm = {v: pfx + v for v in g.vertices}
    copy = relabel(g, am, fm, vm)
    return copy, EtaleMorphism(g, copy, am, fm, vm)


def disjoint_union(g1: JKGraph, g2: JKGraph) -> tuple[JKGraph, EtaleMorphism, EtaleMorphism]:
    """Sum of two graphs; labels get L. and R. prefixes.

    Returns the sum together with the two levelwise inclusions, which
    are etale and levelwise injective.
    """
    left, lm = prefix_graph(g1, "L.")
    right, rm = prefix_graph(g2, "R.")
    total = graph_sum([left, right])
    return total, lm._replace(target=total), rm._replace(target=total)


def graph_sum(parts: Iterable[JKGraph]) -> JKGraph:
    """The union of graphs with pairwise disjoint labels; ValueError if
    two parts share an arc, flag or vertex label."""
    arcs: set[str] = set()
    flags: set[str] = set()
    vertices: set[str] = set()
    involution: dict[str, str] = {}
    embed: dict[str, str] = {}
    incidence: dict[str, str] = {}
    for g in parts:
        if arcs & g.arcs or flags & g.flags or vertices & g.vertices:
            raise ValueError("summed graphs share a label")
        arcs |= g.arcs
        flags |= g.flags
        vertices |= g.vertices
        involution.update(g.involution)
        embed.update(g.embed)
        incidence.update(g.incidence)
    return JKGraph(arcs, flags, vertices, involution, embed, incidence)


def involutions(
    items: list[str], fixpoints: bool = True, pairs: Callable[[str, str], bool] | None = None
) -> Iterator[dict[str, str]]:
    """Every involution of items as a dict, only the fixpoint-free ones
    (perfect matchings) unless fixpoints, and only swapping a and b where
    pairs(a, b) holds if pairs is given.  The order is fixed: items[0]
    is first left fixed, then paired with each later item in turn."""
    if not fixpoints and len(items) % 2:
        return
    if not items:
        yield {}
        return
    first, rest = items[0], items[1:]
    if fixpoints:
        for sub in involutions(rest, True, pairs):
            yield {first: first, **sub}
    for k, partner in enumerate(rest):
        if pairs is None or pairs(first, partner):
            for sub in involutions(rest[:k] + rest[k + 1 :], fixpoints, pairs):
                yield {first: partner, partner: first, **sub}


@dataclass(frozen=True)
class GluingRecipe:
    """How a graph is glued from corollas and unit edges.

    vertex_elements maps each vertex to its spanned corolla-shaped
    subgraph, and edge_elements maps each edge, a sorted arc pair, to a
    unit-shaped graph, both in sorted order.  The elements keep the
    graph's own labels, so two elements meet exactly in the arcs they
    share: the graph is their colimit along those shared arcs.
    """

    vertex_elements: dict[str, JKGraph]
    edge_elements: dict[tuple[str, str], JKGraph]


def elements(g: JKGraph) -> GluingRecipe:
    """Decompose g into its vertex and edge elements."""
    vertex_elements = {v: spanned_subgraph(g, {v}) for v in sorted(g.vertices)}
    edge_elements = {}
    for a, b in sorted(edges(g)):
        edge_elements[a, b] = JKGraph({a, b}, set(), set(), {a: b, b: a}, {}, {})
    return GluingRecipe(vertex_elements, edge_elements)


def recompose_elements(recipe: GluingRecipe) -> JKGraph:
    """Glue the recipe back together: the union of its elements' sets
    and maps, which is the decomposed graph itself (equal, not just
    isomorphic), since the elements share its labels."""
    parts = [*recipe.vertex_elements.values(), *recipe.edge_elements.values()]
    return JKGraph(
        {a for p in parts for a in p.arcs},
        {h for p in parts for h in p.flags},
        {v for p in parts for v in p.vertices},
        {a: b for p in parts for a, b in p.involution.items()},
        {h: a for p in parts for h, a in p.embed.items()},
        {h: v for p in parts for h, v in p.incidence.items()},
    )


def flags_by_vertex(vertices: Iterable[str], incidence: dict[str, str]) -> dict[str, list[str]]:
    """Each vertex's flags, sorted; incidence maps every flag to its vertex."""
    at: dict[str, list[str]] = {v: [] for v in vertices}
    for h in sorted(incidence):
        at[incidence[h]].append(h)
    return at


def flag_isomorphisms(
    at1: dict[str, list[str]],
    partner1: dict[str, str],
    at2: dict[str, list[str]],
    partner2: dict[str, str],
) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
    """Every pair (vertex_map, flag_map) of bijections that sends the
    flags at each vertex onto the flags at its image and commutes with
    partner, in a deterministic order.

    at maps each vertex to its sorted flags; partner maps each flag to
    the flag across its edge, and an open end is its own partner.
    Vertices are placed in sorted order, each onto an unused vertex of
    the same (valence, open ends) signature with each order of its
    flags; partner is checked against the flags placed so far, so a
    pair of flags is checked when its later flag is placed."""

    def signature(at, partner, v):
        return len(at[v]), sum(1 for h in at[v] if partner[h] == h)

    sig1 = {v: signature(at1, partner1, v) for v in at1}
    sig2 = {w: signature(at2, partner2, w) for w in at2}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return iter(())
    vs1 = sorted(at1)
    vs2 = sorted(at2)
    # the partner checks due when each vertex is placed: its flags whose
    # partner is placed by then, at an earlier vertex or at this one;
    # entries that later vertices left in vmap and fmap are never read
    placed: set[str] = set()
    checks = []
    for v in vs1:
        placed.update(at1[v])
        checks.append([(h, partner1[h]) for h in at1[v] if partner1[h] in placed])
    vmap: dict[str, str] = {}
    fmap: dict[str, str] = {}

    def place(i: int, place):
        v = vs1[i]
        hs = at1[v]
        used = {vmap[u] for u in vs1[:i]}
        for w in vs2:
            if w in used or sig2[w] != sig1[v]:
                continue
            vmap[v] = w
            for image in itertools.permutations(at2[w]):
                fmap.update(zip(hs, image))
                for h, p in checks[i]:
                    if fmap[p] != partner2[fmap[h]]:
                        break
                else:
                    if i + 1 == len(vs1):
                        yield dict(vmap), dict(fmap)
                    else:
                        yield from place(i + 1, place)

    # place is handed itself, not closed over: a closure over its own
    # name is a cycle that outlives the search
    return place(0, place) if vs1 else iter([({}, {})])


def _isolated_maps(iso1: list[tuple[str, str]], iso2: list[tuple[str, str]]):
    """Every arc map sending the isolated edges iso1 onto iso2."""
    for targets in itertools.permutations(iso2):
        for ends in itertools.product(*[(e, e[::-1]) for e in targets]):
            yield {a: b for e1, e2 in zip(iso1, ends) for a, b in zip(e1, e2)}


@memoised
def flag_view(g: JKGraph) -> tuple[dict[str, list[str]], dict[str, str]]:
    """The flags at each vertex and each flag's partner across its edge,
    found once per graph and shared by every caller."""
    flag_of_arc = {a: h for h, a in g.embed.items()}
    partner = {h: flag_of_arc.get(g.involution[a], h) for h, a in g.embed.items()}
    return flags_by_vertex(g.vertices, g.incidence), partner


def _iso_gen(g1: JKGraph, g2: JKGraph) -> Iterator[EtaleMorphism]:
    """The flag-level isomorphisms, each with the arc map they force,
    combined with every pairing of the isolated edges."""
    if (
        len(g1.arcs) != len(g2.arcs)
        or len(g1.flags) != len(g2.flags)
        or len(g1.vertices) != len(g2.vertices)
    ):
        return
    isolated = None
    for vmap, fmap in flag_isomorphisms(*flag_view(g1), *flag_view(g2)):
        if isolated is None:  # needed only once a flag map is found
            isolated = list(_isolated_maps(sorted(isolated_edges(g1)), sorted(isolated_edges(g2))))
        amap = {}
        for h, k in fmap.items():
            a, b = g1.embed[h], g2.embed[k]
            amap[a] = b
            amap[g1.involution[a]] = g2.involution[b]
        for extra in isolated:
            amap.update(extra)  # the same keys each time, so each value gets a copy
            yield tuple.__new__(EtaleMorphism, (g1, g2, dict(amap), fmap, vmap))


def find_isomorphisms(g1: JKGraph, g2: JKGraph) -> list[EtaleMorphism]:
    """All isomorphisms g1 -> g2, in a deterministic order."""
    return list(_iso_gen(g1, g2))


def is_isomorphic(g1: JKGraph, g2: JKGraph) -> bool:
    return next(_iso_gen(g1, g2), None) is not None


def multigraph_key(labels: list, links: list[tuple[int, int]]) -> tuple:
    """A key of the vertex multigraph whose vertex i carries labels[i]
    and whose links join vertex pairs, (i, i) for a loop: two get equal
    keys iff some vertex bijection keeping labels maps one link multiset
    onto the other.  The key is the sorted labels and the least sorted
    link list over the vertex orders that sort the labels, that is over
    the permutations within each class of equal label.  Moving a linked
    vertex earlier never makes a sorted link list larger, so only the
    orders that put each class's linked vertices first are tried."""
    linked = {v for link in links for v in link}
    order = sorted(range(len(labels)), key=labels.__getitem__)
    starts, choices = [], []
    for _, c in itertools.groupby(enumerate(order), key=lambda kv: labels[kv[1]]):
        c = list(c)
        starts.append(c[0][0])
        choices.append(itertools.permutations([v for _, v in c if v in linked]))

    def key(perms):
        pos = {v: s + k for s, perm in zip(starts, perms) for k, v in enumerate(perm)}
        return sorted((min(pos[i], pos[j]), max(pos[i], pos[j])) for i, j in links)

    return tuple(sorted(labels)), tuple(min(map(key, itertools.product(*choices))))
