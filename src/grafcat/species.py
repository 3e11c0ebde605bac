"""Graphical species: local decorating data for graphs, and the free
monad they generate.

A graphical species consists of a set of colours with an involution
(what an arc can carry; the two arcs of an edge carry paired colours)
and, for each arity n, a set of operations with an n-tuple profile (the
colours of the in-pointing arcs at the n slots) acted on by slot
permutations.  By default the action is free: the listed operations are
generators, and their formal relabelings gen@p are distinct operations.

A decoration of a graph colours every arc equivariantly and labels every
vertex with an operation whose profile matches the colours of the arcs
pointing into the vertex, one per slot.  Labels are kept in a canonical
form (least representative of the action orbit), so decorations compare
by equality.

Evaluating a species on a graph lists its decorations; the truncated
free construction lists decorated graphs with a given number of ports;
the unit turns an operation into a decorated corolla and the
multiplication flattens a graph whose vertices are labelled by decorated
graphs, by refining and transporting the decorations."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .graph_core import (
    EtaleMorphism,
    JKGraph,
    ValidationReport,
    _UnionFind,
    _iso_gen,
    corolla,
    edges,
    find_isomorphisms,
    graph_clauses,
    local_interface,
    multigraph_key,
    ports,
    validate_graph,
)
from .kleisli import Refinement, _refine_with_cover


@dataclass(frozen=True)
class GraphicalSpecies:
    """Colours with involution, and profiled operations per arity.

    operations maps a name to its profile.  With action=None the species
    is freely generated: every slot permutation of a listed operation is
    a further operation named gen@p (p one-based, comma separated).  An
    explicit action must list every operation and give a total table
    (name, p) -> name."""

    colours: frozenset[str]
    colour_involution: dict[str, str]
    operations: dict[str, tuple[str, ...]]
    action: dict[tuple[str, tuple[int, ...]], str] | None = None

    def __post_init__(self):
        object.__setattr__(self, "colours", frozenset(self.colours))
        object.__setattr__(self, "colour_involution", dict(self.colour_involution))
        object.__setattr__(
            self, "operations", {n: tuple(p) for n, p in self.operations.items()}
        )
        if self.action is not None:
            object.__setattr__(
                self,
                "action",
                {(n, tuple(p)): m for (n, p), m in self.action.items()},
            )


def validate_species(sp: GraphicalSpecies) -> ValidationReport:
    problems = []
    for c in sorted(sp.colours):
        d = sp.colour_involution.get(c)
        if d not in sp.colours or sp.colour_involution.get(d) != c:
            problems.append(f"colour-involution: not an involution at {c!r}")
    if sp.colour_involution.keys() != sp.colours:
        problems.append("colour-involution: must be defined on exactly the colours")
    for name, profile in sorted(sp.operations.items()):
        if not sp.colours.issuperset(profile):
            problems.append(f"profile: operation {name!r} uses unknown colours")
        if sp.action is None and "@" in name:
            problems.append(f"operation-name: generator {name!r} may not contain '@'")
    if sp.action is not None:
        for name, profile in sorted(sp.operations.items()):
            n = len(profile)
            for p in itertools.permutations(range(n)):
                m = sp.action.get((name, p))
                if m is None or m not in sp.operations:
                    problems.append(f"action: missing or unknown image for {name!r} under {p}")
                    continue
                if sp.operations[m] != tuple(profile[p[i]] for i in range(n)):
                    problems.append(f"action: profile not respected for {name!r} under {p}")
            ident = tuple(range(n))
            if sp.action.get((name, ident)) != name:
                problems.append(f"action: identity permutation must fix {name!r}")
        for (name, p), m in sorted(sp.action.items()):
            if name not in sp.operations:
                problems.append(f"action: entry for unknown operation {name!r} under {p}")
                continue
            n = len(sp.operations[name])
            if len(p) != n or set(p) != set(range(n)):
                problems.append(f"action: {p} does not permute the {n} slots of {name!r}")
                continue
            for q in itertools.permutations(range(n)):
                pq = tuple(p[q[i]] for i in range(n))
                lhs = sp.action.get((m, q))
                rhs = sp.action.get((name, pq))
                if lhs != rhs:
                    problems.append(
                        f"action: composition fails at {name!r} under {p} then {q}"
                    )
    return ValidationReport(tuple(problems))


def _relabelled(sp: GraphicalSpecies, name: str) -> tuple[str, tuple[int, ...]]:
    """A free species' name, gen or gen@p, as gen and the zero-based p
    (the identity for a bare gen); KeyError unless gen is a generator of
    some arity n and p lists 1..n once each."""
    base, at, tail = name.partition("@")
    if base not in sp.operations:
        raise KeyError(name)
    n = len(sp.operations[base])
    if not at:
        return base, tuple(range(n))
    digits = tail.split(",") if tail else []
    if sorted(digits) != sorted(str(k) for k in range(1, n + 1)):
        raise KeyError(name)
    return base, tuple(int(k) - 1 for k in digits)


def act(sp: GraphicalSpecies, name: str, p: tuple[int, ...]) -> str:
    """The operation name behind slot i of the permuted operation is
    slot p[i] of the original: profiles satisfy
    profile(act(name, p))[i] == profile(name)[p[i]].  KeyError unless
    name is an operation and p permutes its slots."""
    p = tuple(p)
    if sp.action is not None:
        return sp.action[(name, p)]
    base, q = _relabelled(sp, name)
    if sorted(p) != list(range(len(q))):
        raise KeyError((name, p))
    p = tuple(q[i] for i in p)
    if p == tuple(range(len(p))):
        return base
    return f"{base}@{','.join(str(i + 1) for i in p)}"


def operation_profile(sp: GraphicalSpecies, name: str) -> tuple[str, ...]:
    if name in sp.operations:
        return sp.operations[name]
    if sp.action is None and "@" in name:
        base, q = _relabelled(sp, name)
        return tuple(sp.operations[base][i] for i in q)
    raise KeyError(name)


class VertexLabel(NamedTuple):
    """An operation at a vertex with its slots filled by the arcs
    pointing in; stored in canonical (orbit-least) form."""

    operation: str
    arcs_by_slot: tuple[str, ...]


def canonical_label(sp: GraphicalSpecies, operation: str, arcs_by_slot: Iterable[str]) -> VertexLabel:
    """The least (name, arcs) in the orbit under slot permutations.  For
    a free species a bare generator sorts before every gen@p, so the
    least of the orbit of (gen@q, arcs) is (gen, arcs reordered by q^-1:
    slot q[j] holds arcs[j]); KeyError if gen@q is not an operation or
    the arcs do not fill its slots.  Explicit actions take the minimum
    over every permutation."""
    arcs = tuple(arcs_by_slot)
    n = len(arcs)
    if sp.action is None:
        base, q = _relabelled(sp, operation)
        if len(q) != n:
            raise KeyError(operation)
        return VertexLabel(base, tuple(a for _, a in sorted(zip(q, arcs))))
    best = min(
        (act(sp, operation, p), tuple(arcs[p[i]] for i in range(n)))
        for p in itertools.permutations(range(n))
    )
    return VertexLabel(*best)


@dataclass(frozen=True)
class Decoration:
    """An equivariant arc colouring plus a canonical label per vertex."""

    arc_colouring: dict[str, str]
    vertex_labels: dict[str, VertexLabel]

    def __post_init__(self):
        object.__setattr__(self, "arc_colouring", dict(self.arc_colouring))
        object.__setattr__(self, "vertex_labels", dict(self.vertex_labels))


def validate_decoration(sp: GraphicalSpecies, g: JKGraph, dec: Decoration) -> ValidationReport:
    if bad := graph_clauses(g).problems:
        return ValidationReport(("graph-invalid: " + "; ".join(bad),))
    problems = []
    if dec.arc_colouring.keys() != g.arcs:
        problems.append("colouring-domain: colouring must be defined on exactly the arcs")
    elif not sp.colours.issuperset(dec.arc_colouring.values()):
        problems.append("colouring-image: unknown colour")
    else:
        for a in sorted(g.arcs):
            if dec.arc_colouring[g.involution[a]] != sp.colour_involution[dec.arc_colouring[a]]:
                problems.append(f"colouring: edge of {a!r} is not colour-paired")
    if dec.vertex_labels.keys() != g.vertices:
        problems.append("labels-domain: one label per vertex required")
    if problems:
        return ValidationReport(tuple(problems))
    for v in sorted(g.vertices):
        label = dec.vertex_labels[v]
        try:
            profile = operation_profile(sp, label.operation)
        except KeyError:
            problems.append(f"label: unknown operation at {v!r}")
            continue
        if set(label.arcs_by_slot) != local_interface(g, v) or len(
            set(label.arcs_by_slot)
        ) != len(label.arcs_by_slot):
            problems.append(f"label: slots at {v!r} do not list the arcs pointing in")
            continue
        if tuple(dec.arc_colouring[a] for a in label.arcs_by_slot) != profile:
            problems.append(f"label: colours at {v!r} do not match the profile")
            continue
        if canonical_label(sp, label.operation, label.arcs_by_slot) != label:
            problems.append(f"label: not in canonical form at {v!r}")
    return ValidationReport(tuple(problems))


def _edge_colourings(sp: GraphicalSpecies, g: JKGraph):
    keys = sorted(tuple(sorted(e)) for e in edges(g))
    for choice in itertools.product(sorted(sp.colours), repeat=len(keys)):
        colouring = {}
        for (a, b), c in zip(keys, choice):
            colouring[a] = c
            colouring[b] = sp.colour_involution[c]
        yield colouring


def _vertex_label_options(
    sp: GraphicalSpecies, g: JKGraph, v: str, colouring: dict[str, str]
) -> list[VertexLabel]:
    interface = sorted(local_interface(g, v))
    # every orbit of labels holds a listed operation (a generator of a
    # free species, any listed name under an explicit action), so the
    # listed ones over every slot order reach each canonical label
    seen = {}
    for name, profile in sorted(sp.operations.items()):
        if len(profile) != len(interface):
            continue
        for arcs in itertools.permutations(interface):
            if tuple(colouring[a] for a in arcs) == profile:
                seen.setdefault(canonical_label(sp, name, arcs))
    return list(seen)


def evaluate_species(sp: GraphicalSpecies, g: JKGraph) -> list[Decoration]:
    """All decorations of g, in a deterministic order."""
    rep = validate_graph(g)
    if not rep.ok:
        raise ValueError("invalid graph: " + "; ".join(rep.problems))
    out = []
    for colouring in _edge_colourings(sp, g):
        options = []
        for v in sorted(g.vertices):
            opts = _vertex_label_options(sp, g, v, colouring)
            if not opts:
                break
            options.append((v, opts))
        else:
            for combo in itertools.product(*(opts for _, opts in options)):
                labels = {v: label for (v, _), label in zip(options, combo)}
                out.append(Decoration(colouring, labels))
    return out


def transport_decoration(sp: GraphicalSpecies, dec: Decoration, iso: EtaleMorphism) -> Decoration:
    colouring = {iso.arc_map[a]: c for a, c in dec.arc_colouring.items()}
    labels = {}
    for v, label in dec.vertex_labels.items():
        arcs = tuple(iso.arc_map[a] for a in label.arcs_by_slot)
        labels[iso.vertex_map[v]] = canonical_label(sp, label.operation, arcs)
    return Decoration(colouring, labels)


def decorated_isomorphic(
    sp: GraphicalSpecies, g1: JKGraph, dec1: Decoration, g2: JKGraph, dec2: Decoration
) -> bool:
    """Some isomorphism g1 -> g2 carries dec1 to dec2.  Any isomorphism
    counts, including one that moves the ports."""
    return any(transport_decoration(sp, dec1, iso) == dec2 for iso in _iso_gen(g1, g2))


def monad_unit(sp: GraphicalSpecies, operation: str) -> tuple[JKGraph, Decoration]:
    """The decorated corolla of an operation: ports named 1..n carry the
    profile colours."""
    profile = operation_profile(sp, operation)
    n = len(profile)
    g = corolla(n)
    colouring = {}
    for k, c in enumerate(profile, start=1):
        colouring[str(k)] = c
        colouring[str(k) + "*"] = sp.colour_involution[c]
    label = canonical_label(sp, operation, tuple(str(k) for k in range(1, n + 1)))
    return g, Decoration(colouring, {"v": label})


def _pairings(residual: list[int], i: int = 0):
    """Every way to pair off the residual stubs of vertices i, i+1, ...:
    for each vertex in turn, the sorted vertices its stubs are paired
    with, itself twice per loop and a later vertex once per edge."""
    if i == len(residual):
        yield ()
        return
    for targets in itertools.combinations_with_replacement(range(i, len(residual)), residual[i]):
        loop_stubs = targets.count(i)
        if loop_stubs % 2:
            continue
        rest = list(residual)
        for j in targets[loop_stubs:]:
            rest[j] -= 1
        if min(rest) >= 0:
            for tail in _pairings(rest, i + 1):
                yield (targets, *tail)


def _multigraphs(allowed_valences: list[int], n_ports: int, n_vertices: int):
    """Connected graphs with ports 1..n and n_vertices vertices whose
    valences are allowed, one per port-fixing isomorphism class.  Each
    comes from a vertex multigraph: a non-decreasing valence tuple, the
    vertex of each port, and each vertex's loops and edge multiplicities
    to later vertices.  The flags at a vertex permute fixing every port,
    so the first graph per multigraph_key is kept, each vertex labelled
    by its valence and ports.  At each vertex the stubs go, in flag
    order, to its ports, its loops and its edges."""
    vertices = [f"v{i}" for i in range(1, n_vertices + 1)]
    valence_tuples = itertools.combinations_with_replacement(
        sorted(set(allowed_valences)), n_vertices
    )
    seen = set()
    for valences in valence_tuples:
        spare = sum(valences) - n_ports
        if spare < 0 or spare % 2:
            continue
        incidence = {f"{v}.{j}": v for v, d in zip(vertices, valences) for j in range(1, d + 1)}
        for port_at in itertools.product(range(n_vertices), repeat=n_ports):
            residual = list(valences)
            for i in port_at:
                residual[i] -= 1
            if min(residual) < 0:
                continue
            labels = [
                (d, tuple(p for p, j in enumerate(port_at) if j == i))
                for i, d in enumerate(valences)
            ]
            for pairing in _pairings(residual):
                # a loop is listed twice in its vertex's targets, an edge once
                links = [(i, j) for i, ts in enumerate(pairing) for j in ts[ts.count(i) // 2 :]]
                uf = _UnionFind(range(n_vertices))
                for i, j in links:
                    uf.union(i, j)
                if len({uf.find(i) for i in range(n_vertices)}) > 1:
                    continue
                key = multigraph_key(labels, links)
                if key in seen:
                    continue
                seen.add(key)
                stubs = [
                    iter([f"{v}.{j}*" for j in range(1, d + 1)])
                    for v, d in zip(vertices, valences)
                ]
                # ports first; a loop's first stub takes a second one
                ends = [(next(stubs[i]), str(p)) for p, i in enumerate(port_at, start=1)]
                ends += [(next(stubs[i]), next(stubs[j])) for i, j in links]
                involution = {a: b for end in ends for a, b in (end, end[::-1])}
                yield JKGraph(
                    set(involution),
                    set(incidence),
                    set(vertices),
                    involution,
                    {f: f + "*" for f in incidence},
                    incidence,
                )


def graphs_with_ports(
    allowed_valences: list[int], n_ports: int, max_vertices: int
) -> list[JKGraph]:
    """Connected graphs with ports 1..n and at most max_vertices
    vertices of allowed valences, one per port-fixing isomorphism class,
    in a deterministic order: by number of vertices, the vertexless unit
    graph first for two ports, then the classes _multigraphs keeps.
    Vertices are v1, v2, ..., the flags at vi are vi.1, vi.2, ... and
    each flag's arc is its name with a '*'.  ValueError for a negative
    valence or port count."""
    if n_ports < 0 or any(d < 0 for d in allowed_valences):
        raise ValueError("valences and the port count must be non-negative")
    out = []
    if n_ports == 2:
        out.append(JKGraph({"1", "2"}, set(), set(), {"1": "2", "2": "1"}, {}, {}))
    for n_v in range(1, max_vertices + 1):
        out.extend(_multigraphs(allowed_valences, n_ports, n_v))
    return out


def truncated_free(
    sp: GraphicalSpecies, n_ports: int, max_vertices: int
) -> list[tuple[JKGraph, Decoration]]:
    """The decorated connected graphs with ports 1..n and a bounded
    number of vertices, one per port-fixing decorated isomorphism class:
    the free monad on the species, truncated.  Of each orbit under the
    port-fixing automorphisms of a graph, the first decoration that
    evaluate_species lists is kept: a decoration is kept unless it is
    an image of a kept one, and keeping it adds its images."""
    arities = sorted({len(p) for p in sp.operations.values()})
    elements: list[tuple[JKGraph, Decoration]] = []
    for g in graphs_with_ports(arities, n_ports, max_vertices):
        fixed = ports(g)
        autos = [iso for iso in find_isomorphisms(g, g) if all(iso.arc_map[p] == p for p in fixed)]
        images: list[Decoration] = []
        for dec in evaluate_species(sp, g):
            if dec not in images:
                elements.append((g, dec))
                images.extend(transport_decoration(sp, dec, iso) for iso in autos)
    return elements


def monad_mult_element(
    sp: GraphicalSpecies,
    r: JKGraph,
    outer_colouring: dict[str, str],
    assignment: dict[str, tuple[JKGraph, dict[str, str]]],
    decorations: dict[str, Decoration],
) -> tuple[Refinement, Decoration]:
    """Flatten one element of the free monad applied twice: a graph r
    whose vertices are labelled by decorated graphs (via the refine
    assignment) becomes the refined graph with the transported
    decoration.  The outer colouring must agree with each piece's
    boundary colours along its interface."""
    if set(decorations) != set(assignment):
        raise ValueError("decorations must be given at exactly the assigned vertices")
    for x in sorted(assignment):
        rep = validate_decoration(sp, assignment[x][0], decorations[x])
        if not rep.ok:
            raise ValueError(f"decoration at {x!r} invalid: " + "; ".join(rep.problems))
    refinement, cover = _refine_with_cover(r, assignment)
    for a in sorted(r.arcs):
        if outer_colouring.get(a) not in sp.colours:
            raise ValueError(f"outer colouring misses arc {a!r}")
    for a in sorted(r.arcs):
        if outer_colouring[r.involution[a]] != sp.colour_involution[outer_colouring[a]]:
            raise ValueError(f"outer colouring is not edge-paired at {a!r}")
    colouring: dict[str, str] = {}
    labels = {}
    for x in sorted(assignment):
        bij, dec = assignment[x][1], decorations[x]
        for q, a in bij.items():
            if dec.arc_colouring[q] != outer_colouring[a]:
                raise ValueError(f"piece at {x!r} disagrees with the outer colouring at port {q!r}")
        for a, c in dec.arc_colouring.items():
            if colouring.setdefault(cover.arc_map[x + "." + a], c) != c:
                raise ValueError("glued arcs received conflicting colours")
        for w, label in dec.vertex_labels.items():
            arcs = tuple(cover.arc_map[x + "." + a] for a in label.arcs_by_slot)
            labels[x + "." + w] = canonical_label(sp, label.operation, arcs)
    return refinement, Decoration(colouring, labels)
