"""JSON formats for the structures the package exchanges.

Every document carries a "kind" discriminator: "jk-graph", "bm-graph",
"bm-morphism", "etale", "refinement", "cospan" or "species".  Unknown
keys are rejected.  Where a morphism document embeds its source or
target graph, the graph may be given inline or as {"$file": "path"}
relative to the referring document.  Serialisation is deterministic:
keys sorted, set-valued fields emitted as sorted lists.

A refinement document lists each source vertex's piece under
"vertex_map" and gives each source flag its chosen "outer_flag" with a
"subgraph": the piece of the flag's vertex.  A Refinement holds only
the vertex map from target to source vertices, so on writing both are
derived from it; on reading, a target vertex listed under two pieces,
or a subgraph other than its flag's piece, is a format error."""

from __future__ import annotations

import json
import os

from .bm import BMGraph, BMMorphism
from .cospan_equiv import GraphCospan
from .etale import EtaleMorphism, ReducedCover
from .graph_core import JKGraph
from .kleisli import Refinement, piece_vertices
from .species import GraphicalSpecies


class JsonFormatError(ValueError):
    """A document does not match its declared shape."""


def dumps(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def dumps_line(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _check_keys(doc, required: set[str], what: str, optional: set[str] = frozenset()):
    if not isinstance(doc, dict):
        raise JsonFormatError(f"{what}: expected an object")
    keys = set(doc) - {"kind"}
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise JsonFormatError(f"{what}: missing keys {sorted(missing)}")
    if unknown:
        raise JsonFormatError(f"{what}: unknown keys {sorted(unknown)}")


def _str_list(value, what: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise JsonFormatError(f"{what}: expected an array of strings")
    return value


def _str_map(value, what: str) -> dict[str, str]:
    if not isinstance(value, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in value.items()
    ):
        raise JsonFormatError(f"{what}: expected an object of strings")
    return value


def _is_int(value) -> bool:
    """A JSON integer: not a float, and not a boolean (which Python
    counts as an int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _expect_kind(doc, kind: str, what: str):
    if not isinstance(doc, dict):
        raise JsonFormatError(f"{what}: expected an object")
    if doc.get("kind") != kind:
        raise JsonFormatError(f"{what}: expected kind {kind!r}, got {doc.get('kind')!r}")


# ---------------------------------------------------------------------------
# graphs

def graph_to_json(g: JKGraph) -> dict:
    return {
        "kind": "jk-graph",
        "arcs": sorted(g.arcs),
        "involution": dict(g.involution),
        "flags": {
            f: {"arc": g.embed[f], "vertex": g.incidence[f]} for f in sorted(g.flags)
        },
        "vertices": sorted(g.vertices),
    }


def graph_from_json(doc) -> JKGraph:
    _expect_kind(doc, "jk-graph", "jk-graph")
    _check_keys(doc, {"arcs", "involution", "flags", "vertices"}, "jk-graph")
    arcs = _str_list(doc["arcs"], "jk-graph.arcs")
    vertices = _str_list(doc["vertices"], "jk-graph.vertices")
    involution = _str_map(doc["involution"], "jk-graph.involution")
    if not isinstance(doc["flags"], dict):
        raise JsonFormatError("jk-graph.flags: expected an object")
    embed = {}
    incidence = {}
    for f, entry in doc["flags"].items():
        _check_keys(entry, {"arc", "vertex"}, f"jk-graph.flags[{f!r}]")
        if not isinstance(entry["arc"], str) or not isinstance(entry["vertex"], str):
            raise JsonFormatError(f"jk-graph.flags[{f!r}]: arc and vertex must be strings")
        embed[f] = entry["arc"]
        incidence[f] = entry["vertex"]
    return JKGraph(set(arcs), set(embed), set(vertices), involution, embed, incidence)


def bm_graph_to_json(g: BMGraph) -> dict:
    return {
        "kind": "bm-graph",
        "vertices": sorted(g.vertices),
        "flags": sorted(g.flags),
        "boundary": dict(g.boundary),
        "involution": dict(g.involution),
    }


def bm_graph_from_json(doc) -> BMGraph:
    _expect_kind(doc, "bm-graph", "bm-graph")
    _check_keys(doc, {"vertices", "flags", "boundary", "involution"}, "bm-graph")
    return BMGraph(
        set(_str_list(doc["vertices"], "bm-graph.vertices")),
        set(_str_list(doc["flags"], "bm-graph.flags")),
        _str_map(doc["boundary"], "bm-graph.boundary"),
        _str_map(doc["involution"], "bm-graph.involution"),
    )


def _read_json(path: str, prefix: str = ""):
    """The document in a file; failing to read or parse it is a
    JsonFormatError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise JsonFormatError(f"{prefix}{path} is not JSON: {exc}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError: undecodable bytes, or a NUL in path; RecursionError:
        # nesting deeper than the parser's recursion limit
        raise JsonFormatError(f"{prefix}cannot read {path}: {exc}") from exc


def _graph_slot(doc, kind: str, what: str, base_dir: str | None, from_json):
    """A morphism's source or target: inline graph or {"$file": path}."""
    if isinstance(doc, dict) and set(doc) == {"$file"}:
        if base_dir is None:
            raise JsonFormatError(f"{what}: file references are not allowed here")
        if not isinstance(doc["$file"], str):
            raise JsonFormatError(f"{what}: $file must be a string")
        doc = _read_json(os.path.join(base_dir, doc["$file"]), f"{what}: ")
    _expect_kind(doc, kind, what)
    return from_json(doc)


# ---------------------------------------------------------------------------
# morphisms

def bm_morphism_to_json(m: BMMorphism) -> dict:
    return {
        "kind": "bm-morphism",
        "source": bm_graph_to_json(m.source),
        "target": bm_graph_to_json(m.target),
        "flag_map": dict(m.flag_map),
        "vertex_map": dict(m.vertex_map),
        "complement_involution": dict(m.virtual_involution),
    }


def bm_morphism_from_json(doc, base_dir: str | None = None) -> BMMorphism:
    _expect_kind(doc, "bm-morphism", "bm-morphism")
    _check_keys(
        doc,
        {"source", "target", "flag_map", "vertex_map", "complement_involution"},
        "bm-morphism",
    )
    return BMMorphism(
        _graph_slot(doc["source"], "bm-graph", "bm-morphism.source", base_dir, bm_graph_from_json),
        _graph_slot(doc["target"], "bm-graph", "bm-morphism.target", base_dir, bm_graph_from_json),
        _str_map(doc["flag_map"], "bm-morphism.flag_map"),
        _str_map(doc["vertex_map"], "bm-morphism.vertex_map"),
        _str_map(doc["complement_involution"], "bm-morphism.complement_involution"),
    )


def etale_to_json(m: EtaleMorphism) -> dict:
    return {
        "kind": "etale",
        "source": graph_to_json(m.source),
        "target": graph_to_json(m.target),
        "arc_map": dict(m.arc_map),
        "flag_map": dict(m.flag_map),
        "vertex_map": dict(m.vertex_map),
    }


def etale_from_json(doc, base_dir: str | None = None) -> EtaleMorphism:
    _expect_kind(doc, "etale", "etale")
    _check_keys(doc, {"source", "target", "arc_map", "flag_map", "vertex_map"}, "etale")
    return EtaleMorphism(
        _graph_slot(doc["source"], "jk-graph", "etale.source", base_dir, graph_from_json),
        _graph_slot(doc["target"], "jk-graph", "etale.target", base_dir, graph_from_json),
        _str_map(doc["arc_map"], "etale.arc_map"),
        _str_map(doc["flag_map"], "etale.flag_map"),
        _str_map(doc["vertex_map"], "etale.vertex_map"),
    )


def refinement_to_json(r: Refinement) -> dict:
    pieces = piece_vertices(r)
    return {
        "kind": "refinement",
        "source": graph_to_json(r.source),
        "target": graph_to_json(r.target),
        "arc_map": dict(r.arc_map),
        "vertex_map": pieces,
        "flag_map": {
            g: {"subgraph": list(pieces.get(r.source.incidence.get(g), [])), "outer_flag": h}
            for g, h in r.flag_map.items()
        },
    }


def refinement_from_json(doc, base_dir: str | None = None) -> Refinement:
    _expect_kind(doc, "refinement", "refinement")
    _check_keys(doc, {"source", "target", "arc_map", "vertex_map", "flag_map"}, "refinement")
    source = _graph_slot(doc["source"], "jk-graph", "refinement.source", base_dir, graph_from_json)
    if not isinstance(doc["vertex_map"], dict):
        raise JsonFormatError("refinement.vertex_map: expected an object")
    pieces = {
        x: set(_str_list(w, f"refinement.vertex_map[{x!r}]")) for x, w in doc["vertex_map"].items()
    }
    vertex_map: dict[str, str] = {}
    for x, w in pieces.items():
        for v in sorted(w):
            if vertex_map.setdefault(v, x) != x:
                raise JsonFormatError(
                    f"refinement.vertex_map[{x!r}]: target vertex {v!r} is also in the piece "
                    f"at {vertex_map[v]!r}"
                )
    if not isinstance(doc["flag_map"], dict):
        raise JsonFormatError("refinement.flag_map: expected an object")
    flag_map = {}
    for g, entry in doc["flag_map"].items():
        what = f"refinement.flag_map[{g!r}]"
        _check_keys(entry, {"subgraph", "outer_flag"}, what)
        if not isinstance(entry["outer_flag"], str):
            raise JsonFormatError(f"{what}: outer_flag must be a string")
        subgraph = set(_str_list(entry["subgraph"], what + ".subgraph"))
        x = source.incidence.get(g)  # a flag outside the source fails validation instead
        if x is not None and subgraph != pieces.get(x, set()):
            raise JsonFormatError(f"{what}.subgraph: not the piece at the flag's vertex {x!r}")
        flag_map[g] = entry["outer_flag"]
    return Refinement(
        source,
        _graph_slot(doc["target"], "jk-graph", "refinement.target", base_dir, graph_from_json),
        _str_map(doc["arc_map"], "refinement.arc_map"),
        vertex_map,
        flag_map,
    )


def cospan_to_json(c: GraphCospan) -> dict:
    return {
        "kind": "cospan",
        "left": etale_to_json(c.left),
        "right": refinement_to_json(c.right),
    }


def cospan_from_json(doc, base_dir: str | None = None) -> GraphCospan:
    _expect_kind(doc, "cospan", "cospan")
    _check_keys(doc, {"left", "right"}, "cospan")
    left = etale_from_json(doc["left"], base_dir)
    right = refinement_from_json(doc["right"], base_dir)
    return GraphCospan(tuple.__new__(ReducedCover, left), right)


# ---------------------------------------------------------------------------
# species

def species_from_json(doc) -> GraphicalSpecies:
    _expect_kind(doc, "species", "species")
    _check_keys(
        doc, {"colours", "colour_involution", "operations"}, "species", optional={"action"}
    )
    if not isinstance(doc["operations"], list):
        raise JsonFormatError("species.operations: expected an array")
    operations = {}
    for entry in doc["operations"]:
        _check_keys(entry, {"name", "arity", "profile"}, "species.operations[]")
        if not isinstance(entry["name"], str):
            raise JsonFormatError("species.operations[].name: expected a string")
        profile = tuple(_str_list(entry["profile"], "species.operations[].profile"))
        if not _is_int(entry["arity"]):
            raise JsonFormatError("species.operations[].arity: expected an integer")
        if entry["arity"] != len(profile):
            raise JsonFormatError(
                f"species.operations[{entry['name']!r}]: arity does not match the profile"
            )
        if entry["name"] in operations:
            raise JsonFormatError(f"species.operations: {entry['name']!r} is listed twice")
        operations[entry["name"]] = profile
    action = None
    if "action" in doc:
        if not isinstance(doc["action"], list):
            raise JsonFormatError("species.action: expected an array")
        action = {}
        for entry in doc["action"]:
            _check_keys(entry, {"operation", "permutation", "result"}, "species.action[]")
            if not isinstance(entry["operation"], str) or not isinstance(entry["result"], str):
                raise JsonFormatError("species.action[]: operation and result must be strings")
            perm = entry["permutation"]
            if not isinstance(perm, list) or not all(_is_int(i) for i in perm):
                raise JsonFormatError("species.action[].permutation: expected integers")
            if sorted(perm) != list(range(1, len(perm) + 1)):
                raise JsonFormatError(
                    f"species.action[].permutation: {perm} does not list 1..{len(perm)} once each"
                )
            key = entry["operation"], tuple(i - 1 for i in perm)
            if key in action:
                raise JsonFormatError(
                    f"species.action: {entry['operation']!r} under {perm} is listed twice"
                )
            action[key] = entry["result"]
    return GraphicalSpecies(
        frozenset(_str_list(doc["colours"], "species.colours")),
        _str_map(doc["colour_involution"], "species.colour_involution"),
        operations,
        action,
    )


# ---------------------------------------------------------------------------
# dispatch

_PARSERS = {
    "jk-graph": lambda doc, base_dir: graph_from_json(doc),
    "bm-graph": lambda doc, base_dir: bm_graph_from_json(doc),
    "bm-morphism": bm_morphism_from_json,
    "etale": etale_from_json,
    "refinement": refinement_from_json,
    "cospan": cospan_from_json,
    "species": lambda doc, base_dir: species_from_json(doc),
}


def parse_document(doc, base_dir: str | None = None) -> tuple[str, object]:
    """Dispatch on the "kind" discriminator; returns (kind, value)."""
    if not isinstance(doc, dict):
        raise JsonFormatError("document: expected an object")
    kind = doc.get("kind")
    if not isinstance(kind, str) or kind not in _PARSERS:
        raise JsonFormatError(f"document: unknown kind {kind!r}")
    return kind, _PARSERS[kind](doc, base_dir)


def load_document(path: str) -> tuple[str, object]:
    """Read a kinded JSON file, resolving {"$file": ...} graph slots
    relative to its directory."""
    doc = _read_json(path)
    return parse_document(doc, os.path.dirname(os.path.abspath(path)))
