"""
Gluing ports and reduced covers
===============================

Composing graphs means welding open ends together.  Each welding step is
recorded by an etale map, and a reduced cover packages a whole gluing
history: it maps a cut-open graph onto the glued result, bijectively on
vertices and surjectively on edges.  The covers of a fixed graph form a
boolean lattice, one cover per subset of its inner edges.
"""

from grafcat.etale import (
    cut_edges,
    decompose_reduced_cover,
    glue_ports,
    open_subgraph,
    reduced_covers_of,
    replay_gluings,
    validate_etale,
)
from grafcat.graph_core import (
    corolla,
    disjoint_union,
    inner_edges,
    is_isomorphic,
    ports,
    prefix_graph,
)

# take two corollas side by side and weld one port of each
pair, _, _ = disjoint_union(corolla(2), corolla(2))
print("ports before gluing:", sorted(ports(pair)))
glued, cover = glue_ports(pair, "L.1", "R.1")
print("ports after gluing:", sorted(ports(glued)))
print("inner edges created:", len(inner_edges(glued)))
print("cover is etale:", validate_etale(cover).ok)

# the cover remembers which ports were identified; the history can be
# decomposed into single weld steps and replayed
steps = decompose_reduced_cover(cover)
print("\nrecorded weld steps:", steps)
replayed, cover2 = replay_gluings(pair, steps)
print("replay reaches the same graph up to iso:", is_isomorphic(replayed, glued))

# cutting inner edges is the inverse direction: it reopens welds
cut, cut_cover = cut_edges(glued, inner_edges(glued))
print("\nafter cutting, ports:", sorted(ports(cut)))
print("cut graph matches the original pair:", is_isomorphic(cut, pair))

# an open subgraph restricts to a subset of vertices and keeps every
# edge germ around them
sub, incl = open_subgraph(glued, {"L.v"})
print("\nopen subgraph around L.v has ports:", sorted(ports(sub)))
print("inclusion is etale:", validate_etale(incl).ok)

# all reduced covers of a graph: one for each subset of inner edges cut
covers = reduced_covers_of(glued)
print("\nnumber of covers of a 1-inner-edge graph:", len(covers))
three = corolla(3)
print("covers of a corolla (no inner edges):", len(reduced_covers_of(three)))
