"""
Counting morphisms both ways
============================

The equivalence of the two presentations is a statement about hom sets:
between any two graphs there are exactly as many flag/vertex morphisms
as cover/refinement cospans, and the translation is a bijection.  The
oracle enumerates everything within a size window and compares the
counts pair by pair.
"""

from grafcat.bm import bm_corolla
from grafcat.oracle import (
    check_equivalence,
    check_pair,
    enumerate_bm_graphs,
    enumerate_bm_morphisms,
    enumerate_cospans,
)

# the catalogue of graphs with at most 1 vertex and 2 flags
graphs = enumerate_bm_graphs(1, 2)
print("graphs with <= 1 vertex, <= 2 flags:", len(graphs))

# hom sets between two corollas
star = bm_corolla(2)
homs = enumerate_bm_morphisms(star, star)
print("endomorphisms of the 2-corolla:", len(homs))

# the cospan side counts the same; a graph's arc picture and the reduced
# covers out of it are built on first use and kept on the graph, so every
# pair the graph is in shares them
cospans = enumerate_cospans(star, star)
print("cospans from the 2-corolla to itself:", len(cospans))

# one ordered pair, fully compared: counts, injectivity, surjectivity,
# and exactness of the roundtrip
res = check_pair(star, star, 0, 0)
print("\npair comparison:", res)
print("pair verdict:", "pass" if res.ok else "FAIL")

# the whole window at once; the full acceptance run uses 2 vertices and
# 4 flags (also available from the command line as
# `grafcat check-equivalence --max-vertices 2 --max-flags 4`)
report = check_equivalence(1, 2)
print(
    f"\nwindow report: {len(report.graphs)} graphs, {len(report.pairs)} pairs, "
    f"{report.total_bm} morphisms vs {report.total_cospans} cospans ->",
    "all pairs pass" if report.ok else "FAILURES",
)
