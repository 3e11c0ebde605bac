import json

import pytest

from grafcat import jsonio
from grafcat.bm import BMMorphism, bm_corolla, bm_point
from grafcat.cospan_equiv import phi, phi1_graph
from grafcat.etale import identity_etale
from grafcat.graph_core import corolla, is_effective, unit_graph
from grafcat.kleisli import (
    compose_cover_then_refinement,
    cover_to_refinement,
    identity_refinement,
    pushout_gen_rc,
)
from grafcat.oracle import covers_from, enumerate_bm_graphs, enumerate_refinements
from grafcat.species import GraphicalSpecies


def make_contract(LOOP):
    return BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})


def test_graph_roundtrip(L, PATH):
    for g in (L, PATH, corolla(3), unit_graph()):
        doc = json.loads(jsonio.dumps(jsonio.graph_to_json(g)))
        assert jsonio.graph_from_json(doc) == g


def test_bm_roundtrips(LOOP, E2):
    for g in (LOOP, E2, bm_point(), bm_corolla(2)):
        doc = json.loads(jsonio.dumps(jsonio.bm_graph_to_json(g)))
        assert jsonio.bm_graph_from_json(doc) == g
    m = make_contract(LOOP)
    doc = json.loads(jsonio.dumps(jsonio.bm_morphism_to_json(m)))
    assert jsonio.bm_morphism_from_json(doc) == m


def test_virtual_involution_key_name(LOOP):
    doc = jsonio.bm_morphism_to_json(make_contract(LOOP))
    assert doc["complement_involution"] == {"f1": "f2", "f2": "f1"}


def test_etale_and_refinement_roundtrip():
    m = identity_etale(corolla(2))
    assert jsonio.etale_from_json(json.loads(jsonio.dumps(jsonio.etale_to_json(m)))) == m
    r = identity_refinement(corolla(2))
    doc = json.loads(jsonio.dumps(jsonio.refinement_to_json(r)))
    assert jsonio.refinement_from_json(doc) == r


def test_refinements_of_the_pushout_window_roundtrip():
    # every refinement the (2,4) pushout spans build: the spans' own, the
    # pushed-out ones, the middles of cover-then-refinement composites
    # and the refinements of the covers
    jks = [g for g in map(phi1_graph, enumerate_bm_graphs(2, 4)) if is_effective(g)]
    refs = []
    for R in jks:
        rcs = covers_from(R)
        refs.extend(cover_to_refinement(rc) for rc in rcs)
        for S in jks:
            for gen in enumerate_refinements(R, S):
                refs.append(gen)
                for rc in rcs:
                    gen2, _ = pushout_gen_rc(gen, rc)
                    refs += [gen2, compose_cover_then_refinement(rc, gen2).generic]
    assert len(refs) == 86 + 368 + 2 * 1718
    for r in refs:
        doc = json.loads(jsonio.dumps(jsonio.refinement_to_json(r)))
        assert jsonio.refinement_from_json(doc) == r


def test_cospan_roundtrip(LOOP):
    c = phi(make_contract(LOOP))
    doc = json.loads(jsonio.dumps(jsonio.cospan_to_json(c)))
    assert jsonio.cospan_from_json(doc) == c


def test_species_roundtrip():
    sp = GraphicalSpecies(
        frozenset({"in", "out"}),
        {"in": "out", "out": "in"},
        {"m": ("in", "in", "out")},
    )
    doc = {
        "kind": "species",
        "colours": ["in", "out"],
        "colour_involution": {"in": "out", "out": "in"},
        "operations": [{"name": "m", "arity": 3, "profile": ["in", "in", "out"]}],
    }
    assert jsonio.species_from_json(doc) == sp


def test_unknown_keys_rejected():
    doc = jsonio.graph_to_json(corolla(1))
    doc["extra"] = 1
    with pytest.raises(jsonio.JsonFormatError, match="unknown keys"):
        jsonio.graph_from_json(doc)


def test_missing_key_rejected():
    doc = jsonio.graph_to_json(corolla(1))
    del doc["involution"]
    with pytest.raises(jsonio.JsonFormatError):
        jsonio.graph_from_json(doc)


def test_wrong_kind_rejected(LOOP):
    doc = jsonio.bm_graph_to_json(LOOP)
    with pytest.raises(jsonio.JsonFormatError):
        jsonio.graph_from_json(doc)


def test_parse_document_dispatch(L, LOOP):
    kind, value = jsonio.parse_document(jsonio.graph_to_json(L))
    assert kind == "jk-graph" and value == L
    kind, value = jsonio.parse_document(jsonio.bm_graph_to_json(LOOP))
    assert kind == "bm-graph" and value == LOOP


def test_deterministic_serialisation(L):
    assert jsonio.dumps(jsonio.graph_to_json(L)) == jsonio.dumps(jsonio.graph_to_json(L))
    assert jsonio.dumps(jsonio.graph_to_json(L)).endswith("\n")


def test_file_references(tmp_path, LOOP):
    (tmp_path / "loop.json").write_text(jsonio.dumps(jsonio.bm_graph_to_json(LOOP)))
    (tmp_path / "pt.json").write_text(jsonio.dumps(jsonio.bm_graph_to_json(bm_point())))
    doc = jsonio.bm_morphism_to_json(make_contract(LOOP))
    doc["source"] = {"$file": "loop.json"}
    doc["target"] = {"$file": "pt.json"}
    main = tmp_path / "contract.json"
    main.write_text(jsonio.dumps(doc))
    kind, value = jsonio.load_document(str(main))
    assert kind == "bm-morphism"
    assert value == make_contract(LOOP)
