import contextlib
import copy
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_bm_loop, make_bm_two_corollas, make_path_piece
from grafcat import cli, jsonio
from grafcat.bm import BMGraph, BMMorphism, bm_corolla, bm_identity, bm_point, compose_bm
from grafcat.cospan_equiv import identity_cospan, phi, phi1_graph, phi1_mor
from grafcat.etale import identity_etale, replay_gluings
from grafcat.graph_core import corolla, graph_sum, prefix_graph
from grafcat.kleisli import identity_refinement, refine

GOLDEN = Path(__file__).resolve().parent / "golden"
SRC = str(Path(__file__).resolve().parent.parent / "src")
ENV = dict(os.environ, PYTHONPATH=SRC)


def run(*argv, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "grafcat.cli", *argv],
        capture_output=True, text=True, env=ENV,
    )
    assert proc.returncode == expect, (argv, proc.returncode, proc.stderr)
    return proc


@pytest.fixture
def save(tmp_path):
    def _save(name, doc):
        path = tmp_path / name
        path.write_text(jsonio.dumps(doc))
        return str(path)

    return _save


def make_contract(LOOP):
    return BMMorphism(LOOP, bm_point(), {}, {"v": "v"}, {"f1": "f2", "f2": "f1"})


# -- validate -------------------------------------------------------------------

def test_validate_ok(save):
    proc = run("validate", save("c3.json", jsonio.graph_to_json(corolla(3))))
    assert json.loads(proc.stdout)["ok"] is True


def test_validate_reports_problems(save):
    doc = jsonio.graph_to_json(corolla(1))
    doc["involution"] = {"1": "1", "1*": "1*"}
    proc = run("validate", save("bad.json", doc), expect=1)
    assert "fixpoint-free" in proc.stdout


def test_parse_errors_exit_two(tmp_path):
    empty = tmp_path / "broken.json"
    empty.write_text("{}")
    assert run("validate", str(empty), expect=2).returncode == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    assert run("validate", str(notjson), expect=2).returncode == 2
    assert run("validate", str(tmp_path / "absent.json"), expect=2).returncode == 2


def species_doc():
    return {
        "kind": "species",
        "colours": ["c"],
        "colour_involution": {"c": "c"},
        "operations": [{"name": "m", "arity": 2, "profile": ["c", "c"]}],
        "action": [
            {"operation": "m", "permutation": [1, 2], "result": "m"},
            {"operation": "m", "permutation": [2, 1], "result": "m"},
        ],
    }


def free_species_doc():
    return {
        "kind": "species",
        "colours": ["in", "out"],
        "colour_involution": {"in": "out", "out": "in"},
        "operations": [
            {"name": "b", "arity": 2, "profile": ["in", "out"]},
            {"name": "m", "arity": 3, "profile": ["in", "in", "out"]},
        ],
    }


def test_species_document_validates(save):
    assert json.loads(run("validate", save("sp.json", species_doc())).stdout)["ok"] is True


def _set_arity(doc, value):
    # with a profile as long as Python takes the value to be
    doc["operations"][0].update(arity=value, profile=["c"] * int(value))


def _set_permutation_entry(doc, value):
    doc["action"][1]["permutation"][0] = value


def _repeat_operation(doc, value):
    doc["operations"].append(dict(doc["operations"][0], profile=value, arity=len(value)))


def _repeat_action(doc, value):
    doc["action"].append(dict(doc["action"][0], result=value))


@pytest.mark.parametrize(
    "mutate, value",
    [
        (_set_arity, True),
        (_set_arity, 2.0),
        (_set_arity, "2"),
        (_set_permutation_entry, True),
        (_set_permutation_entry, 2.0),
        (_repeat_operation, ["c", "c"]),
        (_repeat_operation, ["c"]),
        (_repeat_action, "m"),
    ],
)
def test_species_documents_need_integers_and_distinct_entries(save, mutate, value):
    # Python counts True as 1 and 2.0 == 2; a repeated entry would
    # silently replace the first one
    doc = species_doc()
    mutate(doc, value)
    proc = run("validate", save("bad.json", doc), expect=2)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "where, value",
    [
        ("kind", ["bm-graph"]),
        ("name", ["m"]),
        ("name", 7),
        ("operation", ["m"]),
        ("operation", 7),
        ("result", {"m": 1}),
        ("result", 7),
    ],
)
def test_non_string_names_exit_two(save, where, value):
    doc = species_doc()
    if where == "kind":
        doc["kind"] = value
    elif where == "name":
        doc["operations"][0]["name"] = value
    else:
        doc["action"][1][where] = value
    proc = run("validate", save("bad.json", doc), expect=2)
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "perm, code", [([1, 1], 2), ([3, 1], 2), ([0, 1], 2), ([1], 1), ([1, 2, 3], 1)]
)
def test_species_permutations_keep_the_exit_code_contract(save, perm, code):
    # not a permutation of 1..k: unusable; one of the wrong length: a problem
    doc = species_doc()
    doc["action"][1]["permutation"] = perm
    proc = run("validate", save("bad.json", doc), expect=code)
    assert "Traceback" not in proc.stderr


def test_species_action_for_an_unknown_operation_exits_one(save):
    doc = {
        "kind": "species",
        "colours": ["in"],
        "colour_involution": {"in": "in"},
        "operations": [{"name": "b", "arity": 2, "profile": ["in", "in"]}],
        "action": [
            {"operation": "b", "permutation": [1, 2], "result": "b"},
            {"operation": "b", "permutation": [2, 1], "result": "b"},
        ],
    }
    run("validate", save("ok.json", doc))
    doc["action"].append({"operation": "zzz", "permutation": [1], "result": "nope"})
    proc = run("validate", save("bad.json", doc), expect=1)
    assert "unknown operation 'zzz'" in proc.stdout


def test_validate_classifies_morphisms(save, LOOP):
    proc = run("validate", save("m.json", jsonio.bm_morphism_to_json(make_contract(LOOP))))
    cls = json.loads(proc.stdout)["classification"]
    assert cls["contraction"] and cls["compression"] and not cls["grafting"]


def test_file_references_resolve(save, LOOP):
    save("loop.json", jsonio.bm_graph_to_json(LOOP))
    save("pt.json", jsonio.bm_graph_to_json(bm_point()))
    doc = jsonio.bm_morphism_to_json(make_contract(LOOP))
    doc["source"] = {"$file": "loop.json"}
    doc["target"] = {"$file": "pt.json"}
    proc = run("validate", save("m.json", doc))
    assert json.loads(proc.stdout)["ok"] is True


@pytest.mark.parametrize("ref", [5, None, ["loop.json"], {"path": "loop.json"}])
def test_non_string_file_reference_exits_two(save, LOOP, ref):
    save("loop.json", jsonio.bm_graph_to_json(LOOP))
    doc = jsonio.bm_morphism_to_json(make_contract(LOOP))
    doc["source"] = {"$file": ref}
    proc = run("validate", save("m.json", doc), expect=2)
    assert "$file" in proc.stderr and "Traceback" not in proc.stderr


def test_undecodable_file_exits_two(tmp_path, save, LOOP):
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{")
    assert "Traceback" not in run("validate", str(binary), expect=2).stderr
    doc = jsonio.bm_morphism_to_json(make_contract(LOOP))
    doc["target"] = {"$file": "binary.json"}
    assert "Traceback" not in run("validate", save("m.json", doc), expect=2).stderr


def nested(depth: int) -> str:
    """A JSON array nested depth levels deep."""
    return "[" * depth + "]" * depth


def deep_arcs_graph() -> str:
    """corolla(1) as a jk-graph document whose arcs field is 100000 deep."""
    doc = jsonio.graph_to_json(corolla(1))
    doc["arcs"] = "DEEP"
    return jsonio.dumps(doc).replace('"DEEP"', nested(100000))


@pytest.mark.parametrize("where", ["document", "arcs", "$file"])
def test_too_deeply_nested_json_exits_two(tmp_path, where):
    path = tmp_path / "deep.json"
    path.write_text(nested(200000) if where == "document" else deep_arcs_graph())
    if where == "$file":
        doc = jsonio.etale_to_json(identity_etale(corolla(1)))
        doc["source"] = {"$file": "deep.json"}
        path = tmp_path / "m.json"
        path.write_text(jsonio.dumps(doc))
    err = run("validate", str(path), expect=2).stderr
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


# -- exit codes under malformed documents ----------------------------------------

_KINDS = ["jk-graph", "bm-graph", "bm-morphism", "etale", "refinement", "cospan", "species", "x"]
_ODD_VALUES = [5, None, True, 1.5, "v", [], ["v"], {}, {"v": 1}, {"v": "v"}]
_FILE_SLOTS = [
    {"$file": 5}, {"$file": None}, {"$file": ["g.json"]}, {"$file": {}},
    {"$file": "absent.json"}, {"$file": "a\0b"}, {"$file": "g.json"}, {"$file": "jk.json"}, {},
]


def _fuzz_files():
    """The well-formed documents the fuzzed ones are run against, by
    file name: g.json and jk.json also fill file references."""
    loop = make_bm_loop()
    contract = phi(make_contract(loop))  # picture of the loop -> picture of a point
    graft = phi1_mor(BMMorphism(bm_corolla(2), loop, {"f1": "1", "f2": "2"}, {"v": "v"}, {}))
    jl, jp, jc = phi1_graph(loop), phi1_graph(bm_point()), phi1_graph(bm_corolla(2))
    return {
        "g.json": jsonio.bm_graph_to_json(loop),
        "jk.json": jsonio.graph_to_json(jl),
        "id.json": jsonio.bm_morphism_to_json(bm_identity(bm_point())),
        "id-etale.json": jsonio.etale_to_json(identity_etale(graft.target)),
        "id-ref.json": jsonio.refinement_to_json(identity_refinement(contract.right.target)),
        "id-cospan.json": jsonio.cospan_to_json(identity_cospan(jp)),
        "ref-c2.json": jsonio.refinement_to_json(identity_refinement(jc)),
        "cover-point.json": jsonio.etale_to_json(identity_etale(jp)),
        "cover.json": jsonio.etale_to_json(graft),
        "ref.json": jsonio.refinement_to_json(contract.right),
        "cospan.json": jsonio.cospan_to_json(contract),
    }


def _fuzz_bases():
    """(document, the file it composes with, the pushout it takes part
    in with "doc" standing for it, or None)."""
    loop, cc = make_bm_loop(), make_bm_two_corollas()
    contract = make_contract(loop)
    by_file = jsonio.bm_morphism_to_json(contract)
    by_file["source"] = {"$file": "g.json"}
    files = _fuzz_files()
    cover, ref = files["cover.json"], files["ref.json"]
    cospan = files["cospan.json"]
    cover_by_file = dict(cover, target={"$file": "jk.json"})
    ref_by_file = dict(ref, target={"$file": "jk.json"})
    cospan_by_file = dict(cospan, left=dict(cospan["left"], source={"$file": "jk.json"}))
    bm = [
        jsonio.bm_graph_to_json(loop),
        jsonio.bm_graph_to_json(cc),
        jsonio.bm_morphism_to_json(contract),
        jsonio.bm_morphism_to_json(bm_identity(cc)),
        by_file,
    ]
    species = [species_doc(), free_species_doc()]
    return [(doc, "id.json", None) for doc in bm + species] + [
        (files["jk.json"], "id.json", None),
        (jsonio.graph_to_json(corolla(2)), "id.json", None),
        (cover, "id-etale.json", ("ref-c2.json", "doc")),
        (cover_by_file, "id-etale.json", ("ref-c2.json", "doc")),
        (ref, "id-ref.json", ("doc", "cover-point.json")),
        (ref_by_file, "id-ref.json", ("doc", "cover-point.json")),
        (cospan, "id-cospan.json", None),
        (cospan_by_file, "id-cospan.json", None),
    ]


def _locations(doc, at=()):
    for k, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield at + (k,)
        if isinstance(v, (dict, list)):
            yield from _locations(v, at + (k,))


def _at(doc, path):
    for k in path:
        doc = doc[k]
    return doc


@st.composite
def _malformed(draw):
    """A valid document of any kind with one to three of: a key dropped,
    a value of another type, another kind, or a graph slot replaced by a
    broken file reference.  Drawn with the base's partner documents."""
    base, partner, pushout = draw(st.sampled_from(_fuzz_bases()))
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["drop", "retype", "kind", "file"]))
        locations = list(_locations(doc))
        if op == "file" or not locations:
            slots = [p for p in locations if p[-1] in ("source", "target")]
            *parent, key = draw(st.sampled_from(slots or [("source",), ("target",)]))
            _at(doc, parent)[key] = copy.deepcopy(draw(st.sampled_from(_FILE_SLOTS)))
            continue
        if op == "kind":
            locations = [p for p in locations if p[-1] == "kind"] or [("kind",)]
        *parent, key = draw(st.sampled_from(locations))
        container = _at(doc, parent)
        if op == "drop":
            del container[key]
        else:
            odd = _KINDS if op == "kind" else _ODD_VALUES
            container[key] = copy.deepcopy(draw(st.sampled_from(odd)))
    return doc, partner, pushout


def _exit_code(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            return exc.code


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    for name, doc in _fuzz_files().items():
        (d / name).write_text(jsonio.dumps(doc))
    return d


@settings(max_examples=450, deadline=None)
@given(drawn=_malformed())
def test_malformed_documents_keep_the_exit_code_contract(fuzz_dir, drawn):
    doc, partner, pushout = drawn
    path = fuzz_dir / "doc.json"
    path.write_text(json.dumps(doc))
    doc_path, graph, other = str(path), str(fuzz_dir / "g.json"), str(fuzz_dir / partner)
    runs = [
        ["validate", doc_path],
        ["hom-count", doc_path, graph],
        ["compose", doc_path, other],
        ["compose", other, doc_path],
        ["export-dot", doc_path],
        ["factorise", doc_path],
        ["phi", doc_path],
    ]
    if pushout is not None:
        runs.append(["pushout"] + [doc_path if a == "doc" else str(fuzz_dir / a) for a in pushout])
    for argv in runs:
        assert _exit_code(argv) in (0, 1, 2), argv


@settings(max_examples=120, deadline=None)
@given(
    command=st.sampled_from(["enumerate", "check-equivalence"]),
    max_vertices=st.integers(-2, 2),
    max_flags=st.integers(-2, 3),
    apex_bound=st.none() | st.integers(-1, 3),
)
def test_window_bounds_keep_the_exit_code_contract(command, max_vertices, max_flags, apex_bound):
    # a negative bound, or an apex bound below the vertex bound, is
    # unusable; every other window in range passes
    argv = [command, "--max-vertices", str(max_vertices), "--max-flags", str(max_flags)]
    unusable = max_vertices < 0 or max_flags < 0
    if command == "check-equivalence" and apex_bound is not None:
        argv += ["--apex-bound", str(apex_bound)]
        unusable = unusable or apex_bound < max_vertices
    assert _exit_code(argv) == (2 if unusable else 0), argv


def test_fuzz_bases_are_well_formed(fuzz_dir):
    # unmutated, every base validates, the vertex/flag morphisms factorise
    # and translate, and the arc-side morphisms compose with their
    # partners and push out
    for doc, partner, pushout in _fuzz_bases():
        path = fuzz_dir / "doc.json"
        path.write_text(json.dumps(doc))
        assert _exit_code(["validate", str(path)]) == 0, doc["kind"]
        if doc["kind"] == "bm-morphism":
            assert _exit_code(["factorise", str(path)]) == _exit_code(["phi", str(path)]) == 0
        if doc["kind"] in ("etale", "refinement", "cospan"):
            assert _exit_code(["compose", str(path), str(fuzz_dir / partner)]) == 0, doc["kind"]
        if pushout is not None:
            argv = ["pushout"] + [str(path) if a == "doc" else str(fuzz_dir / a) for a in pushout]
            assert _exit_code(argv) == 0, argv


# -- compose / factorise / phi / pushout --------------------------------------------

def test_compose(save, LOOP):
    m = save("m.json", jsonio.bm_morphism_to_json(make_contract(LOOP)))
    ident = save("id.json", jsonio.bm_morphism_to_json(bm_identity(bm_point())))
    proc = run("compose", m, ident)
    assert jsonio.bm_morphism_from_json(json.loads(proc.stdout)) == make_contract(LOOP)


def test_compose_rejects_mismatched(save, LOOP):
    m = save("m.json", jsonio.bm_morphism_to_json(make_contract(LOOP)))
    other = save("id.json", jsonio.bm_morphism_to_json(bm_identity(bm_corolla(2))))
    assert run("compose", m, other, expect=1).returncode == 1


def test_factorise(save, LOOP):
    contract = make_contract(LOOP)
    proc = run("factorise", save("m.json", jsonio.bm_morphism_to_json(contract)))
    doc = json.loads(proc.stdout)
    middle = jsonio.bm_graph_from_json(doc["middle"])
    assert middle.involution == {"f1": "f2", "f2": "f1"}
    g = jsonio.bm_morphism_from_json(doc["grafting"])
    c = jsonio.bm_morphism_from_json(doc["compression"])
    assert compose_bm(g, c) == contract


def test_phi(save, LOOP):
    contract = make_contract(LOOP)
    proc = run("phi", save("m.json", jsonio.bm_morphism_to_json(contract)))
    assert jsonio.cospan_from_json(json.loads(proc.stdout)) == phi(contract)


def test_pushout_identity(save, LOOP):
    jl = phi1_graph(LOOP)
    r = save("r.json", jsonio.refinement_to_json(identity_refinement(jl)))
    c = save("c.json", jsonio.etale_to_json(identity_etale(jl)))
    proc = run("pushout", r, c)
    doc = json.loads(proc.stdout)
    assert jsonio.refinement_from_json(doc["refinement"]) == identity_refinement(jl)


def _golden_span():
    """A refinement whose piece at a.v has two vertices, and a cover
    gluing a port of that piece's vertex to a port of b.v."""
    two = graph_sum([prefix_graph(corolla(2), "a.")[0], prefix_graph(corolla(3), "b.")[0]])
    gen = refine(
        two,
        {
            "a.v": (make_path_piece(), {"p": "a.1", "q": "a.2"}),
            "b.v": (corolla(3), {k: "b." + k for k in ("1", "2", "3")}),
        },
    )
    _, rc = replay_gluings(two, [("a.2", "b.1")])
    return gen, rc


def _list_twice(doc):
    doc["vertex_map"]["b.v"].append("a.v.m")


def _wrong_subgraph(doc):
    doc["flag_map"]["a.1*"]["subgraph"] = ["a.v.m"]


def _empty_piece(doc):
    doc["source"]["vertices"].append("c")
    doc["vertex_map"]["c"] = []


def _vertex_in_no_piece(doc):
    doc["target"]["vertices"].append("z")


@pytest.mark.parametrize(
    "mutate, code, named",
    [
        (_list_twice, 2, "refinement.vertex_map['b.v']: target vertex 'a.v.m'"),
        (_wrong_subgraph, 2, "refinement.flag_map['a.1*'].subgraph"),
        (_empty_piece, 1, "pieces: the piece at 'c' occupies no vertices"),
        (_vertex_in_no_piece, 1, "vertex-map: "),
    ],
)
def test_refinement_pieces_keep_the_exit_code_contract(save, mutate, code, named):
    # pieces that overlap, or a flag's subgraph that is not its vertex's
    # piece, cannot be read; a piece or a vertex left out is a law problem
    doc = jsonio.refinement_to_json(_golden_span()[0])
    mutate(doc)
    proc = run("validate", save("bad.json", doc), expect=code)
    assert named in (proc.stderr if code == 2 else proc.stdout)


def test_refinement_documents_match_the_golden_files(save, tmp_path):
    # the phi image of a merger (two vertices in one piece) and the
    # pushout of a span, byte for byte as the format was first pinned
    merger = BMMorphism(BMGraph({"u", "w"}, set(), {}, {}), bm_point(), {}, {"u": "v", "w": "v"}, {})
    gen, rc = _golden_span()
    refinement = save("refinement.json", jsonio.refinement_to_json(gen))
    cover = save("cover.json", jsonio.etale_to_json(rc))
    runs = {
        "phi-merger.json": ("phi", save("merger.json", jsonio.bm_morphism_to_json(merger))),
        "pushout.json": ("pushout", refinement, cover),
    }
    assert Path(refinement).read_bytes() == (GOLDEN / "pushout-refinement.json").read_bytes()
    for name, argv in runs.items():
        run(*argv, "-o", str(tmp_path / name))
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


# -- enumeration and equivalence ------------------------------------------------------

def test_enumerate_deterministic():
    proc = run("enumerate", "--max-vertices", "1", "--max-flags", "2")
    assert len(json.loads(proc.stdout)) == 5
    again = run("enumerate", "--max-vertices", "1", "--max-flags", "2")
    assert proc.stdout == again.stdout


@pytest.mark.parametrize("max_vertices, max_flags, count", [(4, 6, 372), (3, 7, 352)])
def test_enumerate_counts_the_classes(max_vertices, max_flags, count):
    proc = run("enumerate", "--max-vertices", str(max_vertices), "--max-flags", str(max_flags))
    assert len(json.loads(proc.stdout)) == count


def test_enumerate_keys_linkless_vertices_without_ordering_them():
    # twelve vertices without flags: 12! orders of the vertices in one
    # class, none of which changes the key
    argv = ["enumerate", "--max-vertices", "12", "--max-flags", "0"]
    proc = subprocess.run(
        [sys.executable, "-m", "grafcat.cli", *argv],
        capture_output=True, text=True, env=ENV, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    assert [len(g["vertices"]) for g in json.loads(proc.stdout)] == list(range(13))


def test_enumerate_rejects_a_negative_bound():
    argv = ("enumerate", "--max-vertices", "-1", "--max-flags", "2")
    assert "--max-vertices" in run(*argv, expect=2).stderr
    argv = ("enumerate", "--max-vertices", "1", "--max-flags", "-1")
    assert "--max-flags" in run(*argv, expect=2).stderr


def test_hom_count(save):
    c2 = save("c2.json", jsonio.bm_graph_to_json(bm_corolla(2)))
    proc = run("hom-count", c2, c2)
    doc = json.loads(proc.stdout)
    assert doc["bm_count"] == 2
    assert doc["cospan_count"] == 2
    assert doc["bijection_verified"]


def test_hom_count_agrees_with_check_equivalence(tmp_path):
    # the single-pair path builds each graph's data itself; on every
    # ordered pair of the (2,3) window it must give the window's row
    table = tmp_path / "table.jsonl"
    argv = ["check-equivalence", "--max-vertices", "2", "--max-flags", "3", "-o", str(table)]
    assert _exit_code(argv) == 0
    header, *rows = [json.loads(line) for line in table.read_text().splitlines()]
    files = []
    for k, doc in enumerate(header["graphs"]):
        path = tmp_path / f"g{k}.json"
        path.write_text(jsonio.dumps(doc))
        files.append(str(path))
    assert len(rows) == len(files) ** 2 == 324
    out = tmp_path / "count.json"
    for row in rows:
        i, j = int(row["source"][1:]), int(row["target"][1:])
        assert _exit_code(["hom-count", files[i], files[j], "-o", str(out)]) == 0
        got = json.loads(out.read_text())
        keys = ("bm_count", "cospan_count", "bijection_verified")
        assert [got[k] for k in keys] == [row[k] for k in keys], row


def test_hom_count_takes_no_apex_bound(save):
    # the bound changes no count, so only check-equivalence keeps it
    c2 = save("c2.json", jsonio.bm_graph_to_json(bm_corolla(2)))
    err = run("hom-count", c2, c2, "--apex-bound", "1", expect=2).stderr
    assert "unrecognized arguments: --apex-bound 1" in err
    assert json.loads(run("hom-count", c2, c2).stdout)["bijection_verified"]


def test_check_equivalence_rejects_an_apex_bound_below_max_vertices():
    argv = ("check-equivalence", "--max-vertices", "1", "--max-flags", "2")
    assert "--apex-bound" in run(*argv, "--apex-bound", "0", expect=2).stderr
    assert "all pairs pass" in run(*argv, "--apex-bound", "1").stderr


def test_check_equivalence_rejects_a_negative_bound():
    argv = ("check-equivalence", "--max-vertices", "-1", "--max-flags", "2")
    assert "--max-vertices" in run(*argv, expect=2).stderr
    argv = ("check-equivalence", "--max-vertices", "1", "--max-flags", "-1")
    assert "--max-flags" in run(*argv, expect=2).stderr


def test_check_equivalence_output():
    proc = run("check-equivalence", "--max-vertices", "1", "--max-flags", "2")
    rows = proc.stdout.strip().split("\n")
    assert len(rows) == 26    # header line + 25 pair lines
    assert "graphs" in json.loads(rows[0])
    assert all(json.loads(r)["bijection_verified"] for r in rows[1:])
    assert "all pairs pass" in proc.stderr


# -- dot export -------------------------------------------------------------------------

def test_export_dot(save, LOOP):
    proc = run("export-dot", save("c3.json", jsonio.graph_to_json(corolla(3))))
    assert "--" in proc.stdout and "invis" in proc.stdout
    again = run("export-dot", save("c3b.json", jsonio.graph_to_json(corolla(3))))
    assert proc.stdout == again.stdout
    loop = run("export-dot", save("loop.json", jsonio.bm_graph_to_json(LOOP)))
    assert loop.stdout.count("--") == 1


def test_output_flag(save, tmp_path):
    out = tmp_path / "out.json"
    run("validate", save("c3.json", jsonio.graph_to_json(corolla(3))), "-o", str(out))
    assert json.loads(out.read_text())["ok"] is True


def _no_work(*args, **kwargs):
    raise AssertionError("the command worked before opening its output")


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
@pytest.mark.parametrize("command", ["check-equivalence", "hom-count", "validate"])
def test_unwritable_output_exits_two_before_any_work(save, tmp_path, monkeypatch, command, where):
    out = str(tmp_path / "absent" / "out.json" if where == "missing-directory" else tmp_path)
    c2 = save("c2.json", jsonio.bm_graph_to_json(bm_corolla(2)))
    argv = {
        "check-equivalence": ["check-equivalence", "--max-vertices", "1", "--max-flags", "2"],
        "hom-count": ["hom-count", c2, c2],
        "validate": ["validate", c2],
    }[command] + ["-o", out]
    err = run(*argv, expect=2).stderr
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert "Traceback" not in err
    # the commands that enumerate find out before they start
    monkeypatch.setattr(cli, "check_equivalence", _no_work)
    monkeypatch.setattr(cli, "check_pair", _no_work)
    assert _exit_code(argv) == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("where", ["-o", "stdout"])
@pytest.mark.parametrize("command", ["enumerate", "hom-count", "check-equivalence"])
def test_a_failed_write_exits_two_with_one_line(save, command, where):
    c2 = save("c2.json", jsonio.bm_graph_to_json(bm_corolla(2)))
    window = ["--max-vertices", "1", "--max-flags", "2"]
    argv = {
        "enumerate": ["enumerate", *window],
        "hom-count": ["hom-count", c2, c2],
        "check-equivalence": ["check-equivalence", *window],
    }[command]
    path = "/dev/full" if where == "-o" else "<stdout>"
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "grafcat.cli", *argv, *(["-o", path] if where == "-o" else [])],
            stdout=subprocess.DEVNULL if where == "-o" else full,
            stderr=subprocess.PIPE, text=True,
            # Buffered stdout keeps the failed bytes for the exit-time flush.
            env={k: v for k, v in ENV.items() if k != "PYTHONUNBUFFERED"},
        )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: cannot write {path}: ") and proc.stderr.count("\n") == 1


def test_unknown_subcommand():
    assert run("frobnicate", expect=2).returncode == 2
