"""Text formats and the command-line front end."""

import json
import os
import time
from enum import IntEnum
from fractions import Fraction

import pytest

from lochom.cli import _emit, _jsonable, main
from lochom.complexes import MAX_CLOSURE, parse_complex, serialize_complex
from lochom.fixtures import circle3, hexagon, hexagon_cover_map, rp2_six
from lochom.io import (parse_filtration, parse_map, parse_sheaf,
                       serialize_map, serialize_sheaf)
from lochom.matrices import Matrix
from lochom.rings import QQ, ZZ
from lochom.sheaves import ConstantSheaf, simplicial_chain_complex

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fix(name):
    return os.path.join(FIXDIR, name)


def test_map_round_trip():
    f = parse_map("map: 0 -> 0\nmap: 1 -> 1\nmap: 2 -> 2\n"
                  "map: 3 -> 0\nmap: 4 -> 1\nmap: 5 -> 2",
                  hexagon(), circle3())
    assert f.vertex_map == hexagon_cover_map()
    g = parse_map(serialize_map(f), hexagon(), circle3())
    assert g.vertex_map == f.vertex_map


def test_map_parse_errors():
    with pytest.raises(ValueError):
        parse_map("map: 0 -> 0\nmap: 0 -> 1", circle3(), circle3())
    with pytest.raises(ValueError):
        parse_map("0 to 1", circle3(), circle3())


def test_filtration_parse():
    stages = parse_filtration("stage: 0\n# comment\nstage: 0 1\nstage: 0 1 2")
    assert stages == [[0], [0, 1], [0, 1, 2]]
    with pytest.raises(ValueError):
        parse_filtration("")


def test_sheaf_dsl_round_trip_through_files():
    X = circle3()
    F = ConstantSheaf(ZZ, X, rank=1)
    text = serialize_sheaf(F)
    G = parse_sheaf(text, X, ZZ)
    assert serialize_sheaf(G) == text


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out else None)


def test_cli_check_cm_bowtie(capsys):
    code, rep = run_cli(capsys, "check-cm", "--ring", "z",
                        "--complex", fix("bowtie.cplx"), "--dim", "2")
    assert code == 1
    assert rep["verdict"] is False
    assert any(w[0] == ["0"] or w[0] == [0] for w in rep["witnesses"])


def test_cli_duality_rp6_mod2(capsys):
    code, rep = run_cli(capsys, "duality", "--item", "1ai", "--ring", "fp:2",
                        "--complex", fix("rp6.cplx"))
    assert code == 0 and rep["verdict"]
    assert [rep["degrees"][str(l)]["source"] for l in (0, 1, 2)] == \
        [[1, []]] * 3


def test_cli_identities_t4(capsys):
    code, rep = run_cli(capsys, "identities", "--complex", fix("t4.cplx"))
    assert code == 0 and rep["ok"]


def test_cli_identities_reorients_a_subcomplex_listed_first(tmp_path,
                                                           capsys):
    # t4 under `order: 2 3 0 1` lists the edge 23 first; the double-complex
    # sweeps run on the order that puts it last, and the report says so
    with open(fix("t4.cplx"), encoding="utf-8") as fh:
        text = fh.read()
    shuffled = tmp_path / "t4_2301.cplx"
    shuffled.write_text(text.replace("order: 0 1 2 3", "order: 2 3 0 1"),
                        encoding="utf-8")
    sub = ("--subcomplex", fix("t4_edge23.sub"))
    code, rep = run_cli(capsys, "identities", "--complex", str(shuffled), *sub)
    assert code == 0 and rep["ok"] and rep["reoriented"] is True
    assert rep["order"] == [2, 3, 0, 1]
    code, plain = run_cli(capsys, "identities", "--complex", fix("t4.cplx"),
                          *sub)
    assert code == 0 and "reoriented" not in plain
    for sweep in ("double_complex", "collapse", "collapse_vs_cap"):
        assert rep[sweep] == plain[sweep]


def test_cli_naturality(capsys):
    code, rep = run_cli(capsys, "naturality", "--complex", fix("hex.cplx"),
                        "--target", fix("c3.cplx"),
                        "--map", fix("hex_to_c3.map"))
    assert code == 0 and rep["ok"] and rep["level"] == "homology"


def test_cli_sections_with_filtration(capsys):
    code, rep = run_cli(capsys, "sections", "--complex", fix("c3.cplx"),
                        "--dim", "1", "--filtration", fix("c3_arcs.filt"))
    assert code == 0 and rep["ok"]
    assert rep["semistability"]["semistable"]


def test_cli_homology_report(capsys):
    code, rep = run_cli(capsys, "homology", "--complex", fix("rp6.cplx"))
    assert code == 0
    assert rep["simplicial"]["1"]["torsion"] == [2]
    assert rep["ring"] == "Z" and rep["order"] == [0, 1, 2, 3, 4, 5]


def test_cli_local_with_uct(capsys):
    code, rep = run_cli(capsys, "local", "--complex", fix("c3.cplx"),
                        "--dim", "1")
    assert code == 0 and rep["ok"]


def test_cli_out_file_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code = main(["homology", "--complex", fix("t4.cplx"),
                     "--out", str(out)])
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--complex", fix("c3.cplx")])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["duality", "--item", "9zz", "--complex", fix("c3.cplx")])
    code = main(["homology", "--complex", fix("missing.cplx")])
    assert code == 2


def test_cli_rejects_flags_a_command_does_not_read(capsys):
    for argv in (["duality", "--item", "1ai", "--complex", fix("rp6.cplx"),
                  "--dim", "7"],
                 ["homology", "--complex", fix("c3.cplx"), "--threads", "4"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def run_cli_error(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


def test_cli_large_prime_field_is_accepted_quickly(capsys):
    start = time.perf_counter()
    code, rep = run_cli(capsys, "homology", "--ring", "fp:1000000000000000003",
                        "--complex", fix("c3.cplx"))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and rep["ring"] == "F1000000000000000003"


@pytest.mark.parametrize("p", [str(10 ** 18 + 1), str(10 ** 400 + 1)],
                         ids=["composite", "too-large"])
def test_cli_bad_prime_field_exits_2(capsys, p):
    code, err = run_cli_error(capsys, "homology", "--ring", "fp:" + p,
                              "--complex", fix("c3.cplx"))
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


EMPTY = "order: 0 1\n"


@pytest.mark.parametrize("command", [
    ["homology", "--complex", EMPTY],
    ["local", "--complex", EMPTY],
    ["local", "--complex", EMPTY, "--dim", "0"],
    ["check-cm", "--complex", EMPTY],
    ["duality", "--item", "1ai", "--complex", EMPTY],
    ["sections", "--complex", EMPTY],
    ["identities", "--complex", EMPTY],
    ["naturality", "--complex", EMPTY, "--target", fix("c3.cplx"),
     "--map", fix("hex_to_c3.map")],
    ["naturality", "--complex", fix("hex.cplx"), "--target", EMPTY,
     "--map", fix("hex_to_c3.map")]],
    ids=["homology", "local", "local-dim", "check-cm", "duality", "sections",
         "identities", "naturality-source", "naturality-target"])
def test_cli_empty_complex_exits_2(tmp_path, capsys, command):
    # a verdict over a complex with no simplices would be vacuous
    path = tmp_path / "empty.cplx"
    path.write_text(EMPTY)
    argv = [str(path) if a == EMPTY else a for a in command]
    code, err = run_cli_error(capsys, *argv)
    assert code == 2
    assert err == "error: complex has no simplices\n"


@pytest.mark.parametrize("command, dim", [("homology", "-1"), ("local", "-1"),
                                          ("check-cm", "-2"),
                                          ("sections", "-1")])
def test_cli_negative_dim_exits_2(capsys, command, dim):
    # no degree below 0 exists, so any verdict about one would be vacuous
    code, err = run_cli_error(capsys, command, "--complex", fix("t4.cplx"),
                              "--dim", dim)
    assert code == 2
    assert err == f"error: --dim must be at least 0, not {dim}\n"


@pytest.mark.parametrize("command", [["sections"], ["local"],
                                     ["duality", "--item", "1ai"]])
def test_cli_refuses_a_complex_too_large_to_close(tmp_path, capsys, command):
    # 2^40 faces would exhaust memory: the file is refused before any subset
    # of the line is built, naming the line
    line = "simplex: " + " ".join(map(str, range(40)))
    path = tmp_path / "huge.cplx"
    path.write_text(f"simplex: 0 1 2\n{line}\n")
    start = time.perf_counter()
    code, err = run_cli_error(capsys, *command, "--complex", str(path))
    assert time.perf_counter() - start < 1
    assert code == 2
    assert err == (f"error: line {line!r} takes the face closure past "
                   f"{MAX_CLOSURE} faces\n")


# a vertex named in the order header but in no simplex of the complex
GHOST = ("order: 0 1 2 3 9\nsimplex: 0 1 2\nsimplex: 0 1 3\n"
         "simplex: 0 2 3\nsimplex: 1 2 3\n", "vertices: 9\n",
         "error: subcomplex has no vertex of the complex\n")


@pytest.mark.parametrize("command, complex_text, sub_text, message", [
    (["check-cm"], "order: 0 1 2\nsimplex: 0 1\nsimplex: 1 2\n",
     "vertices:\n", "error: subcomplex file lists no vertices\n"),
    (["duality", "--item", "1ai"], "order: 0 1 2\nsimplex: 0 1 2\n",
     "vertices:\n", "error: subcomplex file lists no vertices\n"),
    (["duality", "--item", "2bi"], "order: 0 1 2\nsimplex: 0 1 2\n",
     "vertices:\n", "error: subcomplex file lists no vertices\n"),
    (["identities"], "order: 0 1 2\nsimplex: 0 1 2\n",
     "vertices:\n", "error: subcomplex file lists no vertices\n"),
    (["duality", "--item", "1ai"], *GHOST),
    (["duality", "--item", "2bi"], *GHOST),
    (["check-cm"], *GHOST),
    (["sections"], *GHOST),
    (["identities"], *GHOST)],
    ids=["check-cm", "duality-1ai", "duality-2bi", "identities",
         "ghost-duality-1ai", "ghost-duality-2bi", "ghost-check-cm",
         "ghost-sections", "ghost-identities"])
def test_cli_empty_subcomplex_exits_2(tmp_path, capsys, command, complex_text,
                                      sub_text, message):
    # over a subcomplex with no simplex every compared degree is 0 = 0, a
    # vacuous true
    cplx = tmp_path / "x.cplx"
    cplx.write_text(complex_text)
    sub = tmp_path / "empty.sub"
    sub.write_text(sub_text)
    code, err = run_cli_error(capsys, *command, "--complex", str(cplx),
                              "--subcomplex", str(sub))
    assert code == 2
    assert err == message


@pytest.mark.parametrize("old, new, message", [
    ("map: 5 -> 2\n", "map: 5 -> 9\n",
     "error: image 9 of 5 is not in the target\n"),
    ("map: 5 -> 2\n", "map: 5 -> 2\nmap: 77 -> 1\n",
     "error: vertex 77 is not in the source\n")],
    ids=["image-outside-target", "vertex-outside-source"])
def test_cli_map_outside_its_complexes_exits_2(tmp_path, capsys, old, new,
                                              message):
    with open(fix("hex_to_c3.map"), encoding="utf-8") as fh:
        text = fh.read()
    assert old in text
    path = tmp_path / "bad.map"
    path.write_text(text.replace(old, new))
    code, err = run_cli_error(capsys, "naturality", "--complex", fix("hex.cplx"),
                              "--target", fix("c3.cplx"), "--map", str(path))
    assert code == 2
    assert err == message


def test_fixture_files_match_builtins(capsys):
    X = parse_complex(open(fix("c3.cplx")).read())
    assert set(X.all_simplices()) == set(circle3().all_simplices())
    assert serialize_complex(X) == open(fix("c3.cplx")).read()


@pytest.mark.parametrize("flag", ["--complex", "--subcomplex"])
def test_cli_directory_as_input_exits_2(capsys, flag):
    paths = {"--complex": fix("rp6.cplx"), "--subcomplex": fix("rp6_345.sub")}
    paths[flag] = FIXDIR
    code, err = run_cli_error(capsys, "homology",
                              "--complex", paths["--complex"],
                              "--subcomplex", paths["--subcomplex"])
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1


class Degree(IntEnum):
    TOP = 2


class Labels(dict):
    pass


def writer_cases():
    """Values the report writer must write as `json.dumps` would."""
    fr = Fraction(-3, 4)
    m = Matrix(QQ, ((0,), (1,)), ("a", "b", "c"),
               {((0,), "a"): fr, ((1,), "c"): Fraction(5)})
    h = simplicial_chain_complex(rp2_six(), ZZ).homology(1)
    return {
        "fraction": {"x": fr, "list": [fr, Fraction(0)]},
        "sets": {"set": {(1, 2), (0,), (2, 1, 0)},
                 "frozen": frozenset({("b",), ("a", 1)}),
                 "empty": set(),
                 "nested": ((1, (2, (3, ()))), [(), ((),)])},
        "keys": {1: "int", (0, 1): "tuple", ((0, 1), (2,)): "nested",
                 ((0, 1), 2): "mixed", True: "bool", None: "none",
                 fr: "fraction", Degree.TOP: "enum"},
        "collide": {1: "int first", "1": "str last"},
        "collide_reversed": {"1": "str first", 1: "int last"},
        "empty": {"dict": {}, "list": [], "tuple": (),
                  "nested": [{}, [], [[]], {"": {}}]},
        "strings": ["σ ∈ ℤ/2", "tab\there", "nl\n cr\r", "\x00\x1f\x7f",
                    'quote " and \\ backslash', "\u2028\ud83d", ""],
        "scalars": [True, False, None, 0, -7, 10 ** 30, 0.1, -2.5e-12,
                    float("inf")],
        "subclasses": [Labels({"b": 1, (1, 2): Labels()}), Degree.TOP,
                       {"enum": Degree.TOP}],
        "matrix": m,
        "empty_matrix": Matrix(ZZ, (), ("a",)),
        "presentation": h,
        "deep": [[[{"m": m, "h": [h]}]]],
    }


@pytest.mark.parametrize("name", sorted(writer_cases()))
def test_report_writer_matches_json_dumps(tmp_path, capsys, name):
    # the reference is the writer this one replaced
    value = writer_cases()[name]
    for report in (value, {name: value}, [value, value]):
        expected = json.dumps(_jsonable(report), sort_keys=True,
                              indent=2) + "\n"
        out = tmp_path / "report.json"
        _emit(report, str(out))
        assert out.read_text(encoding="utf-8") == expected
        _emit(report, None)
        assert capsys.readouterr().out == expected
