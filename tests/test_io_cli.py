"""Text formats and the command-line front end."""

import json
import os
import re
import time
from enum import IntEnum
from fractions import Fraction

import pytest

from lochom.cli import FLAGS, _emit, _jsonable, main
from lochom.complexes import (MAX_CLOSURE, _parse_token, parse_complex,
                              parse_subcomplex)
from lochom.fixtures import circle3, hexagon, hexagon_cover_map, rp2_six
from lochom.matrices import Matrix
from lochom.mv import DUALITY_ITEMS
from lochom.rings import QQ, ZZ
from lochom.sectionsduality import parse_filtration
from lochom.sheaves import simplicial_chain_complex
from lochom.simplicialmaps import parse_map
from test_complex_core import serialize_complex

FIXDIR = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fix(name):
    return os.path.join(FIXDIR, name)


def serialize_map(f):
    lines = [f"map: {v} -> {f.vertex_map[v]}"
             for v in f.source.order if v in f.vertex_map]
    return "\n".join(lines) + "\n"


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


# tokens `int` reads as 10, 2, 1, 0 and 3, none of them written the
# canonical way
NONCANONICAL = ("1_0", "+2", "01", "-0", "٣")


@pytest.mark.parametrize("token", [*NONCANONICAL, "a", "0x1"])
def test_a_noncanonical_token_is_a_name(token):
    assert _parse_token(token) == token


@pytest.mark.parametrize("token", ["0", "7", "10", "-3", str(10 ** 30)])
def test_a_canonical_token_is_an_int(token):
    assert _parse_token(token) == int(token)
    assert type(_parse_token(token)) is int


def test_noncanonical_tokens_name_vertices_in_every_file_format():
    # read as ints, `01` and `02` would be the circle's vertices 1 and 2
    with pytest.raises(ValueError, match="unknown vertices"):
        parse_subcomplex("vertices: 01 02", circle3())
    with pytest.raises(ValueError):
        parse_map("map: 0 -> 0\nmap: 1 -> 1\nmap: 2 -> 02", circle3(),
                  circle3())
    assert parse_filtration("stage: 01\nstage: 01 1") == [["01"], ["01", 1]]


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


@pytest.mark.parametrize("item", sorted(DUALITY_ITEMS))
def test_cli_duality_refuses_a_complex_that_is_not_pure(tmp_path, capsys,
                                                        item):
    path = tmp_path / "mixed.cplx"
    path.write_text("simplex: 0 1 2\nsimplex: 2 3\n", encoding="utf-8")
    code, rep = run_cli(capsys, "duality", "--item", item,
                        "--complex", str(path))
    assert code == 1
    assert rep["refused"] is True and rep["verdict"] is False
    assert rep["hypothesis"] == {"name": "pure top dimension",
                                 "holds": False, "witnesses": [[2, 3]]}


@pytest.mark.parametrize("ring", ["z", "fp:2"])
@pytest.mark.parametrize("item", ["1ai", "2bi"])
def test_cli_duality_reorients_a_subcomplex_listed_first(tmp_path, capsys,
                                                         item, ring):
    # rp6 under `order: 3 4 5 0 1 2` lists the subcomplex 345 first; the
    # verdict runs on the order that puts it last and says so
    with open(fix("rp6.cplx"), encoding="utf-8") as fh:
        text = fh.read()
    shuffled = tmp_path / "rp6_345012.cplx"
    shuffled.write_text(text.replace("order: 0 1 2 3 4 5",
                                     "order: 3 4 5 0 1 2"), encoding="utf-8")
    args = ("duality", "--item", item, "--ring", ring,
            "--subcomplex", fix("rp6_345.sub"), "--complex")
    code, rep = run_cli(capsys, *args, str(shuffled))
    plain_code, plain = run_cli(capsys, *args, fix("rp6.cplx"))
    assert rep["reoriented"] is True and plain["reoriented"] is False
    assert (code, rep["verdict"]) == (plain_code, plain["verdict"])
    assert rep["verdict"] is True
    assert rep["degrees"].keys() == plain["degrees"].keys()
    for l, deg in rep["degrees"].items():
        for key in ("source", "target", "iso"):
            assert deg[key] == plain["degrees"][l][key], (l, key)


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


@pytest.mark.parametrize("p", ["3_1", "٣", "03", "+3", " 3", "abc", ""])
def test_cli_noncanonical_prime_exits_2(capsys, p):
    # `int` would read the first five as 31 and 3, and refuse the last two
    # with a message that names neither --ring nor the accepted forms
    code, err = run_cli_error(capsys, "homology", "--ring", "fp:" + p,
                              "--complex", fix("c3.cplx"))
    assert code == 2
    assert err == (f"error: ring selector {'fp:' + p!r}: write the prime in "
                   "plain decimal digits\n")


@pytest.mark.parametrize("value", [*NONCANONICAL, "abc", "1.0"])
@pytest.mark.parametrize("command, flag", [
    ("local", "dim"), ("check-cm", "dim"), ("sections", "dim"),
    ("homology", "dim"), ("homology", "degree")])
def test_cli_noncanonical_int_option_exits_2(capsys, command, flag, value):
    # `int` would read NONCANONICAL as 10, 2, 1, 0 and 3; every refusal,
    # `abc` included, gives argparse's message for a value `int` refuses
    with pytest.raises(SystemExit) as exc:
        main([command, "--complex", fix("c3.cplx"), "--" + flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"\nlochom {command}: error: argument --{flag}: "
                        f"invalid int value: {value!r}\n")


def test_cli_distinct_tokens_are_distinct_vertices(tmp_path, capsys):
    # with `1_0` read as 10 and `+2`, `٣` as 2, 3 the three edges below
    # close up into one circle; they are three disjoint edges
    path = tmp_path / "edges.cplx"
    path.write_text("simplex: 1_0 2\nsimplex: 10 3\nsimplex: +2 ٣\n",
                    encoding="utf-8")
    code, rep = run_cli(capsys, "homology", "--complex", str(path))
    assert code == 0
    assert len(rep["order"]) == 6
    assert {k: (h["rank"], h["torsion"])
            for k, h in rep["simplicial"].items()} == {"0": (3, []),
                                                       "1": (0, [])}


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
                                          ("sections", "-1"),
                                          ("homology", "-3")])
def test_cli_negative_dim_exits_2(capsys, command, dim):
    # no degree below 0 exists, so any verdict or presentation of one would
    # be vacuous: a negative --dim, or --degree where the command takes it
    for flag in ("dim", "degree"):
        if flag in FLAGS[command]:
            code, err = run_cli_error(capsys, command, "--complex",
                                      fix("t4.cplx"), "--" + flag, dim)
            assert code == 2
            assert err == f"error: --{flag} must be at least 0, not {dim}\n"


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


def _renamed(report, names):
    """The report with each vertex name a word of `names` maps to replaced
    by its number, and every scalar written as a string."""
    text = json.dumps(report, sort_keys=True)
    for name, number in names.items():
        text = re.sub(rf"\b{name}\b", str(number), text)

    def strings(value):
        if isinstance(value, dict):
            return {k: strings(v) for k, v in value.items()}
        if isinstance(value, list):
            return [strings(v) for v in value]
        return str(value)

    return strings(json.loads(text))


@pytest.mark.parametrize("named, numbered, names", [
    ("a b c", "0 1 2", {"a": 0, "b": 1, "c": 2}),
    ("a 1 2", "1 2 3", {"a": 3}),
], ids=["names", "name-and-numbers"])
@pytest.mark.parametrize("argv", [
    ("homology",), ("check-cm",), ("duality", "--item", "1ai"),
    ("local", "--dim", "2"),
], ids=lambda argv: argv[0])
def test_vertex_names_read_as_the_numbered_triangle(
        capsys, tmp_path, named, numbered, names, argv):
    # a vertex token that is not an integer is a name: a triangle on named
    # vertices gives the numbered triangle's report, names for numbers
    reports = []
    for tokens in (named, numbered):
        path = tmp_path / "triangle.cplx"
        path.write_text(f"simplex: {tokens}\n")
        code, rep = run_cli(capsys, *argv, "--complex", str(path))
        assert code == 0
        reports.append(rep)
    assert _renamed(reports[0], names) == _renamed(reports[1], {})


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


class Name(str):
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
                       {"enum": Degree.TOP}, Name("σ"),
                       {Name("k"): Name("v")}],
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


def test_cli_dim_above_the_complex_is_a_verdict_not_an_error(capsys):
    # every local group of the circle in degree 99 is zero, so the circle
    # is not locally Cohen-Macaulay there: each command that reads --dim
    # reports that (exit 1, `homology` only reports), and the 0 x 0
    # evaluation pairing of the zero modules is perfect, not a false pass
    code, rep = run_cli(capsys, "local", "--complex", fix("c3.cplx"),
                        "--dim", "99")
    assert code == 1 and rep["ok"] is False
    assert len(rep["simplices"]) == 6
    for entry in rep["simplices"].values():
        assert entry["uct"]["locally_cm_here"] is False
        assert entry["uct"]["h_rank"] == 0
        assert entry["uct"]["h_dual_summary"] == [0, []]
        assert entry["uct"]["pairing_unimodular"] is True
        assert entry["uct"]["ok"] is False
    code, rep = run_cli(capsys, "check-cm", "--complex", fix("c3.cplx"),
                        "--dim", "99")
    assert code == 1 and rep["verdict"] is False and rep["n"] == 99
    assert [w[1:] for w in rep["witnesses"]] == [[1, [1, []]]] * 6
    code, rep = run_cli(capsys, "sections", "--complex", fix("c3.cplx"),
                        "--dim", "99")
    assert code == 1 and rep["lf_h0"]["refused"] is True
    code, rep = run_cli(capsys, "homology", "--complex", fix("c3.cplx"),
                        "--dim", "99")
    assert code == 0 and rep["locally_cm_at_region"] is False
    assert "sheaf_cochain" not in rep


def test_cli_duplicate_subcomplex_vertex_exits_2(tmp_path, capsys):
    # a vertex listed twice is refused, as in a complex's `simplex:` and
    # `order:` lines: the list is most likely mistyped
    sub = tmp_path / "dup.sub"
    sub.write_text("vertices: 0 0\n")
    code, err = run_cli_error(capsys, "check-cm", "--complex", fix("t4.cplx"),
                              "--subcomplex", str(sub))
    assert code == 2
    assert err == "error: duplicate vertices in subcomplex file\n"


def test_cli_complex_without_an_order_line_takes_the_sorted_order(tmp_path,
                                                                  capsys):
    # `order:` is optional: without it the vertices are ordered by value
    # (numbers before names), and the report's header names that order
    cplx = tmp_path / "no_order.cplx"
    cplx.write_text("simplex: 2 0 1\nsimplex: 3 1 2\nsimplex: 3 0 2\n"
                    "simplex: 3 0 1\n")
    code, rep = run_cli(capsys, "check-cm", "--complex", str(cplx))
    assert code == 0 and rep["verdict"] is True
    assert rep["order"] == [0, 1, 2, 3]
    code, unordered = run_cli(capsys, "duality", "--item", "1ai",
                             "--complex", str(cplx))
    code_t4, t4 = run_cli(capsys, "duality", "--item", "1ai",
                          "--complex", fix("t4.cplx"))
    assert code == code_t4 == 0 and unordered == t4


def test_cli_degree_far_above_the_complex_reports_zero_groups(capsys):
    # as for --dim 99: a degree above dim X has zero homology, a true
    # statement and not a vacuous one, reported without building anything
    # of that size
    start = time.perf_counter()
    code, rep = run_cli(capsys, "homology", "--complex", fix("c3.cplx"),
                        "--degree", "99999999999")
    assert time.perf_counter() - start < 1
    assert code == 0 and rep["locally_cm_at_region"] is True
    zero = {"generators": [], "rank": 0, "torsion": []}
    for part in ("simplicial", "sheaf_cochain", "cosheaf_chain"):
        assert rep[part] == {"99999999999": zero}, part
