"""The report writer's text memo on whole `local` reports.

A `local` report holds one row of local summaries per star type, the same
dict at every simplex of that type, so `cli._write` writes each row's text
from its memo after the row's second sight.  These tests read the reports
`cli.main` writes: their text equals `json.dumps` of the report, and no row
is walked more than twice.  The wedge of two 2-spheres (sd of the boundary
of the 3-simplex, twice, glued at vertex 0) is the benchmark's, built by
`perfbench/inputs.py`.
"""

import collections
import importlib.util
import json
import os

import pytest

from lochom import cli
from test_io_cli import assert_same_text

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)


def _load_inputs():
    spec = importlib.util.spec_from_file_location(
        "perfbench_inputs", os.path.join(ROOT, "perfbench", "inputs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wedge_s2_s2(tmp_path):
    inputs = _load_inputs()
    sd_t4 = inputs.sd(inputs.boundary_simplex(3))[0]
    path = tmp_path / "wedge.cplx"
    path.write_text("".join("simplex: " + " ".join(map(str, f)) + "\n"
                            for f in inputs.wedge(sd_t4, sd_t4, 0, 0)))
    return str(path)


def written_report(monkeypatch, tmp_path, argv):
    """(report object, text `cli.main` wrote for it, exit code)."""
    reports = []
    emit = cli._emit

    def keep(report, out_path):
        reports.append(report)
        emit(report, out_path)

    monkeypatch.setattr(cli, "_emit", keep)
    out = tmp_path / "report.json"
    code = cli.main([*argv, "--out", str(out)])
    [report] = reports
    return report, out.read_text(encoding="utf-8"), code


@pytest.mark.parametrize("ring", ["z", "fp:3"])
@pytest.mark.parametrize("name", ["sd2_rp6", "wedge"])
def test_local_report_equals_json_dumps(monkeypatch, tmp_path, name, ring):
    path = (wedge_s2_s2(tmp_path) if name == "wedge"
            else os.path.join(ROOT, "fixtures", f"{name}.cplx"))
    report, text, code = written_report(
        monkeypatch, tmp_path,
        ["local", "--dim", "2", "--ring", ring, "--complex", path])
    assert code == (1 if name == "wedge" else 0)
    assert_same_text(text, json.dumps(cli._jsonable(report), sort_keys=True,
                                      indent=2) + "\n")


def test_local_report_walks_each_shared_row_at_most_twice(monkeypatch,
                                                          tmp_path):
    # a container is walked when its `_write` call writes a value of it
    # through `_write`; a memo hit writes none
    walks = collections.Counter()
    stack = []
    write = cli._write

    def counting_write(obj, out, pad):
        if stack and not stack[-1][1]:
            stack[-1][1] = True
            walks[stack[-1][0]] += 1
        stack.append([id(obj), False])
        try:
            write(obj, out, pad)
        finally:
            stack.pop()

    monkeypatch.setattr(cli, "_write", counting_write)
    report, _, code = written_report(
        monkeypatch, tmp_path,
        ["local", "--dim", "2", "--complex",
         os.path.join(ROOT, "fixtures", "sd_rp6.cplx")])
    assert code == 0
    sights = collections.Counter(
        id(entry[half]) for entry in report["simplices"].values()
        for half in ("local_homology", "local_cohomology"))
    assert max(sights.values()) > 2
    assert {row: walks[row] for row in sights} == {
        row: min(n, 2) for row, n in sights.items()}
