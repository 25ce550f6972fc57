"""Golden-report guard: CLI reports must stay byte-identical.

`golden_reports.json` maps each command line below to the SHA-256 of the
report text it writes and to its exit code.  The test reruns every command
line in-process and names each one whose report or exit code differs.

Running this module as a script rewrites the manifest from the current code:

    PYTHONPATH=src python tests/test_golden_reports.py

Do that only when a report is meant to change, and say why in the commit.
"""

import hashlib
import json
import os
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
FIXDIR = os.path.join(HERE, os.pardir, "fixtures")
MANIFEST = os.path.join(HERE, "golden_reports.json")

FIXTURES = ("bowtie", "c3", "delta2", "hex", "rp6", "t4")
# each fixture's dimension n, for `local --dim n`
FIXTURE_DIMS = {"bowtie": 2, "c3": 1, "delta2": 2, "hex": 1, "rp6": 2,
                "t4": 2}
RINGS = ("z", "q", "fp:2")
COMMANDS = (("homology",), ("check-cm",), ("local",), ("sections",),
            ("duality", "--item", "1ai"), ("duality", "--item", "2ai"),
            ("duality", "--item", "2bi"), ("duality", "--item", "2bii"),
            ("identities",))
SUBCOMPLEX_PAIRS = (("rp6", "rp6_345"), ("t4", "t4_edge23"))
SUBCOMPLEX_ITEMS = ("1ai", "2bi")
SUBCOMPLEX_COMMANDS = (("homology",), ("sections",))
SUBCOMPLEX_IDENTITY_RINGS = ("z", "fp:2")
# command lines that read extra input files, run over each ring
EXTRA_LINES = (
    ("sections", "--dim", "1", "--complex", "fixtures/c3.cplx",
     "--filtration", "fixtures/c3_arcs.filt"),
    ("sections", "--dim", "2", "--complex", "fixtures/c3.cplx",
     "--filtration", "fixtures/c3_arcs.filt"),
    ("naturality", "--complex", "fixtures/hex.cplx",
     "--target", "fixtures/c3.cplx", "--map", "fixtures/hex_to_c3.map"),
)
# barycentric subdivisions, whose boundary matrices are far larger than the
# small fixtures' (up to 90 x 60 on sd_rp6)
SD_FIXTURES = ("sd_rp6", "sd_torus")
SD_RINGS = ("z", "fp:2")
SD_COMMANDS = (("duality", "--item", "1ai"), ("check-cm",),
               ("local", "--dim", "2"))


def command_lines():
    """Every guarded command line, with fixture paths relative to the repo."""
    lines = []
    for name in FIXTURES:
        for ring in RINGS:
            for command in COMMANDS:
                lines.append((*command, "--ring", ring,
                              "--complex", f"fixtures/{name}.cplx"))
            lines.append(("local", "--dim", str(FIXTURE_DIMS[name]),
                          "--ring", ring, "--complex", f"fixtures/{name}.cplx"))
    for ring in RINGS:
        for extra in EXTRA_LINES:
            lines.append((extra[0], "--ring", ring, *extra[1:]))
    for name, sub in SUBCOMPLEX_PAIRS:
        for ring in RINGS:
            for item in SUBCOMPLEX_ITEMS:
                lines.append(("duality", "--item", item, "--ring", ring,
                              "--complex", f"fixtures/{name}.cplx",
                              "--subcomplex", f"fixtures/{sub}.sub"))
            for command in SUBCOMPLEX_COMMANDS:
                lines.append((*command, "--ring", ring,
                              "--complex", f"fixtures/{name}.cplx",
                              "--subcomplex", f"fixtures/{sub}.sub"))
        for ring in SUBCOMPLEX_IDENTITY_RINGS:
            lines.append(("identities", "--ring", ring,
                          "--complex", f"fixtures/{name}.cplx",
                          "--subcomplex", f"fixtures/{sub}.sub"))
    for name in SD_FIXTURES:
        for ring in SD_RINGS:
            for command in SD_COMMANDS:
                lines.append((*command, "--ring", ring,
                              "--complex", f"fixtures/{name}.cplx"))
    return lines


def run(line, workdir):
    """Exit code and SHA-256 of the report text of one command line."""
    from lochom.cli import main

    argv = [os.path.join(FIXDIR, a[len("fixtures/"):])
            if a.startswith("fixtures/") else a for a in line]
    out = os.path.join(workdir, "report.json")
    if os.path.exists(out):
        os.remove(out)
    code = main([*argv, "--out", out])
    text = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            text = fh.read()
    return {"exit": code, "sha256": hashlib.sha256(text).hexdigest()}


def current_reports():
    with tempfile.TemporaryDirectory() as workdir:
        return {" ".join(line): run(line, workdir) for line in command_lines()}


# one command line of each command, in one process
MIXED_LINES = ("homology --ring z --complex fixtures/rp6.cplx",
               "local --dim 2 --ring fp:2 --complex fixtures/t4.cplx",
               "duality --item 2bi --ring q --complex fixtures/bowtie.cplx",
               "sections --ring z --dim 1 --complex fixtures/c3.cplx "
               "--filtration fixtures/c3_arcs.filt",
               "naturality --ring z --complex fixtures/hex.cplx --target "
               "fixtures/c3.cplx --map fixtures/hex_to_c3.map",
               "check-cm --ring z --complex fixtures/sd_torus.cplx",
               "identities --ring fp:2 --complex fixtures/c3.cplx")


def test_one_process_stays_golden_across_usage_errors(capsys):
    # the parser is built once and shared; an argparse exit between two
    # commands must leave no trace in the next report
    from lochom import cli

    with open(MANIFEST, encoding="utf-8") as fh:
        golden = json.load(fh)
    with tempfile.TemporaryDirectory() as workdir:
        for line in MIXED_LINES:
            with pytest.raises(SystemExit) as usage:
                cli.main(["duality", "--complex", "fixtures/rp6.cplx"])
            assert usage.value.code == 2
            assert "required: --item" in capsys.readouterr().err
            assert run(tuple(line.split()), workdir) == golden[line], line
    assert cli.build_parser() is cli.build_parser()


def test_reports_match_golden_manifest():
    with open(MANIFEST, encoding="utf-8") as fh:
        golden = json.load(fh)
    current = current_reports()
    assert sorted(current) == sorted(golden), "manifest lists other commands"
    changed = [line for line in golden if current[line] != golden[line]]
    assert not changed, "reports differ: " + "; ".join(changed)


if __name__ == "__main__":
    reports = current_reports()
    with open(MANIFEST, "w", encoding="utf-8") as fh:
        json.dump(reports, fh, indent=1, sort_keys=True)
        fh.write("\n")
    sys.stdout.write(f"wrote {len(reports)} reports to {MANIFEST}\n")
