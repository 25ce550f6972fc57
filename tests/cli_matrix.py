"""A fixed matrix of CLI command lines, for comparing two checkouts.

Runs every command line below in one process through `lochom.cli.main`
and writes one sorted-key JSON line per command line: the line, its exit
code, what it wrote to stderr and the SHA-256 of its report text.  Pytest
does not collect this file.  Run it in each checkout, from the repository
root, and compare the outputs:

    PYTHONPATH=src python tests/cli_matrix.py > change.jsonl
    (cd ../parent && PYTHONPATH=src python tests/cli_matrix.py) > parent.jsonl
    diff parent.jsonl change.jsonl

The matrix covers every command and every duality item on the fixtures and
the two barycentric subdivisions, the golden manifest's lines on the second
subdivision sd2_rp6, both subcomplex pairs, the filtration and
the naturality map, over z, q, fp:2 and fp:3.  It also runs bad input:
missing or unreadable files, bad flags, rings and degrees, empty complexes
and subcomplexes, maps outside their complexes (each exits 2 with one
line) and a complex that is not pure (a refusal).  Input files for the bad
input are written to a temporary directory, whose path stderr shows as
`<tmp>`.
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DIMS = {"bowtie": 2, "c3": 1, "delta2": 2, "hex": 1, "rp6": 2, "t4": 2,
        "sd_rp6": 2, "sd_torus": 2}
RINGS = ("z", "q", "fp:2", "fp:3")
ITEMS = ("1ai", "1aii", "1bi", "1bii", "2ai", "2aii", "2bi", "2bii")
SUBCOMPLEX_PAIRS = (("rp6", "rp6_345"), ("t4", "t4_edge23"))
# the identity sweeps on a subdivision take seconds each, so they run on
# the small fixtures only
SWEPT = ("bowtie", "c3", "delta2", "hex", "rp6", "t4")
# the second subdivision sd2(rp6) runs only the golden manifest's lines
SCALED = "sd2_rp6"

# bad input: (command line, {file name: text}); "<tmp>/" names a file
# written to the temporary directory
TETRA = ("order: 0 1 2 3 9\nsimplex: 0 1 2\nsimplex: 0 1 3\n"
         "simplex: 0 2 3\nsimplex: 1 2 3\n")
HEX_TO_C3 = ("map: 0 -> 0\nmap: 1 -> 1\nmap: 2 -> 2\nmap: 3 -> 0\n"
             "map: 4 -> 1\n")
BAD_LINES = (
    ("homology --complex fixtures/missing.cplx", {}),
    ("homology --complex fixtures", {}),
    ("homology --complex fixtures/rp6.cplx --subcomplex fixtures", {}),
    ("duality --item 1ai --complex fixtures/rp6.cplx --dim 7", {}),
    ("homology --complex fixtures/c3.cplx --threads 4", {}),
    ("duality --complex fixtures/rp6.cplx", {}),
    ("duality --item 9zz --complex fixtures/c3.cplx", {}),
    ("naturality --complex fixtures/hex.cplx --target fixtures/c3.cplx", {}),
    ("homology --ring fp:1000000000000000001 --complex fixtures/c3.cplx", {}),
    ("homology --ring fp:4 --complex fixtures/c3.cplx", {}),
    ("homology --ring r --complex fixtures/c3.cplx", {}),
    ("homology --complex fixtures/t4.cplx --dim -1", {}),
    ("homology --complex fixtures/t4.cplx --degree -3", {}),
    ("local --complex fixtures/t4.cplx --dim -1", {}),
    ("check-cm --complex fixtures/t4.cplx --dim -2", {}),
    ("sections --complex fixtures/t4.cplx --dim -1", {}),
    *((f"{command} --complex <tmp>/empty.cplx",
       {"empty.cplx": "order: 0 1\n"})
      for command in ("homology", "local", "local --dim 0", "check-cm",
                      "duality --item 1ai", "sections", "identities")),
    ("naturality --complex <tmp>/empty.cplx --target fixtures/c3.cplx "
     "--map fixtures/hex_to_c3.map", {"empty.cplx": "order: 0 1\n"}),
    *((f"{command} --complex <tmp>/huge.cplx",
       {"huge.cplx": "simplex: 0 1 2\nsimplex: "
                     + " ".join(map(str, range(40))) + "\n"})
      for command in ("sections", "local", "duality --item 1ai")),
    *((f"{command} --complex <tmp>/x.cplx --subcomplex <tmp>/empty.sub",
       {"x.cplx": "order: 0 1 2\nsimplex: 0 1 2\n",
        "empty.sub": "vertices:\n"})
      for command in ("check-cm", "duality --item 1ai", "duality --item 2bi",
                      "identities")),
    *((f"{command} --complex <tmp>/ghost.cplx --subcomplex <tmp>/ghost.sub",
       {"ghost.cplx": TETRA, "ghost.sub": "vertices: 9\n"})
      for command in ("duality --item 1ai", "duality --item 2bi", "check-cm",
                      "sections", "identities")),
    *((f"duality --item {item} --complex <tmp>/mixed.cplx",
       {"mixed.cplx": "simplex: 0 1 2\nsimplex: 2 3\n"}) for item in ITEMS),
    *((f"naturality --complex fixtures/hex.cplx --target fixtures/c3.cplx "
       f"--map <tmp>/{name}", {name: HEX_TO_C3 + extra})
      for name, extra in (("image.map", "map: 5 -> 9\n"),
                          ("vertex.map", "map: 5 -> 2\nmap: 77 -> 1\n"))),
)


def command_lines():
    """Every command line of the matrix, as one string each."""
    lines = []
    for name, n in DIMS.items():
        cplx = f"--complex fixtures/{name}.cplx"
        for ring in RINGS:
            on = f"--ring {ring} {cplx}"
            lines += [f"homology {on}", f"check-cm {on}", f"local {on}",
                      f"local --dim {n} {on}", f"local --dim {n - 1} {on}",
                      f"sections {on}"]
            lines += [f"duality --item {item} {on}" for item in ITEMS]
            if name in SWEPT:
                lines.append(f"identities {on}")
        lines += [f"homology --degree {k} {cplx}" for k in range(n + 2)]
        lines.append(f"check-cm --dim {n - 1} {cplx}")
    for name, sub in SUBCOMPLEX_PAIRS:
        for ring in RINGS:
            on = (f"--ring {ring} --complex fixtures/{name}.cplx "
                  f"--subcomplex fixtures/{sub}.sub")
            lines += [f"homology {on}", f"check-cm {on}", f"sections {on}",
                      f"identities {on}"]
            lines += [f"duality --item {item} {on}" for item in ITEMS]
    for ring in RINGS:
        for dim in (1, 2):
            lines.append(f"sections --ring {ring} --dim {dim} "
                         "--complex fixtures/c3.cplx "
                         "--filtration fixtures/c3_arcs.filt")
        lines.append(f"naturality --ring {ring} --complex fixtures/hex.cplx "
                     "--target fixtures/c3.cplx --map fixtures/hex_to_c3.map")
    for ring in ("z", "fp:2"):
        on = f"--ring {ring} --complex fixtures/{SCALED}.cplx"
        lines += [f"duality --item 1ai {on}", f"check-cm {on}",
                  f"local --dim 2 {on}"]
    lines.append(f"local --dim 2 --ring fp:3 --complex fixtures/{SCALED}.cplx")
    return lines + [line for line, _ in BAD_LINES]


def run(line, tmp):
    """Exit code, stderr and report SHA-256 of one command line."""
    from lochom.cli import main

    for bad, files in BAD_LINES:
        if bad == line:
            for name, text in files.items():
                with open(os.path.join(tmp, name), "w",
                          encoding="utf-8") as fh:
                    fh.write(text)
    out = os.path.join(tmp, "report.json")
    if os.path.exists(out):
        os.remove(out)
    argv = line.replace("<tmp>", tmp).split()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:
            code = exc.code
    text = b""
    if os.path.exists(out):
        with open(out, "rb") as fh:
            text = fh.read()
    return {"line": line, "exit": code,
            "stderr": err.getvalue().replace(tmp, "<tmp>"),
            "sha256": hashlib.sha256(text).hexdigest()}


def main():
    os.chdir(ROOT)
    with tempfile.TemporaryDirectory() as tmp:
        for line in command_lines():
            sys.stdout.write(json.dumps(run(line, tmp), sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
