"""`local` reports against an oracle that does not come from lochom.

Every simplex s of X has local homology H_*(X, X - st s), the homology of
the chain complex spanned by the open star of s.  `perfbench/oracle.py`
computes its dimensions over F_p by its own rank-mod-p elimination
(`region_betti`), and `check_against_betti` carries them to lochom's
summaries over Z and F_p by universal coefficients.  Each `local --dim n`
report, with n = dim X, is checked that way at every simplex: its local
homology and cohomology summaries, and `uct.h_rank`, the rank of the top
local homology (free, since X has no (n+1)-simplices).  The inputs are the
fixtures and seeded random pure 2-complexes in shuffled vertex orders.
"""

import importlib.util
import json
import os
import random

import pytest

from lochom.cli import main
from lochom.complexes import parse_complex

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
FIXDIR = os.path.join(ROOT, "fixtures")
FIXTURE_NAMES = ("bowtie", "c3", "delta2", "hex", "rp6", "t4", "sd_rp6",
                 "sd_torus")
RANDOM_SEEDS = range(20)


def _load_oracle():
    spec = importlib.util.spec_from_file_location(
        "perfbench_oracle", os.path.join(ROOT, "perfbench", "oracle.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


oracle = _load_oracle()
PRIMES = (2, 3, oracle.LARGE_PRIME)


def random_pure_2_complex(seed):
    """Text of a pure 2-complex: 4 to 12 random triangles, repeats dropped,
    on 5 to 7 vertices in a shuffled vertex order."""
    rng = random.Random(seed)
    n = rng.randint(5, 7)
    facets = {tuple(sorted(rng.sample(range(n), 3)))
              for _ in range(rng.randint(4, 12))}
    order = sorted({v for f in facets for v in f})
    rng.shuffle(order)
    return "".join([f"order: {' '.join(map(str, order))}\n",
                    *(f"simplex: {' '.join(map(str, f))}\n"
                      for f in sorted(facets))])


def _texts():
    for name in FIXTURE_NAMES:
        with open(os.path.join(FIXDIR, f"{name}.cplx"), encoding="utf-8") as fh:
            yield name, fh.read()
    for seed in RANDOM_SEEDS:
        yield f"random{seed}", random_pure_2_complex(seed)


TEXTS = dict(_texts())


def _key(simplex):
    return " ".join(map(str, simplex))


@pytest.mark.parametrize("ring", ("z", "fp:2", "fp:3"))
def test_local_reports_match_the_open_star_oracle(tmp_path, ring):
    for name, text in TEXTS.items():
        X = parse_complex(text)
        path = tmp_path / "complex.cplx"
        path.write_text(text, encoding="utf-8")
        out = tmp_path / "report.json"
        assert main(["local", "--dim", str(X.dim), "--ring", ring,
                     "--complex", str(path), "--out", str(out)]) in (0, 1)
        simplices = json.loads(out.read_text(encoding="utf-8"))["simplices"]
        assert sorted(simplices) == sorted(map(_key, X.all_simplices()))
        for s in X.all_simplices():
            star = [a for level in X.star_levels(s) for a in level]
            betti = {p: oracle.region_betti(star, p) for p in PRIMES}
            entry = simplices[_key(s)]
            homology = [entry["local_homology"][str(k)]
                        for k in range(X.dim + 1)]
            cohomology = [entry["local_cohomology"][str(k)]
                          for k in range(X.dim + 1)]
            top = [*homology[:-1], [entry["uct"]["h_rank"], homology[-1][1]]]
            problems = (
                oracle.check_against_betti(homology, betti, ring)
                + oracle.check_against_betti(cohomology, betti, ring,
                                             cohomological=True)
                + oracle.check_against_betti(top, betti, ring))
            assert not problems, (name, s, problems)
