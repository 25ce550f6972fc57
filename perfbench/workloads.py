"""The three workloads: their inputs, their operations, and the checks each
operation's JSON report must pass.

Every operation is one `lochom` command line.  Its inputs are generated in
`inputs`, relabelled and reordered by the workload seed, and written as text;
lochom sees only those files.  Checks compare reports with `oracle` or with
properties the method must have, and map relabelled vertices back first.
"""

import os
import random

import inputs
import oracle


def _sd_rp6_triangle():
    """Vertices of sd of the triangle {3,4,5} of rp6 (a disk), as labelled
    in sd(rp6)."""
    label = inputs.sd(inputs.rp6())[1]
    return sorted(label[s] for s in inputs.closure([(3, 4, 5)]))


def _wedge():
    sd_t4 = inputs.sd(inputs.boundary_simplex(3))[0]
    return inputs.wedge(sd_t4, sd_t4, 0, 0)


# name -> (generator, homology-table name, face counts, Euler characteristic).
# Every input is a closed pseudomanifold; only the wedge is not a manifold.
INPUTS = {
    "t4": (lambda: inputs.boundary_simplex(3), "sphere2", [4, 6, 4], 2),
    "rp6": (inputs.rp6, "rp2", [6, 15, 10], 1),
    "torus": (inputs.torus7, "torus", [7, 21, 14], 0),
    "sd_rp6": (lambda: inputs.sd(inputs.rp6())[0], "rp2", [31, 90, 60], 1),
    "sd_torus": (lambda: inputs.sd(inputs.torus7())[0], "torus",
                 [42, 126, 84], 0),
    "bd4": (lambda: inputs.boundary_simplex(4), "sphere3", [5, 10, 10, 5], 0),
    "bd5": (lambda: inputs.boundary_simplex(5), "sphere4",
            [6, 15, 20, 15, 6], 2),
    "wedge": (_wedge, "wedge_s2_s2", [27, 72, 48], 3),
}
WEDGE_VERTEX = 0

# Subcomplexes: name -> (complex, vertex-set generator).
SUBCOMPLEXES = {
    "sd_tri": ("sd_rp6", _sd_rp6_triangle),
    "edge23": ("t4", lambda: [2, 3]),
}


class Op:
    """One command line: `lochom <command> --complex <input> --ring <ring>`
    plus extra arguments, the exit code it must give, and its check."""

    def __init__(self, command, complex_name, ring, extra=(), sub=None,
                 rc=0, largest=False):
        self.command = command
        self.complex = complex_name
        self.ring = ring
        self.extra = list(extra)
        self.sub = sub
        self.rc = rc
        self.largest = largest

    @property
    def label(self):
        parts = [self.command, self.complex, self.ring] + self.extra
        if self.sub:
            parts.append("L=" + self.sub)
        return " ".join(parts)

    def argv(self, files, out):
        argv = [self.command, "--complex", files[self.complex],
                "--ring", self.ring] + self.extra
        if self.sub:
            argv += ["--subcomplex", files[self.sub]]
        return argv + ["--out", out]


def _duality(item, name, ring, sub=None, rc=0, largest=False):
    return Op("duality", name, ring, ["--item", item], sub=sub, rc=rc,
              largest=largest)


# Why each workload exists is in README.md.  One pass runs the list in order.
WORKLOADS = {
    "verdicts": [
        _duality("1ai", "sd_rp6", "fp:2", sub="sd_tri"),
        _duality("1ai", "sd_torus", "z", largest=True),
        _duality("1bi", "sd_rp6", "z", sub="sd_tri"),
        _duality("2ai", "sd_rp6", "fp:2", sub="sd_tri"),
        _duality("2bi", "sd_rp6", "z", sub="sd_tri"),
        _duality("1ai", "rp6", "q"),
        _duality("2bi", "torus", "q"),
        # the largest operation again: each run then times it 4 to 6 times,
        # not 2 or 3
        _duality("1ai", "sd_torus", "z", largest=True),
        _duality("2bi", "rp6", "z"),
        _duality("1aii", "torus", "fp:2"),
        _duality("1ai", "bd4", "z"),
        _duality("2bii", "bd5", "fp:2"),
        Op("check-cm", "sd_rp6", "z"),
        Op("check-cm", "torus", "fp:2"),
        Op("check-cm", "bd5", "z"),
        Op("check-cm", "wedge", "fp:2", rc=1),
        _duality("1ai", "wedge", "z", rc=1),
    ],
    "local": [
        Op("local", "sd_rp6", "z", ["--dim", "2"], largest=True),
        Op("local", "sd_rp6", "fp:3", ["--dim", "2"]),
        Op("local", "torus", "z", ["--dim", "2"]),
        Op("local", "torus", "fp:3", ["--dim", "2"]),
        Op("local", "bd4", "z", ["--dim", "3"]),
        Op("local", "bd4", "fp:3", ["--dim", "3"]),
        Op("local", "wedge", "z", ["--dim", "2"], rc=1),
        Op("local", "wedge", "fp:3", ["--dim", "2"], rc=1),
    ],
    "sweeps": [
        Op("identities", "t4", "z"),
        Op("identities", "rp6", "z", largest=True),
        Op("identities", "t4", "z", sub="edge23"),
        Op("identities", "t4", "fp:2"),
    ],
}


def generate(workload):
    """Generate and check every complex the workload uses, and the vertex
    sets of its subcomplexes.  None of this depends on the seed."""
    ops = WORKLOADS[workload]
    facets = {}
    for name in sorted({op.complex for op in ops}):
        gen, _, counts, chi = INPUTS[name]
        facets[name] = gen()
        inputs.validate(name, facets[name], counts, chi)
    subs = {s: SUBCOMPLEXES[s][1]() for s in {op.sub for op in ops if op.sub}}
    return facets, subs


class Inputs:
    """One seeded variant of a workload's text inputs, written under
    `directory`: vertices relabelled and the `order:` header shuffled.
    `generated` is what `generate(workload)` returns."""

    def __init__(self, workload, seed, variant, directory, generated):
        ops = WORKLOADS[workload]
        self.facets, self.sub_vertices = generated
        rng = random.Random(f"{workload}:{seed}:{variant}")
        # `identities --subcomplex` needs the vertices outside L ordered
        # first (`duality` reorders such input itself, so its headers stay
        # fully shuffled)
        last = {(SUBCOMPLEXES[op.sub][0], v) for op in ops
                if op.command == "identities" and op.sub
                for v in self.sub_vertices[op.sub]}
        self.files = {}
        self.rename = {}
        texts = {}
        for name in sorted(self.facets):
            facets = self.facets[name]
            rename, order = inputs.relabelling(facets, rng)
            inv = {w: v for v, w in rename.items()}
            order.sort(key=lambda w: (name, inv[w]) in last)
            self.rename[name] = rename
            texts[name] = inputs.render(facets, rename, order)
        for sub, verts in self.sub_vertices.items():
            texts[sub] = inputs.render_vertices(
                verts, self.rename[SUBCOMPLEXES[sub][0]])
        os.makedirs(directory, exist_ok=True)
        for name, text in texts.items():
            ext = ".sub" if name in SUBCOMPLEXES else ".cplx"
            path = os.path.join(directory, name + ext)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            self.files[name] = path

    def parse_all(self):
        """Parse every written input with lochom (part of set-up)."""
        from lochom.complexes import parse_complex, parse_subcomplex
        parsed = {}
        for name, path in self.files.items():
            if name in SUBCOMPLEXES:
                continue
            with open(path, encoding="utf-8") as fh:
                parsed[name] = parse_complex(fh.read())
        for name, path in self.files.items():
            if name in SUBCOMPLEXES:
                with open(path, encoding="utf-8") as fh:
                    parse_subcomplex(fh.read(), parsed[SUBCOMPLEXES[name][0]])


def generator_self_check():
    """sd applied twice to the tetrahedron boundary has the known counts."""
    sd2 = inputs.sd(inputs.sd(inputs.boundary_simplex(3))[0])[0]
    inputs.validate("sd2_t4", sd2, [74, 216, 144], 2)


# -- expected results ---------------------------------------------------------

class Expectations:
    """Oracle results for one input variant, computed on first use (checks
    run outside the timed calls) and cached."""

    def __init__(self, inputs_):
        self.inputs = inputs_
        self._betti = {}

    def unlabel(self, name, labels):
        """Original vertices of a simplex given by its relabelled vertices."""
        inv = {w: v for v, w in self.inputs.rename[name].items()}
        return tuple(sorted(inv[int(t)] for t in labels))

    def witnesses(self, name, report):
        """A report's CM witnesses as (original simplex, degree, summary)."""
        return [(self.unlabel(name, w[0]), w[1], _summ(w[2]))
                for w in report.get("witnesses") or []]

    def betti(self, name, sub, side):
        """F_p dimensions for a region of complex `name` cut by subcomplex
        `sub`: side "L" (the subcomplex), "X-L" (the pair (X, L)), "Lvc" or
        "X-Lvc" (the same for the full subcomplex on the other vertices)."""
        key = (name, sub, side)
        if key not in self._betti:
            faces = inputs.closure(self.inputs.facets[name])
            inside = set(self.inputs.sub_vertices[sub])
            verts = {v for f in faces for v in f}
            cut = inside if side in ("L", "X-L") else verts - inside
            region = oracle.full_subcomplex(faces, cut)
            if side.startswith("X-"):
                region = faces - region
            self._betti[key] = {p: oracle.region_betti(region, p)
                                for p in (2, 3, oracle.LARGE_PRIME)}
        return self._betti[key]


def _summ(x):
    return (x[0], list(x[1]))


# the one expected witness of the wedge: H_1 of rank 1 at the wedge vertex
WEDGE_WITNESSES = [((WEDGE_VERTEX,), 1, (1, []))]


def check(op, report, rc, exp):
    """Problems found in one report (an empty list when it is right)."""
    problems = []
    if rc != op.rc:
        problems.append(f"exit code {rc}, expected {op.rc}")
    table = INPUTS[op.complex][1]
    n = len(INPUTS[op.complex][2]) - 1
    if op.command == "duality":
        problems += _check_duality(op, report, exp, table, n)
    elif op.command == "check-cm":
        problems += _check_cm(op, report, exp, table, n)
    elif op.command == "local":
        problems += _check_local(op, report, exp, n)
    elif op.command == "identities":
        problems += _check_identities(report)
    return problems


def _check_duality(op, report, exp, table, n):
    problems = []
    if op.complex == "wedge":
        if not (report.get("refused") and report.get("verdict") is False):
            problems.append("wedge duality was not refused")
        got = exp.witnesses(op.complex, report.get("hypothesis", {}))
        if got != WEDGE_WITNESSES:
            problems.append(f"wedge witnesses {got}")
        return problems
    item = op.extra[1]
    for key in ("verdict", "chain_level_commutes"):
        if report.get(key) is not True:
            problems.append(f"{key} is {report.get(key)}")
    if report.get("refused"):
        problems.append("refused")
    degrees = report.get("degrees", {})
    if sorted(degrees, key=int) != [str(l) for l in range(n + 1)]:
        return problems + [f"degrees {sorted(degrees)}"]
    src = [_summ(degrees[str(l)]["source"]) for l in range(n + 1)]
    tgt = [_summ(degrees[str(l)]["target"]) for l in range(n + 1)]
    for l in range(n + 1):
        if degrees[str(l)]["iso"] is not True:
            problems.append(f"degree {l} not iso")
        if src[l] != tgt[l]:
            problems.append(f"degree {l}: source {src[l]} != target {tgt[l]}")
    # the simplicial side of each item, per its cap variant and regions
    homological = item.startswith("1")
    side = tgt[::-1] if homological else src
    if op.sub is None:
        want = (oracle.homology(table, op.ring) if homological
                else oracle.cohomology(table, op.ring))
        if side != want:
            problems.append(f"simplicial side {side}, expected {want}")
    else:
        region = {"1a": "X-Lvc", "1b": "Lvc", "2a": "X-L", "2b": "L"}[item[:2]]
        problems += oracle.check_against_betti(
            side, exp.betti(op.complex, op.sub, region), op.ring,
            cohomological=not homological)
    return problems


def _check_cm(op, report, exp, table, n):
    problems = []
    concentrated = oracle.reduced_concentrated(table, op.ring, n)
    if report.get("reduced_concentrated") is not concentrated:
        problems.append("reduced_concentrated "
                        f"{report.get('reduced_concentrated')}")
    manifold = op.complex != "wedge"
    if report.get("locally_cm") is not manifold:
        problems.append(f"locally_cm {report.get('locally_cm')}")
    if report.get("cm") is not (manifold and concentrated):
        problems.append(f"cm {report.get('cm')}")
    if report.get("pure") is not True:
        problems.append("not pure")
    got = exp.witnesses(op.complex, report)
    if got != ([] if manifold else WEDGE_WITNESSES):
        problems.append(f"witnesses {got}")
    return problems


def _check_local(op, report, exp, n):
    problems = []
    simplices = report.get("simplices", {})
    if len(simplices) != sum(INPUTS[op.complex][2]):
        problems.append(f"{len(simplices)} simplices reported")
    for key, entry in simplices.items():
        at_wedge = (op.complex == "wedge"
                    and exp.unlabel(op.complex, key.split()) == (WEDGE_VERTEX,))
        want = {str(k): (0, []) for k in range(n + 1)}
        if at_wedge:
            want.update({"1": (1, []), "2": (2, [])})
        else:
            want[str(n)] = (1, [])
        for kind in ("local_homology", "local_cohomology"):
            got = {k: _summ(v) for k, v in entry[kind].items()}
            if got != want:
                problems.append(f"{kind} at {key}: {got}")
        if entry["link_crosscheck"] is not True:
            problems.append(f"link crosscheck fails at {key}")
        if entry["uct"]["ok"] is at_wedge:
            problems.append(f"uct ok is {entry['uct']['ok']} at {key}")
    if report.get("ok") is not (op.complex != "wedge"):
        problems.append(f"ok is {report.get('ok')}")
    return problems[:5]


SWEEPS = ("leibniz", "double_complex", "collapse", "collapse_vs_cap",
          "orientation_swap")


def _check_identities(report):
    problems = []
    if report.get("ok") is not True:
        problems.append("ok is not true")
    for sweep in SWEEPS:
        r = report.get(sweep, {})
        if not (r.get("ok") is True and r.get("checked", 0) > 0):
            problems.append(
                f"{sweep}: ok={r.get('ok')} checked={r.get('checked')}")
    return problems
