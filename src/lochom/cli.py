"""Batch command-line front end.

Commands: homology, local, check-cm, duality, naturality, sections,
identities.  `main` reads and checks the inputs every command shares (the
ring, a complex with at least one simplex, the subcomplex) and starts the
report; each command reads its own further files (target, map, filtration),
runs its verification pipeline and fills in the deterministic JSON report.
Each command imports its own pipeline when it runs, so that a run compiles
only the modules its command needs.  Exit code 0 means every mathematical
verdict in the report is true, 1 means some verdict is false (including
refusals on failed hypotheses), 2 means a usage error.
"""

import argparse
import functools
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _encode_str

from .complexes import _parse_token, parse_complex, parse_subcomplex
from .homology import HomologyPresentation
from .matrices import Matrix
from .rings import ring_from_name
from .sheaves import (DUALITY_ITEMS, REGION_X, cosheaf_chain_complex,
                      region_sub, sheaf_cochain_complex,
                      simplicial_chain_complex)

SCHEMA_VERSION = 1


def _jsonable(obj):
    if isinstance(obj, Matrix):
        return {"rows": [_jsonable(r) for r in obj.row_labels],
                "cols": [_jsonable(c) for c in obj.col_labels],
                "dense": [[_jsonable(v) for v in row]
                          for row in obj.to_dense()]}
    if isinstance(obj, HomologyPresentation):
        return {"rank": obj.free_rank,
                "torsion": [_jsonable(t) for t in obj.torsion],
                "generators": [_jsonable(g) for g in obj.gens]}
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, dict):
        return {_key(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in obj]
        if isinstance(obj, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, (int, str)):
        return int(obj) if isinstance(obj, int) else str(obj)
    return repr(obj)


def _key(k):
    if isinstance(k, str):
        return k
    if isinstance(k, (int, bool)):
        return str(k)
    if isinstance(k, tuple):
        return " ".join(str(p) if not isinstance(p, tuple)
                        else ",".join(map(str, p)) for p in k)
    return repr(k)


class _Parts(list):
    """Parts of a report's text, written to `fh` a slice at a time, so that
    the text of a large report is never held whole."""

    def __init__(self, fh):
        super().__init__()
        self.fh = fh

    def flush(self):
        self.fh.write("".join(self))
        self.clear()


# parts a report holds before they are written out
_SLICE = 4096


def _write(obj, out, pad):
    """Append to `out` (a `_Parts`) the text of `json.dumps(_jsonable(obj),
    sort_keys=True, indent=2)` at indent `pad`, converting and writing in one
    walk: exact dicts, lists, tuples, strs, bools, ints and None are written
    here, every other value is converted by `_jsonable` to those types and
    written the same way."""
    t = type(obj)
    if t is str:
        out.append(_encode_str(obj))
    elif obj is None or t is bool:
        out.append(_SCALARS[obj])
    elif t is int:
        out.append(int.__repr__(obj))
    elif t is dict:
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{"
        items = {_key(k): v for k, v in obj.items()}
        for k in sorted(items):
            out.append(sep + inner + _encode_str(k) + ": ")
            _write(items[k], out, inner)
            sep = ","
            if len(out) > _SLICE:
                out.flush()
        out.append(pad + "}")
    elif t is list or t is tuple:
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "["
        for v in obj:
            out.append(sep + inner)
            _write(v, out, inner)
            sep = ","
            if len(out) > _SLICE:
                out.flush()
        out.append(pad + "]")
    else:
        _write(_jsonable(obj), out, pad)


_SCALARS = {None: "null", True: "true", False: "false"}


def _emit(report, out_path):
    fh = open(out_path, "w", encoding="utf-8") if out_path else sys.stdout
    try:
        parts = _Parts(fh)
        _write(report, parts, "\n")
        parts.append("\n")
        parts.flush()
    finally:
        if out_path:
            fh.close()


def _read(path, parse, *extra):
    with open(path, encoding="utf-8") as fh:
        return parse(fh.read(), *extra)


def _read_complex(path):
    X = _read(path, parse_complex)
    if X.dim < 0:
        raise ValueError("complex has no simplices")
    return X


def cmd_homology(args, ring, X, L, report):
    from .localhomology import (LocalCohomologyCosheaf, LocalContext,
                                LocalHomologySheaf, local_cm_check)
    n = report["n"] = args.dim if args.dim is not None else X.dim
    region = region_sub(L) if L is not None else REGION_X
    cx = simplicial_chain_complex(X, ring, region)
    degrees = ([args.degree] if args.degree is not None
               else list(range(X.dim + 1)))
    report["simplicial"] = {k: _jsonable(cx.homology(k)) for k in degrees}
    ctx = LocalContext(X, ring)
    cm = local_cm_check(ctx, L, n)
    report["locally_cm_at_region"] = cm["locally_cm_at_L"]
    if cm["locally_cm_at_L"]:
        F = LocalHomologySheaf(ctx, n)
        G = LocalCohomologyCosheaf(ctx, n)
        sc = sheaf_cochain_complex(F, region)
        cc = cosheaf_chain_complex(G, region)
        report["sheaf_cochain"] = {k: _jsonable(sc.homology(k))
                                   for k in degrees}
        report["cosheaf_chain"] = {k: _jsonable(cc.homology(k))
                                   for k in degrees}
    return True


def cmd_local(args, ring, X, L, report):
    from .localhomology import LocalContext, link_crosscheck, uct_report
    ctx = LocalContext(X, ring)
    stalks = {}
    all_ok = True
    for s in X.all_simplices():
        entry = {"local_homology": ctx.summaries(s),
                 "local_cohomology": ctx.summaries(s, dual=True),
                 "link_crosscheck": link_crosscheck(ctx, s)}
        if args.dim is not None:
            entry["uct"] = uct_report(ctx, s, args.dim)
            all_ok = all_ok and entry["uct"]["ok"]
        all_ok = all_ok and entry["link_crosscheck"]
        stalks[s] = entry
    report["simplices"] = stalks
    report["ok"] = all_ok
    return all_ok


def cmd_check_cm(args, ring, X, L, report):
    from .localhomology import cm_check
    n = report["n"] = args.dim if args.dim is not None else X.dim
    cm = cm_check(X, L, n, ring)
    report.update(cm)
    report["verdict"] = cm["locally_cm_at_L"] if L is not None \
        else cm["locally_cm"]
    return report["verdict"]


def cmd_duality(args, ring, X, L, report):
    from .mv import verify_duality
    rep = verify_duality(X, L, args.item, ring)
    report.update(rep)
    return bool(rep.get("verdict"))


def cmd_naturality(args, ring, X, L, report):
    from .simplicialmaps import parse_map, verify_naturality
    Y = _read_complex(args.target)
    rep = verify_naturality(_read(args.map, parse_map, X, Y), ring)
    report["target_order"] = list(Y.order)
    report.update(rep)
    return bool(rep.get("ok"))


def cmd_sections(args, ring, X, L, report):
    from .localhomology import LocalContext
    from .sectionsduality import (build_restriction_system,
                                  compactly_determined_dual, lf_h0_check,
                                  parse_filtration, semistability_check)
    n = report["n"] = args.dim if args.dim is not None else X.dim
    ctx = LocalContext(X, ring)
    lf = lf_h0_check(ctx, L, n)
    report["lf_h0"] = lf
    ok = lf["verdict"]
    if args.filtration:
        stages = _read(args.filtration, parse_filtration)
        system, gammas = build_restriction_system(ctx, L, n, stages)
        semi = semistability_check(system) if len(system) > 1 else None
        cdd = compactly_determined_dual(lf, gammas, semi)
        report["compactly_determined_dual"] = cdd
        if semi is not None:
            report["semistability"] = semi
        ok = ok and cdd["verdict"]
    report["ok"] = ok
    return ok


def cmd_identities(args, ring, X, L, report):
    from .identities import full_identity_report
    rep = full_identity_report(X, L, ring)
    report.update(rep)
    return rep["ok"]


COMMANDS = {
    "homology": cmd_homology,
    "local": cmd_local,
    "check-cm": cmd_check_cm,
    "duality": cmd_duality,
    "naturality": cmd_naturality,
    "sections": cmd_sections,
    "identities": cmd_identities,
}


def _int(text):
    """An int option, read by the rule of vertex tokens: only a canonically
    written int (`str(int(text)) == text`) is one, so `0_1`, `+1` and `١`
    are refused as `abc` is."""
    if type(value := _parse_token(text)) is not int:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


# the options each command reads, beyond --ring, --complex and --out
FLAGS = {
    "homology": ("subcomplex", "dim", "degree"),
    "local": ("dim",),
    "check-cm": ("subcomplex", "dim"),
    "duality": ("subcomplex", "item"),
    "naturality": ("target", "map"),
    "sections": ("subcomplex", "dim", "filtration"),
    "identities": ("subcomplex",),
}

FLAG_SPECS = {
    "subcomplex": {"help": "subcomplex file (vertices line)"},
    "map": {"required": True,
            "help": "simplicial-map file (map: v -> w lines)"},
    "target": {"required": True, "help": "codomain complex file"},
    "item": {"required": True, "choices": sorted(DUALITY_ITEMS),
             "help": "duality item selector"},
    "dim": {"type": _int, "help": "coefficient degree n"},
    "degree": {"type": _int, "help": "restrict report degree"},
    "filtration": {"help": "filtration file (stage: lines)"},
}


@functools.cache
def build_parser():
    """The command-line parser, built on its first call (not at import, so
    that importing lochom stays cheap) and shared by every later one."""
    parser = argparse.ArgumentParser(
        prog="lochom",
        description="Exact verification of local-homology duality on finite "
                    "oriented simplicial complexes.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--ring", default="z",
                       help="coefficient ring: z, q, or fp:<prime>")
        p.add_argument("--complex", required=True,
                       help="complex file (order/simplex lines)")
        for flag in FLAGS[name]:
            p.add_argument("--" + flag, **FLAG_SPECS[flag])
        p.add_argument("--out", help="write the JSON report to this path")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flags = FLAGS[args.command]
    try:
        for flag in ("dim", "degree"):
            value = getattr(args, flag, None)
            if value is not None and value < 0:
                raise ValueError(f"--{flag} must be at least 0, not {value}")
        ring = ring_from_name(args.ring)
        X = _read_complex(args.complex)
        L = (_read(args.subcomplex, parse_subcomplex, X)
             if "subcomplex" in flags and args.subcomplex else None)
        order = "source_order" if "target" in flags else "order"
        report = {"schema": SCHEMA_VERSION, "command": args.command,
                  "ring": ring.name, order: list(X.order)}
        ok = COMMANDS[args.command](args, ring, X, L, report)
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    _emit(report, args.out)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
