"""Spans and counters around lochom's layers, installed from outside lochom.

`install` wraps the public functions and methods of every `lochom.*` module
and rebinds each name wherever a lochom module imported it, so calls between
modules pass through the wrappers too.  A span records (id, name, start,
end, parent); on exit it also adds its duration to the caller's child time,
which gives each function's self time.  The hottest helpers (ring arithmetic
and the `vec_*` chain helpers) get a bare call counter instead, installed in
a separate pass so their cost stays out of the span timings.

Span names are `<module>.<function>` or `<module>.<Class>.<method>`.
"""

import inspect
import sys
from time import perf_counter

# Public methods called so often, for so little work each, that a span would
# mostly time itself; their time stays in the caller's self time.
UNTIMED = {
    "complexes.SimplicialComplex.canon", "complexes.SimplicialComplex.contains",
    "complexes.SimplicialComplex.face", "complexes.SimplicialComplex.front",
    "complexes.SimplicialComplex.back", "complexes.SimplicialComplex.simplices",
    "complexes.SimplicialComplex.cofaces",
    "complexes.SimplicialComplex.vertices",
    "complexes.SimplicialComplex.sign_relative_to",
    "complexes.Subcomplex.contains", "complexes.Subcomplex.simplices",
    "complexes.Subcomplex.vertices",
    "sheaves.in_region", "sheaves.region_simplices", "sheaves.region_sub",
    "sheaves.region_rel",
    "matrices.Matrix.entry", "matrices.Matrix.column",
    "homology.ChainComplex.basis", "homology.ChainComplex.differential",
    "localhomology.LocalHomologySheaf.stalk",
    "localhomology.LocalCohomologyCosheaf.stalk",
    "localhomology.LocalCohomologyCosheaf.presentation",
    "localhomology.LocalHomologySheaf.presentation",
}


class Tracer:
    """Spans kept in memory (the first SPAN_CAP) plus running aggregates per
    name."""

    SPAN_CAP = 200000

    def __init__(self):
        self.spans = []
        self.dropped = 0
        self.stack = []
        self.depth = {}
        # name -> [calls, outermost inclusive s, self s, calls with children]
        self.agg = {}
        self.counts = {}
        self.snf_shapes = []
        self._next = 0

    def span(self, name, fn):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0, 0])
        stack, depth, spans = self.stack, self.depth, self.spans
        tracer = self

        def wrapper(*args, **kwargs):
            tracer._next += 1
            frame = [tracer._next, 0.0, 0]
            d = depth.get(name, 0)
            depth[name] = d + 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[name] = d
                dur = end - start
                agg[0] += 1
                if d == 0:
                    agg[1] += dur
                agg[2] += dur - frame[1]
                if frame[2]:
                    agg[3] += 1
                parent = None
                if stack:
                    stack[-1][1] += dur
                    stack[-1][2] += 1
                    parent = stack[-1][0]
                if len(spans) < tracer.SPAN_CAP:
                    spans.append((frame[0], name, start, end, parent))
                else:
                    tracer.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, name, fn):
        cell = self.counts.setdefault(name, [0])

        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def reset(self):
        """Zero the aggregates (kept spans stay); wrappers hold the lists."""
        for a in self.agg.values():
            a[:] = [0, 0.0, 0.0, 0]
        for c in self.counts.values():
            c[0] = 0
        self.snf_shapes.clear()

    def count(self, name):
        return self.counts.get(name, [0])[0]

    def calls(self, name):
        return self.agg.get(name, [0])[0]

    def inclusive(self, *names):
        return sum(self.agg.get(n, [0, 0.0])[1] for n in names)

    def self_time(self, prefix):
        return sum(a[2] for n, a in self.agg.items()
                   if n.startswith(prefix + "."))


def _lochom_modules():
    import lochom
    import lochom.cli  # noqa: F401  (imports every module the CLI uses)
    return [m for n, m in sorted(sys.modules.items())
            if n == "lochom" or n.startswith("lochom.")]


def install(tracer, mode):
    """Wrap lochom in place.  mode "spans": spans on public functions and
    methods (except UNTIMED, ring methods and vec_*); mode "counts": call
    counters on ring methods and the vec_* helpers only."""
    from lochom.rings import Ring
    modules = _lochom_modules()
    swapped = {}
    for mod in modules:
        if mod.__name__ == "lochom":
            continue
        short = mod.__name__.split(".")[-1]
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                hot = short == "matrices" and attr.startswith("vec_")
                wrapped = _wrap(tracer, mode, name, obj, hot)
                if wrapped is not obj:
                    swapped[id(obj)] = wrapped
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                hot = issubclass(obj, Ring)
                for mname, m in list(vars(obj).items()):
                    if mname.startswith("_") and (hot or mname not in (
                            "__init__", "__matmul__", "__add__", "__sub__")):
                        continue
                    name = f"{short}.{attr}.{mname}"
                    if isinstance(m, (classmethod, staticmethod)):
                        inner = _wrap(tracer, mode, name, m.__func__, hot)
                        if inner is not m.__func__:
                            setattr(obj, mname, type(m)(inner))
                    elif inspect.isfunction(m):
                        w = _wrap(tracer, mode, name, m, hot)
                        if w is not m:
                            setattr(obj, mname, w)
    # rebind every imported reference, and the CLI's command table
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in swapped and inspect.isfunction(obj):
                setattr(mod, attr, swapped[id(obj)])
    from lochom import cli
    for key, fn in list(cli.COMMANDS.items()):
        if id(fn) in swapped:
            cli.COMMANDS[key] = swapped[id(fn)]
    if mode == "spans":
        from lochom import matrices
        snf = matrices.smith_normal_form

        def snf_shape(M):
            tracer.snf_shapes.append(M.shape)
            return snf(M)

        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if obj is snf:
                    setattr(mod, attr, snf_shape)


def _wrap(tracer, mode, name, fn, hot):
    if inspect.isgeneratorfunction(fn):
        return fn
    if mode == "counts":
        return tracer.counter(name, fn) if hot else fn
    if hot or name in UNTIMED:
        return fn
    return tracer.span(name, fn)


SWEEP_SPANS = {
    "leibniz": "identities.leibniz_sweep",
    "double_complex": "identities.mv_identity_sweep",
    "collapse": "identities.collapse_suite",
    "collapse_vs_cap": "identities.collapse_vs_cap",
    "orientation_swap": "identities.swap_sweep",
}
PRESENTATION = "homology.HomologyPresentation.__init__"
LOCAL = "localhomology.local_complex"
LAYERS = ("matrices", "homology", "localhomology", "complexes", "sheaves",
          "mv", "identities", "cli")


def layer_metrics(tr, scale):
    """Per-layer figures of one traced pass, as {name: (value, unit)}; times
    are multiplied by `scale` (the pass's reference-speed factor)."""
    snf = "matrices.smith_normal_form"
    cells = [r * c for r, c in tr.snf_shapes]

    def incl(*names):
        return (tr.inclusive(*names) * scale, "s")

    def calls(name):
        return (tr.calls(name), "count")

    out = {
        "matrices.snf_calls": calls(snf),
        "matrices.snf_s": (tr.agg.get(snf, [0, 0, 0.0])[2] * scale, "s"),
        "matrices.snf_cells": (sum(cells), "count"),
        "matrices.snf_max_cells": (max(cells, default=0), "count"),
        "matrices.solve_calls": calls("matrices.solve"),
        "matrices.kernel_calls": calls("matrices.kernel_basis"),
        "homology.presentations": calls(PRESENTATION),
        "homology.presentation_s": incl(PRESENTATION),
        "homology.iso_tests": calls("homology.is_isomorphism"),
        "homology.iso_s": incl("homology.is_isomorphism"),
        "homology.induced_s": incl("homology.induced_matrix"),
        "localhomology.local_complex_calls": calls(LOCAL),
        # a call that builds has child spans; a cache hit has none
        "localhomology.local_complex_builds": (
            tr.agg.get(LOCAL, [0, 0, 0, 0])[3], "count"),
        "localhomology.local_complex_s": incl(LOCAL),
        "localhomology.cm_check_s": incl("localhomology.cm_check"),
        "localhomology.reduced_homology_s": incl(
            "localhomology.reduced_homology"),
        "localhomology.link_crosscheck_s": incl(
            "localhomology.link_crosscheck"),
        "complexes.builds": calls("complexes.SimplicialComplex.__init__"),
        "complexes.build_s": incl("complexes.SimplicialComplex.__init__"),
        "complexes.parse_s": incl("complexes.parse_complex",
                                  "complexes.parse_subcomplex"),
        "complexes.link_s": incl("complexes.SimplicialComplex.link_complex"),
        "sheaves.assemble_s": incl("sheaves.simplicial_chain_complex",
                                   "sheaves.simplicial_cochain_complex",
                                   "sheaves.sheaf_cochain_complex",
                                   "sheaves.cosheaf_chain_complex"),
        "mv.map_matrices_s": incl("mv.duality_map_matrices"),
        "mv.verify_self_s": (
            tr.agg.get("mv.verify_duality", [0, 0, 0.0])[2] * scale, "s"),
        "caps.calls": (sum(a[0] for n, a in tr.agg.items()
                           if n.startswith("caps.")), "count"),
        "caps.s": (tr.self_time("caps") * scale, "s"),
        "cli.overhead_s": ((tr.inclusive("cli.main") - sum(
            a[1] for n, a in tr.agg.items() if n.startswith("cli.cmd_")))
            * scale, "s"),
    }
    for sweep, name in SWEEP_SPANS.items():
        out[f"identities.{sweep}_s"] = incl(name)
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (tr.self_time(layer) * scale, "s")
    return out


def count_metrics(tr):
    """Call counts of the counted helpers, as {name: (value, unit)}."""
    return {
        "matrices.vec_calls": (sum(c[0] for n, c in tr.counts.items()
                                   if n.startswith("matrices.vec_")), "count"),
        "rings.calls": (sum(c[0] for n, c in tr.counts.items()
                            if n.startswith("rings.")), "count"),
    }


def write_spans(tr, path):
    """One JSON line per kept span: [id, name, start, end, parent]."""
    import json
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"kept": len(tr.spans), "dropped": tr.dropped})
                 + "\n")
        for s in tr.spans:
            fh.write(json.dumps(s) + "\n")
