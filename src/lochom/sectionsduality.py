"""Degree-zero homology of the top local cohomology cosheaf as a dual of the
sections of the top local homology sheaf, and Mittag-Leffler semistability of
truncated restriction systems over filtrations.

On a finite complex, degree-zero cosheaf homology with coefficients in the
dual stalks pairs against global sections: a vertex generator with a cokernel
stalk index evaluates a section by reading off the matching top-simplex
coefficient of its stalk value.  The abstract semistability machinery (image
stabilization of an inverse system, with an explicit splitting when it
occurs) is exposed on truncated systems of matrices, so the failure mode --
strictly shrinking images, as in the doubling system over the integers -- is
independently testable.
"""

from .complexes import Subcomplex, _parse_token, _strip
from .homology import ChainComplex, induced_matrix, is_isomorphism
from .localhomology import (LocalCohomologyCosheaf, LocalHomologySheaf,
                            local_cm_check)
from .matrices import Matrix, smith_normal_form, solve, vec_clean, vec_dot
from .sheaves import cosheaf_chain_complex, region_sub, sections


def _section_ambient_value(F, section, vertex):
    """Ambient top-cycle carried by a section at a vertex: expand the stalk
    coordinates through the cycle basis."""
    ring = F.ring
    out = {}
    for (s, lab), x in section.items():
        if s != vertex:
            continue
        for key, c in F.cycle(s, lab).items():
            out[key] = ring.add(out.get(key, ring.zero()), ring.mul(x, c))
    return vec_clean(ring, out)


def lf_h0_check(ctx, L, n):
    """Verify that degree-zero homology of the top cosheaf over L (all of X
    for None) is the dual of the sections of the top sheaf over L, via the
    chain-level evaluation map (vertex generator with dual stalk index) ->
    (section -> matching top-simplex coefficient of its stalk value at that
    vertex).  The report states the locally-CM-at-L hypothesis and, when it
    fails, refuses with verdict false."""
    ring = ctx.ring
    if L is None:
        L = Subcomplex(ctx.X, ctx.X.order)
    cm = local_cm_check(ctx, L, n)
    report = {"ring": ring.name, "n": n,
              "hypothesis": {"name": "locally_cm_at_L",
                             "holds": cm["locally_cm_at_L"],
                             "witnesses": cm["witnesses"][:3]},
              "refused": not cm["locally_cm_at_L"]}
    if report["refused"]:
        report["verdict"] = False
        return report
    F = LocalHomologySheaf(ctx, n)
    G = LocalCohomologyCosheaf(ctx, n)
    gamma = sections(F, L)
    # degree-0 chains and the boundaries into them: all the pairing reads
    cc = cosheaf_chain_complex(G, region_sub(L), max_degree=1)
    dual_labels = tuple(range(gamma.free_rank))
    # evaluation matrix: column per degree-0 cosheaf generator, row per
    # section basis element
    cols = []
    for (v, j) in cc.basis(0):
        rep = G.lift(v, j)
        col = {}
        for gi, sec in enumerate(gamma.cycles):
            val = vec_dot(ring, rep, _section_ambient_value(F, sec, v))
            if not ring.is_zero(val):
                col[gi] = val
        cols.append(col)
    ev = Matrix.from_columns(ring, dual_labels, cc.basis(0), cols)
    # boundaries evaluate to zero, so the map descends to homology
    vanishes = (ev @ cc.differential(1)).is_zero() if cc.basis(1) else True
    report["boundaries_evaluate_to_zero"] = vanishes
    dual_complex = ChainComplex(ring, {0: dual_labels}, {})
    h0 = cc.homology(0)
    target = dual_complex.homology(0)
    induced = induced_matrix(h0, target, ev.apply)
    report["h0"] = h0.rank_summary
    report["dual_rank"] = gamma.free_rank
    report["iso"] = is_isomorphism(h0, target, induced)
    report["verdict"] = vanishes and report["iso"]
    return report


# -- truncated restriction systems --------------------------------------------

class RestrictionSystem:
    """A truncated inverse system G_0 <- G_1 <- ... <- G_N of free modules
    with labelled bases, given by the adjacent-step matrices."""

    def __init__(self, ring, bases, steps):
        self.ring = ring
        self.bases = [tuple(b) for b in bases]
        self.steps = list(steps)
        if len(self.steps) != len(self.bases) - 1:
            raise ValueError("need one step matrix per adjacent pair")
        for i, m in enumerate(self.steps):
            if m.row_labels != self.bases[i] or m.col_labels != self.bases[i + 1]:
                raise ValueError(f"step {i} labels do not match the bases")

    def __len__(self):
        return len(self.bases)

    def composites(self, i, j):
        """The composite matrices from stages i, i + 1, ..., j down to stage
        i <= j, each the one before times the next step."""
        if i > j:
            raise ValueError("maps go downward in the system")
        out = [Matrix.identity(self.ring, self.bases[i])]
        for k in range(i, j):
            out.append(out[-1] @ self.steps[k])
        return out

    def map(self, i, j):
        """Composite matrix from stage j down to stage i <= j."""
        return self.composites(i, j)[-1]


def _span_contains(A, B, snf=None):
    """Every column of B lies in the column span of A (exactly, over the
    active ring); `snf` is A's SNF when the caller has it."""
    s = snf if snf is not None else smith_normal_form(A)
    return all(solve(A, B.column(c), s) is not None for c in B.col_labels)


def semistability_check(system):
    """Image stabilization of a truncated inverse system.  For each stage i,
    the images of the composite maps from later stages form a descending
    chain; the stage stabilizes when the chain becomes constant strictly
    before the truncation end.  When every stage stabilizes, the splitting of
    the stable image (a section of the composite map, composing to the
    identity on the image) is computed and verified exactly."""
    ring = system.ring
    N = len(system) - 1
    report = {"stages": N + 1, "per_stage": [], "stable_images": {}}
    semistable = True
    for i in range(N):
        chain = system.composites(i, N)
        if i == 0:
            first_chain = chain
        last = smith_normal_form(chain[-1])
        stabilized_at = None
        for idx in range(len(chain) - 1):
            # each image contains the next, so it equals every later one
            # exactly when the last one contains it
            if _span_contains(chain[-1], chain[idx], last):
                stabilized_at = i + idx
                break
        entry = {"stage": i, "stabilized": stabilized_at is not None,
                 "stabilized_at": stabilized_at}
        if stabilized_at is None:
            semistable = False
        else:
            report["stable_images"][i] = chain[stabilized_at - i]
        report["per_stage"].append(entry)
    report["semistable"] = semistable
    if semistable and N > 0:
        # splitting at stage 0: a section of the stabilized composite map
        # that composes to the identity on the stable image
        k = max(report["per_stage"][0]["stabilized_at"], 1)
        r = first_chain[k]
        snf = smith_normal_form(r)
        image_basis = []
        for c in r.col_labels:
            col = r.column(c)
            if col and not _span_contains(
                    Matrix.from_columns(
                        ring, r.row_labels, tuple(range(len(image_basis))),
                        image_basis), Matrix.from_columns(
                        ring, r.row_labels, ("b",), [col])):
                image_basis.append(col)
        section_cols = [solve(r, b, snf) for b in image_basis]
        ok = all(s is not None for s in section_cols)
        if ok:
            inc = Matrix.from_columns(ring, r.row_labels,
                                      tuple(range(len(image_basis))),
                                      image_basis)
            sec = Matrix.from_columns(ring, r.col_labels,
                                      tuple(range(len(image_basis))),
                                      section_cols)
            ok = (r @ sec - inc).is_zero()
        report["splitting_verified"] = ok
    return report


def doubling_system(ring, length):
    """The truncated system R <-x2- R <-x2- ... whose images strictly shrink
    over the integers (never stabilizing within any truncation)."""
    bases = [(0,) for _ in range(length)]
    two = ring.add(ring.one(), ring.one())
    steps = [Matrix(ring, (0,), (0,), {(0, 0): two})
             for _ in range(length - 1)]
    return RestrictionSystem(ring, bases, steps)


# -- restriction systems from filtrations -------------------------------------

def parse_filtration(text):
    """Filtration file: repeated `stage: v1 v2 ...` lines, one per stage, in
    increasing order."""
    stages = []
    for line, raw in _strip(text):
        if not line.startswith("stage:"):
            raise ValueError(f"unrecognized line {raw!r}")
        stages.append([_parse_token(t) for t in line[len("stage:"):].split()])
    if not stages:
        raise ValueError("filtration file declares no stages")
    return stages


def build_restriction_system(ctx, L, n, filtration):
    """Sections of the top local homology sheaf over an increasing chain of
    full subcomplexes of L, and the system of the honest restriction maps in
    the section bases; returns (system, sections of each stage)."""
    X, ring = ctx.X, ctx.ring
    if L is None:
        L = Subcomplex(X, X.order)
    stages = []
    prev = set()
    for verts in filtration:
        vs = set(verts)
        if not prev <= vs:
            raise ValueError("filtration stages must be increasing")
        if not vs <= set(L.vertex_set):
            raise ValueError("filtration stage leaves the subcomplex")
        prev = vs
        stages.append(Subcomplex(X, [v for v in X.order if v in vs]))
    if prev != set(L.vertex_set):
        raise ValueError("filtration must exhaust the subcomplex")
    F = LocalHomologySheaf(ctx, n)
    gammas = [sections(F, K) for K in stages]
    bases = [tuple(range(g.free_rank)) for g in gammas]
    steps = []
    for i in range(len(stages) - 1):
        small, big = gammas[i], gammas[i + 1]
        cols = []
        for sec in big.cycles:
            restricted = {k: v for k, v in sec.items()
                          if stages[i].contains(k[0])}
            y = small.cycle_coordinates(restricted)
            if y is None:
                raise ValueError("restricted section is not a section")
            cols.append(y)
        steps.append(Matrix.from_columns(ring, bases[i], bases[i + 1], cols))
    return RestrictionSystem(ring, bases, steps), gammas


def compactly_determined_dual(lf, gammas, semistability):
    """Compare the colimit of the duals of the stage sections `gammas` with
    degree-zero cosheaf homology over L, read from the `lf_h0_check` report
    (refusing with it) and a `semistability_check` report (None for one
    stage).  On a finite complex the filtration is finite, every
    homomorphism on sections is determined on the final stage, and the
    colimit is the dual of the sections over L itself; the comparison is the
    evaluation isomorphism checked exactly."""
    report = {k: lf[k] for k in ("ring", "n", "hypothesis", "refused")}
    if lf["refused"]:
        report["verdict"] = False
        return report
    report["stages"] = len(gammas)
    report["dual_ranks"] = [g.free_rank for g in gammas]
    # the dual system runs forward (precompose with the restriction maps);
    # with a finite index set its colimit is the dual of the final stage
    report["colimit_rank"] = gammas[-1].free_rank
    report["finite_note"] = ("finite filtration: every homomorphism on "
                             "sections is compactly determined")
    report["semistable"] = (semistability is None
                            or semistability["semistable"])
    report["h0"] = lf["h0"]
    report["iso"] = lf["iso"] and lf["dual_rank"] == report["colimit_rank"]
    report["verdict"] = report["iso"]
    return report
