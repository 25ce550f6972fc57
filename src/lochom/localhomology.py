"""Local homology and cohomology at a simplex, assembled into a sheaf/cosheaf.

The local chain complex at a simplex s is the relative complex of the pair
(X, X minus the open star of s): its degree-k basis is the set of generators
(s, a) for k-simplices a containing s, and the boundary drops faces that no
longer contain s.  It is built by position alone (`LocalComplex`): a
generator (s, a) is the place of its carrier a in its level of the star.
The top local homology stalks form a sheaf (generator rule (s, a) ->
(t, a), killed when t is not a face of a); the top local cohomology
stalks, presented as cokernels of the local coboundary, form a cosheaf.
"""

from .homology import CokerPresentation, CycleBasis, FactorSummaries
from .matrices import Matrix, invariant_factors, kernel_basis, vec_dot
from .sheaves import simplicial_chain_complex


class LocalComplex(FactorSummaries):
    """The local chain complex at `simplex` by position, or with `link` the
    reduced chain complex of its link.  `levels[i]`, the open star's
    simplices of dimension dim s + i in the order of `all_simplices`, is
    the basis of degree low + i: generators (s, a) from low = dim s, or the
    link's simplices a minus s from low = -1 (s itself the augmentation's
    empty simplex).  `entries[i]` lists the differential out of that degree
    column by column as (row position, column position, +-1): each face of
    a dropping a vertex outside s, signed by its index in a, or for the
    link in a minus s.  `keys[deg]` is its `matrices._positions`, all the
    summaries read, through `memo`; `type`, the low degree, the level count
    and the keys in degree order, fixes every `_size` and `_key`, so two
    complexes of one type have equal summaries in every degree.  It holds
    no `LocalContext`."""

    shift = -1

    def __init__(self, ring, simplex, levels, memo, link=False):
        self.ring, self.simplex, self.levels = ring, simplex, levels
        self.memo = memo
        self.low = -1 if link else len(simplex) - 1
        units = (ring.from_int(1), ring.from_int(-1))
        self.entries = [[]]
        self.keys = {}
        self._key = self.keys.get
        for i in range(1, len(levels)):
            row = {f: r for r, f in enumerate(levels[i - 1])}
            entries = []
            for c, a in enumerate(levels[i]):
                skipped = 0
                for j, v in enumerate(a):
                    if v in simplex:
                        skipped += 1
                    else:
                        entries.append((row[a[:j] + a[j + 1:]], c, units[
                            (j - skipped if link else j) & 1]))
            self.entries.append(entries)
            self.keys[self.low + i] = ((len(row), len(levels[i])),
                                       frozenset(entries))
        self._factors = {}

    @property
    def type(self):
        return (self.low, len(self.levels), tuple(self.keys.values()))

    def _size(self, deg):
        i = deg - self.low
        return len(self.levels[i]) if 0 <= i < len(self.levels) else 0

    def key(self, deg):
        """d_deg's `matrices._positions`, in every degree."""
        return self.keys.get(deg) or (
            (self._size(deg - 1), self._size(deg)), frozenset())

    def matrix(self, deg):
        """d_deg on basis positions, entries in their order."""
        i = deg - self.low
        entries = self.entries[i] if 0 <= i < len(self.entries) else ()
        return Matrix(self.ring, range(self._size(deg - 1)),
                      range(self._size(deg)),
                      {(r, c): v for r, c, v in entries})

    def link(self):
        """The link's reduced chain complex, from the same levels and memo."""
        return LocalComplex(self.ring, self.simplex, self.levels, self.memo,
                            link=True)


def local_complex(X, ring, simplex, memo):
    """The `LocalComplex` at a simplex of X, factored through `memo`."""
    simplex = tuple(simplex)
    if not simplex:
        raise ValueError("empty simplex: use the reduced chain complex")
    if not X.contains(simplex):
        raise ValueError(f"{simplex!r} not in complex")
    return LocalComplex(ring, simplex, X.star_levels(simplex), memo)


class LocalContext:
    """The local data of one complex over one ring, each piece built once:
    the local chain complex at each simplex; the stalks the sheaf views
    read, by position; `memo`, one factorization of each matrix these and
    the link complexes eliminate (`matrices.factored`: the local complexes
    come in few combinatorial types); the rows of local summaries, each
    half (homology, cohomology) in degrees 0..dim X built once per
    `LocalComplex.type` on its first read, the same dicts at every simplex
    of that type; `crosschecks`, one `link_crosscheck` verdict per pair of
    local and link types; and `pairings`, one `uct_report` result per top
    local differential.  A stalk is built once per distinct
    `LocalComplex.key(n)`, on d_n with basis positions for labels: a
    `CycleBasis` for the sheaf, a `CokerPresentation` of d_n's transpose
    for the cosheaf; a simplex reads it through its own degree-n level, so
    labels are built only for a caller that reads them.  Commands build
    one per complex and drop it on return; views point at their context,
    never back, so no reference cycle keeps a context alive after its
    command."""

    def __init__(self, X, ring):
        self.X = X
        self.ring = ring
        self._complexes = {}
        # (simplex, n, dual) -> (stalk, level); (dual, key) -> the stalk
        self._stalks = {}
        self.memo = {}
        # (dual, type) -> {degree: summary}
        self._rows = {}
        self.crosschecks = {}
        self.pairings = {}

    def complex(self, simplex):
        """The `LocalComplex` at a simplex, built once."""
        simplex = tuple(simplex)
        cx = self._complexes.get(simplex)
        if cx is None:
            cx = self._complexes[simplex] = local_complex(
                self.X, self.ring, simplex, self.memo)
        return cx

    def summaries(self, simplex, dual=False):
        """{k: summary} over degrees 0..dim X of the local homology at a
        simplex, or with dual of its local cohomology: the row of its
        complex's type, built from the first complex of that type."""
        cx = self.complex(simplex)
        at = (dual, cx.type)
        row = self._rows.get(at)
        if row is None:
            summary = cx.cohomology_summary if dual else cx.homology_summary
            row = self._rows[at] = {k: summary(k)
                                    for k in range(self.X.dim + 1)}
        return row

    def positional_stalk(self, simplex, n, dual):
        """(stalk, level): the degree-n local cycles at a simplex as a
        positional `CycleBasis` (the sheaf divides out no boundaries), or
        with dual the positional cokernel of the local coboundary into
        degree n; and the carriers a of the generators (s, a) whose
        positions it reads, in basis order."""
        at = (tuple(simplex), n, dual)
        found = self._stalks.get(at)
        if found is None:
            cx = self.complex(simplex)
            key, i = cx.key(n), n - cx.low
            stalk = self._stalks.get((dual, key))
            if stalk is None:
                d_n = cx.matrix(n)
                stalk = self._stalks[dual, key] = (
                    CokerPresentation(self.ring, d_n.transpose(), self.memo)
                    if dual else CycleBasis(d_n, self.memo))
            found = self._stalks[at] = (
                stalk, cx.levels[i] if 0 <= i < len(cx.levels) else ())
        return found


def link_crosscheck(ctx, simplex):
    """True iff h_i(s) matches the reduced homology of the link shifted by
    dim s + 1, as free rank + torsion, in every degree.  Both sides are
    summaries from invariant factors, of the local complex and of its
    `link`, built from the same star at every simplex; each side's type
    fixes its summaries, so they are compared once per pair of types
    (`ctx.crosschecks`)."""
    local = ctx.complex(simplex)
    link = local.link()
    at = (local.type, link.type)
    ok = ctx.crosschecks.get(at)
    if ok is None:
        ok = ctx.crosschecks[at] = all(
            local.homology_summary(i) == link.homology_summary(
                i - local.low - 1) for i in range(-1, ctx.X.dim + 1))
    return ok


def local_cm_check(ctx, L, n):
    """Local half of the Cohen-Macaulay report for (X, L) in degree n.

    locally_cm_at_L: local homology concentrated in degree n at every simplex
    of L (of X when L is None); locally_cm: the same at every simplex of X;
    witnesses lists each failing (simplex, degree, rank summary), read from
    the context's homology rows, in simplex order, then degree.  Callers
    that read only these skip the global homology `cm_check` adds.
    """
    X = ctx.X
    if X.dim < 0:
        raise ValueError("complex has no simplices")
    witnesses = []
    locally_cm_at_L = True
    locally_cm = True
    for s in X.all_simplices():
        in_L = L is None or L.contains(s)
        for k, summary in ctx.summaries(s).items():
            if k != n and summary != (0, []):
                witnesses.append((s, k, summary))
                locally_cm = False
                if in_L:
                    locally_cm_at_L = False
    return {"locally_cm_at_L": locally_cm_at_L, "locally_cm": locally_cm,
            "witnesses": witnesses}


def cm_check(X, L, n, ring):
    """Cohen-Macaulay report for the pair (X, L) in target degree n.

    The fields of `local_cm_check`, plus cm: locally_cm and reduced homology
    concentrated in degree n; pure: every maximal simplex has dimension n.
    The reduced homology is read as summaries from invariant factors.
    """
    local = local_cm_check(LocalContext(X, ring), L, n)
    red = simplicial_chain_complex(X, ring, reduced=True)
    reduced_ok = all(red.homology_summary(k) == (0, [])
                     for k in range(-1, X.dim + 1) if k != n)
    pure = all(len(m) - 1 == n for m in X.maximal_simplices())
    return {
        "n": n,
        "ring": ring.name,
        **local,
        "cm": local["locally_cm"] and reduced_ok,
        "reduced_concentrated": reduced_ok,
        "pure": pure,
    }


class _LocalView:
    """What the local sheaf and cosheaf share: the `X`, `ring`, `stalk` and
    `step_entries` the coefficient complexes read (each sets `covariant`),
    the context's positional stalks in top degree n, labelled chains read
    and written through a simplex's level, and the codimension-one steps
    computed by position, each once per view (`_steps`: the view, not the
    context, holds them, so they die with the build that asked for them)."""

    def __init__(self, ctx, n):
        self.ring, self.X = ctx.ring, ctx.X
        self.ctx = ctx
        self.n = n
        self._steps = {}

    def _stalk(self, simplex):
        return self.ctx.positional_stalk(simplex, self.n, not self.covariant)

    def _labelled(self, simplex, chain):
        """A positional chain at a simplex with labels (s, a)."""
        s = tuple(simplex)
        level = self._stalk(s)[1]
        return {(s, level[p]): v for p, v in chain.items()}

    def _positional(self, simplex, chain):
        """A labelled chain at a simplex by position; a label outside the
        basis is dropped, as `Matrix.apply` drops it."""
        s = tuple(simplex)
        index = {(s, a): p for p, a in enumerate(self._stalk(s)[1])}
        return {index[k]: v for k, v in chain.items() if k in index}

    def step(self, lo, hi):
        """The codimension-one map between the stalks of lo < hi (lo -> hi
        for the sheaf, hi -> lo for the cosheaf), one column per source
        label, each {target label: nonzero}.  The carriers a of hi's
        generators are those of lo's that hold hi's extra vertex, in the
        same order, so `kept[q]` is the position at lo of the carrier at
        position q at hi.  The step reads only the two stalks and `kept`,
        so the view computes it once for each distinct triple."""
        lo, hi = tuple(lo), tuple(hi)
        (v,) = set(hi).difference(lo)
        at_lo, level = self._stalk(lo)
        kept = tuple(p for p, a in enumerate(level) if v in a)
        at = (at_lo, self._stalk(hi)[0], kept)
        cols = self._steps.get(at)
        if cols is None:
            cols = self._steps[at] = self._columns(lo, hi, kept)
        return cols

    def step_entries(self, lo, hi):
        """The step's nonzeros ((row, column), value), column by column."""
        return [((r, c), v) for c, col in enumerate(self.step(lo, hi))
                for r, v in col.items()]


class LocalHomologySheaf(_LocalView):
    """Top local homology as a combinatorial sheaf.

    The stalk at s is the cycle module ker(boundary) in top local degree n:
    stalk = cycle basis, no quotient.  It is the context's positional
    `CycleBasis`; for n = dim X nothing bounds, so it is the local homology
    itself.  The restriction along s < t relabels (s, a) -> (t, a), kills
    generators whose carrier a does not contain t, and re-expresses the
    result in the target cycle basis.
    """

    covariant = True

    def stalk(self, simplex):
        return tuple(range(len(self._stalk(simplex)[0].cycles)))

    def cycle(self, simplex, label):
        """The ambient cycle carried by a stalk basis label."""
        return self._labelled(simplex,
                              self._stalk(simplex)[0].cycles[label])

    def cycle_coordinates(self, simplex, chain):
        """A labelled chain at a simplex in its stalk's cycle basis, or
        None for a non-cycle."""
        return self._stalk(simplex)[0].cycle_coordinates(
            self._positional(simplex, chain))

    def _columns(self, s, t, kept):
        back = {p: q for q, p in enumerate(kept)}
        tgt = self._stalk(t)[0]
        cols = []
        for z in self._stalk(s)[0].cycles:
            y = tgt.cycle_coordinates(
                {back[p]: v for p, v in z.items() if p in back})
            if y is None:
                raise ValueError(
                    f"restriction image at {s}<{t} is not a cycle")
            cols.append(y)
        return cols


class LocalCohomologyCosheaf(_LocalView):
    """Top local cohomology as a combinatorial cosheaf.

    The stalk at s is the cokernel of the local coboundary into top degree n;
    the corestriction along t > s lifts a stalk generator to a cochain on
    (s, a)-generators via (t, a) -> (s, a) and projects into the target
    cokernel presentation.  Stalk bases are honest module bases whenever the
    stalks are free (the locally Cohen-Macaulay case used for duality).
    """

    covariant = False

    def stalk(self, simplex):
        return tuple(range(len(self._stalk(simplex)[0])))

    def lift(self, simplex, j):
        """A labelled representative of stalk generator j."""
        return self._labelled(simplex, self._stalk(simplex)[0].lift(j))

    def project(self, simplex, chain):
        """A labelled cochain at a simplex in its stalk's generators."""
        return self._stalk(simplex)[0].project(
            self._positional(simplex, chain))

    def _columns(self, s, t, kept):
        is_zero = self.ring.is_zero
        src, tgt = self._stalk(t)[0], self._stalk(s)[0]
        return [{i: c for i, c in enumerate(tgt.project(
                    {kept[q]: v for q, v in src.lift(j).items()}))
                 if not is_zero(c)} for j in range(len(src))]


def uct_report(ctx, simplex, n):
    """Evaluation pairing between top local cohomology and the dual of top
    local homology at one simplex: both must be free of equal rank with a
    unimodular pairing matrix.  The concentration is read from the context's
    homology row; all else from d_n alone, by eliminations that read it by
    position, so a hit in `pairings`, one small result (no SNF) per d_n by
    position, is exact."""
    simplex = tuple(simplex)
    ring = ctx.ring
    cx = ctx.complex(simplex)
    concentrated = all(summary == (0, [])
                       for k, summary in ctx.summaries(simplex).items()
                       if k != n)
    key = cx.key(n)
    if key not in ctx.pairings:
        d_n = cx.matrix(n)
        cycles = kernel_basis(d_n)
        pres = CokerPresentation(ring, d_n.transpose())
        lifts = [pres.lift(i) for i in range(len(pres))]
        factors = invariant_factors(Matrix(
            ring, range(len(lifts)), range(len(cycles)),
            {(i, j): vec_dot(ring, lift, z) for i, lift in enumerate(lifts)
             for j, z in enumerate(cycles)}))
        unimodular = (len(factors) == len(lifts) == len(cycles)
                      and all(ring.is_unit(d) for d in factors))
        ctx.pairings[key] = (len(cycles), pres.rank_summary, unimodular)
    h_rank, (free, torsion), unimodular = ctx.pairings[key]
    return {
        "simplex": simplex,
        "locally_cm_here": concentrated,
        "h_rank": h_rank,
        "h_dual_summary": (free, list(torsion)),
        "pairing_unimodular": unimodular,
        "ok": concentrated and not torsion and h_rank == free and unimodular,
    }
