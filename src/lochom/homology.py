"""Chain complexes over exact rings and homology presentations via SNF."""

from .matrices import (Matrix, _log_apply, _positions, factored, factors,
                       hstack, kernel_basis, kernel_coordinates,
                       smith_normal_form, vec_clean)


class FactorSummaries:
    """Rank summaries from invariant factors alone, the one formula for a
    labelled complex (`ChainComplex`) and a positional one
    (`localhomology.LocalComplex`).  Over a PID ker d_out is a direct
    summand, so the free rank is dim C - rank d_out - rank d_in and the
    torsion the non-unit factors of d_in; a transpose has the same factors,
    so the evaluation dual's torsion is d_out's.  A subclass sets `ring`,
    `shift`, `memo` (`matrices.factored`) and `_factors` = {}, and gives
    `_size(deg)`, the basis size, and `_key(deg)`, d_deg's
    `matrices._positions` (None for no differential)."""

    def homology_summary(self, deg):
        """`homology(deg).rank_summary`, from invariant factors."""
        return self._summary(deg, deg - self.shift)

    def cohomology_summary(self, deg):
        """The same for the evaluation dual."""
        return self._summary(deg, deg)

    def _summary(self, deg, torsion_deg):
        found = self._factors
        for k in (deg, deg - self.shift):
            if k not in found:
                key = self._key(k)
                found[k] = ([] if key is None
                            else factors(self.memo, self.ring, key))
        free = self._size(deg) - len(found[deg]) - len(found[deg - self.shift])
        is_unit = self.ring.is_unit
        return (free, [d for d in found[torsion_deg] if not is_unit(d)])


class ChainComplex(FactorSummaries):
    """A finitely generated complex of free modules with labelled bases.

    spaces: dict degree -> tuple of basis labels.
    diffs: dict degree -> Matrix from spaces[degree] to spaces[degree + shift].
    shift is -1 for homological (boundary) and +1 for cohomological complexes.
    `memo` (`matrices.factored`) holds every factorization the complex, its
    dual and its presentations make, so no matrix is eliminated twice.
    The constructor does not check d∘d = 0: the tests check it on every
    complex lochom builds, a test property covers the functoriality of the
    local sheaf and cosheaf, and a presentation refuses an incoming
    boundary that is not a cycle.
    """

    def __init__(self, ring, spaces, diffs, shift=-1, memo=None):
        self.ring = ring
        self.spaces = {d: tuple(b) for d, b in spaces.items() if len(b) > 0}
        self.diffs = dict(diffs)
        self.shift = shift
        self.memo = {} if memo is None else memo
        self._factors = {}

    def dual(self):
        """The evaluation dual: the same bases, differentials transposed and
        the shift reversed.  A transpose keeps d∘d = 0, so the dual is a
        complex wherever the complex is, and the tests check both for every
        complex lochom builds."""
        return ChainComplex(self.ring, self.spaces,
                            {k + self.shift: d.transpose()
                             for k, d in self.diffs.items()}, -self.shift,
                            self.memo)

    def basis(self, deg):
        return self.spaces.get(deg, ())

    def differential(self, deg):
        if deg in self.diffs:
            return self.diffs[deg]
        return Matrix(self.ring, self.basis(deg + self.shift), self.basis(deg))

    def homology(self, deg):
        d_out = self.differential(deg)
        d_in = self.differential(deg - self.shift)
        return HomologyPresentation(self.ring, d_out, d_in, self.memo)

    def _size(self, deg):
        return len(self.basis(deg))

    def _key(self, deg):
        d = self.diffs.get(deg)
        return None if d is None else _positions(d)


class CokerPresentation:
    """Cokernel of a relation matrix into a labelled free module, via SNF.

    Generators are the non-unit invariant-factor positions (torsion, with
    orders in `torsion`, each dividing the next) followed by the positions
    beyond the rank (`free_rank` free generators).  `positions` lists them as
    (row index, order or None).  project() sends a vector to its generator
    coordinates, torsion coordinates reduced; lift(j) returns a
    representative of generator j.  Both run the row log of the
    relations' SNF (through `memo`, `matrices.factored`) on one vector:
    U vec forwards, U^-1 backwards.
    """

    def __init__(self, ring, relations, memo=None):
        self.ring = ring
        self.snf = factored(memo, relations)
        self._rows = relations.row_labels
        diagonals, size = self.snf.diagonals, len(self._rows)
        self.positions = [(i, d) for i, d in enumerate(diagonals)
                          if not ring.is_unit(d)]
        self.positions += [(i, None) for i in range(len(diagonals), size)]
        self.torsion = [d for _, d in self.positions if d is not None]
        self.free_rank = size - len(diagonals)

    @property
    def rank_summary(self):
        return (self.free_rank, list(self.torsion))

    def __len__(self):
        return len(self.positions)

    def is_trivial(self):
        return not self.positions

    def project(self, vec):
        """U vec at the generator positions.  A key of vec that is not a
        row label is dropped, as `Matrix.apply` drops it."""
        ring = self.ring
        z = _log_apply(self.snf, vec)
        out = []
        for i, order in self.positions:
            zi = z.get(self._rows[i], ring.zero())
            if order is not None:
                # torsion arises over Z alone: reduce to 0 <= zi < order
                zi %= order
            out.append(zi)
        return out

    def lift(self, j):
        """Generator j's column of U^-1, its nonzeros in row order."""
        i, _ = self.positions[j]
        return _log_apply(self.snf, {self._rows[i]: self.ring.one()}, True)


class CycleBasis:
    """ker(d_out) with a basis: the kernel half of a homology presentation,
    and all a cycle-module stalk reads.

    `out_snf` is the one SNF of d_out, through `memo` (`matrices.factored`):
    its column log gives the kernel basis `cycles` (chains over d_out's
    source basis) once here, and V^-1's rows past the rank, built on the
    first `cycle_coordinates`, write any cycle in that basis (None for a
    non-cycle).
    """

    def __init__(self, d_out, memo):
        self.out_snf = factored(memo, d_out)
        self.cycles = kernel_basis(d_out, self.out_snf)

    def cycle_coordinates(self, chain):
        return kernel_coordinates(self.out_snf, chain)


class HomologyPresentation(CycleBasis, CokerPresentation):
    """ker(d_out)/im(d_in) as the cokernel of the incoming boundaries written
    in the coordinates of the kernel basis its `CycleBasis` half holds.
    `gens` are the generating cycles in ambient coordinates.
    coordinates() expresses any cycle exactly in this presentation.
    """

    def __init__(self, ring, d_out, d_in, memo=None):
        CycleBasis.__init__(self, d_out, memo)
        klabels = tuple(range(len(self.cycles)))
        ycols = []
        for c in d_in.col_labels:
            y = self.cycle_coordinates(d_in.column(c))
            if y is None:
                raise ValueError("incoming boundary is not a cycle (d∘d != 0?)")
            ycols.append(y)
        CokerPresentation.__init__(self, ring, Matrix.from_columns(
            ring, klabels, tuple(range(len(ycols))), ycols), memo)
        # a generator is its lift's combination of cycles, summed in basis
        # order (which fixes its key order) and cleaned once
        self.gens = []
        for j in range(len(self)):
            out = {}
            for i, x in sorted(self.lift(j).items()):
                for r, v in self.cycles[i].items():
                    out[r] = ring.add(out.get(r, ring.zero()), ring.mul(v, x))
            self.gens.append(vec_clean(ring, out))

    def coordinates(self, chain):
        """Coordinates of a cycle in the presentation (torsion coords reduced)."""
        y = self.cycle_coordinates(chain)
        if y is None:
            raise ValueError("chain is not a cycle")
        return self.project(y)


def induced_matrix(src, tgt, image_fn):
    """Matrix of the induced map on homology presentations.

    image_fn maps a chain in src's ambient basis to a chain in tgt's ambient
    basis; it must send src's generating cycles to cycles of tgt.  Raises if
    the assignment is not well defined on the quotient presentations.
    """
    ring = src.ring
    cols = []
    for j, g in enumerate(src.gens):
        img = image_fn(g)
        coords = tgt.coordinates(img)
        order = src.positions[j][1]
        if order is not None:
            scaled = tgt.coordinates(vec_clean(ring, {k: ring.mul(order, v)
                                                      for k, v in img.items()}))
            if not all(ring.is_zero(c) for c in scaled):
                raise ValueError("induced map not well defined on torsion generator")
        cols.append({i: c for i, c in enumerate(coords) if not ring.is_zero(c)})
    rows = tuple(range(len(tgt.gens)))
    return Matrix.from_columns(ring, rows, tuple(range(len(src.gens))), cols)


def maps_agree(first, second, src, l, tgt, k, chain_level):
    """Whether two maps from degree l of src to degree k of tgt agree: as
    matrices at chain level, otherwise on homology."""
    if chain_level:
        return (first - second).is_zero()
    src_h = src.homology(l)
    tgt_h = tgt.homology(k)
    if src_h.is_trivial() and tgt_h.is_trivial():
        return True
    return (induced_matrix(src_h, tgt_h, first.apply)
            == induced_matrix(src_h, tgt_h, second.apply))


def _relation_matrix(ring, pres, tag):
    rows = tuple(range(len(pres.gens)))
    cols = []
    entries = {}
    for j, (_, order) in enumerate(pres.positions):
        if order is not None:
            cols.append((tag, j))
            entries[(j, (tag, j))] = order
    return Matrix(ring, rows, tuple(cols), entries)


def is_isomorphism(src, tgt, matrix):
    """Exact bijectivity test for a map of f.g. modules given by `matrix`
    between the generator sets of two presentations."""
    ring = src.ring
    rel_tgt = _relation_matrix(ring, tgt, "rt")
    rows = tuple(range(len(tgt.gens)))
    big = hstack(ring, rows, [matrix, rel_tgt])
    s = smith_normal_form(big)
    surjective = (s.rank == len(rows)) and all(ring.is_unit(d) for d in s.diagonals)
    if not surjective:
        return False
    injective = True
    for kv in kernel_basis(big, s):
        xpart = {}
        for (i, lbl), v in kv.items():
            if i == 0:
                xpart[lbl] = v
        # x lies in ker(matrix mod relations); must come from src relations
        for j, (_, order) in enumerate(src.positions):
            v = xpart.get(j, ring.zero())
            if order is None:
                if not ring.is_zero(v):
                    injective = False
            else:
                if not ring.divides(order, v):
                    injective = False
    return injective
