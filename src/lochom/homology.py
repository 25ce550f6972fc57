"""Chain complexes over exact rings and homology presentations via SNF."""

from .matrices import (Matrix, hstack, invariant_factors, kernel_basis,
                       kernel_coordinates, smith_normal_form, vec_clean)


class ChainComplex:
    """A finitely generated complex of free modules with labelled bases.

    spaces: dict degree -> tuple of basis labels.
    diffs: dict degree -> Matrix from spaces[degree] to spaces[degree + shift].
    shift is -1 for homological (boundary) and +1 for cohomological complexes.
    Each differential's invariant factors are computed at most once.
    """

    def __init__(self, ring, spaces, diffs, shift=-1):
        self.ring = ring
        self.spaces = {d: tuple(b) for d, b in spaces.items() if len(b) > 0}
        self.diffs = dict(diffs)
        self.shift = shift
        self._factors = {}
        self.check_complex()

    def dual(self):
        """The evaluation dual (same bases, differentials transposed), not
        checked again: a transpose keeps d∘d = 0."""
        dual = ChainComplex.__new__(ChainComplex)
        dual.ring, dual.spaces, dual.shift = self.ring, self.spaces, -self.shift
        dual.diffs = {k + self.shift: d.transpose()
                      for k, d in self.diffs.items()}
        dual._factors = {}
        return dual

    def degrees(self):
        return sorted(self.spaces)

    def basis(self, deg):
        return self.spaces.get(deg, ())

    def differential(self, deg):
        if deg in self.diffs:
            return self.diffs[deg]
        return Matrix.zero(self.ring, self.basis(deg + self.shift), self.basis(deg))

    def check_complex(self):
        for deg, m in self.diffs.items():
            if tuple(m.col_labels) != self.basis(deg):
                raise ValueError(f"differential at {deg}: wrong source basis")
            if tuple(m.row_labels) != self.basis(deg + self.shift):
                raise ValueError(f"differential at {deg}: wrong target basis")
        for deg in self.degrees():
            first = self.differential(deg)
            second = self.differential(deg + self.shift)
            if first.shape[0] and first.shape[1]:
                if not (second @ first).is_zero():
                    raise ValueError(f"d∘d != 0 at degree {deg}")

    def homology(self, deg):
        d_out = self.differential(deg)
        d_in = self.differential(deg - self.shift)
        return HomologyPresentation(self.ring, d_out, d_in)

    def homology_summary(self, deg):
        """`homology(deg).rank_summary` from invariant factors alone: over a
        PID ker d_out is a direct summand, so the free rank is
        dim C - rank d_out - rank d_in, the torsion the non-unit factors of
        d_in."""
        return self._summary(deg, deg - self.shift)

    def cohomology_summary(self, deg):
        """The same for the evaluation dual (transposed differentials): a
        transpose has the same factors, so the torsion is d_out's."""
        return self._summary(deg, deg)

    def _summary(self, deg, torsion_deg):
        for k in (deg, deg - self.shift):
            if k not in self._factors:
                d = self.diffs.get(k)
                self._factors[k] = invariant_factors(d) if d is not None else []
        free = (len(self.basis(deg)) - len(self._factors[deg])
                - len(self._factors[deg - self.shift]))
        return (free, [d for d in self._factors[torsion_deg]
                       if not self.ring.is_unit(d)])


class CokerPresentation:
    """Cokernel of a relation matrix into a labelled free module, via SNF.

    Generators are the non-unit invariant-factor positions (torsion, with
    orders in `torsion`, each dividing the next) followed by the positions
    beyond the rank (`free_rank` free generators).  `positions` lists them as
    (row index, order or None).  project() sends a vector to its generator
    coordinates, torsion coordinates reduced; lift(j) returns a
    representative of generator j.  The relations' SNF keeps only the U that
    project reads and the U^-1 that lift reads.
    """

    def __init__(self, ring, relations):
        self.ring = ring
        self.snf = smith_normal_form(relations).keep("U", "Uinv")
        self._rows = relations.row_labels
        self.positions = []
        for i, d in enumerate(self.snf.diagonals):
            if not ring.is_unit(d):
                self.positions.append((i, d))
        for i in range(len(self.snf.diagonals), len(self._rows)):
            self.positions.append((i, None))
        self.torsion = [d for _, d in self.positions if d is not None]
        self.free_rank = len(self._rows) - len(self.snf.diagonals)

    @property
    def rank_summary(self):
        return (self.free_rank, list(self.torsion))

    def __len__(self):
        return len(self.positions)

    def is_trivial(self):
        return not self.positions

    def project(self, vec):
        ring = self.ring
        z = self.snf.U.apply(vec)
        out = []
        for i, order in self.positions:
            zi = z.get(self._rows[i], ring.zero())
            if order is not None:
                zi = ring.divmod(zi, order)[1]
                # normalize representative for determinism (integers: 0 <= r < d)
                if hasattr(zi, "__mod__") and not ring.is_field:
                    zi = zi % order
            out.append(zi)
        return out

    def lift(self, j):
        i, _ = self.positions[j]
        return vec_clean(self.ring, self.snf.Uinv.column(self._rows[i]))


class HomologyPresentation(CokerPresentation):
    """ker(d_out)/im(d_in) as the cokernel of the incoming boundaries written
    in the coordinates of a kernel basis.

    `out_snf` is the one SNF of d_out: its V columns past the rank are the
    kernel basis `cycles` (chains over d_out's source basis), read once
    here, and its V^-1, the one transform it keeps, writes any cycle in that
    basis (`cycle_coordinates`, None for a non-cycle).  `gens` are the
    generating cycles in ambient coordinates.  coordinates() expresses any
    cycle exactly in this presentation.
    """

    def __init__(self, ring, d_out, d_in):
        snf = smith_normal_form(d_out)
        self.cycles = kernel_basis(d_out, snf)
        self.out_snf = snf.keep("Vinv")
        klabels = tuple(range(len(self.cycles)))
        ycols = []
        for c in d_in.col_labels:
            y = self.cycle_coordinates(d_in.column(c))
            if y is None:
                raise ValueError("incoming boundary is not a cycle (d∘d != 0?)")
            ycols.append(y)
        super().__init__(ring, Matrix.from_columns(
            ring, klabels, tuple(range(len(ycols))), ycols))
        # a generator is its lift's combination of cycles, summed in basis
        # order (which fixes its key order) and cleaned once
        self.gens = []
        for j in range(len(self)):
            out = {}
            for i, x in sorted(self.lift(j).items()):
                for r, v in self.cycles[i].items():
                    out[r] = ring.add(out.get(r, ring.zero()), ring.mul(v, x))
            self.gens.append(vec_clean(ring, out))

    def cycle_coordinates(self, chain):
        return kernel_coordinates(self.out_snf, chain)

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
