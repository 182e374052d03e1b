"""Windowed Hom complexes, Ext dimension tables, null-homotopy solving, and
the naive-lifting decision procedure.

The splitting solver works directly on the linear system "pi_N(rho(e)) = e and
d(rho(e)) = rho(d(e))" in the minimal sufficient window, then re-verifies any
solution symbolically before reporting SPLIT.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from itertools import accumulate

from .base_ring import Infeasible, LinearSolution, LinearSystem, matrix_rank, solve_linear
from .dg_module import BidegreeWindow, ChainMap, SemifreeModule, base_change
from .render import render_element


class HomologicalError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Hom complexes
# ---------------------------------------------------------------------------


class HomComplex:
    """Bigraded complex of B-linear maps M -> L over the coefficient field.

    The (d, w) slice is spanned by maps sending one basis element e_a of M to
    one field-basis vector of L at bidegree (|e_a|+d, wt(e_a)+w); the
    differential is D(phi) = dL 。phi - (-1)^{|phi|} phi 。dM.

    D is assembled from blocks (the twisted differential of Hom out of a
    semifree module): the column of phi: e_a -> v is d_L(v) at a, plus
    -(-1)^{|phi|} v·dM[a, b] at each b with an entry dM[a, b].  A column is
    a sparse {row position: scalar} map, the rows numbered by position in
    `slice_labels(d - 1, w)`: one offset per generator of M, one per
    generator of L within it, and the tower's position of X^e x^b in its
    slice.  That numbering is sorted label order, and `rows` maps it back to
    labels.  The offsets, the d_L blocks and the block products are
    memoised here, and die with the complex.
    """

    def __init__(self, m: SemifreeModule, l: SemifreeModule):
        if m.tower is not l.tower and m.tower != l.tower:
            raise HomologicalError("Hom between modules over different towers")
        self.m = m
        self.l = l
        self._matrices: dict[tuple[int, int], list] = {}
        self._ranks: dict[tuple[int, int], int] = {}
        # dM by row a: [(b, dM[a, b])]; dL by column is `l.columns`
        self._m_rows: dict[int, list] = {}
        for (a, b), entry in m.diff.items():
            self._m_rows.setdefault(a, []).append((b, entry))
        # (h, w) -> where each generator's labels start in that slice of L,
        # then its dimension; (d, w) -> the same for the blocks of M in Hom
        self._l_offsets: dict[tuple[int, int], list[int]] = {}
        self._offsets: dict[tuple[int, int], list[int]] = {}
        # (h, w) -> [(label, column of d_L)] on that slice of L, in the
        # order of SemifreeModule.slice_labels
        self._dl: dict[tuple[int, int], list] = {}
        # (a, b, exps, bex) -> X^exps x^bex · dM[a, b] by tower position
        self._products: dict[tuple, dict] = {}

    def require_complete(self, d: int, w: int):
        for e in self.m.basis:
            h, wt = e.degree + d, e.weight + w
            if (h >= self.l.min_degree() and wt >= 0) and not self.l.is_complete(h, wt):
                raise HomologicalError(
                    f"window too small: Hom target slice ({h},{wt}) exceeds the "
                    "complete range of the target module"
                )

    def _l_starts(self, h: int, w: int) -> list[int]:
        """Where the labels of each generator of L start in its (h, w) slice,
        and the slice's dimension last."""
        key = (h, w)
        if key not in self._l_offsets:
            tower = self.l.tower
            self._l_offsets[key] = [0, *accumulate(
                len(tower.slice_basis(h - e.degree, w - e.weight)) for e in self.l.basis)]
        return self._l_offsets[key]

    def _starts(self, d: int, w: int) -> list[int]:
        """Where the maps out of each generator of M start in the (d, w)
        slice, and the slice's dimension last."""
        key = (d, w)
        if key not in self._offsets:
            self._offsets[key] = [0, *accumulate(
                self._l_starts(e.degree + d, e.weight + w)[-1] for e in self.m.basis)]
        return self._offsets[key]

    def slice_labels(self, d: int, w: int) -> list:
        """The basis maps e_alpha -> lab of the (d, w) slice, in position
        order."""
        return [(alpha, lab) for alpha, e in enumerate(self.m.basis)
                for lab in self.l.slice_labels(e.degree + d, e.weight + w)]

    def dim(self, d: int, w: int) -> int:
        return self._starts(d, w)[-1]

    def _dl_columns(self, h: int, w: int) -> list[tuple]:
        """d_L on the (h, w) slice of L as (label, column) pairs, rows
        numbered by position in the (h - 1, w) slice: for the label
        e_i X^e x^b, the tower's column of X^e x^b in block i with sign
        (-1)^|e_i|, and dL[a, i]·X^e x^b in block a for each entry of dL in
        column i."""
        key = (h, w)
        cols = self._dl.get(key)
        if cols is not None:
            return cols
        tower = self.l.tower
        neg = tower.base.field.neg
        below = self._l_starts(h - 1, w)
        cols = []
        for i, e in enumerate(self.l.basis):
            hi, wi = h - e.degree, w - e.weight
            basis = tower.slice_basis(hi, wi)
            if not basis:
                continue
            odd, start = e.degree % 2, below[i]
            entries = [(entry, below[a], tower.slice_index(h - 1 - g.degree, w - g.weight))
                       for a, entry in self.l.columns.get(i, ()) for g in (self.l.basis[a],)]
            for (exps, bex), own in zip(basis, tower.slice_columns(hi, wi)):
                col = {start + r: neg(s) if odd else s for r, s in own.items()}
                for entry, at, index in entries:
                    image = tower.monomial_times((exps, bex), entry, right=True)
                    for k, s in image.coeffs.items():
                        col[at + index[k]] = s
                cols.append(((i, exps, bex), col))
        self._dl[key] = cols
        return cols

    def matrix_columns(self, d: int, w: int) -> list[dict]:
        """Columns of D restricted to the (d, w) slice, rows numbered by
        position in `slice_labels(d - 1, w)`."""
        key = (d, w)
        if key in self._matrices:
            return self._matrices[key]
        m, l, tower = self.m, self.l, self.l.tower
        neg = tower.base.field.neg
        even = d % 2 == 0  # the dM blocks carry -(-1)^d
        below = self._starts(d - 1, w)
        cols = []
        for alpha, e in enumerate(m.basis):
            start = below[alpha]
            blocks = [(b, entry, below[b], self._l_starts(g.degree + d - 1, g.weight + w),
                       g.degree + d - 1, g.weight + w)
                      for b, entry in self._m_rows.get(alpha, ()) for g in (m.basis[b],)]
            for (i, exps, bex), dl in self._dl_columns(e.degree + d, e.weight + w):
                col = {start + r: s for r, s in dl.items()}
                for b, entry, at, l_starts, hb, wb in blocks:
                    # X^e x^b · dM[alpha, b] is the same for every generator e_i
                    pkey = (alpha, b, exps, bex)
                    coords = self._products.get(pkey)
                    if coords is None:
                        f = l.basis[i]
                        index = tower.slice_index(hb - f.degree, wb - f.weight)
                        image = tower.monomial_times((exps, bex), entry)
                        coords = self._products[pkey] = {index[k]: s for k, s in image.coeffs.items()}
                    at_i = at + l_starts[i]
                    for r, s in coords.items():
                        col[at_i + r] = neg(s) if even else s
                cols.append(col)
        self._matrices[key] = cols
        return cols

    def rows(self, d: int, w: int) -> dict:
        """D on the (d, w) slice by rows: {target label: {column: scalar}},
        the transpose of `matrix_columns`, in the order of
        `slice_labels(d - 1, w)`."""
        out: dict = {}
        for j, col in enumerate(self.matrix_columns(d, w)):
            for r, scalar in col.items():
                out.setdefault(r, {})[j] = scalar
        labels = self.slice_labels(d - 1, w)
        return {labels[r]: out[r] for r in sorted(out)}

    def chain_map(self, d: int, labels: list, solution: list) -> ChainMap:
        """The degree-d map sum_j solution[j] * phi_j, where phi_j is the basis
        map labels[j] = (alpha, lab): e_alpha -> lab."""
        l = self.l
        entries: dict = {}
        for (alpha, lab), c in zip(labels, solution):
            if not c:
                continue
            piece = l.scale_elem(l.label_elem(lab), c)
            prev = entries.get(alpha)
            entries[alpha] = piece if prev is None else l.add_elem(prev, piece)
        return ChainMap(self.m, l, d, entries)

    def rank(self, d: int, w: int) -> int:
        """Rank of D on the (d, w) slice, computed once; the columns are ranked
        as rows, since row rank equals column rank."""
        key = (d, w)
        if key not in self._ranks:
            field = self.m.tower.base.field
            self._ranks[key] = matrix_rank(field, self.matrix_columns(d, w))
        return self._ranks[key]

    def homology_dim(self, d: int, w: int) -> int:
        """dim H_d of the Hom complex in weight w (exact)."""
        n = self.dim(d, w)
        if n == 0:
            return 0
        return n - self.rank(d, w) - self.rank(d + 1, w)


@dataclass
class ExtTable:
    """Ext^i dimensions per (i, weight); only nonzero entries stored."""

    i_range: tuple[int, int]
    weight_range: tuple[int, int]
    window: BidegreeWindow
    dims: dict = dc_field(default_factory=dict)

    def dim(self, i: int, w: int) -> int:
        return self.dims.get((i, w), 0)

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.dims.items() if ii == i)

    def rows(self) -> list[list[int]]:
        return [[i, w, v] for (i, w), v in sorted(self.dims.items())]

    def is_zero_for(self, i_from: int, i_to: int) -> bool:
        return all(self.total(i) == 0 for i in range(i_from, i_to + 1))


def ext_dims(m: SemifreeModule, l: SemifreeModule, i_range: tuple[int, int],
             window: BidegreeWindow) -> ExtTable:
    """Ext^i(M, L) = H_{-i}(Hom(M, L)) per internal weight, exactly.

    Refuses when the requested degrees would read truncated slices of L.
    """
    imin, imax = i_range
    if imin > imax:
        raise HomologicalError("empty i range")
    hom = HomComplex(m, l)
    if m.basis:
        w_lo = -max(e.weight for e in m.basis)
        w_hi = window.wmax - min(e.weight for e in m.basis)
    else:
        w_lo, w_hi = 0, -1
    for w in range(w_lo, w_hi + 1):
        hom.require_complete(-imin + 1, w)
    table = ExtTable(i_range=(imin, imax), weight_range=(w_lo, w_hi), window=window)
    for i in range(imin, imax + 1):
        for w in range(w_lo, w_hi + 1):
            dim = hom.homology_dim(-i, w)
            if dim:
                table.dims[(i, w)] = dim
    return table


def null_homotopy(f: ChainMap):
    """Solve f = dL h + (-1)^{deg f} h dM exactly.

    Returns the homotopy as a ChainMap, or an Infeasible witness when none
    exists.  f must be a chain map.
    """
    if not f.is_chain_map():
        raise HomologicalError("null_homotopy needs a chain map")
    m, l, d = f.source, f.target, f.degree
    hom = HomComplex(m, l)

    coords_by_w: dict[int, dict] = {}
    for alpha, img in f.entries.items():
        wa = m.basis[alpha].weight
        for (i, exps, bex), scalar in l.elem_coords(img).items():
            w = l.basis[i].weight + l.tower.monomial_bidegree(exps)[1] \
                + l.tower.base.term_weight(bex) - wa
            coords_by_w.setdefault(w, {})[(alpha, (i, exps, bex))] = scalar

    unknowns: list = []
    rows_map: dict = {}
    rhs_map: dict = {}
    for w, coords in sorted(coords_by_w.items()):
        hom.require_complete(d + 1, w)
        offset = len(unknowns)
        unknowns.extend(hom.slice_labels(d + 1, w))
        for rkey, row in hom.rows(d + 1, w).items():
            rows_map[(w, rkey)] = {offset + j: v for j, v in row.items()}
        for rkey, scalar in coords.items():
            rows_map.setdefault((w, rkey), {})
            rhs_map[(w, rkey)] = scalar

    field = m.tower.base.field
    keys = sorted(rows_map)
    system = LinearSystem(
        field,
        [rows_map[k] for k in keys],
        [rhs_map.get(k, field.zero()) for k in keys],
        len(unknowns),
    )
    res = solve_linear(system)
    if isinstance(res, Infeasible):
        return res
    return hom.chain_map(d + 1, unknowns, res.solution)


# ---------------------------------------------------------------------------
# Naive lifting
# ---------------------------------------------------------------------------


@dataclass
class ObstructionWitness:
    """A linear combination of the splitting equations reducing to 0 = value."""

    combo: dict          # equation index -> field scalar
    value: object        # the nonzero scalar c
    equations: list[str]  # human-readable labels of the involved equations
    locus: str


@dataclass
class SplitResult:
    status: str  # "SPLIT" | "OBSTRUCTED"
    window: BidegreeWindow
    module: SemifreeModule          # the base change N|_A (x)_A B
    pi: ChainMap
    rho: ChainMap | None = None
    transcript: list[str] = dc_field(default_factory=list)
    witness: ObstructionWitness | None = None

    @property
    def split(self) -> bool:
        return self.status == "SPLIT"


def minimal_window(n: SemifreeModule) -> BidegreeWindow:
    """Homological range spanned by the basis, weights up to the basis maximum."""
    if not n.basis:
        return BidegreeWindow(0, 0, 0)
    return BidegreeWindow(n.min_degree(), n.max_degree(), n.max_weight())


def build_split_system(n: SemifreeModule, a_prefix: int = 0,
                       window: BidegreeWindow | None = None):
    """Assemble the homogeneous splitting system for pi_N.

    Unknowns are the field coordinates of rho(e_beta) in the (|e_beta|,
    wt(e_beta)) slice of P = N|_A (x)_A B; equations impose pi(rho(e)) = e and
    d(rho(e)) = rho(d(e)).  Returns (system, unknown labels, equation labels,
    P, pi, window).
    """
    if window is None:
        window = minimal_window(n)
    p, pi = base_change(n, window, a_prefix)
    tower = n.tower
    field = tower.base.field
    hom = HomComplex(n, p)
    unknowns = hom.slice_labels(0, 0)

    rows: list[dict] = []
    rhs: list = []
    labels: list[str] = []

    def label(module, lab):
        i, exps, bex = lab
        mono = tower.monomial(exps, tower.base.monomial(bex))
        return f"{module.basis[i].name}·({render_element(mono)})"

    # pi_N(rho(e_beta)) = e_beta, coordinatewise in N at (|e|, wt(e))
    images: dict = {}
    for j, (beta, lab) in enumerate(unknowns):
        for nlab, scalar in n.elem_coords(pi.apply(p.label_elem(lab))).items():
            images.setdefault(beta, {}).setdefault(nlab, {})[j] = scalar
    for beta, e in enumerate(n.basis):
        acc = images.get(beta, {})
        want = n.elem_coords(n.basis_elem(beta))
        for nlab in sorted(set(acc) | set(want)):
            rows.append(acc.get(nlab, {}))
            rhs.append(want.get(nlab, field.zero()))
            labels.append(f"pi(rho({e.name})) = {e.name} at {label(n, nlab)}")

    # D(rho) = d 。rho - rho 。d = 0, coordinatewise in P at (|e|-1, wt(e))
    for (beta, plab), row in sorted(hom.rows(0, 0).items()):
        rows.append(row)
        rhs.append(field.zero())
        labels.append(f"chain condition of rho({n.basis[beta].name}) at {label(p, plab)}")

    system = LinearSystem(field, rows, rhs, len(unknowns))
    return system, unknowns, labels, p, pi, window


def naive_lift_check(n: SemifreeModule, a_prefix: int = 0,
                     window: BidegreeWindow | None = None) -> SplitResult:
    """Decide whether pi_N: N|_A (x)_A B -> N splits as DG B-modules.

    A SPLIT result carries rho, re-verified symbolically (pi 。rho = id and
    d 。rho = rho 。d on every basis element).  An OBSTRUCTED result carries a
    re-checkable inconsistency certificate for the splitting system.
    """
    system, unknowns, labels, p, pi, window = build_split_system(n, a_prefix, window)
    res = solve_linear(system)
    if isinstance(res, Infeasible):
        involved = sorted(res.combo)
        eq_labels = [labels[i] for i in involved]
        locus = "; ".join(eq_labels[:3]) + ("; ..." if len(eq_labels) > 3 else "")
        witness = ObstructionWitness(
            combo=dict(res.combo), value=res.value, equations=eq_labels, locus=locus
        )
        return SplitResult(
            status="OBSTRUCTED", window=window, module=p, pi=pi,
            transcript=[
                f"splitting system: {len(unknowns)} unknowns, {len(labels)} equations",
                f"inconsistent combination over {len(involved)} equations "
                f"reduces to 0 = {res.value}",
            ],
            witness=witness,
        )

    assert isinstance(res, LinearSolution)
    rho = HomComplex(n, p).chain_map(0, unknowns, res.solution)

    transcript = [
        f"splitting system: {len(unknowns)} unknowns, {len(labels)} equations",
    ]
    for beta, e in enumerate(n.basis):
        img = pi.apply(rho.entries.get(beta, {}))
        if not n.elem_eq(img, n.basis_elem(beta)):
            raise HomologicalError("solver returned a non-section; refusing SPLIT")
        transcript.append(f"verified pi(rho({e.name})) = {e.name}")
    for beta, e in enumerate(n.basis):
        lhs = p.apply_diff(rho.entries.get(beta, {}))
        rhs_elem = rho.apply(n.apply_diff({beta: n.tower.one()}))
        if not p.elem_eq(lhs, rhs_elem):
            raise HomologicalError("solver returned a non-chain map; refusing SPLIT")
        transcript.append(f"verified d(rho({e.name})) = rho(d({e.name}))")

    return SplitResult(
        status="SPLIT", window=window, module=p, pi=pi, rho=rho,
        transcript=transcript,
    )
