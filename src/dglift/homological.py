"""Windowed Hom complexes, Ext dimension tables, null-homotopy solving, and
the naive-lifting decision procedure.

The splitting solver works directly on the linear system "pi_N(rho(e)) = e and
d(rho(e)) = rho(d(e))" in the minimal sufficient window, then re-verifies any
solution symbolically before reporting SPLIT.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import defaultdict
from dataclasses import dataclass, field as dc_field
from itertools import accumulate
from operator import itemgetter

from .base_ring import (Infeasible, LinearSolution, LinearSystem, _axpy, matrix_rank,
                        solve_linear)
from .dg_algebra import per_slice
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

    The maps e_a -> e_i·T form the block (a, i), and d_M and d_L are strictly
    lower-triangular, so D = d0 + delta (the twisted differential of Hom out
    of a semifree module): d0 is (-1)^{|e_i|} d_T on each block, a tower
    slice, and delta, listed by `_delta` for one basis map e_a -> e_i·v,
    holds dL[c, i]·v in the block (a, c) and -(-1)^{|phi|} v·dM[a, b] in the
    block (b, i); it strictly lowers F = i - a.  A column of D is a sparse
    {row position: scalar} map, the rows numbered by position in
    `slice_labels(d - 1, w)`: one offset per generator of M, one per
    generator of L within it, and the tower's position of X^e x^b in its
    slice.  That numbering is sorted label order; `rows` keeps it, and a
    label is built only where an equation is printed or matched.

    Homology is read off the E1 page of the semifree filtration.  With the
    tower's contraction (i, p, h) of each slice onto its homology (read off
    the slice's kernel, the one Tate reads too), h signed
    as d0, the homological perturbation lemma gives the differential D_H =
    p delta sum_k (h delta)^k i on E1, the sum of the homologies of the
    blocks; the sum is finite, and H(Hom) = H(E1, D_H).  E1 vectors are
    numbered as the maps are: by block, then by the tower's homology basis
    of the block's slice.  The block (a, i) of the (d, w) slice reads the
    tower slice (d, w) less (|e_i| - |e_a|, wt e_i - wt e_a): the E1 table
    inverts the tower slices with homology, scanned on a grid grown on
    demand, into {(d, w): blocks (a, i, k, v) in (a, i) order}, so an empty
    slice of E1 costs a lookup, and D_H is ranked only where delta leads a
    block of E1 to a block of E1 below.  Memoised, as read again, are the
    `per_slice` methods (each slice's block offsets [[start of (b, j)]] and
    the rank of D_H), the products v·dM[a, b] and the E1 table; the whole
    matrix, a transfer and an E1 dimension are rebuilt on each call.  The
    memos die with the complex.
    """

    def __init__(self, m: SemifreeModule, l: SemifreeModule):
        if m.tower is not l.tower and m.tower != l.tower:
            raise HomologicalError("Hom between modules over different towers")
        self.m = m
        self.l = l
        # dM by row a: [(b, dM[a, b])]; dL by column is `l.columns`
        self._m_rows: dict[int, list] = {}
        for (a, b), entry in m.diff.items():
            self._m_rows.setdefault(a, []).append((b, entry))
        # the generators that dM leads e_a to, and dL leads e_i to, as
        # bitmasks, e_a and e_i included: delta moves the block (a, i) only
        # to blocks (b, j) with b in reach_m[a] and j in reach_l[i]
        self._reach_m = [1 << a for a in range(len(m.basis))]
        for a, b in sorted(m.diff, reverse=True):
            self._reach_m[a] |= self._reach_m[b]
        self._reach_l = [1 << i for i in range(len(l.basis))]
        for j, i in sorted(l.diff, key=itemgetter(1)):
            self._reach_l[i] |= self._reach_l[j]
        # method name -> {(d, w): value}, filled by `per_slice`
        self._memo: defaultdict[str, dict] = defaultdict(dict)
        # (a, b, (exps, bex)) -> X^exps x^bex · dM[a, b] by tower position
        self._products: dict[tuple, dict] = {}
        # the shift of each pair (a, i) by a, the pairs by shift, the lowest
        # shift, the grid of tower slices scanned so far, the E1 table of
        # blocks with homology per (d, w) slice
        self._pair_shifts = [[(f.degree - e.degree, f.weight - e.weight) for f in l.basis]
                             for e in m.basis]
        self._shifts: dict[tuple[int, int], list] = {}
        for alpha, shifts in enumerate(self._pair_shifts):
            for i, key in enumerate(shifts):
                self._shifts.setdefault(key, []).append((alpha, i))
        self._low = [min(c) for c in zip(*self._shifts)]
        self._grid = (-1, -1)
        self._e1: dict[tuple[int, int], list] = {}

    def require_complete(self, d: int, w: int):
        low = self.l.min_degree()
        for e in self.m.basis:
            h, wt = e.degree + d, e.weight + w
            if (h >= low and wt >= 0) and not self.l.is_complete(h, wt):
                raise HomologicalError(
                    f"window too small: Hom target slice ({h},{wt}) exceeds the "
                    "complete range of the target module"
                )

    @per_slice()
    def _block_starts(self, d: int, w: int) -> list[list[int]]:
        """[[where block (b, j) starts in the (d, w) slice]], each list closed
        by the end of the maps out of e_b, then [the slice's dimension]; a
        block is as large as the tower slice (d, w) less its shift."""
        basis = self.l.tower.slice_basis
        sizes = {s: len(basis(d - s[0], w - s[1])) for s in self._shifts}
        at, start = [], 0
        for shifts in self._pair_shifts:
            at.append(list(accumulate(map(sizes.__getitem__, shifts), initial=start)))
            start = at[-1][-1]
        return at + [[start]]

    def slice_labels(self, d: int, w: int) -> list:
        """The basis maps e_alpha -> lab of the (d, w) slice, in position
        order."""
        return [(alpha, lab) for alpha, e in enumerate(self.m.basis)
                for lab in self.l.slice_labels(e.degree + d, e.weight + w)]

    def dim(self, d: int, w: int) -> int:
        return self._block_starts(d, w)[-1][0]

    def _delta(self, d: int, w: int, alpha: int, i: int, label: tuple):
        """The entries of delta on the basis map e_alpha -> e_i·X^e x^b of
        the (d, w) slice, label = (e, b), as (beta, j, k, v, image): the
        block (beta, j), its tower slice (k, v) and the image there by
        position.  X^e x^b·dM[alpha, b] is the same for every e_i, so it is
        computed once."""
        m, l, tower = self.m, self.l, self.l.tower
        h, wa = m.basis[alpha].degree + d - 1, m.basis[alpha].weight + w
        for a, entry in l.columns.get(i, ()):
            k, v = h - l.basis[a].degree, wa - l.basis[a].weight
            index = tower.slice_index(k, v)
            image = tower.monomial_times(label, entry, right=True)
            yield alpha, a, k, v, {index[lab]: s for lab, s in image.coeffs.items()}
        f, neg = l.basis[i], tower.base.field.neg
        for b, entry in self._m_rows.get(alpha, ()):
            k, v = m.basis[b].degree + d - 1 - f.degree, m.basis[b].weight + w - f.weight
            pkey = (alpha, b, label)
            coords = self._products.get(pkey)
            if coords is None:
                index = tower.slice_index(k, v)
                image = tower.monomial_times(label, entry)
                coords = self._products[pkey] = {index[lab]: s for lab, s in image.coeffs.items()}
            yield b, i, k, v, {r: neg(s) for r, s in coords.items()} if d % 2 == 0 else coords

    def matrix_columns(self, d: int, w: int) -> list[dict]:
        """Columns of D restricted to the (d, w) slice, rows numbered by
        position in `slice_labels(d - 1, w)`: d0 of each basis map, then its
        delta.  Built on each call: no caller reads a slice twice."""
        m, l, tower = self.m, self.l, self.l.tower
        neg = tower.base.field.neg
        at = self._block_starts(d - 1, w)
        cols = []
        for alpha, e in enumerate(m.basis):
            for i, f in enumerate(l.basis):
                k, v = e.degree + d - f.degree, e.weight + w - f.weight
                basis = tower.slice_basis(k, v)
                if not basis:
                    continue
                odd, start = f.degree % 2, at[alpha][i]
                for label, own in zip(basis, tower.slice_columns(k, v)):
                    col = {start + r: neg(s) if odd else s for r, s in own.items()}
                    for beta, j, _, _, image in self._delta(d, w, alpha, i, label):
                        off = at[beta][j]
                        for r, s in image.items():
                            col[off + r] = s
                    cols.append(col)
        return cols

    def rows(self, d: int, w: int) -> dict:
        """D on the (d, w) slice by rows: {row position: {column: scalar}},
        the transpose of `matrix_columns`, positions ascending."""
        out: dict = {}
        for j, col in enumerate(self.matrix_columns(d, w)):
            for r, scalar in col.items():
                out.setdefault(r, {})[j] = scalar
        return dict(sorted(out.items()))

    def chain_map(self, d: int, labels: list, solution: list) -> ChainMap:
        """The degree-d map sum_j solution[j] * phi_j, where phi_j is the basis
        map labels[j] = (alpha, lab): e_alpha -> lab."""
        l = self.l
        entries: dict = {}
        for (alpha, lab), c in zip(labels, solution):
            if not c:
                continue
            piece = l.scale_elem(l.label_elem(lab), c)
            entries[alpha] = l.add_elem(entries.get(alpha, {}), piece)
        return ChainMap(self.m, l, d, entries)

    def _transfer(self, d: int, w: int, pos: int) -> tuple[dict, dict]:
        """(p delta, h delta) of the basis map at position pos of the (d, w)
        slice: p delta over the E1 vectors of the (d - 1, w) slice, h delta
        over the maps of the (d, w) slice."""
        l, tower = self.l, self.l.tower
        field, neg = tower.base.field, tower.base.field.neg
        here, below = self._block_starts(d, w), self._block_starts(d - 1, w)
        alpha = bisect_right(here, pos, key=itemgetter(0)) - 1
        i = bisect_right(here[alpha], pos) - 1
        sd, sw = self._pair_shifts[alpha][i]
        label = tower.slice_basis(d - sd, w - sw)[pos - here[alpha][i]]
        pd, hd = {}, {}
        for beta, j, k, v, image in self._delta(d, w, alpha, i, label):
            p_at, h_at = below[beta][j], here[beta][j]
            odd = l.basis[j].degree % 2  # h carries the sign of d0
            contraction = tower.slice_contraction(k, v)
            for r, s in image.items():
                p, hv = contraction[r]
                if p:
                    _axpy(field, pd, {p_at + t: c for t, c in p.items()}, s)
                if hv:
                    _axpy(field, hd, {h_at + t: c for t, c in hv.items()}, neg(s) if odd else s)
        return pd, hd

    def e1_vectors(self, d: int, w: int) -> list[tuple[int, dict]]:
        """The E1 vectors of the (d, w) slice in E1 order, each as the
        position of its representative's pivot among the maps and i of it:
        the representative in its block, {position: scalar}."""
        homology, at = self.l.tower.slice_homology, self._block_starts(d, w)
        out = []
        for alpha, i, k, v in self._e1_blocks(d, w):
            start = at[alpha][i]
            out += [(start + pivot, {start + r: s for r, s in rep.items()})
                    for pivot, rep in homology(k, v)]
        return out

    def e1_columns(self, d: int, w: int) -> list[dict]:
        """Columns of D_H on the E1 vectors of the (d, w) slice, in E1
        order; each row is an E1 vector of the (d - 1, w) slice, numbered as
        in `e1_vectors`, by the position of its representative's pivot."""
        field = self.m.tower.base.field
        cols = []
        for _, x in self.e1_vectors(d, w):
            col: dict = {}
            while x:  # (h delta)^k i, until delta has left every block
                nxt: dict = {}
                for pos, s in x.items():
                    pd, hd = self._transfer(d, w, pos)
                    _axpy(field, col, pd, s)
                    _axpy(field, nxt, hd, s)
                x = nxt
            cols.append(col)
        return cols

    def _e1_blocks(self, d: int, w: int) -> list[tuple]:
        """The blocks (alpha, i, k, v) of the (d, w) slice whose tower slice
        (k, v) has homology, in (alpha, i) order: the E1 table's entry, read
        once its grid holds every tower slice that can reach (d, w)."""
        low, (k_max, v_max) = self._low, self._grid
        if self._shifts and (d - low[0] > k_max or w - low[1] > v_max):
            k_top, v_top = max(k_max, d - low[0]), max(v_max, w - low[1])
            homology = self.l.tower.slice_homology
            for k in range(k_top + 1):
                for v in range(v_max + 1 if k <= k_max else 0, v_top + 1):
                    for (sd, sw), pairs in self._shifts.items() if homology(k, v) else ():
                        self._e1.setdefault((k + sd, v + sw), []).extend(
                            (a, i, k, v) for a, i in pairs)
            for blocks in self._e1.values():
                blocks.sort()
            self._grid = (k_top, v_top)
        return self._e1.get((d, w), [])

    def e1_slices(self, d: int, w: int) -> list[tuple[int, int]]:
        """The slices (d', w') of E1 with d' <= d and w' <= w that hold a
        block with homology, sorted, the grid grown once to reach (d, w)."""
        self._e1_blocks(d, w)
        return sorted(key for key in self._e1 if key[0] <= d and key[1] <= w)

    def e1_dim(self, d: int, w: int) -> int:
        """Dimension of E1 in the (d, w) slice: the sum over its entry of
        the E1 table."""
        homology = self.l.tower.slice_homology
        return sum(len(homology(k, v)) for *_, k, v in self._e1_blocks(d, w))

    def _reaches(self, d: int, w: int) -> bool:
        """Whether delta leads some block of E1 in the (d, w) slice to some
        block of E1 in the (d - 1, w) slice; D_H is zero there if not."""
        below = self._e1_blocks(d - 1, w)
        return any(self._reach_m[a] >> b & 1 and self._reach_l[i] >> j & 1 and (a, i) != (b, j)
                   for a, i, _, _ in self._e1_blocks(d, w) for b, j, _, _ in below)

    def homology_dim(self, d: int, w: int) -> int:
        """dim H_d of the Hom complex in weight w (exact): that of E1 less
        the ranks of D_H out of it and into it."""
        n = self.e1_dim(d, w)
        if n == 0:
            return 0
        return n - self._e1_rank(d, w) - self._e1_rank(d + 1, w)

    @per_slice()
    def _e1_rank(self, d: int, w: int) -> int:
        """Rank of D_H on the (d, w) slice of E1."""
        return matrix_rank(self.m.tower.base.field, self.e1_columns(d, w)) if self._reaches(d, w) else 0


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
    # H_d reads E1 on the slices d - 1, d and d + 1, so the loop reads up to
    # (1 - imin, w_hi); a slice without E1 has no homology
    for d, w in hom.e1_slices(1 - imin, w_hi):
        if -imax <= d <= -imin and w >= w_lo:
            dim = hom.homology_dim(d, w)
            if dim:
                table.dims[(-d, w)] = dim
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

    # an equation per row of D and per coordinate of f, by (w, row position)
    field = m.tower.base.field
    unknowns: list = []
    rows: list[dict] = []
    rhs: list = []
    for w, coords in sorted(coords_by_w.items()):
        hom.require_complete(d + 1, w)
        offset = len(unknowns)
        unknowns.extend(hom.slice_labels(d + 1, w))
        by_row = hom.rows(d + 1, w)
        for r, label in enumerate(hom.slice_labels(d, w)):
            if r in by_row or label in coords:
                rows.append({offset + j: v for j, v in by_row.get(r, {}).items()})
                rhs.append(coords.get(label, field.zero()))

    system = LinearSystem(field, rows, rhs, len(unknowns))
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
    d(rho(e)) = rho(d(e)).  Returns (system, unknown labels, equation keys,
    P, pi, window, Hom(N, P)): a key is ("pi", beta, N label) or ("chain",
    row position of D), and `equation_labels` renders keys.
    """
    if window is None:
        window = minimal_window(n)
    p, pi = base_change(n, window, a_prefix)
    field = n.tower.base.field
    hom = HomComplex(n, p)
    unknowns = hom.slice_labels(0, 0)

    rows: list[dict] = []
    rhs: list = []
    keys: list[tuple] = []

    # pi_N(rho(e_beta)) = e_beta, coordinatewise in N at (|e|, wt(e));
    # pi(e_alpha (x) g · X^e x^b) = e_alpha·(g · X^e x^b), by tower position
    images: dict = {}
    for j, (beta, (idx, exps, bex)) in enumerate(unknowns):
        ((alpha, g),) = pi.entries[idx].items()
        for (e, b), scalar in n.tower.monomial_times((exps, bex), g, right=True).coeffs.items():
            images.setdefault(beta, {}).setdefault((alpha, e, b), {})[j] = scalar
    for beta in range(len(n.basis)):
        acc = images.get(beta, {})
        want = {(beta, *label): s for label, s in n.tower.one().coeffs.items()}
        for nlab in sorted(set(acc) | set(want)):
            rows.append(acc.get(nlab, {}))
            rhs.append(want.get(nlab, field.zero()))
            keys.append(("pi", beta, nlab))

    # D(rho) = d 。rho - rho 。d = 0, by row position in P at (|e|-1, wt(e))
    for r, row in hom.rows(0, 0).items():
        rows.append(row)
        rhs.append(field.zero())
        keys.append(("chain", r))

    system = LinearSystem(field, rows, rhs, len(unknowns))
    return system, unknowns, keys, p, pi, window, hom


def equation_labels(hom: HomComplex, keys: list) -> list[str]:
    """The labels of the splitting equations `keys` of
    `build_split_system(n)`, hom being its Hom(N, P); the labels of the
    chain rows are built once, for all the keys."""
    n, tower, below = hom.m, hom.m.tower, hom.slice_labels(-1, 0)
    out = []
    for kind, *at in keys:
        beta, (i, exps, bex) = at if kind == "pi" else below[at[0]]
        name = n.basis[beta].name
        mono = render_element(tower.monomial(exps, tower.base.monomial(bex)))
        out.append(f"pi(rho({name})) = {name} at {n.basis[i].name}·({mono})" if kind == "pi"
                   else f"chain condition of rho({name}) at {hom.l.basis[i].name}·({mono})")
    return out


def naive_lift_check(n: SemifreeModule, a_prefix: int = 0,
                     window: BidegreeWindow | None = None) -> SplitResult:
    """Decide whether pi_N: N|_A (x)_A B -> N splits as DG B-modules.

    A SPLIT result carries rho, re-verified symbolically through `ChainMap`
    (pi 。rho = id and rho a chain map).  An OBSTRUCTED result carries a
    re-checkable inconsistency certificate for the splitting system.
    """
    system, unknowns, keys, p, pi, window, hom = build_split_system(n, a_prefix, window)
    transcript = [f"splitting system: {len(unknowns)} unknowns, {len(keys)} equations"]
    res = solve_linear(system)
    if isinstance(res, Infeasible):
        involved = sorted(res.combo)
        eq_labels = equation_labels(hom, [keys[i] for i in involved])
        locus = "; ".join(eq_labels[:3]) + ("; ..." if len(eq_labels) > 3 else "")
        witness = ObstructionWitness(
            combo=dict(res.combo), value=res.value, equations=eq_labels, locus=locus
        )
        transcript.append(f"inconsistent combination over {len(involved)} equations "
                          f"reduces to 0 = {res.value}")
        return SplitResult(
            status="OBSTRUCTED", window=window, module=p, pi=pi,
            transcript=transcript, witness=witness,
        )

    assert isinstance(res, LinearSolution)
    rho = hom.chain_map(0, unknowns, res.solution)

    if pi.compose(rho) != ChainMap.identity(n):
        raise HomologicalError("solver returned a non-section; refusing SPLIT")
    if not rho.is_chain_map():
        raise HomologicalError("solver returned a non-chain map; refusing SPLIT")
    transcript += [f"verified pi(rho({e.name})) = {e.name}" for e in n.basis]
    transcript += [f"verified d(rho({e.name})) = rho(d({e.name}))" for e in n.basis]

    return SplitResult(
        status="SPLIT", window=window, module=p, pi=pi, rho=rho,
        transcript=transcript,
    )
