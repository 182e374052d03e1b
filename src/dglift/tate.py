"""Tate's construction: adjoin variables degree by degree to kill homology,
building truncated DG algebra resolutions of R/I.

All homology statements are per weight slice and carry their weight bound;
nothing here claims anything beyond the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .base_ring import BasePoly, PolyRing, matrix_rank, nullspace_basis
from .dg_algebra import AlgebraElement, TowerAlgebra


class TateError(ValueError):
    pass


@dataclass
class HomologyTable:
    """dim H_hdeg per weight slice."""

    hdeg: int
    weight_bound: int
    dims: dict = dc_field(default_factory=dict)       # weight -> dimension

    def dim(self, w: int) -> int:
        return self.dims.get(w, 0)

    def total(self) -> int:
        return sum(self.dims.values())

    def rows(self) -> list[list[int]]:
        return [[w, d] for w, d in sorted(self.dims.items()) if d]


def _diff_rows(tower: TowerAlgebra, hdeg: int, w: int) -> tuple[list, list[dict]]:
    """The (hdeg, w) slice basis and the rows of d on it: one row per target
    coordinate in sorted order, {basis index: scalar}."""
    basis = tower.slice_basis(hdeg, w)
    rows: dict = {}
    for j, (exps, bex) in enumerate(basis):
        mono = tower.monomial(exps, tower.base.monomial(bex))
        for key, scalar in mono.differential().coordinates().items():
            rows.setdefault(key, {})[j] = scalar
    return basis, [rows[k] for k in sorted(rows)]


def homology_dims(tower: TowerAlgebra, hdeg: int, weight_bound: int) -> HomologyTable:
    """Exact dim H_hdeg(tower) per weight <= weight_bound:
    dim C - rank d_hdeg - rank d_(hdeg+1) on each weight slice."""
    if hdeg < 0:
        raise TateError("homological degree must be >= 0")
    field = tower.base.field
    table = HomologyTable(hdeg=hdeg, weight_bound=weight_bound)
    for w in range(weight_bound + 1):
        basis, down = _diff_rows(tower, hdeg, w)
        if basis:
            _, up = _diff_rows(tower, hdeg + 1, w)
            table.dims[w] = len(basis) - matrix_rank(field, down) - matrix_rank(field, up)
    return table


def homology_rep(tower: TowerAlgebra, hdeg: int, w: int) -> AlgebraElement | None:
    """A cycle of the (hdeg, w) slice that is not a boundary, or None when
    H_hdeg vanishes there: the first kernel vector of d_hdeg outside the span
    of the boundaries (the kernel basis is read off the elimination kernel, so
    the choice is deterministic)."""
    field = tower.base.field
    basis, down = _diff_rows(tower, hdeg, w)
    col = {lab: j for j, lab in enumerate(basis)}
    boundaries = []
    for exps, bex in tower.slice_basis(hdeg + 1, w):
        mono = tower.monomial(exps, tower.base.monomial(bex))
        coords = mono.differential().coordinates()
        boundaries.append({col[key]: scalar for key, scalar in coords.items()})
    rank = matrix_rank(field, boundaries)
    for vec in nullspace_basis(field, down, len(basis)):
        if matrix_rank(field, boundaries + [vec]) > rank:
            elem = tower.zero()
            for j, v in sorted(vec.items()):
                exps, bex = basis[j]
                elem = elem + tower.monomial(exps, tower.base.monomial(bex, v))
            return elem
    return None


def _fresh_name(tower: TowerAlgebra, counter: int) -> tuple[str, int]:
    used = set(tower.base.names) | {v.name for v in tower.variables}
    while True:
        counter += 1
        name = f"X{counter}"
        if name not in used:
            return name, counter


def tate_step(tower: TowerAlgebra, hdeg: int, weight_bound: int) -> TowerAlgebra:
    """Kill H_hdeg by adjoining degree-(hdeg+1) variables below the weight bound.

    Classes are killed one at a time, lowest weight first, recomputing homology
    after each adjunction: multiples of an already-killed class become
    boundaries, so this adjoins one variable per module generator of H_hdeg
    rather than one per weight-slice basis vector.

    Requires H_j = 0 for 1 <= j < hdeg within the bound (checked).
    """
    if hdeg < 1:
        raise TateError("tate_step needs hdeg >= 1")
    for j in range(1, hdeg):
        lower = homology_dims(tower, j, weight_bound)
        if lower.total():
            raise TateError(
                f"H_{j} is not yet zero below weight {weight_bound}; "
                f"kill it before degree {hdeg}"
            )
    out = tower
    counter = len(tower.variables)
    while True:
        table = homology_dims(out, hdeg, weight_bound)
        if not table.total():
            return out
        w = min(w for w, d in table.dims.items() if d)
        rep = homology_rep(out, hdeg, w)
        name, counter = _fresh_name(out, counter)
        out = out.adjoin(name, hdeg + 1, w, rep)


@dataclass
class TateResolution:
    tower: TowerAlgebra
    hbound: int
    weight_bound: int
    h0: HomologyTable
    stages: list = dc_field(default_factory=list)  # (hdeg, [names adjoined])


def tate_resolution(ring: PolyRing, generators: list[BasePoly], hbound: int,
                    weight_bound: int, flavor: str = "divided") -> TateResolution:
    """Iterate tate_step for hdeg = 1..hbound-1 starting from the Koszul stage
    on the ideal generators; re-verifies H_j = 0 for 1 <= j < hbound within
    the weight bound afterwards."""
    if hbound < 1:
        raise TateError("hbound must be >= 1")
    tower = TowerAlgebra(ring, flavor)
    counter = 0
    names = []
    for g in generators:
        if g.is_zero():
            raise TateError("zero ideal generator")
        w = g.weight()
        if w is None:
            raise TateError("ideal generators must be weight-homogeneous")
        name, counter = _fresh_name(tower, counter)
        tower = tower.adjoin(name, 1, w, tower.from_poly(g))
        names.append(name)
    stages = [(0, names)]

    for hdeg in range(1, hbound):
        before = {v.name for v in tower.variables}
        tower = tate_step(tower, hdeg, weight_bound)
        stages.append((hdeg, [v.name for v in tower.variables if v.name not in before]))

    for j in range(1, hbound):
        if homology_dims(tower, j, weight_bound).total():
            raise TateError(f"construction left H_{j} nonzero; this is a bug")

    h0 = homology_dims(tower, 0, weight_bound)
    return TateResolution(
        tower=tower, hbound=hbound, weight_bound=weight_bound, h0=h0, stages=stages
    )
