"""Tate's construction: adjoin variables degree by degree to kill homology,
building truncated DG algebra resolutions of R/I.

All homology statements are per weight slice and carry their weight bound;
nothing here claims anything beyond the bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .base_ring import BasePoly, PolyRing, remainder
# the benchmark's tracer counts kernel eliminations through this name
from .base_ring import nullspace_basis  # noqa: F401
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


def homology_dim(tower: TowerAlgebra, hdeg: int, w: int) -> int:
    """Exact dim H_hdeg(tower) on the weight-w slice: dim C - rank d_hdeg -
    rank d_(hdeg+1), each rank the length of the slice's echelon, read
    only when the slice is not empty."""
    dim = tower.slice_dim(hdeg, w)
    return dim and dim - len(tower.slice_echelon(hdeg, w)) - len(tower.slice_echelon(hdeg + 1, w))


def homology_dims(tower: TowerAlgebra, hdeg: int, weight_bound: int) -> HomologyTable:
    """Exact dim H_hdeg(tower) per weight <= weight_bound, one entry for each
    non-empty slice."""
    if hdeg < 0:
        raise TateError("homological degree must be >= 0")
    table = HomologyTable(hdeg=hdeg, weight_bound=weight_bound)
    for w in range(weight_bound + 1):
        if tower.slice_dim(hdeg, w):
            table.dims[w] = homology_dim(tower, hdeg, w)
    return table


def homology_rep(tower: TowerAlgebra, hdeg: int, w: int) -> AlgebraElement | None:
    """A cycle of the (hdeg, w) slice that is not a boundary, or None when
    H_hdeg vanishes there: the first kernel vector of d_hdeg outside the span
    of the boundaries (the tower's memoised kernel basis is read off the
    elimination kernel, so the choice is deterministic), found by reducing
    each kernel vector against the boundary echelon of the tower."""
    field = tower.base.field
    # boundaries and kernel vectors are both keyed by position in the
    # (hdeg, w) basis, whose labels are the element's
    boundaries = tower.slice_echelon(hdeg + 1, w)
    for _, vec in tower.slice_kernel(hdeg, w):
        if remainder(field, boundaries, vec):
            basis = tower.slice_basis(hdeg, w)
            return AlgebraElement(tower, {basis[j]: v for j, v in sorted(vec.items())})
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

    Classes are killed one at a time, lowest weight first: H_hdeg is read
    one weight at a time, upward, and while the weight lo has homology a
    class there is killed.  Multiples of an already-killed class become
    boundaries, so this adjoins one variable per module generator of H_hdeg
    rather than one per weight-slice basis vector.  A variable of weight lo
    leaves the slices below lo alone, so the scan never goes back, and no
    tower ranks a slice above the weight it reads.  A degree-(hdeg+1)
    variable never enters a (hdeg, w) slice, so rank d_hdeg is read off the
    first tower, and at weight lo only the columns that hold the new
    variable are reduced against the parent's echelon.

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
    counter = len(tower.variables)
    for lo in range(weight_bound + 1):
        while homology_dim(tower, hdeg, lo):
            rep = homology_rep(tower, hdeg, lo)
            if rep is None:
                raise TateError(f"H_{hdeg} at weight {lo} has no representative; this is a bug")
            name, counter = _fresh_name(tower, counter)
            tower = tower.adjoin(name, hdeg + 1, lo, rep)
    return tower


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
        if w == 0:
            raise TateError("ideal generators must have positive weight")
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
