"""Independent dense linear algebra used as a test oracle.

Deliberately separate from dglift.base_ring: plain dense Gaussian elimination
over Fraction/int scalars, no pivoting strategy, used to cross-check ranks,
homology dimensions, and Ext tables computed by the library.  The Hom
differential is applied to maps with module-element operations, not with the
library's Hom-complex code, and the differential of a tower element is
expanded by the Leibniz rule over its variable powers, not with the library's
memoised monomial differentials.
"""

from __future__ import annotations

from dglift import ChainMap


def dense_rref(field, rows: list[list]) -> tuple[list[list], list[int]]:
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = field.inv(rows[r][c])
        rows[r] = [field.mul(v, inv) for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                m = field.neg(rows[i][c])
                rows[i] = [field.add(a, field.mul(m, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows, pivots


def dense_rank(field, rows: list[list]) -> int:
    return len(dense_rref(field, rows)[1])


def leibniz_differential(elem):
    """d(elem) with element operations only: in each term X_1^(m_1)...X_n^(m_n) p
    and for each i with m_i > 0, the factor X_i^(m_i) becomes X_i^(m_i - 1) dX_i
    (times m_i in the ordinary flavor), with the Koszul sign of the factors
    before it."""
    tower = elem.tower
    out = tower.zero()
    for exps, poly in elem.terms.items():
        for i, m in enumerate(exps):
            if not m:
                continue
            piece = tower.from_poly(poly)
            for j, mj in enumerate(exps):
                if j != i:
                    piece = piece * tower.variable_power(j, mj)
                    continue
                factor = tower.variable_power(i, m - 1) * tower.variable_diff(i)
                piece = piece * (factor.scale_int(m) if tower.flavor == "ordinary" else factor)
            prefix = sum(exps[j] * tower.variables[j].degree for j in range(i))
            out = out + (-piece if prefix % 2 else piece)
    return out


def hom_differential(phi) -> dict:
    """D(phi)(e_b) = d_L(phi(e_b)) - (-1)^|phi| phi(d_M e_b) for a map phi:
    M -> L, with element operations only, as {b: L-element}."""
    m, l = phi.source, phi.target
    out = {}
    for b in range(len(m.basis)):
        lhs = l.apply_diff(phi.entries.get(b, {}))
        rhs = phi.apply(m.apply_diff(m.basis_elem(b)))
        img = l.add_elem(lhs, rhs) if phi.degree % 2 else l.sub_elem(lhs, rhs)
        if img:
            out[b] = img
    return out


def brute_ext_dim(m, l, i: int, w: int) -> int:
    """dim Ext^i(M, L) at weight w by enumerating every bidegree-homogeneous
    map basis vector and row-reducing dense matrices of the Hom differential,
    which is applied to each basis map with `hom_differential`."""
    field = m.tower.base.field
    d = -i

    def labels(dd):
        out = []
        for alpha, e in enumerate(m.basis):
            for lab in l.slice_labels(e.degree + dd, e.weight + w):
                out.append((alpha, lab))
        return out

    def dmap(alpha, lab, dd):
        return hom_differential(ChainMap(m, l, dd, {alpha: l.label_elem(lab)}))

    def matrix(src, tgt, dd):
        tgt_keys = []
        seen = {}
        for beta, lab in tgt:
            for ckey in l.elem_coords(l.label_elem(lab)):
                k = (beta, ckey)
                if k not in seen:
                    seen[k] = len(tgt_keys)
                    tgt_keys.append(k)
        cols = []
        for alpha, lab in src:
            img = dmap(alpha, lab, dd)
            col = [field.zero()] * len(tgt_keys)
            for beta, elem in img.items():
                for ckey, s in l.elem_coords(elem).items():
                    k = (beta, ckey)
                    if k in seen:
                        col[seen[k]] = s
                    elif s:
                        raise AssertionError("image outside the target slice")
            cols.append(col)
        return [list(row) for row in zip(*cols)] if cols and tgt_keys else []

    src = labels(d)
    if not src:
        return 0
    below = labels(d - 1)
    above = labels(d + 1)
    mat_d = matrix(src, below, d)
    rank_d = dense_rank(field, mat_d) if mat_d else 0
    cycles = len(src) - rank_d
    mat_up = matrix(above, src, d + 1)
    rank_up = dense_rank(field, mat_up) if mat_up else 0
    return cycles - rank_up
