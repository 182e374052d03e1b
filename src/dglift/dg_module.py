"""Finite semifree DG modules over a tower, base change along A -> B, and the
canonical epimorphism pi_N.

A module is an ordered finite basis with bidegrees and a strictly
lower-triangular differential matrix; elements are sparse maps
{basis index -> tower element} with coefficients acting on the right.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dg_algebra import DIVIDED, AlgebraElement, TowerAlgebra
from .render import monomial_text


class ModuleError(ValueError):
    pass


@dataclass(frozen=True)
class BidegreeWindow:
    """Finite truncation device: homological range [hmin, hmax], weights [0, wmax]."""

    hmin: int
    hmax: int
    wmax: int

    def __post_init__(self):
        if self.hmin > self.hmax:
            raise ModuleError(f"empty homological range {self.hmin}:{self.hmax}")
        if self.wmax < 0:
            raise ModuleError("weight bound must be >= 0")

    @classmethod
    def parse(cls, text: str) -> "BidegreeWindow":
        bits = text.split(":")
        if len(bits) != 3:
            raise ModuleError(f"window must look like hmin:hmax:wmax, got {text!r}")
        try:
            h0, h1, w = (int(b) for b in bits)
        except ValueError:
            raise ModuleError(f"window must contain integers, got {text!r}") from None
        return cls(h0, h1, w)

    def format(self) -> str:
        return f"{self.hmin}:{self.hmax}:{self.wmax}"

    def contains(self, h: int, w: int) -> bool:
        return self.hmin <= h <= self.hmax and 0 <= w <= self.wmax


@dataclass(frozen=True)
class BasisElement:
    name: str
    degree: int
    weight: int


class SemifreeModule:
    """Ordered basis e_1 < ... < e_r with d(e_b) = sum_{a<b} e_a * diff[a, b].

    `complete_hmax` / `complete_wmax` record truncation: bidegree slices at or
    below these bounds coincide with the untruncated module (None = exact).
    """

    def __init__(self, tower: TowerAlgebra, basis, diff: dict, *,
                 complete_hmax: int | None = None, complete_wmax: int | None = None,
                 validate: bool = True):
        self.tower = tower
        self.basis = tuple(basis)
        self.diff = {k: v for k, v in diff.items() if not v.is_zero()}
        self.complete_hmax = complete_hmax
        self.complete_wmax = complete_wmax
        self.left_action_fn = None  # set by bimodule constructors
        if validate:
            self._validate()

    # --- validation -------------------------------------------------------

    def _validate(self):
        r = len(self.basis)
        for (a, b), entry in self.diff.items():
            if not (0 <= a < r and 0 <= b < r):
                raise ModuleError(f"differential entry ({a},{b}) out of range")
            if a >= b:
                raise ModuleError(
                    f"differential of {self.basis[b].name} hits {self.basis[a].name}: "
                    "not strictly lower-triangular in the basis order"
                )
            if entry.tower is not self.tower and entry.tower != self.tower:
                raise ModuleError("differential entry lives in the wrong tower")
            want_deg = self.basis[b].degree - self.basis[a].degree - 1
            want_wt = self.basis[b].weight - self.basis[a].weight
            if entry.degree() != want_deg:
                raise ModuleError(
                    f"entry ({self.basis[a].name},{self.basis[b].name}) must be "
                    f"homogeneous of degree {want_deg}"
                )
            if entry.weight() != want_wt:
                raise ModuleError(
                    f"entry ({self.basis[a].name},{self.basis[b].name}) must have "
                    f"weight {want_wt}"
                )
        for b in range(r):
            dd = self.apply_diff(self.apply_diff({b: self.tower.one()}))
            if dd:
                g = min(dd)
                raise ModuleError(
                    f"d^2 ({self.basis[b].name}) != 0, component at "
                    f"{self.basis[g].name}: {dd[g]!r}"
                )

    # --- elements ---------------------------------------------------------

    def zero_elem(self) -> dict:
        return {}

    def basis_elem(self, i: int) -> dict:
        return {i: self.tower.one()}

    def add_elem(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for i, c in y.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s
        return out

    def neg_elem(self, x: dict) -> dict:
        return {i: -c for i, c in x.items()}

    def sub_elem(self, x: dict, y: dict) -> dict:
        return self.add_elem(x, self.neg_elem(y))

    def mul_elem(self, x: dict, b: AlgebraElement) -> dict:
        out = {}
        for i, c in x.items():
            p = c * b
            if not p.is_zero():
                out[i] = p
        return out

    def scale_elem(self, x: dict, scalar) -> dict:
        out = {}
        for i, c in x.items():
            p = c.scale(scalar)
            if not p.is_zero():
                out[i] = p
        return out

    def apply_diff(self, x: dict) -> dict:
        """d(sum e_b c_b) = sum_a e_a (diff[a,b] c_b) + (-1)^|e_b| e_b d(c_b)."""
        out: dict = {}

        def acc(i, elem):
            if elem.is_zero():
                return
            s = out.get(i)
            s = elem if s is None else s + elem
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s

        for b, c in x.items():
            for (a, bb), entry in self.diff.items():
                if bb == b:
                    acc(a, entry * c)
            dc = c.differential()
            if not dc.is_zero():
                if self.basis[b].degree % 2:
                    dc = -dc
                acc(b, dc)
        return out

    # --- bidegree slices ----------------------------------------------------

    def slice_labels(self, h: int, w: int) -> list[tuple]:
        """Field basis of the (h, w) slice: labels (idx, var exps, base exps)."""
        out = []
        for i, e in enumerate(self.basis):
            for exps, bex in self.tower.slice_basis(h - e.degree, w - e.weight):
                out.append((i, exps, bex))
        return out

    def dimension(self, h: int, w: int) -> int:
        return len(self.slice_labels(h, w))

    def elem_coords(self, x: dict) -> dict:
        """Field coordinates of an element: (idx, exps, bex) -> scalar."""
        out = {}
        for i, c in x.items():
            for exps, poly in c.terms.items():
                for bex, scalar in poly.terms.items():
                    out[(i, exps, bex)] = scalar
        return out

    def label_elem(self, label) -> dict:
        i, exps, bex = label
        return {i: self.tower.monomial(exps, self.tower.base.monomial(bex))}

    def is_complete(self, h: int, w: int) -> bool:
        """Whether the (h, w) slice is untouched by truncation."""
        if self.complete_hmax is not None and h > self.complete_hmax:
            return False
        if self.complete_wmax is not None and w > self.complete_wmax:
            return False
        return True

    def elem_eq(self, x: dict, y: dict) -> bool:
        return not self.sub_elem(x, y)

    # --- constructions ------------------------------------------------------

    def shift(self, i: int) -> "SemifreeModule":
        """Degrees shifted by i, differential scaled by (-1)^i."""
        basis = [BasisElement(e.name, e.degree + i, e.weight) for e in self.basis]
        sign = -1 if i % 2 else 1
        diff = {k: v.scale_int(sign) for k, v in self.diff.items()}
        ch = None if self.complete_hmax is None else self.complete_hmax + i
        return SemifreeModule(
            self.tower, basis, diff,
            complete_hmax=ch, complete_wmax=self.complete_wmax,
            validate=False,
        )

    def min_degree(self) -> int:
        return min((e.degree for e in self.basis), default=0)

    def max_degree(self) -> int:
        return max((e.degree for e in self.basis), default=0)

    def max_weight(self) -> int:
        return max((e.weight for e in self.basis), default=0)

    def __repr__(self):
        bits = ", ".join(f"{e.name}({e.degree},{e.weight})" for e in self.basis)
        return f"SemifreeModule[{bits}]"


def make_semifree(tower: TowerAlgebra, basis_spec, diff_spec) -> SemifreeModule:
    """Validated constructor.

    basis_spec: iterable of (name, degree, weight); diff_spec: mapping from
    (a, b) index pairs or (name_a, name_b) pairs to tower elements.
    """
    basis = [BasisElement(str(n), int(d), int(w)) for n, d, w in basis_spec]
    index = {e.name: i for i, e in enumerate(basis)}
    if len(index) != len(basis):
        raise ModuleError("duplicate basis names")
    diff = {}
    for key, entry in diff_spec.items():
        a, b = key
        if isinstance(a, str):
            a = index[a]
        if isinstance(b, str):
            b = index[b]
        diff[(a, b)] = entry
    return SemifreeModule(tower, basis, diff)


def free_module(tower: TowerAlgebra, name: str = "u", degree: int = 0,
                weight: int = 0) -> SemifreeModule:
    """The rank-1 free module B, generator at the given bidegree."""
    return SemifreeModule(tower, [BasisElement(name, degree, weight)], {})


def direct_sum(n: SemifreeModule, l: SemifreeModule) -> SemifreeModule:
    """Block-diagonal sum; basis order is n's basis followed by l's."""
    if n.tower is not l.tower and n.tower != l.tower:
        raise ModuleError("direct sum of modules over different towers")
    basis = list(n.basis) + list(l.basis)
    off = len(n.basis)
    diff = dict(n.diff)
    for (a, b), entry in l.diff.items():
        diff[(a + off, b + off)] = entry

    def merge(x, y):
        if x is None or y is None:
            return None
        return min(x, y)

    return SemifreeModule(
        n.tower, basis, diff,
        complete_hmax=merge(n.complete_hmax, l.complete_hmax),
        complete_wmax=merge(n.complete_wmax, l.complete_wmax),
        validate=False,
    )


class ChainMap:
    """Degree-d map between semifree modules, as images of the source basis."""

    def __init__(self, source: SemifreeModule, target: SemifreeModule,
                 degree: int, entries: dict):
        self.source = source
        self.target = target
        self.degree = degree
        self.entries = {i: e for i, e in entries.items() if e}
        for i, img in self.entries.items():
            want = source.basis[i].degree + degree
            for j, c in img.items():
                ds = c.degrees()
                if any(target.basis[j].degree + d != want for d in ds):
                    raise ModuleError(
                        f"map entry for {source.basis[i].name} is not "
                        f"homogeneous of degree {degree}"
                    )

    def apply(self, x: dict) -> dict:
        out = self.target.zero_elem()
        for i, c in x.items():
            img = self.entries.get(i)
            if img:
                out = self.target.add_elem(out, self.target.mul_elem(img, c))
        return out

    def is_chain_map(self) -> bool:
        sign = -1 if self.degree % 2 else 1
        for b in range(len(self.source.basis)):
            lhs = self.target.apply_diff(self.entries.get(b, {}))
            rhs = self.apply(self.source.apply_diff({b: self.source.tower.one()}))
            if sign < 0:
                rhs = self.target.neg_elem(rhs)
            if not self.target.elem_eq(lhs, rhs):
                return False
        return True

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self after other."""
        entries = {
            i: self.apply(img) for i, img in other.entries.items()
        }
        return ChainMap(other.source, self.target, self.degree + other.degree, entries)

    @classmethod
    def identity(cls, module: SemifreeModule) -> "ChainMap":
        return cls(module, module,
                   0, {i: module.basis_elem(i) for i in range(len(module.basis))})

    def __eq__(self, other):
        if not isinstance(other, ChainMap) or self.degree != other.degree:
            return False
        keys = set(self.entries) | set(other.entries)
        return all(
            self.target.elem_eq(self.entries.get(k, {}), other.entries.get(k, {}))
            for k in keys
        )


def split_over_prefix(tower: TowerAlgebra, terms, a_prefix: int):
    """Write tower terms (exps, poly), taken in the given order, as g * a with
    g an extension monomial and a in the subtower of the first `a_prefix`
    variables, moving a past g with its Koszul sign; yields (g's exponents
    over the extension variables, a)."""
    odd = tower._odd
    for exps, poly in terms:
        aex = exps[:a_prefix] + (0,) * (tower.n - a_prefix)
        p = sum(1 for i in range(a_prefix) if odd[i] and exps[i])
        q = sum(1 for i in range(a_prefix, tower.n) if odd[i] and exps[i])
        a = tower.monomial(aex, poly)
        yield exps[a_prefix:], -a if (p * q) % 2 else a


def base_change(n: SemifreeModule, window: BidegreeWindow, a_prefix: int = 0
                ) -> tuple[SemifreeModule, ChainMap]:
    """The windowed DG B-module N|_A (x)_A B together with pi_N.

    A is the subtower spanned by the base ring and the first `a_prefix`
    variables.  The window must contain every basis bidegree of N, otherwise
    the construction refuses (a smaller window would silently truncate the
    splitting equations downstream).
    """
    tower = n.tower
    if not (0 <= a_prefix <= tower.n):
        raise ModuleError(f"a_prefix must be in [0, {tower.n}]")
    for e in n.basis:
        if not window.contains(e.degree, e.weight):
            raise ModuleError(
                f"window {window.format()} does not contain basis element "
                f"{e.name} at ({e.degree},{e.weight})"
            )

    ext = range(a_prefix, tower.n)
    pairs = []  # (alpha, g_exps over ext variables)
    for alpha, e in enumerate(n.basis):
        for full in tower.gamma_monomials(window.wmax - e.weight,
                                          window.hmax - e.degree, ext):
            h, w = tower.monomial_bidegree(full)
            pairs.append((e.degree + h, e.weight + w, alpha, full[a_prefix:]))
    pairs.sort(key=lambda t: (t[0], t[2], t[3]))

    ext_names = [v.name for v in tower.variables[a_prefix:]]
    divided = tower.flavor == DIVIDED
    basis = []
    pos = {}
    for h, w, alpha, gex in pairs:
        pos[(alpha, gex)] = len(basis)
        g_name = monomial_text(ext_names, gex, divided, "", "1")
        basis.append(BasisElement(f"{n.basis[alpha].name}⊗{g_name}", h, w))

    def full_exps(gex):
        return (0,) * a_prefix + tuple(gex)

    diff: dict = {}
    pi_entries: dict = {}
    for (alpha, gex), idx in pos.items():
        g_elem = tower.monomial(full_exps(gex))
        du = n.apply_diff({alpha: g_elem})
        for gamma, c in du.items():
            for g2, a in split_over_prefix(tower, sorted(c.terms.items()), a_prefix):
                j = pos.get((gamma, tuple(g2)))
                if j is None:
                    raise ModuleError(
                        "window too small: differential leaves the window"
                    )
                prev = diff.get((j, idx))
                a = a if prev is None else prev + a
                if a.is_zero():
                    diff.pop((j, idx), None)
                else:
                    diff[(j, idx)] = a
        pi_entries[idx] = {alpha: g_elem}

    p = SemifreeModule(
        tower, basis, diff,
        complete_hmax=window.hmax, complete_wmax=window.wmax,
    )
    pi = ChainMap(p, n, 0, pi_entries)
    return p, pi


def tensor_bimodule(n: SemifreeModule, q: SemifreeModule,
                    window: BidegreeWindow | None = None) -> SemifreeModule:
    """N (x)_B Q for a bimodule Q carrying an explicit left action.

    Q must come from the envelope layer (a filtration quotient or the windowed
    diagonal ideal): its `left_action_fn` expands b·e_k over Q's basis, which
    is what makes d(n (x) q) = dn (x) q + (-1)^{|n|} n (x) dq well defined.

    A window, when given, keeps only pairs with total degree <= hmax and total
    weight <= wmax (both cuts are closed under the differential; the lower
    homological bound is not applied, since cutting from below would not be).
    """
    if q.left_action_fn is None:
        raise ModuleError("tensor_bimodule needs a bimodule with a left action")
    if n.tower is not q.tower and n.tower != q.tower:
        raise ModuleError("tensor over different towers")
    tower = n.tower

    pairs = []
    for a, e in enumerate(n.basis):
        for k, f in enumerate(q.basis):
            h, w = e.degree + f.degree, e.weight + f.weight
            if window is not None and (h > window.hmax or w > window.wmax):
                continue
            pairs.append((h, a, k))
    pairs.sort()
    pos = {(a, k): i for i, (_, a, k) in enumerate(pairs)}

    basis = [
        BasisElement(
            f"{n.basis[a].name}⊗{q.basis[k].name}",
            h, n.basis[a].weight + q.basis[k].weight,
        )
        for h, a, k in pairs
    ]

    diff: dict = {}

    def add_entry(i, j, elem):
        prev = diff.get((i, j))
        elem = elem if prev is None else prev + elem
        if elem.is_zero():
            diff.pop((i, j), None)
        else:
            diff[(i, j)] = elem

    for (b, k), j in pos.items():
        for (a, bb), entry in n.diff.items():
            if bb != b:
                continue
            for k2, c in q.left_action_fn(entry, k).items():
                i = pos.get((a, k2))
                if i is None:
                    raise ModuleError(
                        "tensor window cuts a differential component; enlarge it"
                    )
                add_entry(i, j, c)
        sign_n = -1 if n.basis[b].degree % 2 else 1
        for (k2, kk), entry in q.diff.items():
            if kk != k:
                continue
            i = pos.get((b, k2))
            if i is None:
                raise ModuleError(
                    "tensor window cuts a differential component; enlarge it"
                )
            add_entry(i, j, entry.scale_int(sign_n))

    ch = cw = None
    if q.complete_hmax is not None:
        ch = q.complete_hmax + min((e.degree for e in n.basis), default=0)
    if q.complete_wmax is not None:
        cw = q.complete_wmax + min((e.weight for e in n.basis), default=0)
    if window is not None:
        ch = window.hmax if ch is None else min(ch, window.hmax)
        cw = window.wmax if cw is None else min(cw, window.wmax)
    return SemifreeModule(tower, basis, diff, complete_hmax=ch, complete_wmax=cw)
