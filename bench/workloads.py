"""Seeded workloads of the dglift benchmark.

Every workload draws its inputs from a seed, validates each draw with
dglift's own constructors (counting the draws it rejects), builds the inputs
the program receives, runs one op per input and checks the op's output.

An op is one user-level job with one verdict.  Inputs come in rounds: each
round holds one seeded instance of every shape of the workload, in a seeded
order (see `Workload`).  Half the shapes are over Q and half over F_32003.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass

PRIME = 32003
FIELDS = (None, PRIME)  # None is Q


def _field_line(p: int | None) -> str:
    return "field Q" if p is None else f"field F {p}"


def _render_poly(poly: dict, names: tuple[str, ...]) -> str:
    """Session-language text of {exponent tuple: int coefficient}."""
    out = []
    for exps, c in sorted(poly.items(), reverse=True):
        mono = "*".join(n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e)
        mag = abs(c)
        body = mono if mag == 1 and mono else (f"{mag}*{mono}" if mono else str(mag))
        if not out:
            out.append(("-" if c < 0 else "") + body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out)


def _monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), degree):
        exps = [0] * nvars
        for i in combo:
            exps[i] += 1
        out.append(tuple(exps))
    return sorted(out)


@dataclass
class Input:
    """One op's input: its shape, its field and what setup built."""

    shape: tuple
    p: int | None
    spec: dict
    built: object = None

    @property
    def field(self) -> str:
        return "Q" if self.p is None else "Fp"


class Workload:
    """A fixed list of input shapes, instantiated from the seed round by round.

    A shape fixes what decides an op's cost (field, sizes, bounds, which
    monomials or bidegrees occur); the seed draws the instance (coefficients,
    variable order, which basis monomials) and the order of the shapes within
    each round.  The shapes are drawn once from a fixed generator, so every
    seed runs the same mix and the figures stay steady from seed to seed.
    """

    name = ""
    shapes_per_cell = 1
    rounds = 8
    max_tries = 50

    def cells(self) -> list[tuple]:
        raise NotImplementedError

    def shape(self, dg: dict, rng: random.Random, cell: tuple) -> tuple:
        raise NotImplementedError

    def instance(self, dg: dict, rng: random.Random, shape: tuple) -> dict | None:
        """One candidate input for the shape, or None when it is invalid."""
        raise NotImplementedError

    def shapes(self, dg: dict) -> tuple[list[tuple], int]:
        rng = random.Random(f"dglift-bench-{self.name}-shapes")
        out, rejected = [], 0
        for cell in self.cells():
            for _ in range(self.shapes_per_cell):
                while True:
                    shape = self.shape(dg, rng, cell)
                    if any(self.instance(dg, rng, shape) for _ in range(self.max_tries)):
                        break
                    rejected += 1
                out.append(shape)
        return out, rejected

    def generate(self, dg: dict, seed: int) -> tuple[list[Input], int, int]:
        """(deck of inputs in op order, round length, rejected draws)."""
        shapes, rejected = self.shapes(dg)
        rng = random.Random(seed)
        deck = []
        for _ in range(self.rounds):
            order = list(shapes)
            rng.shuffle(order)
            for shape in order:
                for _ in range(self.max_tries):
                    spec = self.instance(dg, rng, shape)
                    if spec is not None:
                        break
                    rejected += 1
                else:
                    raise RuntimeError(f"no valid {self.name} input for shape {shape}")
                deck.append(Input(shape=shape, p=shape[0], spec=spec))
        return deck, len(shapes), rejected

    def prepare(self, deck: list[Input], workdir) -> None:
        """Write whatever files the ops read (outside the timed set-up)."""

    def build(self, dg: dict, deck: list[Input]) -> None:
        """Build every input the program receives (the timed set-up)."""
        raise NotImplementedError

    def run(self, dg: dict, inp: Input, workdir):
        raise NotImplementedError

    def check(self, dg: dict, inp: Input, out) -> bool:
        raise NotImplementedError


def _support(rng: random.Random, nvars: int, degree: int) -> tuple:
    """Monomial support of a monomial or (half the time) a binomial."""
    monos = _monomials(nvars, degree)
    if len(monos) == 1 or rng.random() < 0.5:
        return (rng.choice(monos),)
    return tuple(sorted(rng.sample(monos, 2)))


def _coefficients(rng: random.Random, support: tuple) -> dict:
    if len(support) == 1:
        return {support[0]: rng.choice((1, -1, 2))}
    return {support[0]: 1, support[1]: rng.choice((1, -1, 2, -3))}


def _permute(poly: dict, perm: list[int]) -> dict:
    out = {}
    for exps, c in poly.items():
        new = [0] * len(exps)
        for i, e in enumerate(exps):
            new[perm[i]] = e
        out[tuple(new)] = c
    return out


# ---------------------------------------------------------------------------
# Sessions through the command line
# ---------------------------------------------------------------------------


class _SessionWorkload(Workload):
    """Ops that run a generated session file through `dglift.cli.main`."""

    def prepare(self, deck, workdir):
        for i, inp in enumerate(deck):
            path = workdir / f"{self.name}-{i}.session"
            path.write_text(inp.spec["text"], encoding="utf-8")
            inp.spec["path"] = str(path)

    def build(self, dg, deck):
        parse = dg["session"].parse_session
        for inp in deck:
            inp.built = parse(inp.spec["text"])

    def run(self, dg, inp, workdir):
        report = workdir / f"{self.name}-report.json"
        with contextlib.redirect_stdout(io.StringIO()):
            status = dg["cli"].main([inp.spec["path"], "--report", str(report)])
        return status, report

    def _valid(self, dg, text: str) -> bool:
        try:
            dg["session"].parse_session(text)
        except dg["session"].ParseError:
            return False
        return True


class ResolveWorkload(_SessionWorkload):
    """Tate resolutions of R/I for 2-4 quadrics in 3-4 weight-1 variables."""

    name = "resolve"
    shapes_per_cell = 2
    names = ("x", "y", "z", "u")

    def cells(self):
        return [(p, nv, ng, wb) for p in FIELDS for nv in (3, 4)
                for ng in (2, 3, 4) for wb in (5, 6)]

    def shape(self, dg, rng, cell):
        p, nv, ng, wbound = cell
        supports = []
        while len(supports) < ng:
            s = _support(rng, nv, 2)
            if s not in supports:
                supports.append(s)
        return (p, nv, wbound, tuple(supports))

    def instance(self, dg, rng, shape):
        p, nv, wbound, supports = shape
        perm = rng.sample(range(nv), nv)
        gens = [_permute(_coefficients(rng, s), perm) for s in supports]
        # the generators must be nonzero and linearly independent: no
        # cancelled or duplicate generator reaches the program
        monos = _monomials(nv, 2)
        if dense_rank([[g.get(m, 0) for m in monos] for g in gens], p) < len(gens):
            return None
        names = self.names[:nv]
        text = (
            f"{_field_line(p)}\n"
            f"base {' '.join(f'{n}:1' for n in names)}\n"
            "tower divided\n"
            f"run tate {', '.join(_render_poly(g, names) for g in gens)} "
            f"hbound 3 wbound {wbound}\n"
        )
        if not self._valid(dg, text):
            return None
        return {"text": text, "gens": gens, "nvars": nv, "wbound": wbound}

    def check(self, dg, inp, out):
        status, report = out
        if status != 0:
            return False
        doc = json.loads(report.read_text(encoding="utf-8"))
        spec = inp.spec
        want = [[w, hilbert_function(spec["gens"], spec["nvars"], w, inp.p)]
                for w in range(spec["wbound"] + 1)]
        return doc["reports"][0]["result"].get("h0_dims") == want


class AxiomsWorkload(_SessionWorkload):
    """`check-axioms` on towers: Koszul variables on two seeded base
    polynomials plus a degree-2 variable killing their Koszul cycle."""

    name = "axioms"
    names = ("x", "y")

    def cells(self):
        return [(p, nb, flavor, budget, wb) for p in FIELDS for nb in (1, 2)
                for flavor in ("divided", "ordinary") for budget in (200, 400)
                for wb in (6, 7)]

    def shape(self, dg, rng, cell):
        p, nb, flavor, budget, wbound = cell
        w1, w2 = rng.choice((1, 2)), rng.choice((1, 2))
        return cell + (w1, _support(rng, nb, w1), w2, _support(rng, nb, w2))

    def instance(self, dg, rng, shape):
        p, nb, flavor, budget, wbound, w1, s1, w2, s2 = shape
        names = self.names[:nb]
        perm = rng.sample(range(nb), nb)
        f1 = _render_poly(_permute(_coefficients(rng, s1), perm), names)
        f2 = _render_poly(_permute(_coefficients(rng, s2), perm), names)
        c = rng.choice((1, -1, 2))
        text = (
            f"{_field_line(p)}\n"
            f"base {' '.join(f'{n}:1' for n in names)}\n"
            f"tower {flavor}\n"
            f"var X1 deg 1 wt {w1} d {f1}\n"
            f"var X2 deg 1 wt {w2} d {f2}\n"
            f"var Y deg 2 wt {w1 + w2} d {c}*(({f2})*X1 - ({f1})*X2)\n"
            f"run check-axioms budget {budget} wbound {wbound}\n"
        )
        if not self._valid(dg, text):
            return None
        return {"text": text}

    def check(self, dg, inp, out):
        status, report = out
        if status != 0:
            return False
        rep = json.loads(report.read_text(encoding="utf-8"))["reports"][0]
        laws = rep["tables"].get("laws") or []
        return (rep["result"].get("status") == "ok" and bool(laws)
                and all(verdict == "pass" and cases > 0 for _, cases, verdict in laws))


# ---------------------------------------------------------------------------
# The naive-lift decision procedure through the library
# ---------------------------------------------------------------------------


TOWERS = ("kx", "kxy", "mixed", "even")
# homological degrees of the cycles z drawn on each tower
CYCLE_DEGREES = {"kx": (0,), "kxy": (0, 1), "mixed": (0, 1, 2), "even": (0, 1)}


def build_tower(dg: dict, key: str, p: int | None):
    """Q[x]<X>, Q[x,y]<X1,X2>, Q[x,y]<X1,X2,Y> and Q[x,y]<X1,X2,Z> (dZ = 0),
    or the same over F_p."""
    br, da = dg["base_ring"], dg["dg_algebra"]
    field = br.Field(p)
    if key == "kx":
        t = da.TowerAlgebra(br.PolyRing(field, ("x",), (1,)), "divided")
        return t.adjoin("X", 1, 1, t.gen("x"))
    t = da.TowerAlgebra(br.PolyRing(field, ("x", "y"), (1, 1)), "divided")
    t = t.adjoin("X1", 1, 1, t.gen("x"))
    t = t.adjoin("X2", 1, 1, t.gen("y"))
    if key == "mixed":
        return t.adjoin("Y", 2, 2, t.gen("X1") * t.gen("y") - t.gen("X2") * t.gen("x"))
    if key == "even":
        return t.adjoin("Z", 2, 1, None)
    return t


def _element(tower, terms):
    field = tower.base.field
    out = tower.zero()
    for exps, bex, c in terms:
        out = out + tower.monomial(exps, tower.base.monomial(bex, field.of(c)))
    return out


def _terms(elem) -> list:
    out = []
    for exps, poly in sorted(elem.terms.items()):
        for bex, c in sorted(poly.terms.items()):
            out.append((exps, bex, c))
    return out


class LiftWorkload(Workload):
    """Semifree modules of 2-4 blocks, each a free generator or a cone
    d f = e·z on a seeded cycle z; per op the naive-lift decision and Ext
    against N itself and against N (x) J^(l)/J^(l+1), l = 1, 2."""

    name = "lift"
    shapes_per_cell = 2

    def __init__(self):
        self._towers: dict = {}

    def cells(self):
        return [(p, key, nblocks) for p in FIELDS for key in TOWERS
                for nblocks in (2, 3, 4)]

    def _tower(self, dg, key, p):
        if (key, p) not in self._towers:
            self._towers[(key, p)] = build_tower(dg, key, p)
        return self._towers[(key, p)]

    def shape(self, dg, rng, cell):
        p, key, nblocks = cell
        blocks = []
        for _ in range(nblocks):
            d0, w0 = rng.choice((0, 1)), rng.choice((0, 1, 2))
            nterms = rng.choice((1, 2))
            if rng.random() < 0.4:
                blocks.append(("free", d0, w0))
            elif key == "even" and rng.random() < 0.5:
                blocks.append(("Z", d0, w0, 2, rng.choice((1, 2)), nterms))
            else:
                zh = rng.choice(CYCLE_DEGREES[key])
                if zh == 0:
                    blocks.append(("poly", d0, w0, 0, rng.choice((1, 2)), nterms))
                else:
                    blocks.append(("boundary", d0, w0, zh, rng.choice((2, 3)), nterms))
        return (p, key, tuple(blocks))

    def _random_element(self, rng, tower, h, w, nterms):
        basis = tower.slice_basis(h, w)
        if not basis:
            return None
        picks = rng.sample(basis, min(len(basis), nterms))
        return _element(tower, [(e, b, rng.choice((1, -1, 2, 3))) for e, b in picks])

    def instance(self, dg, rng, shape):
        p, key, blocks = shape
        tower = self._tower(dg, key, p)
        gens, diffs = [], {}
        for k, (kind, d0, w0, *cone) in enumerate(blocks):
            gens.append((f"e{k}", d0, w0))
            if kind == "free":
                continue
            zh, zw, nterms = cone
            if kind == "poly":
                z = self._random_element(rng, tower, 0, zw, nterms)
            elif kind == "Z":
                z = self._random_element(rng, tower, 0, zw - 1, nterms) * tower.gen("Z")
            else:
                u = self._random_element(rng, tower, zh + 1, zw, nterms)
                z = None if u is None else u.differential()
            if z is None or z.is_zero() or not z.differential().is_zero():
                return None
            gens.append((f"f{k}", d0 + zh + 1, w0 + zw))
            diffs[(f"e{k}", f"f{k}")] = z
        try:
            dg["dg_module"].make_semifree(tower, gens, diffs)
        except dg["dg_module"].ModuleError:
            return None
        return {"key": key, "gens": gens,
                "diffs": {k: _terms(z) for k, z in diffs.items()}}

    def build(self, dg, deck):
        towers = {(key, p): build_tower(dg, key, p) for key in TOWERS for p in FIELDS}
        make = dg["dg_module"].make_semifree
        for inp in deck:
            tower = towers[(inp.spec["key"], inp.p)]
            diffs = {k: _element(tower, t) for k, t in inp.spec["diffs"].items()}
            inp.built = make(tower, inp.spec["gens"], diffs)

    def run(self, dg, inp, workdir):
        homological, dg_module = dg["homological"], dg["dg_module"]
        window = dg_module.BidegreeWindow
        n = inp.built
        result = homological.naive_lift_check(n)
        # windows derived from N so that no Hom slice reads a truncated one
        height = n.max_degree() - n.min_degree() + 1
        wmin = min(e.weight for e in n.basis)
        ext_window = window(0, height, n.max_weight())
        tables = [homological.ext_dims(n, n, (0, height), ext_window)]
        env = dg["envelope"].EnvelopeAlgebra(n.tower, 0)
        q_window = window(0, height, 2 * (n.max_weight() - wmin))
        for level in (1, 2):
            q = env.quotient_module(level, q_window)
            nq = dg_module.tensor_bimodule(n, q)
            tables.append(homological.ext_dims(n, nq, (0, height), ext_window))
        return result, tables

    def check(self, dg, inp, out):
        result, _ = out
        n = inp.built
        if result.split:
            chain_map = dg["dg_module"].ChainMap
            return (result.rho.is_chain_map()
                    and result.pi.compose(result.rho) == chain_map.identity(n))
        system = dg["homological"].build_split_system(n)[0]
        w = result.witness
        return dg["base_ring"].Infeasible(combo=w.combo, value=w.value).verify(system)


WORKLOADS = {w.name: w for w in (ResolveWorkload, LiftWorkload, AxiomsWorkload)}


# ---------------------------------------------------------------------------
# Independent Hilbert function of R/I (no dglift code involved)
# ---------------------------------------------------------------------------


def hilbert_function(gens: list[dict], nvars: int, w: int, p: int | None) -> int:
    """dim (R/I)_w for quadrics in weight-1 variables, by a dense rank of the
    monomial multiples of the generators (exact over Q, mod p over F_p)."""
    cols = {m: j for j, m in enumerate(_monomials(nvars, w))}
    rows = []
    for g in gens:
        for m in _monomials(nvars, w - 2) if w >= 2 else ():
            row = [0] * len(cols)
            for exps, c in g.items():
                row[cols[tuple(a + b for a, b in zip(m, exps))]] = c
            rows.append(row)
    return len(cols) - dense_rank(rows, p)


def dense_rank(rows: list[list[int]], p: int | None) -> int:
    """Rank of an integer matrix over Q (fraction-free) or over F_p."""
    if p is not None:
        rows = [[x % p for x in r] for r in rows]
    rows = [r for r in rows if any(r)]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        prow = rows[rank]
        a = prow[c]
        for j in range(rank + 1, len(rows)):
            b = rows[j][c]
            if not b:
                continue
            if p is not None:
                m = b * pow(a, -1, p) % p
                rows[j] = [(x - m * y) % p for x, y in zip(rows[j], prow)]
            else:
                new = [a * x - b * y for x, y in zip(rows[j], prow)]
                g = math.gcd(*new)
                rows[j] = [x // g for x in new] if g > 1 else new
        rank += 1
    return rank
