"""Invariant suites behind `k4graph verify` and the acceptance tests.

Each suite returns a SuiteResult with human-readable failure strings; the
CLI exit status is the conjunction.  The suites are deterministic (seeded
randomness only); a `k4graph verify` process takes about 0.17 s of CPU time
without bytecode (median of 15, 0.16 to 0.25 s; a bare interpreter 0.04 s),
with Python 3.11 on one core of a 2-core x86-64 VM.  No suite searches.
The lattice suite recomputes every row of the stated block table
``catalog.BLOCK_INVARIANTS``, and the forms suite checks Milgram's formula,
Brown = σ mod 8, on each even row, so together they compute every value that
the catalog's key set ``K3_KEYS`` is folded from.  A suite that raises fails
with the exception's type and message, a catalog that fails to build fails
each suite that takes it, with the reason, and the others still run.  The
catalog suite reads each entry's signatures, discriminant ranks and type off
its whole Grams, where ``build_catalog`` folded them from the standard
blocks, so it checks that direct-sum rule on all 150 eigenlattices; an entry
whose Gram is degenerate or not 2-elementary fails, with no form built.
The predicates suite proves its negatives for all three classes from the one
block table ``catalog.SQUARES`` and confirms its positives with witnesses; the
graphs suite identifies the irregular K4 vertex's lattice, which ``build``
leaves out, builds its flip pairs from per-block witnesses and proves their
absence by the K3-edge census.  Each name is read from the module that
defines it.  ``elements``, ``finite_forms``, ``graphs`` and ``graph_checks``
are held lazily, so ``verify --suite predicates`` executes none of the last
three.
"""

from __future__ import annotations

import random
from math import prod
from typing import Callable, Dict, List, Optional, Union

from .gram import (
    GramLattice, LatticeError, STANDARD_GRAMS, _Record, direct_sum, from_summands, is_even,
    make_standard, rescale,
)
from .lattice import (
    _invariants, _two_elementary, find_characteristic, gram_apply, inner, lattices_equivalent,
    norm, reflect, signature, twist,
)
from .catalog import (
    BLOCK_INVARIANTS, Catalog, CatalogError, ElementClass, _validate_vertex, build_catalog,
    exists_class,
)
from . import SUITE_NAMES, elements as E, finite_forms as F, graph_checks as GC, graphs as G


class SuiteResult(_Record):
    __slots__ = ("name", "failures", "notes")
    _defaults = {"failures": [], "notes": []}

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, cond: bool, message: str) -> None:
        if not cond:
            self.failures.append(message)


# ---------------------------------------------------------------------------

def _random_unimodular(rng: random.Random, n: int) -> List[List[int]]:
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def _congruent(gram, u) -> GramLattice:
    n = len(gram)
    ug = [[sum(u[i][k] * gram[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    out = [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
    return GramLattice.from_rows(out)


def suite_lattice() -> SuiteResult:
    res = SuiteResult("lattice")
    rng = random.Random(20080514)

    def absdet(gram):  # the product of the Smith divisors
        _, d, _ = F.smith_normal_form(gram)
        return prod(d[i][i] for i in range(len(gram)))

    # every row of the catalog's stated block table, recomputed by the kernels
    for name in STANDARD_GRAMS:
        lat = make_standard(name)
        stated = BLOCK_INVARIANTS.get(name)
        if stated is None:
            res.failures.append(f"no stated 2-elementary invariants of {name}")
            continue
        (sig, a, delta), disc = stated, _two_elementary(lat.gram)
        res.check(signature(lat) == sig, f"signature of {name}")
        res.check(
            disc is not None and (disc.rank, disc._delta) == (a, delta),
            f"discriminant rank and parity of {name}",
        )
        res.check(absdet(lat.gram) == 2**a, f"|det| of {name}")
        res.check(is_even(lat) == (name != "<1>"), f"evenness of {name}")
    k3 = from_summands(("U", "U", "U", "E8", "E8"))
    res.check(signature(k3) == (3, 19), "K3 lattice signature (3,19)")
    res.check(
        signature(from_summands(("U(2)", "D4", "D4", "D4"))) == (1, 13),
        "U(2)+3D4 signature (1,13)",
    )
    # signature is congruence-invariant
    for trial in range(5):
        u = _random_unimodular(rng, 6)
        lat = from_summands(("U", "<2>", "<-2>", "U"))
        res.check(
            signature(_congruent(lat.gram, u)) == signature(lat),
            f"congruence invariance, trial {trial}",
        )
    # reflection and twist algebra on a small indefinite lattice
    lat = from_summands(("U", "<-2>", "<2>"))
    vecs = [lat.vector([rng.randrange(-3, 4) for _ in range(4)]) for _ in range(30)]
    roots = [v for v in vecs if norm(v) in (2, -2)]
    for v in roots[:6]:
        res.check(reflect(v, v).coords == (-v).coords, "s_v(v) = -v")
        for x in vecs[:8]:
            sx, sy = reflect(v, x), reflect(v, reflect(v, x))
            res.check(sy.coords == x.coords, "s_v is an involution")
            for y in vecs[:4]:
                res.check(
                    inner(reflect(v, x), reflect(v, y)) == inner(x, y),
                    "s_v preserves the form",
                )
        tw = twist(lat, v)
        res.check(twist(tw, tw.vector(v.coords)).gram == lat.gram, "twist is an involution")
        sp, sm = signature(lat)
        expect = (sp + 1, sm - 1) if norm(v) == -2 else (sp - 1, sm + 1)
        res.check(signature(tw) == expect, "twist moves one inertia unit")
        res.check(absdet(lat.gram) == absdet(tw.gram), "twist preserves |det|")
    # the K4 lattice: twist of (-K3) + <1> at w = h + 2e
    amb = direct_sum(rescale(k3, -1), make_standard("<1>"))
    wc = [0] * 23
    wc[0], wc[1], wc[22] = 1, 3, 2
    w = amb.vector(wc)
    res.check(norm(w) == -2, "w = h + 2e has square -2")
    m = twist(amb, w)
    res.check(signature(m) == (21, 2), "K4 lattice signature (21,2)")
    res.check(not is_even(m), "K4 lattice is odd")
    res.check(absdet(m.gram) == 1, "K4 lattice is unimodular")
    wch = find_characteristic(m)
    gw = gram_apply(m, wch.coords)
    res.check(
        all((gw[i] - m.gram[i][i]) % 2 == 0 for i in range(23)),
        "characteristic vector of the K4 lattice",
    )
    return res


def suite_forms() -> SuiteResult:
    res = SuiteResult("forms")
    rng = random.Random(1746)
    for trial in range(25):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 5)
        mat = [[rng.randrange(-9, 10) for _ in range(m)] for _ in range(n)]
        u, d, v = F.smith_normal_form(mat)
        prod = [
            [sum(u[i][a] * mat[a][b] * v[b][j] for a in range(n) for b in range(m))
             for j in range(m)]
            for i in range(n)
        ]
        res.check(prod == [list(r) for r in d], f"SNF round-trip, trial {trial}")
        for i in range(min(n, m) - 1):
            if d[i][i] and d[i + 1][i + 1] % d[i][i]:
                res.failures.append(f"SNF divisibility chain, trial {trial}")
    # Milgram on each even block: Brown(q) = σ mod 8, the value the catalog's key fold reads
    for name, row in BLOCK_INVARIANTS.items():
        lat = make_standard(name)
        if row and is_even(lat):
            f, ((sp, sm), _, _) = F.discriminant_quadratic(lat), row
            res.check((F.brown_invariant(f) - sp + sm) % 8 == 0, f"Brown of discr {name}")
            res.check((F.brown_invariant(f.negate()) + sp - sm) % 8 == 0, f"Brown of -discr {name}")
    fu2 = F.discriminant_quadratic(make_standard("U(2)"))
    res.check(fu2.qvals == (0, 0) and fu2.bvals[0][1] == 1, "U(2) discriminant form")
    res.check(F.parity(fu2) == "even", "U(2) form is even")
    res.check(F.parity(F.discriminant_quadratic(make_standard("<2>"))) == "odd", "<2> form is odd")
    res.check(
        lattices_equivalent(make_standard("<1>"), make_standard("<1>")) == "undecidable",
        "odd lattices are out of oracle scope",
    )
    res.check(
        F.forms_isomorphic(
            F.discriminant_quadratic(make_standard("<2>")),
            F.discriminant_quadratic(make_standard("<-2>")),
        ) is False,
        "<2> and <-2> discriminant forms differ",
    )
    return res


def suite_catalog(catalog: Catalog) -> SuiteResult:
    res = SuiteResult("catalog")
    seen_plus = set()
    for v in catalog:
        # every entry invariant, read off the whole Grams where build_catalog folded blocks
        try:
            invariants = (_invariants(v.lplus), _invariants(v.lminus))
        except LatticeError as exc:  # a degenerate Gram has neither invariants nor a form
            res.failures.append(f"{v.vid}: {exc}")
            continue
        res.failures.extend(f"{v.vid}: {msg}" for msg in _validate_vertex(v, invariants))
        if None in invariants:  # no discriminant form to check
            continue
        fp = F.discriminant_quadratic(v.lplus)
        fm = F.discriminant_quadratic(v.lminus)
        res.check(F.parity(fp) == F.parity(fm), f"{v.vid}: anti-isometric parities")
        bp, bm = F.brown_invariant(fp), F.brown_invariant(fm)
        res.check((bp + bm) % 8 == 0, f"{v.vid}: Brown sum is 0 mod 8")
        for lat, b in ((v.lplus, bp), (v.lminus, bm)):
            sp, sm = signature(lat)
            res.check((sp - sm - b) % 8 == 0, f"{v.vid}: Milgram congruence")
        inv = (signature(v.lplus), fp.d, F.parity(fp), bp)
        res.check(inv not in seen_plus, f"{v.vid}: duplicate L+ invariants")
        seen_plus.add(inv)
    return res


def suite_predicates(catalog: Catalog) -> SuiteResult:
    res = SuiteResult("predicates")
    for v in catalog:
        for n in (0, 1):
            for cls in ElementClass:
                if exists_class(v, n, cls):
                    x = E.construct_witness(v, n, cls)
                    res.check(norm(x) == 8 * n - 2, f"{v.vid} n={n} {cls.value}: witness norm")
                    res.check(
                        E.classify_element(v.lminus, x) is cls,
                        f"{v.vid} n={n} {cls.value}: witness class",
                    )
                    res.check(
                        E.classify_element(v.lminus, -x) is cls,
                        f"{v.vid} n={n} {cls.value}: class is sign-invariant",
                    )
    return res


def suite_graphs(catalog: Catalog) -> SuiteResult:
    res = SuiteResult("graphs")
    try:
        k3, k4 = G._build_graph(catalog, "k3"), G._build_graph(catalog, "k4")
        GC._validate_irr(catalog)
    except G.StructuralError as exc:
        res.failures.append(str(exc))
        return res
    res.check(len(k3.vertex_ids) == 75, "K3 graph has 75 vertices")
    res.check(len(k4.vertex_ids) == 75, "K4 graph has 75 vertices")
    terminals = sorted(v for v in k3.vertex_ids if not k3.out_edges(v))
    res.check(terminals == ["[10S]", "[8S]_I"], f"K3 terminal vertices: {terminals}")
    frep = GC.regular_subgraphs_and_F(k3, k4)
    res.check(frep.ok and frep.vertices == 74, "F is a bijection on 74 regular vertices")
    res.check(frep.edges == len(k3.edges) - 1, "F covers all regular edges")
    res.check(GC.k4_equals_k3_after_swap(k3, k4), "K4 is K3 after the one-edge swap")
    # flip cycles at every constructed pair.  The K3-edge census proves where none
    # exists: c has a pair iff some edge c -> t has a square-6 element in L-(t),
    # as v^⊥ ≅ L-(t) (Nikulin's uniqueness, applied by the structural checks)
    census = {
        e.src for e in k3.edges
        if any(exists_class(catalog.by_id(e.dst), 1, cls) for cls in ElementClass)
    }
    found = 0
    for v in catalog:
        try:
            t = GC.construct_flip_triple(v)
            res.check((t is not None) == (v.vid in census), f"{v.vid}: flip pair " + (
                "constructed, but the K3-edge census proves none" if t
                else "not constructed, but the K3-edge census has one"))
            if t is None:
                continue
            f2 = GC.flip(GC.flip(t))
            res.check(
                f2.h.coords == t.h.coords and f2.v.coords == t.v.coords,
                f"{v.vid}: flip is an involution",
            )
            rep = GC.verify_flip_cycle(v, t, k4, catalog)
        except LatticeError as exc:  # a flip pair or its cycle that is not well formed
            res.failures.append(f"{v.vid}: flip pair: {exc}")
            continue
        found += 1
        res.check(rep.ok, f"{v.vid}: flip cycle identities {rep.identities} {rep.detail}")
    res.check(found > 0, "at least one flip pair must be found")
    res.notes.append(f"flip cycles verified at {found} vertices")
    # basic cycles
    br = GC.basic_cycles_regular(k3, catalog)
    res.check(br.all_regular, "all basic cycles are regular")
    res.check(br.count_matches_rank, f"{len(br.cycles)} basic cycles vs cycle rank {br.cycle_rank}")
    res.check(br.full_rank, "basic-cycle incidence matrix has full rational rank")
    res.notes.append(
        f"basic cycles: {len(br.cycles)}, incidence divisors all 1: "
        f"{set(br.incidence_divisors) == {1}}"
    )
    sr = GC.structural_checks(k3, catalog)
    res.check(sr.ok, f"structural failures: {sr.failures[:3]}")
    res.notes.append(
        f"structural checks: {sr.verified} verified, {len(sr.undecidable)} undecidable"
    )
    return res


def suite_synthesis(catalog: Catalog) -> SuiteResult:
    res = SuiteResult("synthesis")
    count = 0
    for v in catalog:
        for cls in ElementClass:
            if not exists_class(v, 1, cls):
                continue
            h = E.construct_witness(v, 1, cls)
            try:
                GC.synthesize_k4_plus(v, h)
            except G.StructuralError as exc:
                res.failures.append(str(exc))
                continue
            count += 1
    res.check(count > 0, "no synthesis cases ran")
    res.notes.append(f"synthesized M+ for {count} (vertex, class) pairs")
    return res


# the package states the names, so ``verify --suite`` offers them unloaded
SUITES: Dict[str, Callable[..., SuiteResult]] = {
    name: globals()[f"suite_{name}"] for name in SUITE_NAMES
}

# the suites that take the catalog, by name, so a wrapped suite is read the same
_CATALOG_SUITES = ("catalog", "predicates", "graphs", "synthesis")


def run_suites(names: Optional[List[str]] = None) -> List[SuiteResult]:
    """The selected suites' results, in order.  A suite that raises fails with
    the exception's type and message, a catalog that fails to build fails each
    suite that takes it, naming the reason, and the other suites still run."""
    cat: Union[Catalog, CatalogError, None] = None
    results = []
    for name in names or SUITES:
        fn = SUITES[name]
        try:
            if name not in _CATALOG_SUITES:
                results.append(fn())
                continue
            if cat is None:
                try:
                    cat = build_catalog()
                except CatalogError as exc:
                    cat = exc
            if isinstance(cat, CatalogError):
                results.append(SuiteResult(name, [f"catalog build failed: {cat}"]))
            else:
                results.append(fn(cat))
        except Exception as exc:  # the suite's one failure, and the next suite runs
            results.append(SuiteResult(name, [f"{type(exc).__name__}: {exc}"]))
    return results
