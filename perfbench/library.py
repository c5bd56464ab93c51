"""The ``library`` workload: in-process public-API calls on seeded inputs.

Every Gram-matrix input is a fresh random unimodular congruence U·G·Uᵀ of a
catalog eigenlattice L± of rank 2 to 20, and each generated Gram goes to
exactly one call, so no Gram repeats across calls.  A congruence keeps the
signature, discriminant rank, parity and Brown invariant, so each result is
checked against its source's values, fixed before timing starts.

The search queries are first-hit ``search_witness`` calls on every positive
(vertex, square, class) triple of the catalog, in a seeded order.  All of
them run in every pass: their costs are heavy-tailed (one triple takes about
a third of the search time), so a seeded sample would make the pass time
depend on whether the seed drew it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional

import k4graph as K
import reference

MIN_RANK, MAX_RANK = 2, 20
SEARCH_BOUND = 3
PROBE_EVERY_NS = 20_000_000


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]


def _random_unimodular(rng: random.Random, n: int) -> List[List[int]]:
    """Product of n elementary row operations with coefficients ±1."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            c = rng.choice((-1, 1))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _congruent(rng: random.Random, src: K.GramLattice, seen: set) -> K.GramLattice:
    """A Gram congruent to ``src`` that differs from every Gram in ``seen``."""
    n, g = src.rank, src.gram
    while True:
        u = _random_unimodular(rng, n)
        ug = [[sum(u[i][k] * g[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        lat = K.GramLattice.from_rows(
            [[sum(ug[i][k] * u[j][k] for k in range(n)) for j in range(n)] for i in range(n)]
        )
        if lat.gram not in seen:
            seen.add(lat.gram)
            return lat


def _nonisotropic(rng: random.Random, lat: K.GramLattice) -> K.LatticeVector:
    while True:
        x = lat.vector(rng.choice((-1, 0, 0, 1)) for _ in range(lat.rank))
        if not x.is_zero() and K.norm(x) != 0:
            return x


def _form_and_brown(lat: K.GramLattice):
    form = K.discriminant_quadratic(lat)
    return form, K.brown_invariant(form)


def _expect(label: str, got, want) -> Optional[str]:
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


def _gram_ops(rng: random.Random, v: K.K3Vertex, src: K.GramLattice, seen: set) -> List[Op]:
    # Signature, discriminant rank and parity come from the catalog entry
    # (L+ has sigma_+ = 1, L- has sigma_+ = 2, both have discriminant rank d
    # and an even form exactly at type I); the Brown invariant from the source.
    sig = (1, src.rank - 1) if src is v.lplus else (2, src.rank - 2)
    d, par = v.d, "even" if v.vtype == "I" else "odd"
    brown = K.brown_invariant(K.discriminant_quadratic(src))
    name = src.label

    def check_group(dg) -> Optional[str]:
        return _expect(f"{name} discriminant", (dg.rank, dg.is_two_periodic), (d, True))

    def check_form(fb) -> Optional[str]:
        f, b = fb
        return _expect(f"{name} form", (f.d, K.parity(f), b), (d, par, brown))

    g1, g2, g3, g4a, g4b, g5 = (_congruent(rng, src, seen) for _ in range(6))
    x = _nonisotropic(rng, g5)
    perp_sig = (sig[0] - 1, sig[1]) if K.norm(x) > 0 else (sig[0], sig[1] - 1)

    def check_perp(perp) -> Optional[str]:
        got = (perp.rank, K.is_even(perp), K.signature(perp))
        return _expect(f"{name} complement", got, (src.rank - 1, True, perp_sig))

    return [
        Op("signature", lambda: K.signature(g1), lambda s: _expect(f"{name} signature", s, sig)),
        Op("discriminant_group", lambda: K.discriminant_group(g2), check_group),
        Op("discriminant_form", lambda: _form_and_brown(g3), check_form),
        Op(
            "equivalent",
            lambda: K.lattices_equivalent(g4a, g4b),
            lambda r: _expect(f"{name} equivalence", r, "yes"),
        ),
        Op("orthogonal", lambda: K.orthogonal_sublattice(g5, x), check_perp),
    ]


def _search_op(v: K.K3Vertex, n: int, cls: K.ElementClass) -> Op:
    target = 8 * n - 2

    def check(w) -> Optional[str]:
        if w is None:
            return None  # a miss within the bound is evidence, not an error
        got = (K.norm(w), K.classify_element(v.lminus, w))
        return _expect(f"{v.vid} n={n} {cls.value} witness", got, (target, cls))

    return Op("search", lambda: K.search_witness(v.lminus, target, cls, bound=SEARCH_BOUND), check)


def make_ops(catalog: K.Catalog, seed: int) -> List[Op]:
    """All operations of one pass, in a seeded order; nothing here is timed."""
    rng = random.Random(f"library/{seed}")
    sources = [
        (v, lat)
        for v in catalog
        for lat in (v.lplus, v.lminus)
        if MIN_RANK <= lat.rank <= MAX_RANK
    ]
    seen = {lat.gram for _, lat in sources}
    ops = [op for v, lat in sources for op in _gram_ops(rng, v, lat, seen)]
    ops += [
        _search_op(v, n, cls)
        for v in catalog
        for n in (0, 1)
        for cls in K.ElementClass
        if K.exists_class(v, n, cls)
    ]
    rng.shuffle(ops)
    return ops


def run_ops(ops: List[Op]) -> dict:
    """Time each call in wall and in normalized CPU time; returns the times and results.

    Most calls take about a millisecond, too short for the parent's probes,
    which see the core only every 50 ms.  So the loop times the reference
    probe itself between calls, after every ``PROBE_EVERY_NS`` of call CPU
    time, and scales each call by the mean of the probes just before and
    just after it.  No probe runs inside a timed call.
    """
    wall, cpu = time.perf_counter_ns, time.thread_time_ns
    ref_inputs = reference.make_inputs()
    probes = [reference.probe(ref_inputs)]
    lat_ns, cpu_ns, probe_before, results = [], [], [], []
    since = 0
    for op in ops:
        if since >= PROBE_EVERY_NS:
            probes.append(reference.probe(ref_inputs))
            since = 0
        probe_before.append(len(probes) - 1)
        t0, c0 = wall(), cpu()
        res = op.call()
        c1, t1 = cpu(), wall()
        lat_ns.append(t1 - t0)
        cpu_ns.append(c1 - c0)
        results.append(res)
        since += c1 - c0
    probes.append(reference.probe(ref_inputs))
    norm_ns = [
        c * reference.NOMINAL_S / ((probes[k] + probes[k + 1]) / 2)
        for c, k in zip(cpu_ns, probe_before)
    ]
    return {"lat_ns": lat_ns, "norm_ns": norm_ns, "probes_s": probes, "results": results}
