"""Quiver radicals and simplicity verdicts against their closed forms.

Simple sources {S_v : v in V} give Serre classes (Gabriel 1962): the radical
of the pair they generate is the largest subrepresentation supported in V,
and that of the pair they cogenerate is the subrepresentation generated by
the x_u with u outside V.  Both are computed here on vector sets
(`conftest.brute_subreps`), with no code of the engine.  Over an acyclic
quiver, x is torsion-simple iff its support is one vertex; otherwise W = x_v
at a sink v of the support is a proper torsion part.
"""
import itertools
import random

import pytest
from conftest import QUIVER_SHAPES, brute_subreps, simple_rep, span

from torsion_lab.engine import (QuiverHandle, is_torsion_simple, torsion_parts,
                                torsion_radical_generated,
                                torsionfree_coradical_cogenerated)
from torsion_lab.quiver import Quiver, QuiverRep


def _seeded_rep(quiver, p, dims, rng):
    return QuiverRep(quiver, p, dims, [[[rng.randrange(p) for _ in range(dims[s])]
                                        for _ in range(dims[t])] for s, t in quiver.arrows])


def _size(choice):
    return sum(len(s) for s in choice)


@pytest.mark.parametrize("mode", ["generated", "cogenerated"])
@pytest.mark.parametrize("shape", sorted(QUIVER_SHAPES))
def test_quiver_radicals_of_simple_sources_match_the_closed_form(shape, mode):
    quiver = Quiver(*QUIVER_SHAPES[shape])
    vertices = range(quiver.vertex_count)
    rng = random.Random(f"{shape}/{mode}")
    for p in (2, 3):
        handle = QuiverHandle(quiver, p)
        for _ in range(6):
            x = _seeded_rep(quiver, p, [rng.randint(0, 2) for _ in vertices], rng)
            subs = brute_subreps(quiver, p, x.dims, x.maps)
            for size in range(quiver.vertex_count + 1):
                for inside in itertools.combinations(vertices, size):
                    sources = [simple_rep(quiver, p, v) for v in inside]
                    outside = [u for u in vertices if u not in inside]
                    if mode == "generated":
                        t = torsion_radical_generated(handle, sources, x)
                        # zero outside V; these subrepresentations are closed
                        # under sums, so the largest one holds all the others
                        expected = max((c for c in subs if all(len(c[u]) == 1 for u in outside)),
                                       key=_size)
                    else:
                        t, _ = torsionfree_coradical_cogenerated(handle, sources, x)
                        # every vector at each u outside V, and the least such
                        expected = min((c for c in subs
                                        if all(len(c[u]) == p ** x.dims[u] for u in outside)),
                                       key=_size)
                    assert tuple(span(sp, p) for sp in t.spaces) == expected, (x.dims, inside)


def _every_rep_in_the_bounds():
    """Every dims tuple of the six shapes, dims <= 3 over F_2 and <= 2 over F_3
    and F_5, each with seeded maps: 522 non-zero representations."""
    for shape in sorted(QUIVER_SHAPES):
        quiver = Quiver(*QUIVER_SHAPES[shape])
        for p, max_dim in ((2, 3), (3, 2), (5, 2)):
            handle = QuiverHandle(quiver, p)
            rng = random.Random(f"{shape}/{p}")
            for dims in itertools.product(range(max_dim + 1), repeat=quiver.vertex_count):
                if any(dims):
                    yield handle, _seeded_rep(quiver, p, dims, rng)


def test_single_vertex_criterion_matches_brute_force_and_its_sink_part_is_a_part():
    sink_parts = 0
    for handle, x in _every_rep_in_the_bounds():
        verdict, _, _ = handle.criterion(x)
        assert is_torsion_simple(handle, x, method="brute-force", prune=False).verdict == verdict
        support = x.support()
        if verdict:
            continue
        # the witness a representation outside the enumeration bounds gets
        handle.enumerable = lambda x: False
        _, w, _ = handle.criterion(x)
        del handle.enumerable
        v = next(u for u in support if w.dims()[u])
        assert w.dims() == tuple(x.dims[v] if u == v else 0 for u in range(len(x.dims)))
        assert all(t not in support for s, t in x.quiver.arrows if s == v)
        assert w.key() in torsion_parts(handle, x, prune=False).keys(), (x.dims, x.maps)
        sink_parts += 1
    assert sink_parts == 410
