"""The integer-mask forms of faces, edges and index pairs, decoded into
facet id and vertex sets.

``SimplePolytope.faces`` gives (dim, facet mask, vertex mask) triples,
``SimplePolytope.edge_masks`` gives (a, b, facet mask) triples and an
``IndexProfile`` gives (a, b) vertex pairs with a < b; bit j of a facet
mask is ``facet_ids[j]`` and bit v of a vertex mask is vertex v.  The
frozenset references in the tests build ``FaceSets`` and frozenset
pairs directly, so the two routes are compared in this one form.

``faces_by_vertex_subsets`` is ``SimplePolytope.faces_down_to`` as it
stood when it walked the subsets of each vertex's facets, kept as the
reference for the level-by-level walk that replaced it.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple


class FaceSets(NamedTuple):
    """A face given by the ids of the facets containing it and its vertices."""

    dim: int
    facets: frozenset[str]
    vertices: frozenset[int]


def facet_set(poly, mask: int) -> frozenset[str]:
    return frozenset(fid for j, fid in enumerate(poly.facet_ids) if mask >> j & 1)


def vertex_set(mask: int) -> frozenset[int]:
    return frozenset(v for v in range(mask.bit_length()) if mask >> v & 1)


def face_sets(poly, faces) -> tuple[FaceSets, ...]:
    """(dim, facet mask, vertex mask) triples of ``poly`` as ``FaceSets``."""
    return tuple(FaceSets(dim, facet_set(poly, fm), vertex_set(vm)) for dim, fm, vm in faces)


def pair_set(pair: tuple[int, int]) -> frozenset[int]:
    """An (a, b) vertex pair as a set, checking a < b."""
    a, b = pair
    assert a < b, pair
    return frozenset(pair)


def edge_sets(poly) -> tuple[FaceSets, ...]:
    """``poly.edge_masks`` as 1-dimensional ``FaceSets``, in its order."""
    return tuple(FaceSets(1, facet_set(poly, m), pair_set((a, b))) for a, b, m in poly.edge_masks)


def profile_sets(profile) -> tuple:
    """(ind, pairs, old_edges) of an ``IndexProfile``, each edge as a set."""
    return (
        profile.ind,
        {j: tuple((v, pair_set(e)) for v, e in ps) for j, ps in profile.pairs.items()},
        tuple(map(pair_set, profile.old_edges)),
    )


def faces_by_vertex_subsets(poly, min_dim: int, excluded: int = 0) -> tuple:
    """The (dim, facet mask, vertex mask) triples of dimension at least
    ``min_dim`` whose facet mask misses ``excluded``, in the order of
    ``faces_down_to``, from every subset of at most dim - ``min_dim`` of
    the facets at each vertex outside ``excluded``: vertices in order,
    subsets by size and then lexicographically by position, and the
    first subset found for a vertex mask kept."""
    fmasks = poly.facet_vertex_masks
    all_mask = (1 << poly.n_vertices) - 1
    found = {all_mask: (poly.dim, 0)} if min_dim <= poly.dim else {}
    for vm in poly.vertex_masks:
        bits = [j for j in range(poly.n_facets) if (vm & ~excluded) >> j & 1]
        for k in range(1, poly.dim - min_dim + 1):
            for sub in combinations(bits, k):
                m = all_mask
                for j in sub:
                    m &= fmasks[j]
                found.setdefault(m, (poly.dim - k, sum(1 << j for j in sub)))
    return tuple(
        sorted(
            ((dim, fm, vm) for vm, (dim, fm) in found.items()),
            key=lambda f: (f[0], [v for v in range(poly.n_vertices) if f[2] >> v & 1]),
        )
    )
