"""Test oracles for the component search and the subset lattice.

``components`` and ``classify`` find the components with
``diagram.mask_components`` over ``CoxeterDiagram.nbr``, the neighbour
masks that the subset lattice and the root systems read, so they share
no code with the breadth-first search over vertex ids that
``connected_components``, ``is_connected`` and ``classify`` run.
``connected_masks`` lists a lattice's connected masks from its table.
"""

from __future__ import annotations

from ccx.diagram import (
    Classification,
    CoxeterDiagram,
    SubsetLattice,
    _bits,
    _classify_connected,
    mask_components,
)


def components(G: CoxeterDiagram) -> list[CoxeterDiagram]:
    """The components, each with the parent's order of vertices and labels."""
    masks = mask_components((1 << G.rank) - 1, G.nbr)
    comp = {G.vertices[k]: c for c, mask in enumerate(masks) for k in _bits(mask)}
    labels: list[dict[tuple[int, int], int]] = [{} for _ in masks]
    for (i, j), lab in G.labels.items():
        labels[comp[i]][i, j] = lab
    return [CoxeterDiagram([G.vertices[k] for k in _bits(mask)], labs)
            for mask, labs in zip(masks, labels)]


def classify(G: CoxeterDiagram) -> Classification:
    """The class of G from the components built by ``components``."""
    comps = components(G)
    if len(comps) <= 1:
        return _classify_connected(G._adj)
    parts = tuple(_classify_connected(c._adj) for c in comps)
    if all(p.kind == "finite" for p in parts):
        parts = tuple(sorted(parts, key=lambda p: (-p.rank, p.type_name or "?")))
        return Classification("finite-reducible", "x".join(p.type_name or "?" for p in parts),
                              G.rank, components=parts)
    return Classification("other-infinite", None, G.rank, components=parts)


def connected_masks(lat: SubsetLattice) -> tuple[int, ...]:
    """Every connected nonempty mask, by rank, then ascending: the masks
    that are their lowest vertex's component."""
    low = lat._low
    return tuple(sorted((m for m in range(1, lat.full + 1) if low[m] == m), key=int.bit_count))
