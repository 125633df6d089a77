"""The colored complex's vertices as a list, one ``ColoredRoot`` each: a
test oracle for the position layout that ``CliqueComplex.starts`` and
``CliqueComplex.position`` give by arithmetic."""

from typing import NamedTuple


class ColoredRoot(NamedTuple):
    comp: int   # irreducible component index
    root: int   # root id within that component's RootSystem
    color: int  # 1..m (always 1 for negative simples)


def colored_ground_set(systems, m: int) -> list[ColoredRoot]:
    """Vertices of the m-colored complex, ordered (component, root, color)."""
    out = []
    for ci, rs in enumerate(systems):
        out += [ColoredRoot(ci, rid, 1) for rid in range(rs.n)]
        out += [ColoredRoot(ci, rid, k) for rid in range(rs.n, rs.size) for k in range(1, m + 1)]
    return out


def layout(cx) -> list[ColoredRoot]:
    """The colored root at each position of the complex ``cx``."""
    return colored_ground_set(cx.systems, cx.m)
