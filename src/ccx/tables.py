"""Reviewed numeric tables: exponent levels, the correction factors for
face and h-number product formulas, and reference invariant values.

Everything here was transcribed once; a digest in the test suite
(``tests/test_formulas.py``) guards it, so a stray edit cannot silently
change a constant.  The D8 columns exist only so tests can cross-check
the closed-form D-family factors.
"""

from __future__ import annotations

from fractions import Fraction

from .exactmath import ONE, Poly

F = Fraction


def exponent_levels(family: str, n: int, a: int | None = None) -> list[tuple[int, int]]:
    """(exponent, level) pairs for an irreducible type; exponents with a
    shared level appear as separate entries."""
    if family == "A":
        return [(k, k) for k in range(1, n + 1)]
    if family == "B":
        return [(2 * k - 1, k) for k in range(1, n + 1)]
    if family == "D":
        out = [(1, 1)] + [(2 * j - 3, j) for j in range(3, n + 1)]
        out.append((n - 1, n - 1))
        return sorted(out, key=lambda t: (t[1], t[0]))
    if family == "I2":
        return [(1, 1), (a - 1, 2)]
    fixed = {
        "E6": [(1, 1), (4, 3), (5, 4), (7, 5), (8, 5), (11, 6)],
        "E7": [(1, 1), (5, 3), (7, 4), (9, 5), (11, 6), (13, 6), (17, 7)],
        "E8": [(1, 1), (7, 3), (11, 5), (13, 5), (17, 6), (19, 7), (23, 7), (29, 8)],
        "F4": [(1, 1), (5, 3), (7, 3), (11, 4)],
        "G2": [(1, 1), (5, 2)],
        "H3": [(1, 1), (5, 2), (9, 3)],
        "H4": [(1, 1), (11, 3), (19, 3), (29, 4)],
    }
    if family in fixed:
        return list(fixed[family])
    raise KeyError(f"no level data for family {family!r}")


def _lin(c1: Fraction, c0: Fraction = F(1)) -> Poly:
    return Poly([c0, c1])


# face-number correction factors: (type, k) -> polynomial in m.
# Missing (type,k) pairs mean the factor is 1.
FACE_CORRECTIONS: dict[tuple[str, int], Poly] = {
    ("E6", 2): _lin(F(14, 5)),
    ("E6", 3): _lin(F(9, 4)),
    ("E6", 4): _lin(F(5, 3)),
    ("E7", 2): _lin(F(7, 2)),
    ("E7", 3): _lin(F(27, 10)),
    ("E7", 4): _lin(F(21, 10)),
    ("E7", 5): _lin(F(23, 14)),
    ("E8", 2): _lin(F(35, 8)),
    ("E8", 3): _lin(F(45, 14)),
    ("E8", 4): Poly([F(1), F(179, 35), F(46, 7)]),
    ("E8", 5): _lin(F(2)),
    ("E8", 6): _lin(F(13, 8)),
    ("F4", 2): _lin(F(13, 6)),
    ("H4", 2): _lin(F(31, 12)),
}

# D8 reference column (self-test only; the D family uses a closed form)
FACE_CORRECTIONS_D8: dict[int, Poly] = {
    2: _lin(F(29, 8)),
    3: _lin(F(31, 12)),
    4: _lin(F(17, 8)),
    5: _lin(F(19, 10)),
    6: _lin(F(43, 24)),
}

# h-number correction factors, same convention
H_CORRECTIONS: dict[tuple[str, int], Poly] = {
    ("E6", 2): Poly([F(-8, 15), F(42, 15)]),
    ("E6", 3): Poly([F(-5, 8), F(18, 8)]),
    ("E6", 4): Poly([F(-13, 18), F(30, 18)]),
    ("E7", 2): Poly([F(-11, 18), F(63, 18)]),
    ("E7", 3): Poly([F(-7, 10), F(27, 10)]),
    ("E7", 4): Poly([F(-23, 30), F(63, 30)]),
    ("E7", 5): Poly([F(-103, 126), F(207, 126)]),
    ("E8", 2): Poly([F(-17, 24), F(105, 24)]),
    ("E8", 3): Poly([F(-11, 14), F(45, 14)]),
    ("E8", 4): Poly([F(1084, 1575), F(-6675, 1575), F(10350, 1575)]),
    ("E8", 5): Poly([F(-13, 15), F(30, 15)]),
    ("E8", 6): Poly([F(-107, 120), F(195, 120)]),
    ("F4", 2): Poly([F(-23, 36), F(78, 36)]),
    ("H4", 2): Poly([F(-149, 180), F(465, 180)]),
}

H_CORRECTIONS_D8: dict[int, Poly] = {
    2: Poly([F(-27, 56), F(203, 56)]),
    3: Poly([F(-53, 84), F(217, 84)]),
    4: Poly([F(-39, 56), F(119, 56)]),
    5: Poly([F(-51, 70), F(133, 70)]),
    6: Poly([F(-125, 168), F(301, 168)]),
}


def face_correction(family: str, n: int, k: int) -> tuple[tuple[int, ...], int]:
    """c_f factor for an irreducible type at face size k, as the integer
    coefficients of its numerator in m and its denominator."""
    if family == "D":
        if k in (0, 1, n - 1, n):
            return (1,), 1
        return (k * n, n * (n - 1) + k * (k - 1)), k * n
    p = FACE_CORRECTIONS.get((family, k), ONE)
    return p.num, p.den


def h_correction(family: str, n: int, k: int) -> tuple[tuple[int, ...], int]:
    """c_h factor for an irreducible type at index k, as ``face_correction``."""
    if family == "D":
        if k in (0, 1, n - 1, n):
            return (1,), 1
        s, d = n * n - n + k * k - k, k * n * (n - 1)  # s/d * (m(n-1) + 1) - 1
        return (s - d, s * (n - 1)), d
    p = H_CORRECTIONS.get((family, k), ONE)
    return p.num, p.den


# fully-supported reflection counts per irreducible type, for tests
M_VALUES = {
    "A": lambda n: 1,
    "B": lambda n: n,
    "D": lambda n: n - 2,
    "E6": 7,
    "E7": 16,
    "E8": 44,
    "F4": 10,
    "H3": 8,
    "H4": 42,
    "I2": lambda a: a - 2,
}
