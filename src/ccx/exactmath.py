"""Exact univariate polynomial and rational-function arithmetic over Q.

A polynomial in the formal variable ``m`` is integer numerators over
one positive denominator (FLINT's ``fmpq_poly`` layout), and all its
arithmetic runs on the integer lists of the root-finding section; an
int scalar is used as it is, without a Fraction.  A polynomial sum of
many terms (``poly_sum``) puts every term over the lcm of the
denominators, adds the integer numerators and reduces once, instead of
reducing each pairwise sum.  The same sum on bare integer rows, each
over its own denominator and with an int weight, placed by index
(``_rows_sum``), is left unreduced; ``_lowest`` reduces a row over its
denominator, and a polynomial is printed coefficient by coefficient in
lowest terms, one gcd each, with no Fraction (``Poly.serialize``).
A vector of polynomials (``PolyVec``), such as the face numbers
f_0..f_r of one subdiagram, is the same layout for the whole vector:
integer rows over one positive denominator, reduced once when it is
built.  Its entrywise sum (``vec_sum``) and its convolution
(``vec_convolve``, products left unreduced) each make one reduction,
and an entry becomes a canonical ``Poly`` only when it is read; an
integer combination of its rows (``_combine``) stays an unreduced row.
Whether a quotient of two polynomials is a constant is decided on their
integer rows, whatever common factor they carry, by cross-multiplying
with no gcd (``_constant_ratio``).  ``RatFun`` wraps that test for two
Polys and computes its reduced form only for ``repr``; the program
builds none.  Every substitution the program makes is of a line with
integer ends: a scale (``_scale``, t^d f(s y / t)), a shift by 1
(``_taylor_shift``) and sign flips (``_flip``), with no Fraction and no
reduction per step.  ``Poly.compose``, the general substitution, and
``shifted_arg`` are kept as the tests' reference.  An integer of
14 000 bits or more is printed in decimal by divide and conquer through
``decimal`` (``format_integer``), which ``str`` would refuse.
Roots are found without factoring integers and without floating-point
arithmetic.  A small prime p certifies the primitive numerator
square-free mod p (Yun's decomposition runs only when no such prime is
found), its roots mod p are lifted p-adically, and each lift is
reconstructed as a fraction and tested exactly.  The cofactor left
without rational roots is the only polynomial whose real roots are
isolated, by Descartes' rule of signs.  Rational roots come out
exactly; an irrational real root is kept as its isolating interval and
is rounded to the nearest double only when that value is read, the
interval refined by sign-checked Newton steps or by bisection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, isqrt, lcm, log2

class NonZeroRemainder(ValueError):
    """Exact polynomial division left a remainder."""


class NotConstant(ValueError):
    """A rational function expected to be constant is not."""


def _rational(x) -> int | Fraction:
    """x itself, if an int or a Fraction.  Both carry ``numerator`` and
    ``denominator``, so an int needs no Fraction constructor."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _trim(f: list[int]) -> list[int]:
    """f without its trailing zeros, in place."""
    while f and not f[-1]:
        f.pop()
    return f


class Poly:
    """Univariate polynomial over Q: the coefficient of m^k is num[k]/den.

    Immutable and canonical: ``num`` is a tuple of ints without trailing
    zeros, ``den`` a positive int, gcd(den, *num) = 1; so equal
    polynomials have equal fields, and zero is num = (), den = 1.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs=()):
        cs = [_rational(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        _set(self, [c.numerator * (den // c.denominator) for c in cs], den)

    def __setattr__(self, *a):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def const(c) -> "Poly":
        return Poly([c])

    # -- basic queries -------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    def is_zero(self) -> bool:
        return not self.num

    def leading(self) -> Fraction:
        if not self.num:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Poly):
            other = Poly.const(other)
        a, b = self.den, other.den
        if a == b:
            return _of(_zadd(self.num, other.num), a)
        g = gcd(a, b)
        u, v = [c * (b // g) for c in self.num], [c * (a // g) for c in other.num]
        return _of(_zadd(u, v), a // g * b)

    __radd__ = __add__

    def __neg__(self):
        return _of([-c for c in self.num], self.den)

    def __sub__(self, other):
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Poly):
            return _of(_zmul(self.num, other.num), self.den * other.den)
        s = _rational(other)
        return _of([c * s.numerator for c in self.num], self.den * s.denominator)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        s = _rational(scalar)
        if not s:
            raise ZeroDivisionError("polynomial division by zero")
        return _of([c * s.denominator for c in self.num], self.den * s.numerator)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Poly.const(other)
        return isinstance(other, Poly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

    def __call__(self, x):
        """Exact value at an int or Fraction x."""
        x = _rational(x)
        scale = self.den * x.denominator ** max(self.degree, 0)
        return Fraction(_zeval(self.num, x.numerator, x.denominator), scale)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(x)).  With inner = u/v and self = (sum a_i x^i)/d,
        Horner over the numerators gives sum a_i u^i v^(n-i) over d v^n.

        The general substitution, kept as the tests' reference: every
        substitution the program makes is of a line, and runs on integer
        rows as ``_scale`` and ``_taylor_shift``."""
        u, v = inner.num, inner.den
        acc: list[int] = []
        pw = 1
        for c in reversed(self.num):
            acc = _zadd(_zmul(acc, u), [c * pw])
            pw *= v
        return _of(acc, self.den * v ** max(self.degree, 0))

    def shifted_arg(self, delta) -> "Poly":
        """self(x + delta)."""
        return self.compose(Poly([delta, 1]))

    def __repr__(self):
        if self.is_zero():
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            terms.append(f"{c}" if i == 0 else (f"{c}*m^{i}" if i > 1 else f"{c}*m"))
        return "Poly(" + " + ".join(terms) + ")"

    def serialize(self) -> list[str]:
        """Coefficient list as "p/q" strings, ascending degree: each
        numerator and the denominator divided by their gcd, with no
        Fraction."""
        out = []
        for c in self.num:
            g = gcd(c, self.den)
            num = format_integer(c // g)
            out.append(num if g == self.den else f"{num}/{format_integer(self.den // g)}")
        return out


def _set(p: Poly, num: list[int], den: int) -> Poly:
    """Store num/den (den != 0) in p in canonical form: trailing zeros
    stripped, the common factor and the sign of den divided out."""
    num, den = _lowest(_trim(num), den)
    object.__setattr__(p, "num", tuple(num))
    object.__setattr__(p, "den", den)
    return p


def _lowest(num: list[int], den: int) -> tuple[list[int], int]:
    """The row num over den (den != 0) with the gcd of den and every
    coefficient, and the sign of den, divided out."""
    g = gcd(den, *num)
    if den < 0:
        g = -g
    return ([c // g for c in num], den // g) if g != 1 else (num, den)


def _of(num: list[int], den: int) -> Poly:
    """The Poly num/den, built without the Fraction constructor."""
    return _set(object.__new__(Poly), num, den)


ZERO = Poly()
ONE = Poly.const(1)


def poly_sum(terms) -> Poly:
    """The sum of an iterable of Polys, reduced once."""
    [row], den = _rows_sum(((0, p.num, p.den, 1) for p in terms), 1)
    return _of(row, den)


class PolyVec:
    """A vector of polynomials over Q with one denominator: entry k is
    rows[k]/den, where rows[k] is a tuple of ints in ascending degree
    (trailing zeros allowed).

    Reduced once, when built (``_vec``): den > 0 and gcd(den, every
    coefficient) = 1.  An entry becomes a canonical ``Poly`` only when
    it is read (``v[k]``, ``iter``), once; ``len`` reads none.
    """

    __slots__ = ("rows", "den", "_read")

    def __setattr__(self, *a):
        raise AttributeError("PolyVec is immutable")

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, k: int) -> Poly:
        p = self._read[k]
        if p is None:
            p = self._read[k] = _of(list(self.rows[k]), self.den)
        return p

    def __iter__(self):
        return map(self.__getitem__, range(len(self.rows)))


def _vec(rows: list, den: int) -> PolyVec:
    """The PolyVec rows/den (den > 0), divided by the gcd of den and
    every coefficient: one reduction for the whole vector."""
    g = den
    for row in rows:
        if g == 1:
            break
        g = gcd(g, *row)
    v = object.__new__(PolyVec)
    if g != 1:
        rows = [[c // g for c in row] for row in rows]
        den //= g
    object.__setattr__(v, "rows", tuple(map(tuple, rows)))
    object.__setattr__(v, "den", den)
    object.__setattr__(v, "_read", [None] * len(rows))
    return v


def vec_sum(vecs, n: int) -> PolyVec:
    """The entrywise sum of the PolyVecs ``vecs`` as n entries (an entry
    past a vector's end is zero): one ``_rows_sum``, one reduction."""
    return _vec(*_rows_sum(((k, row, v.den, 1) for v in vecs for k, row in enumerate(v.rows[:n])),
                           n))


def _rows_sum(terms, n: int) -> tuple[list[list[int]], int]:
    """n integer rows over one denominator, unreduced: row k is the sum
    of w * row/d over the terms (k, row, d, w) with that k, each row an
    integer row over d > 0 with an int weight w, scaled to the lcm of
    the denominators.  An entry that no term reaches is the empty row."""
    terms = list(terms)
    den = lcm(*{d for _, _, d, _ in terms})
    acc: list[list[int]] = [[] for _ in range(n)]
    for k, row, d, w in terms:
        s, out = w * (den // d), acc[k]
        if len(out) < len(row):
            out.extend([0] * (len(row) - len(out)))
        for i, c in enumerate(row):
            out[i] += c * s
    return acc, den


def _combine(rows, ws) -> list[int]:
    """The integer row sum of w * row over the rows and their int weights
    ``ws``, unreduced (trailing zeros kept)."""
    acc = [0] * max([len(row) for row in rows], default=0)
    for w, row in zip(ws, rows):
        if w:
            for i, c in enumerate(row):
                acc[i] += c * w
    return acc


def vec_convolve(a: PolyVec, b: PolyVec) -> PolyVec:
    """The PolyVec c with c_k the sum of a_i * b_(k-i): the products of
    the rows added unreduced over den(a) den(b), one reduction."""
    acc: list[list[int]] = [[] for _ in range(len(a.rows) + len(b.rows) - 1)]
    for i, p in enumerate(a.rows):
        for j, q in enumerate(b.rows):
            out = acc[i + j]
            if len(out) < len(p) + len(q) - 1:
                out.extend([0] * (len(p) + len(q) - 1 - len(out)))
            for x, c in enumerate(p):
                if c:
                    for y, d in enumerate(q, x):
                        out[y] += c * d
    return _vec(acc, a.den * b.den)


_STR_BITS = 14_000  # under 4215 digits: ``str`` prints these


def format_integer(n: int) -> str:
    """n in decimal at any size.  ``str`` refuses over 4300 digits (a
    process-wide limit), so from ``_STR_BITS`` bits n is converted to a
    ``decimal.Decimal`` by divide and conquer (``_to_decimal``)."""
    if n.bit_length() < _STR_BITS:
        return str(n)
    return ("-" if n < 0 else "") + format(_to_decimal(abs(n)), "f")


def _to_decimal(n: int):
    """n >= 0 as an exact Decimal.  n = hi 2^k + lo, with k the largest
    power of 2 below n's bit length: the halves are converted
    recursively and joined by one product with the cached 2^k and one
    sum, exact in ``_exact_context``; libmpdec multiplies large operands
    by a number-theoretic transform, where converting n whole is
    quadratic in its length.  A part under ``_STR_BITS`` bits is
    converted directly."""
    import decimal

    bits = n.bit_length()
    if bits < _STR_BITS:
        return decimal.Decimal(n)
    k = 1 << ((bits - 1).bit_length() - 1)
    ctx = _exact_context()
    return ctx.add(ctx.multiply(_to_decimal(n >> k), _pow2_decimal(k)),
                   _to_decimal(n & ((1 << k) - 1)))


@lru_cache(maxsize=None)
def _exact_context():
    """A decimal context that never rounds an integer and traps if it
    would."""
    import decimal

    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX,
                           Emin=decimal.MIN_EMIN, traps=[decimal.Inexact])


@lru_cache(maxsize=None)
def _pow2_decimal(k: int):
    """2^k as a Decimal, k a power of 2, from ``_STR_BITS`` bits on the
    square of 2^(k/2); cached, so integers under 2^20 bits share 7
    entries."""
    import decimal

    if k < _STR_BITS:
        return decimal.Decimal(1 << k)
    half = _pow2_decimal(k >> 1)
    return _exact_context().multiply(half, half)


def format_fraction(q: Fraction) -> str:
    """q as "p" or "p/q" in decimal, at any size (``format_integer``)."""
    num = format_integer(q.numerator)
    return num if q.denominator == 1 else f"{num}/{format_integer(q.denominator)}"


def poly_divide_exact(p: Poly, q: Poly) -> Poly:
    """p / q, raising NonZeroRemainder unless the division is exact.

    q.num is c times a primitive g with c > 0; g divides p.num over Z
    whenever q divides p over Q (Gauss's lemma).
    """
    if q.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    g = _zprimitive(list(q.num))
    return _of([a * q.den for a in _zquo(p.num, g)], p.den * (q.num[-1] // g[-1]))


def poly_gcd(p: Poly, q: Poly) -> Poly:
    """Monic gcd: the primitive gcd of the numerators over its leading
    coefficient; zero when both are zero."""
    if p.is_zero() and q.is_zero():
        return ZERO
    g = _zgcd(list(p.num), list(q.num))
    return _of(g, g[-1])


def _constant_ratio(a, b, scale=1) -> Fraction:
    """scale * a/b for the integer rows a and b (ascending, trailing
    zeros allowed, b nonzero) when a is a constant multiple of b, else
    NotConstant; scale is an int or a Fraction.

    A nonzero a is c b exactly when deg a = deg b and a lc(b) = b lc(a)
    coefficientwise; then c is lc(a)/lc(b).  No gcd is taken: the rows
    may carry any common factor.
    """
    a, b = _trim(list(a)), _trim(list(b))
    if not a:
        return Fraction(0)
    la, lb = a[-1], b[-1]
    if len(a) == len(b) and all(x * lb == y * la for x, y in zip(a, b)):
        return Fraction(la * scale.numerator, lb * scale.denominator)
    raise NotConstant("the rational function is not constant")


class RatFun:
    """The quotient num/den of two Polys, den nonzero, kept as given.

    Whether it is constant is decided without a gcd (``constant_value``);
    the reduced form, num and den over their gcd with den monic, is
    computed only when ``repr`` reads it.  No program path builds one:
    the h rules test their integer rows with ``_constant_ratio``.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):
        raise AttributeError("RatFun is immutable")

    def constant_value(self) -> Fraction:
        """The constant this function equals, else NotConstant: with
        num = A/s and den = B/t, the constant ratio of the integer rows A
        and B times t/s (``_constant_ratio``)."""
        return _constant_ratio(self.num.num, self.den.num, Fraction(self.den.den, self.num.den))

    def __repr__(self):
        num, den = self.num, self.den
        g = poly_gcd(num, den)
        if g.degree >= 1:
            num, den = poly_divide_exact(num, g), poly_divide_exact(den, g)
        lead = den.leading()
        return f"RatFun({num / lead!r}, {den / lead!r})"


class IrrationalRoot(tuple):
    """(f, a, k, top_positive): a real root x of the square-free integer
    polynomial f (a tuple) without rational roots, so x is irrational;
    x is the only root of f in (a/2^k, (a+1)/2^k], k > 0, where f is
    positive at the right end exactly when top_positive.  f is the
    cofactor that rational_roots isolates: a square-free factor of the
    input with its rational roots divided out."""

    __slots__ = ()

    def rounded(self, c1: int, c0: int, d: int) -> float:
        """(c1 x + c0) / d correctly rounded to a double (ints, c1 and d
        nonzero).

        The bracket (lo/2^k, hi/2^k] around x, first the isolating
        interval, shrinks until the images of both its ends round to the
        same double; each image is an int/int true division, which
        CPython rounds correctly.  The map is monotone, increasing or
        decreasing, and so is rounding, so the image of x rounds to that
        double too.  The image of an irrational x is never halfway
        between two doubles, so the loop ends.

        Each step evaluates f exactly at the midpoint.  Once the bracket
        is 2^-e wide with e >= 8, a Newton step from the midpoint, with
        f' also evaluated exactly, proposes a bracket 2^g times narrower,
        of width 2^(1 - e - g), centred on its dyadic rounding.  It is
        kept only if it lies in the bracket and f changes sign across
        it, -top at its left end and top at its right end.  Otherwise the
        bracket is bisected with the midpoint value already in hand.
        Every bracket holds x, so the result is the same as by bisection
        alone.  The width factor 2^g adapts as in Abbott's quadratic
        interval refinement ("Quadratic interval refinement for real
        roots", 2014): g starts at e - 3 (below e = 8 a proposal, 4
        evaluations for e - 3 bits, gains less than bisecting, 1
        evaluation a bit); Newton's error shrinks quadratically, so after
        a success the next g is twice the last, and each bisection adds
        one.  A proposal refused while the Newton point lies in the
        bracket was too narrow, as near a close neighbouring root: g is
        halved, and the next proposal comes at the next step.  One whose
        Newton point leaves the bracket, or whose g is below 4, was made
        too early: the next waits until e has doubled.  So near clustered
        roots the proposals narrow until they hold, instead of failing at
        every e.
        """
        f, lo, k, top = self
        hi, df, newton_at, slack = lo + 1, _zderiv(f), 8, 3
        while True:
            num, den = c1 * lo + (c0 << k), d << k
            x = num / den
            if x == (num + c1 * (hi - lo)) / den:
                return x
            mid, k1 = lo + hi, k + 1  # the midpoint is mid / 2^k1
            fm = _zeval(f, mid, 1 << k1)
            e = k1 - (hi - lo).bit_length()  # the bracket is 2^-e wide
            if e >= newton_at:
                dm = _zeval(df, mid, 1 << k1)
                g = e - slack  # the proposal is 2^g times narrower
                inside = False
                if dm:
                    # c / 2^K: the Newton point mid / 2^k1 - f / f', rounded
                    K = e + g + 1
                    n, q = (mid * dm - fm) << (K - k1), dm
                    if q < 0:
                        n, q = -n, -q
                    c = (2 * n + q) // (2 * q)
                    s = K - k
                    inside = lo << s <= c - 1 and c + 1 <= hi << s
                    if (inside and (_zeval(f, c - 1, 1 << K) > 0) != top
                            and (_zeval(f, c + 1, 1 << K) > 0) == top):
                        lo, hi, k = c - 1, c + 1, K
                        continue
                if inside and g >= 4:
                    slack, newton_at = e - g // 2, e + 1
                else:
                    newton_at = 2 * e
            lo, hi, k = (2 * lo, mid, k1) if (fm > 0) == top else (mid, 2 * hi, k1)


@dataclass(frozen=True)
class RootSet:
    """Exact rational roots plus a root-free residual factor.

    rational: (root, multiplicity) pairs, roots ascending.
    residual: primitive integer-coefficient Poly without rational roots
        (None when the input splits over Q).
    irrational: (root, multiplicity) pairs, one per distinct real root
        of the residual, each held exactly by its isolating interval on
        the rational-root-free cofactor of its square-free factor.
    residual_approx: real roots of the residual with multiplicity,
        ascending, each correctly rounded to a double; computed on first
        read.
    """

    rational: tuple[tuple[Fraction, int], ...]
    residual: Poly | None
    irrational: tuple[tuple[IrrationalRoot, int], ...]

    def rational_multiset(self) -> list[Fraction]:
        out = []
        for r, mult in self.rational:
            out.extend([r] * mult)
        return out

    def residual_images(self, c1: int, c0: int, d: int) -> tuple[float, ...]:
        """The real roots x of the residual mapped to (c1 x + c0) / d,
        each correctly rounded (IrrationalRoot.rounded), with
        multiplicity, ascending."""
        return tuple(sorted(x for r, mult in self.irrational
                            for x in [r.rounded(c1, c0, d)] * mult))

    @cached_property
    def residual_approx(self) -> tuple[float, ...]:
        return self.residual_images(1, 0, 1)

    def all_real_approx(self) -> list[float]:
        vals = [float(r) for r in self.rational_multiset()]
        vals.extend(self.residual_approx)
        return sorted(vals)


# ---------------------------------------------------------------------------
# exact real roots
#
# Integer polynomials in this section are lists of ints in ascending
# degree without trailing zeros; the empty list is the zero polynomial.
# No coefficient is ever converted to float.


def _zprimitive(f: list[int]) -> list[int]:
    """f divided by its positive content."""
    g = gcd(*f)
    return [c // g for c in f] if g > 1 else f


def _zderiv(f: list[int]) -> list[int]:
    return [i * c for i, c in enumerate(f)][1:]


def _zadd(f, g) -> list[int]:
    if len(f) < len(g):
        f, g = g, f
    out = list(f)
    for i, b in enumerate(g):
        out[i] += b
    return _trim(out)


def _zmul(f, g) -> list[int]:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return out


def _zrem(f: list[int], g: list[int]) -> list[int]:
    """Pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g."""
    lg, dg = g[-1], len(g) - 1
    f = list(f)
    for k in range(len(f) - dg - 1, -1, -1):
        c = f.pop()
        f = [lg * x for x in f]
        for j in range(dg):
            f[k + j] -= c * g[j]
    return _trim(f)


def _zquo(f: list[int], g: list[int]) -> list[int]:
    """f / g, where g is primitive and divides f over Q (so the quotient
    is integral, by Gauss's lemma)."""
    lg, dg = g[-1], len(g) - 1
    f = list(f)
    quo = [0] * (len(f) - dg)
    for k in range(len(quo) - 1, -1, -1):
        c, r = divmod(f.pop(), lg)
        if r:
            raise NonZeroRemainder(f"{g} does not divide the integer polynomial")
        quo[k] = c
        for j in range(dg):
            f[k + j] -= c * g[j]
    if any(f):
        raise NonZeroRemainder(f"{g} does not divide the integer polynomial")
    return quo


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[int, ...]:
    """Phi_n: z^n - 1 divided by Phi_d for every proper divisor d of n."""
    f = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            f = _zquo(f, _cyclotomic(d))
    return tuple(f)


@lru_cache(maxsize=None)
def minpoly_2cos(L: int) -> tuple[int, ...]:
    """Minimal polynomial of 2cos(pi/L) = z + 1/z, z = exp(i pi/L), L >= 2:
    z^-k Phi_2L(z) = c_k + sum_j c_(k+j) D_j(z + 1/z), with the Dickson
    polynomials D_0 = 2, D_1 = x, D_(j+1) = x D_j - D_(j-1)."""
    phi = _cyclotomic(2 * L)
    k = len(phi) // 2
    out, prev, cur = [phi[k]], [2], [0, 1]
    for j in range(1, k + 1):
        out = _zadd(out, [phi[k + j] * c for c in cur])
        prev, cur = cur, _zadd([0] + cur, [-c for c in prev])
    return tuple(out)


def _zgcd(f: list[int], g: list[int]) -> list[int]:
    """Primitive gcd with positive leading coefficient (primitive PRS)."""
    while g:
        f, g = g, _zprimitive(_zrem(f, g))
    f = _zprimitive(f)
    return f if f[-1] > 0 else [-c for c in f]


def _squarefree_factors(f: list[int]) -> list[tuple[list[int], int]]:
    """Yun's square-free decomposition of a primitive integer polynomial.

    Returns (a_i, i) for the nonconstant a_i in f = c * prod a_i^i, where
    the a_i are primitive, square-free and pairwise coprime.  Dividing
    the cofactors of each step by the same polynomial keeps Yun's
    identities exact over Z without passing to monic forms over Q.
    """
    out = []
    df = _zderiv(f)
    c = _zgcd(f, df)
    w, y = _zquo(f, c), _zquo(df, c)
    i = 1
    while len(w) > 1:
        z = _zadd(y, [-c for c in _zderiv(w)])
        a = _zgcd(w, z)
        if len(a) > 1:
            out.append((a, i))
        w, y = _zquo(w, a), _zquo(z, a)
        i += 1
    return out


def _zeval(f: list[int], num: int, den: int) -> int:
    """den^deg(f) * f(num/den), an integer with the sign of f(num/den)."""
    acc, pw = 0, 1
    for c in reversed(f):
        acc = acc * num + c * pw
        pw *= den
    return acc


def _root_bound_exp(f: list[int]) -> int:
    """e with every root of f inside (-2^e, 2^e), by Fujiwara's bound
    2 max |a_(d-i) / a_d|^(1/i), read off bit lengths."""
    d = len(f) - 1
    top = abs(f[-1]).bit_length()
    e = 0
    for i in range(1, d + 1):
        if f[d - i]:
            t = abs(f[d - i]).bit_length() - top + 1
            e = max(e, -(-t // i))
    return e + 1


def _taylor_shift(g: list[int]) -> list[int]:
    """g(y + 1), by Horner's scheme (Taylor shift by 1)."""
    g = list(g)
    for i in range(len(g) - 1):
        for j in range(len(g) - 2, i - 1, -1):
            g[j] += g[j + 1]
    return g


def _flip(f) -> list[int]:
    """f(-y): the coefficient of y^i times (-1)^i.  A shift by -1 is a
    flip, a shift by 1 and a flip."""
    return [-c if i & 1 else c for i, c in enumerate(f)]


def _scale(f, s: int, t: int) -> list[int]:
    """t^d f(s y / t) for f of degree d: the coefficient of y^i times
    s^i t^(d-i).  With a shift by 1 after it, it is the substitution of
    the integer line s (y + 1) / t."""
    out, pw = list(f), 1
    for i in range(len(out) - 2, -1, -1):
        pw *= t
        out[i] *= pw
    pw = 1
    for i in range(1, len(out)):
        pw *= s
        out[i] *= pw
    return out


def _sign_changes(b: list[int]) -> int:
    """Sign changes in the coefficients of b, zeros skipped."""
    signs = [c > 0 for c in b if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _left_half(b: list[int]) -> list[int]:
    """b(2y + 1): the Descartes form of an interval's left half."""
    return [c << i for i, c in enumerate(_taylor_shift(b))]


def _isolate(f: list[int]) -> list[IrrationalRoot]:
    """Real roots of a square-free integer polynomial without rational
    roots, ascending, each held by its isolating interval.

    Descartes' rule of signs with bisection (Collins & Akritas 1976;
    Rouillier & Zimmermann 2004) on g(y) = f(s 2^e y) in (0, 1), s = -1, 1
    (``_root_bound_exp``).  An interval carries g moved onto it, reversed
    and shifted by 1, whose sign changes exceed its roots by an even number
    and whose end coefficients have g's signs at its ends.  Its halves
    (``_left_half``; reversal mirrors) count at most its count together,
    so a right half is formed only if the left leaves it 2 or more; else
    it holds a root exactly when g changes sign across it.  A lone root is
    bisected on by g's sign at each midpoint until it is held by
    (a/2^k, (a+1)/2^k] with k >= 1.  No dyadic point is a root.
    """
    e, roots = _root_bound_exp(f), []
    for s in (-1, 1):
        g = [c * s**i << e * i for i, c in enumerate(f)]
        b = _taylor_shift(g[::-1])
        todo, found = [(b, _sign_changes(b), 0, 0)], []
        while todo:
            b, count, c, j = todo.pop()
            if count == 1:
                low = _zeval(g, c, 1 << j) > 0
                for j in range(j + 1, e + 2):
                    mid = _zeval(g, 2 * c + 1, 1 << j) > 0
                    c, low = (2 * c, low) if mid != low else (2 * c + 1, mid)
                a, k = (c if s > 0 else -c - 1), j - e
                found.append(IrrationalRoot((tuple(f), a, k, _zeval(f, a + 1, 1 << k) > 0)))
            elif count > 1:
                left = _left_half(b)
                left_count = _sign_changes(left)
                todo.append((left, left_count, 2 * c, j + 1))
                if count - left_count > 1:
                    right = _left_half(b[::-1])[::-1]
                    todo.append((right, _sign_changes(right), 2 * c + 1, j + 1))
                elif (left[0] > 0) != (b[0] > 0):
                    todo.append((None, 1, 2 * c + 1, j + 1))
        roots += found[::-s]  # right halves pop first: y descends, x too for s = 1
    return roots


# ---------------------------------------------------------------------------
# rational roots by p-adic lifting (Loos, "Computing rational zeros of
# integral polynomials by p-adic expansion", SIAM J. Comput. 1983; von zur
# Gathen & Gerhard, Modern Computer Algebra, ch. 5 and 15)
#
# A rational root u/v (lowest terms) of an integer polynomial f has u | a_0
# and v | a_n.  For a prime p that does not divide a_n, v is a unit mod p,
# so u/v reduces to a root of f mod p.

# The primes tried first as certificates that f is square-free; the one
# that certifies f is the modulus of its lift.
_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61)


def _primes():
    """Every odd prime, ascending."""
    p = 3
    while True:
        if all(p % q for q in range(3, isqrt(p) + 1, 2)):
            yield p
        p += 2


def _modeval(f, x: int, m: int) -> int:
    """f(x) mod m."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % m
    return acc


def _pgcd(f: list[int], g: list[int], p: int) -> list[int]:
    """A gcd in F_p[x] of f and g, both reduced mod p without trailing
    zeros."""
    while g:
        inv = pow(g[-1], -1, p)
        f = list(f)
        while len(f) >= len(g):
            c, s = f[-1] * inv % p, len(f) - len(g)
            for j, b in enumerate(g):
                f[s + j] = (f[s + j] - c * b) % p
            _trim(f)
        f, g = g, f
    return f


def _certifies_squarefree(f: list[int], p: int) -> bool:
    """p does not divide a_n and f mod p is square-free.  Every root of
    f mod p is then simple, and f is square-free over Q: a square factor
    of f keeps its degree mod p and stays a square factor there."""
    if not f[-1] % p:
        return False
    fp = [c % p for c in f]
    df = _trim([c % p for c in _zderiv(fp)])
    return len(_pgcd(fp, df, p)) == 1


def _reconstruct(x: int, m: int, cut: int) -> Fraction:
    """The fraction r/t = x mod m at the first remainder r <= cut of the
    extended Euclidean algorithm on (m, x).  Every u/v = x mod m with
    |u| <= cut and 0 < v <= m / (cut + 1) equals it (von zur Gathen &
    Gerhard, section 5.10)."""
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > cut:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    return Fraction(r1, t1)


def _padic_roots(f: list[int], p: int) -> tuple[list[Fraction], list[int]]:
    """The rational roots of f, and f divided by them.

    f is square-free with f(0) != 0, and p certifies it
    (_certifies_squarefree).  With no root mod p, f has no rational
    root.  Each root of f mod p is simple, so Newton's method lifts it to
    p^j for j = 1, 2, 4, ..., with the inverse of f' at the root lifted
    alongside.  At each precision each lift is reconstructed as a
    fraction, balanced while p^j is below 2 |a_0 a_n|, and kept only if
    f vanishes there exactly; so a root costs its own height.  Once
    p^j > 2 |a_0 a_n|, the reconstruction with |u| <= |a_0| finds every
    rational root that is left, so the lifts still undecided are not
    rational.  The lifting stops earlier once every lift has given its
    root.
    """
    df = _zderiv(f)
    fp = [c % p for c in f]
    lifts = [(x, pow(_modeval(df, x, p), -1, p)) for x in range(p) if not _modeval(fp, x, p)]
    a0 = abs(f[0])
    bound = 2 * a0 * abs(f[-1])
    top = max(1, int(bound.bit_length() / log2(p)))
    while p**top <= bound:
        top += 1
    found: list[Fraction] = []
    g = f
    j, m = 1, p
    while lifts:
        cut = a0 if j == top else min(a0, isqrt(m >> 1))
        live = []
        for x, s in lifts:
            r = _reconstruct(x, m, cut)
            u, v = r.numerator, r.denominator
            if not f[-1] % v and _zeval(f, u, v) == 0:
                found.append(r)
                g = _zquo(g, [-u, v])
            else:
                live.append((x, s))
        if not live or j == top:
            break
        j = min(2 * j, top)
        m = p**j
        lifts = []
        for x, s in live:
            x = (x - _modeval(f, x, m) * s) % m
            lifts.append((x, s * (2 - _modeval(df, x, m) * s) % m))
    return found, g


def _squarefree_with_primes(f: list[int]) -> list[tuple[list[int], int, int]]:
    """(a, i, p) for f = c * prod a^i, the a square-free and pairwise
    coprime, each with a prime p that certifies it.  Yun
    (_squarefree_factors) runs only when no prime of _SMALL_PRIMES
    certifies f itself; a square-free a has a certifying prime, since
    only the primes dividing a_n or the discriminant fail."""
    for p in _SMALL_PRIMES:
        if _certifies_squarefree(f, p):
            return [(f, 1, p)]
    return [(a, i, next(p for p in _primes() if _certifies_squarefree(a, p)))
            for a, i in _squarefree_factors(f)]


def rational_roots(p: Poly) -> RootSet:
    """Factor out every rational root of p, exactly.

    The primitive integer form, x^k taken out, is split into square-free
    factors, each with a prime p that certifies it square-free mod p
    (_squarefree_with_primes).  The rational roots of each factor come
    from its roots mod p, lifted p-adically and reconstructed
    (_padic_roots); a root of a factor of multiplicity i is deflated i
    times.  Only the cofactor left without rational roots is isolated
    (_isolate), and each of its real roots keeps its interval, refined
    no further here.  No integer is factored, so large prime factors in
    the coefficients cost nothing extra.  The returned factorization is
    re-multiplied and checked against the input before returning; a
    mismatch raises ``ArithmeticError``.
    """
    if p.is_zero():
        raise ValueError("rational_roots of the zero polynomial")
    prim = _zprimitive(list(p.num))

    # root 0 first: factor out x^k
    k0 = 0
    while prim[k0] == 0:
        k0 += 1
    work = prim[k0:]
    found: list[tuple[Fraction, int]] = [(Fraction(0), k0)] if k0 else []

    irrational: list[tuple[IrrationalRoot, int]] = []
    for factor, mult, q in _squarefree_with_primes(work):
        roots, cofactor = _padic_roots(factor, q)
        for r in roots:
            found.append((r, mult))
            for _ in range(mult):
                work = _zquo(work, [-r.numerator, r.denominator])
        if len(cofactor) > 1:
            irrational += [(x, mult) for x in _isolate(cofactor)]

    found.sort(key=lambda t: t[0])

    # exact audit: product of found factors times residual matches input
    rebuilt = work
    for r, mult in found:
        for _ in range(mult):
            rebuilt = _zmul(rebuilt, [-r.numerator, r.denominator])
    if rebuilt != prim:
        raise ArithmeticError("root extraction lost a factor")

    residual = _of(work, 1) if len(work) > 1 else None
    return RootSet(tuple(found), residual, tuple(irrational))


def real_roots(p: Poly) -> tuple[float, ...]:
    """Real roots of p with multiplicity, ascending, each correctly
    rounded to a double: a rational root from its exact value, an
    irrational one by refining its isolating interval exactly, with
    sign-checked Newton steps and bisection (IrrationalRoot.rounded)."""
    return tuple(rational_roots(p).all_real_approx())
