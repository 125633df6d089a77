"""Combinatorial invariant algorithms on bare Coxeter diagrams.

Five recursive procedures recover the Coxeter number, exponents, and
facet-count polynomials from a diagram alone: the Euler-characteristic
linear equation, the root-reflection symmetry of the facet polynomial,
reciprocity between facet counts and positive facet counts (a one-shot
m=1 version and the full polynomial version), and the recursion on the
count of fully supported reflections.  Applied to diagrams of infinite
type they produce "fake" invariants; failure is a first-class result,
recorded per method, never an exception out of compute_all.

All five run in one frame, ``_solve``: it checks the diagram, postulates
ranks one and two, builds the face polynomials by the vertex-deletion
recurrence (``formulas.face_polys``) with the method's h of each
subdiagram, and reads off N, N+, the exponents and the status.  A method
supplies only its h rule, plus at most a short step on its result.  The
recursions run on the class table of the diagram's subset lattice: they
take class ids, read a class's codim-1 child classes or its split into
components from the table, and keep their memos in lists indexed by
class, so each runs once per isomorphism class of subdiagram, not once
per vertex subset, and a failing class fails once.  The three sums over
every proper submask (U of ``reciprocity_simple``, sigma2 of ``mg`` and
the graded sum of ``reciprocity_general``) read the lattice's census of
the class (``SubsetLattice.census``): one term per class of submask,
its count an integer weight inside one ``exactmath._rows_sum``, and one
walk over the submasks per class for all the methods of a report.

The rules carry their per-class values as integer rows over one
denominator, (row, den), a number at m = 1, M and sigma as rows of
length 1: products over the components of a class unreduced
(``_products``), sums over the lcm of the denominators, one reduction
per connected class (``exactmath._lowest``); only each h is a Fraction.
The h rules read the integer rows of the face vectors:
``reciprocity_simple`` its m = 1 numbers, at 1 and -2.  Euler's A and B
and the two sides of ``reciprocity_general`` are integer combinations of
the rows, and h is their constant ratio, decided by cross-multiplying
(``exactmath._constant_ratio``).  Symmetry's Q is the facet sum's row
divided by m + 1; its audit and the map of the residual to the exponent
variable substitute a line with integer ends, one scale and one shift
by 1 (``_symmetric``, ``_exponent_row``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, lru_cache
from math import gcd

from .diagram import CoxeterDiagram, SubsetLattice, classify, is_connected, subset_lattice
from .exactmath import (
    NonZeroRemainder,
    NotConstant,
    Poly,
    PolyVec,
    _combine,
    _constant_ratio,
    _flip,
    _lowest,
    _of,
    _rows_sum,
    _scale,
    _taylor_shift,
    _trim,
    _zmul,
    _zeval,
    _zquo,
    format_fraction,
    rational_roots,
)
from .formulas import _lcm_upto, f_plus_poly, face_polys

F = Fraction
_M = Poly([0, 1])
_M_PLUS_1 = Poly([1, 1])

# statuses that still produced a full numeric answer
YIELDING = ("ok", "negative-h", "asymmetric-Q")


class MethodFailure(Exception):
    def __init__(self, status: str, detail: str):
        super().__init__(f"{status}: {detail}")
        self.status = status
        self.detail = detail


@dataclass(frozen=True)
class ExponentData:
    """Exponent multiset: exact rationals plus an irrational residual.

    ``residual`` is a primitive integer polynomial in the exponent
    variable, free of rational roots; its real roots are the irrational
    exponents, ascending in ``residual_approx``, each correctly rounded
    to a double (``exactmath.IrrationalRoot.rounded``).  ``approx`` lists
    every real exponent with multiplicity, ascending, the rationals
    rounded from their exact value.
    """

    rational: tuple[Fraction, ...]
    residual: Poly | None
    residual_approx: tuple[float, ...] = ()

    @property
    def approx(self) -> tuple[float, ...]:
        return tuple(sorted([*map(float, self.rational), *self.residual_approx]))

    def key(self):
        res = self.residual
        return (self.rational, None if res is None else (res.num, res.den))


@dataclass
class MethodResult:
    status: str
    h: Fraction | None = None
    facet_poly: Poly | None = None
    positive_poly: Poly | None = None
    exponents: ExponentData | None = None
    full_support_count: Fraction | None = None
    flags: tuple[str, ...] = ()
    detail: str = ""

    @property
    def yielded(self) -> bool:
        return self.status in YIELDING

    def agreement_key(self):
        return (self.h, self.exponents.key() if self.exponents else None)


def exponents_from_facet_poly(npoly: Poly, h: Fraction) -> ExponentData:
    """Exponents from the roots of the facet-count polynomial, via the
    correspondence root = -(e+1)/h."""
    if h == 0:
        raise MethodFailure("zero-denominator", "h = 0 admits no exponents")
    return _exponents(npoly, h)


@lru_cache(maxsize=64)
def _exponents(npoly: Poly, h: Fraction) -> ExponentData:
    """Root extraction, once per distinct (N, h): the methods of one
    report usually share their facet polynomial.  The roots are isolated
    and decided rational or irrational once, in mu; each irrational root
    is then refined in its mu-interval until the images of both ends
    under e = -h mu - 1 round alike."""
    roots = rational_roots(npoly)
    # with h = p/q: e = (-p mu - q) / q, one Fraction for each rational mu
    p, q = h.numerator, h.denominator
    rationals = sorted(F(-p * mu.numerator - q * mu.denominator, q * mu.denominator)
                       for mu in roots.rational_multiset())
    if roots.residual is None:
        return ExponentData(tuple(rationals), None)
    residual = _of(_exponent_row(roots.residual.num, p, q), 1)
    return ExponentData(tuple(rationals), residual, roots.residual_images(-p, -q, q))


def _exponent_row(a, p: int, q: int) -> list[int]:
    """The integer polynomial a(mu) of degree d in the exponent variable,
    mu = -(e+1)/h with h = p/q in lowest terms: p^d a(-q(e+1)/p), a's
    scale by (-q, p) shifted by 1, made primitive with a positive
    leading coefficient.

    The shift keeps the content, and a prime divides at most one of p
    and q, so the content is gcd_i(a_i p^(d-i)) gcd_i(a_i q^i) over a's
    own content: gcds of numbers of a's size, where the scaled row's
    coefficients are about d + 1 times as long."""
    num = _taylor_shift(_scale(a, -q, p))
    g = _scaled_content(a[::-1], p) * _scaled_content(a, q) // gcd(*a)
    if num[-1] < 0:
        g = -g
    return [c // g for c in num] if g != 1 else num


def _scaled_content(a, x: int) -> int:
    """gcd_i(a_i x^i), each term after the first nonzero one reduced
    modulo the gcd so far."""
    g = 0
    for i, c in enumerate(a):
        g = gcd(g, c % g * pow(x, i, g) if g else c * x**i)
    return g


_SCREEN = (1 << 61) - 1  # a Mersenne prime


def _symmetric(a, s: int, t: int) -> bool:
    """Whether the integer polynomial a of degree d has a(-c - x) =
    (-1)^d a(x), c = s/t (t nonzero, in any terms): whether its roots are
    symmetric about -c/2.

    For s nonzero, x = c y turns both sides into rows of b = t^d a(c y),
    a's scale by (s, t): b(-1 - y), the shift by 1 of b flipped, against
    (-1)^d b(y).  For s = 0 it compares a flipped with (-1)^d a.  The
    rows are compared modulo the prime ``_SCREEN`` first: the identity
    over Z implies it there, so a difference refutes it without scaling
    the full-size coefficients, about d + 1 times a's length."""
    sign = -1 if len(a) % 2 == 0 else 1  # (-1)^d
    if not s:
        return _flip(a) == [sign * c for c in a]

    def defects(b):  # b(-1 - y) - (-1)^d b(y), coefficientwise
        return (x - sign * y for x, y in zip(_taylor_shift(_flip(b)), b))

    P = _SCREEN
    if any(x % P for x in defects(_scale([c % P for c in a], s % P, t % P))):
        return False
    g = gcd(s, t)
    return not any(defects(_scale(a, s // g, t // g)))


def _status_for_h(h: Fraction) -> tuple[str, tuple[str, ...]]:
    flags = []
    if h.denominator != 1:
        flags.append("non-integer-h")
    if h < 0:
        return "negative-h", tuple(flags)
    return "ok", tuple(flags)


def _postulates(lat: SubsetLattice, cls: int) -> tuple[Fraction, Poly, Poly, Fraction]:
    """h, N, N+ and M of a connected class of rank one or two, postulated."""
    return _postulated(lat.label(lat.least[cls]) if lat.ranks[cls] == 2 else None)


@cache
def _postulated(a: int | None) -> tuple[Fraction, Poly, Poly, Fraction]:
    """The postulates of rank one (a None) or of rank two with label a."""
    if a is None:
        return F(2), _M_PLUS_1, _M, F(1)
    return F(a), _of([2, a], 2) * _M_PLUS_1, _of([0, a - 2, a], 2), F(a - 2)


def _each_connected(lat: SubsetLattice, step) -> None:
    """Run ``step`` once on every connected class, lowest rank first.

    A step sees every proper connected subdiagram already computed.
    When steps fail, the failure raised is the least (by status, then
    detail) among those of the lowest failing rank, so which failure a
    method reports does not depend on the order of the vertices; a
    failing class fails once.
    """
    failures: list[MethodFailure] = []
    rank = 0
    for cls in lat.connected:
        if failures and lat.ranks[cls] > rank:
            break
        try:
            step(cls)
        except MethodFailure as exc:
            failures.append(exc)
            rank = lat.ranks[cls]
    if failures:
        raise min(failures, key=lambda exc: (exc.status, exc.detail))


def _per_class(lat: SubsetLattice, fn):
    """``fn`` of a class, memoized in a list indexed by class.  A failure
    is not memoized: ``_each_connected`` asks about a failing class
    once."""
    memo: list = [None] * len(lat.least)

    def get(cls: int):
        out = memo[cls]
        if out is None:
            out = memo[cls] = fn(cls)
        return out

    return get


def _products(lat: SubsetLattice, connected):
    """The product of ``connected(component)`` over the components of a
    class, memoized per class, each value an integer row over a
    denominator, (row, den): a connected class's value reduced once
    (``_lowest``), a disconnected class the unreduced product of the two
    classes of its split (``lat.split``), the empty class ([1], 1)."""

    def product(cls: int):
        split = lat.split[cls]
        if split is not None:
            (a, d), (b, e) = memo(split[0]), memo(split[1])
            return _zmul(a, b), d * e
        return _lowest(*connected(cls)) if lat.ranks[cls] else ([1], 1)

    memo = _per_class(lat, product)
    return memo


def _flag(res: MethodResult, flag: str) -> None:
    res.flags = tuple(sorted({*res.flags, flag}))


# The lattice's class table sweeps all 2^rank masks, and the recursions
# then step once per isomorphism class.  A rank limit does not bound
# their work: the rank-12 star (one vertex joined to eleven; 2059
# connected masks in 12 classes) takes 0.045 s for the five methods in
# process (best of 5, Python 3.11, shared 2-vCPU host), 0.023 s of it in
# building the class table with its 2059 tree keys, and 0.02 of 0.13
# profiled seconds in root extraction,
# while A12 takes 0.010 s and, with the budget lifted, A14 0.024 s and
# A20 1.0 s.  On infinite diagrams the coefficients grow too, by about
# 5x in bits per rank, and nothing bounds them yet.  So the budget stays
# at 12 rather than growing with the speed of A_r.  ``_solve`` checks it
# for every method, called directly or through ``compute_all``.
RANK_BUDGET = 12

_NOT_APPLICABLE = "invariants are defined for connected nonempty diagrams"


def _solve(G: CoxeterDiagram, rule) -> MethodResult:
    """The frame every method runs in: the method supplies its h rule.

    The diagram must be connected, then within ``RANK_BUDGET``.
    ``rule(lat, faces)`` sets the method up on the subset lattice and
    returns ``(h_of, finish)``; ``faces(cls)`` is the face walk
    (``formulas.face_polys``) built with the method's own h, a class's
    face polynomials f_0..f_r as one ``PolyVec``.  ``h_of(cls, sums)``
    is the h of a connected class of rank >= 3, given the sums of the
    face polynomials one vertex down; ranks one and two are postulated.
    When ``h_of`` runs, ``faces`` has walked every connected class
    inside ``cls`` and may read any class inside it.  A rule whose h
    does not read the faces runs its own ``_each_connected`` pass inside
    ``rule(lat, faces)``, so that a failure stops it before any face
    polynomial is built.  The facet polynomial
    N is the top face polynomial, N+ its reciprocal, and the exponents
    are read off the roots of N.  ``finish(res)``, unless None, adjusts
    a yielding result.  A ``MethodFailure`` becomes a result carrying
    its status.
    """
    try:
        if G.rank > RANK_BUDGET:  # no lattice: its neighbour masks cost rank^2 bits
            if not is_connected(G):
                raise MethodFailure("not-applicable", _NOT_APPLICABLE)
            raise MethodFailure(
                "budget-exceeded", f"rank {G.rank} exceeds the recursion budget {RANK_BUDGET}"
            )
        lat = subset_lattice(G)
        top = lat.key(lat.full)
        if lat.children[top] is None:
            raise MethodFailure("not-applicable", _NOT_APPLICABLE)
        h = _postulates(lat, top)[0] if lat.rank <= 2 else None

        def h_of(cls: int, sums: PolyVec) -> Fraction:
            nonlocal h  # the walk ends at the top class: its h is the last
            h = rule_h(cls, sums)
            return h

        fp = face_polys(lat, h_of)
        rule_h, finish = rule(lat, fp)
        _each_connected(lat, fp)
        npoly = fp(top)[-1]
        exps = exponents_from_facet_poly(npoly, h)
    except MethodFailure as exc:
        return MethodResult(status=exc.status, detail=exc.detail)
    status, flags = _status_for_h(h)
    res = MethodResult(status, h, npoly, f_plus_poly(npoly, lat.rank), exps, flags=flags)
    if finish is not None:
        finish(res)
    return res


# ---------------------------------------------------------------------------
# Euler characteristic method


def euler_method(G: CoxeterDiagram) -> MethodResult:
    """Solve the alternating-sum identity for h, one linear equation.

    With the face recurrence substituted, the reduced Euler
    characteristic identity becomes A(m)*h + B(m) = 0 over the known
    subdiagram face polynomials; a finite-type diagram makes the
    solution a constant.
    """

    def h_of(cls: int, sums: PolyVec) -> Fraction:
        # with C = sum_k (-1)^(r-k) S_k / k and T = -S_r(m - 1) / r:
        # A = (mC + (m - 1)T) / 2 and B = (-1)^r + C + T; over L den(sums),
        # L = lcm(1..r), C and T are the integer rows c and t, so B is
        # beta and A is alpha over twice that, and h = -B/A = -2 beta/alpha
        r, rows = len(sums), sums.rows
        L = _lcm_upto(r)
        c = _combine(rows, [(-1) ** (r - k) * (L // k) for k in range(1, r + 1)])
        t = [-(L // r) * x for x in _flip(_taylor_shift(_flip(rows[r - 1])))]  # S_r(m - 1)
        alpha = _combine([[0, *c], [0, *t], t], [1, 1, -1])
        beta = _combine([c, t, [L * sums.den]], [1, 1, (-1) ** r])
        if not any(alpha):
            raise MethodFailure("zero-denominator", "h-coefficient vanishes identically")
        try:
            return _constant_ratio(beta, alpha, -2)
        except NotConstant:
            raise MethodFailure(
                "non-constant-h", "alternating-sum equation has no constant solution"
            )

    return _solve(G, lambda lat, faces: (h_of, None))


# ---------------------------------------------------------------------------
# symmetry-based method


def symmetry_method(G: CoxeterDiagram) -> MethodResult:
    """Use invariance of the facet-poly roots under reflection about
    their mean to pin h from two coefficients of Q = sum N(G') / (m+1)."""

    def rule(lat: SubsetLattice, faces):
        asymmetric: set[int] = set()  # the classes whose Q fails the audit

        def h_of(cls: int, sums: PolyVec) -> Fraction:
            # Q's integer row: the facet sum's row over m + 1
            r = len(sums)
            try:
                Q = _zquo(_trim(list(sums.rows[r - 1])), [1, 1])
            except NonZeroRemainder:
                raise MethodFailure(
                    "non-polynomial-Q", "subdiagram facet sum not divisible by m+1"
                )
            if len(Q) - 1 != r - 2:
                raise MethodFailure(
                    "zero-denominator", f"Q has degree {len(Q) - 1}, expected {r - 2}"
                )
            # with a/b the ratio of Q's top two coefficients, b nonzero:
            # h = 2(r - 2)/(2a/b - (r - 2)), never 0, and c = (h + 2)/h
            # = 2a/((r - 2)b)
            a, b = Q[r - 3], Q[r - 2]
            denom = 2 * a - (r - 2) * b
            if denom == 0:
                raise MethodFailure("zero-denominator", "mean-of-roots equation degenerates")
            # audit: root multiset of Q invariant under mu -> -c - mu
            if not _symmetric(Q, 2 * a, (r - 2) * b):
                asymmetric.add(cls)
            return F(2 * (r - 2) * b, denom)

        def finish(res: MethodResult) -> None:
            top = lat.key(lat.full)
            if top in asymmetric:
                res.status = "asymmetric-Q"
            if asymmetric - {top}:
                _flag(res, "subgraph-asymmetric-Q")

        return h_of, finish

    return _solve(G, rule)


# ---------------------------------------------------------------------------
# reciprocity methods


def reciprocity_simple_method(G: CoxeterDiagram) -> MethodResult:
    """Three linear equations in h, N(G), N+(G) at m = 1.

    With S and T the sums of N(1) and N+(1) one vertex down and U that
    of N+(1) over every proper subset: h = (2rU - 2S - 2T)/(S - 2T),
    N(1) = (h + 2)S/(2r), N+(1) = (h - 1)T/r.  These are the frame's N
    = (hm + 2)/(2r) times the facet sum and N+(m) = (-1)^r N(-m - 1) at
    m = 1, so S and T are the facet sum at 1 and, signed, at -2, and
    N+(1) of a connected class of rank k is (-1)^k times its top face
    polynomial at -2.
    """

    def rule(lat: SubsetLattice, faces):
        def top_at_minus_2(cls: int) -> tuple[list[int], int]:
            r, v = lat.ranks[cls], faces(cls)
            return [(-1) ** r * _zeval(v.rows[r], -2, 1)], v.den

        nplus_at_1 = _products(lat, top_at_minus_2)

        def h_of(cls: int, sums: PolyVec) -> Fraction:
            # S = s/den and T = t/den; h = (2r den U - 2(s + t))/(s - 2t)
            r, row = len(sums), sums.rows[-1]
            s, t = sum(row), (-1) ** (r - 1) * _zeval(row, -2, 1)
            if s == 2 * t:
                raise MethodFailure("zero-denominator", "3x3 reciprocity system is singular")
            [[u]], ud = _rows_sum(((0, *nplus_at_1(sub), n) for sub, n in lat.census(cls)), 1)
            return F(2 * r * sums.den * u - 2 * (s + t) * ud, (s - 2 * t) * ud)

        return h_of, None

    return _solve(G, rule)


def reciprocity_general_method(G: CoxeterDiagram) -> MethodResult:
    """Full polynomial reciprocity: h as a rational function of m that
    must collapse to a constant.

    Over the subsets H of a mask of rank r, with P the sum of N+ one
    vertex down, W and X the sums of (r - |H|) N+(H) and |H| N+(H) over
    |H| <= r - 2: h(mW - P) = 2((r - 2)P + X) holds identically exactly
    when the face recurrence's N = (hm + 2)(W + P)/(2r) equals the sum
    of N+(H) over every H, and N+ = (hm + h - 2)P/(2r) is the reciprocal
    of N by induction.  So the frame's N and N+, built with this h, are
    those of the recursion.
    """

    def rule(lat: SubsetLattice, faces):
        def solve(cls: int) -> tuple[Fraction, tuple[list[int], int]]:
            r = lat.ranks[cls]
            if r <= 2:
                h, _, ppoly, _ = _postulates(lat, cls)
                return h, (list(ppoly.num), ppoly.den)
            # the sums of N+(H) over the proper subsets H of each size,
            # one term per class; P the last; num = 2((r - 2)P + X); P, W,
            # num and den = mW - P are integer rows over d
            rows, d = _rows_sum(((lat.ranks[sub], *nplus(sub), n) for sub, n in lat.census(cls)), r)
            P = rows[r - 1]
            W = _combine(rows, [r - s for s in range(r - 1)])
            num = _combine(rows, [2 * s for s in range(r - 1)] + [2 * (r - 2)])
            den = _combine([[0, *W], P], [1, -1])
            if not any(den):
                raise MethodFailure("zero-denominator", "reciprocity denominator is 0")
            try:
                h = _constant_ratio(num, den)
            except NotConstant:
                raise MethodFailure(
                    "non-constant-h", "reciprocity h is a non-constant function of m"
                )
            # N+ = (hm + h - 2) P / (2r)
            hn, hd = h.numerator, h.denominator
            return h, (_zmul([hn - 2 * hd, hn], P), 2 * r * hd * d)

        connected = _per_class(lat, solve)
        nplus = _products(lat, lambda cls: connected(cls)[1])
        _each_connected(lat, connected)
        return (lambda cls, sums: connected(cls)[0]), None

    return _solve(G, rule)


# ---------------------------------------------------------------------------
# fully-supported-reflection count method


def mg_method(G: CoxeterDiagram) -> MethodResult:
    """Recursion on the number of reflections outside proper parabolics.

    The count is zero for disconnected diagrams, so only connected
    subgraphs enter the sums; h then follows from the total reflection
    count identity and the face polynomials from the recurrence.  M and
    the sums sigma1 and sigma2 are rows of length 1 over a denominator.
    """

    def rule(lat: SubsetLattice, faces):
        children, ranks = lat.children, lat.ranks

        def full_support(cls: int) -> tuple[list[int], int]:
            r = ranks[cls]
            if r <= 2:
                M = _postulates(lat, cls)[3]
                return [M.numerator], M.denominator
            # sigma1 = a/b, sigma2 = c/e: M = sigma1 sigma2 / (r(r - 1) - sigma1)
            [[a]], b = _rows_sum(((0, *m_connected(sub), 1)
                                  for sub in children[cls] if children[sub] is not None), 1)
            [[c]], e = sigma2(cls)
            den = r * (r - 1) * b - a
            if den == 0:
                raise MethodFailure(
                    "zero-denominator", "full-support recursion denominator is 0"
                )
            return _lowest([a * c], e * den)

        def connected_sum(cls: int) -> tuple[list[list[int]], int]:
            census = [(sub, n) for sub, n in lat.census(cls)
                      if ranks[sub] >= 2 and children[sub] is not None]
            return _rows_sum(((0, *m_connected(sub), n) for sub, n in census), 1)

        m_connected = _per_class(lat, full_support)
        sigma2 = _per_class(lat, connected_sum)
        _each_connected(lat, m_connected)

        def h_of(cls: int, sums: PolyVec) -> Fraction:
            # h = 2(M + sigma2 + r)/r
            ([a], b), ([[c]], e) = m_connected(cls), sigma2(cls)
            r = ranks[cls]
            return F(2 * (a * e + c * b + r * b * e), r * b * e)

        def finish(res: MethodResult) -> None:
            [a], b = m_connected(lat.key(lat.full))
            res.full_support_count = F(a, b)

        return h_of, finish

    return _solve(G, rule)

# ---------------------------------------------------------------------------
# aggregation


METHODS = {
    "euler": euler_method,
    "symmetry": symmetry_method,
    "reciprocity_simple": reciprocity_simple_method,
    "reciprocity_general": reciprocity_general_method,
    "mg": mg_method,
}

METHOD_ALIASES = {
    "euler": "euler",
    "symmetry": "symmetry",
    "recip": "reciprocity_simple",
    "recipm": "reciprocity_general",
    "mg": "mg",
}


@dataclass
class InvariantReport:
    diagram: CoxeterDiagram
    methods: dict[str, MethodResult] = field(default_factory=dict)
    consensus: str = "partial"

    def to_json(self) -> dict:
        out = {
            "diagram": self.diagram.to_spec(),
            "classification": _classification_json(self.diagram),
            "methods": {
                name: _method_json(res) for name, res in self.methods.items()
            },
            "consensus": self.consensus,
        }
        return out


def _classification_json(G: CoxeterDiagram) -> dict:
    cls = classify(G)
    out = {"kind": cls.kind, "rank": cls.rank}
    if cls.type_name:
        out["type"] = cls.type_name
    if cls.coxeter_number is not None and cls.kind == "finite":
        out["h"] = format_fraction(cls.coxeter_number)
        out["exponents"] = [format_fraction(e) for e in cls.exponents]
    return out


def _method_json(res: MethodResult) -> dict:
    out: dict = {"status": res.status}
    if res.flags:
        out["flags"] = list(res.flags)
    if res.detail:
        out["detail"] = res.detail
    if res.h is not None:
        out["h"] = format_fraction(res.h)
    if res.facet_poly is not None:
        out["N_poly"] = res.facet_poly.serialize()
    if res.positive_poly is not None:
        out["Nplus_poly"] = res.positive_poly.serialize()
    if res.full_support_count is not None:
        out["M"] = format_fraction(res.full_support_count)
    if res.exponents is not None:
        exps: list = [format_fraction(e) for e in res.exponents.rational]
        if res.exponents.residual is not None:
            exps.append(
                {
                    "poly": res.exponents.residual.serialize(),
                    "approx": list(res.exponents.residual_approx),
                }
            )
        out["exponents"] = exps
        out["exponents_approx"] = list(res.exponents.approx)
    return out


def compute_all(G: CoxeterDiagram, methods=None) -> InvariantReport:
    """Run the requested methods (default all) and compare answers."""
    report = InvariantReport(G)
    for name in METHODS if methods is None else methods:
        report.methods[name] = METHODS[name](G)

    # The m=1 and m=0 methods are specializations of the general
    # reciprocity answer; when the latter is a non-constant function of
    # m, their leftover constants carry no meaning and are excluded
    # from consensus.
    general = report.methods.get("reciprocity_general")
    if general is not None and not general.yielded:
        for name in ("reciprocity_simple", "mg"):
            res = report.methods.get(name)
            if res is not None and res.yielded:
                _flag(res, "specialization-suspect")

    keys = [
        r.agreement_key()
        for r in report.methods.values()
        if r.yielded and "specialization-suspect" not in r.flags
    ]
    if len(keys) >= 2:
        report.consensus = "agree" if len(set(keys)) == 1 else "disagree"
    else:
        report.consensus = "partial"
    return report
