"""Combinatorial invariant algorithms on bare Coxeter diagrams.

Five recursive procedures recover the Coxeter number, exponents, and
facet-count polynomials from a diagram alone: the Euler-characteristic
linear equation, the root-reflection symmetry of the facet polynomial,
reciprocity between facet counts and positive facet counts (a one-shot
m=1 version and the full polynomial version), and the recursion on the
count of fully supported reflections.  Applied to diagrams of infinite
type they produce "fake" invariants; failure is a first-class result,
recorded per method, never an exception out of compute_all.

The recursions run on the subset lattice of the diagram and memoize by
the isomorphism class of each subdiagram (``SubsetLattice.key``), so
each runs once per class, not once per vertex subset.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .diagram import CoxeterDiagram, SubsetLattice, classify, subset_lattice
from .exactmath import (
    NonZeroRemainder,
    NotConstant,
    Poly,
    RatFun,
    _zprimitive,
    format_fraction,
    poly_divide_exact,
    rational_roots,
)
from .formulas import f_plus_poly, face_polys

F = Fraction
ONE = Poly([1])

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
        res = self.residual.coeffs if self.residual is not None else None
        return (self.rational, res)


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


def _fail(exc: MethodFailure) -> MethodResult:
    return MethodResult(status=exc.status, detail=exc.detail)


_NOT_APPLICABLE = "invariants are defined for connected nonempty diagrams"


def _connected_lattice(G: CoxeterDiagram) -> SubsetLattice:
    lat = subset_lattice(G)
    if len(lat.components(lat.full)) != 1:
        raise MethodFailure("not-applicable", _NOT_APPLICABLE)
    return lat


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
    rationals = sorted(-h * mu - 1 for mu in roots.rational_multiset())
    if roots.residual is None:
        return ExponentData(tuple(rationals), None)
    # map the residual to the exponent variable: mu = -(e+1)/h
    num = _zprimitive(list(roots.residual.compose(Poly([F(-1, h), F(-1, h)])).num))
    residual = Poly(num if num[-1] > 0 else [-c for c in num])
    # and each irrational root: with h = p/q, e = (-p mu - q) / q
    p, q = h.numerator, h.denominator
    return ExponentData(tuple(rationals), residual, roots.residual_images(-p, -q, q))


def _status_for_h(h: Fraction) -> tuple[str, tuple[str, ...]]:
    flags = []
    if h.denominator != 1:
        flags.append("non-integer-h")
    if h < 0:
        return "negative-h", tuple(flags)
    return "ok", tuple(flags)


def _base_result(lat: SubsetLattice, mask: int) -> MethodResult:
    """Postulated invariants of a connected mask of rank one or two."""
    if mask.bit_count() == 1:
        return MethodResult(
            status="ok",
            h=F(2),
            facet_poly=Poly([1, 1]),
            positive_poly=Poly([0, 1]),
            exponents=ExponentData((F(1),), None),
            full_support_count=F(1),
        )
    a = lat.label(mask)
    f2 = Poly([2, a]) * Poly([1, 1]) / 2
    return MethodResult(
        status="ok",
        h=F(a),
        facet_poly=f2,
        positive_poly=Poly([0, F(a - 2, 2), F(a, 2)]),
        exponents=ExponentData((F(1), F(a - 1)), None),
        full_support_count=F(a - 2),
    )


def _each_connected(lat: SubsetLattice, step) -> None:
    """Run ``step`` on every connected mask, lowest rank first.

    A step sees every proper connected subdiagram already computed.
    When steps fail, the failure raised is the least (by status, then
    detail) among those of the lowest failing rank, so which failure a
    method reports does not depend on the order of the vertices.
    """
    failures: list[MethodFailure] = []
    rank = 0
    for mask in lat.connected_masks():
        if failures and mask.bit_count() > rank:
            break
        try:
            step(mask)
        except MethodFailure as exc:
            failures.append(exc)
            rank = mask.bit_count()
    if failures:
        raise min(failures, key=lambda exc: (exc.status, exc.detail))


def _products(lat: SubsetLattice, connected, unit):
    """The product of ``connected(component)`` over the components of a
    mask, memoized per class (``lat.key``): a disconnected mask
    multiplies its lowest component by the memoized rest.  ``unit`` is
    the empty product."""
    memo = {lat.key(0): unit}

    def product(mask: int):
        cls = lat.key(mask)
        out = memo.get(cls)
        if out is None:
            comps = lat.components(mask)
            if len(comps) == 1:
                out = connected(mask)
            else:
                out = product(comps[0]) * product(mask ^ comps[0])
            memo[cls] = out
        return out

    return product


# ---------------------------------------------------------------------------
# Euler characteristic method


def euler_method(G: CoxeterDiagram) -> MethodResult:
    """Solve the alternating-sum identity for h, one linear equation.

    With the face recurrence substituted, the reduced Euler
    characteristic identity becomes A(m)*h + B(m) = 0 over the known
    subdiagram face polynomials; a finite-type diagram makes the
    solution a constant.
    """
    hs: dict[int, Fraction] = {}

    def h_of(mask: int, sums: tuple[Poly, ...]) -> Fraction:
        r = len(sums)
        top_prev = sums[r - 1].shifted_arg(-1)  # S_r evaluated at m-1
        A = Poly()
        B = Poly.const((-1) ** r)
        for k in range(1, r + 1):
            sign = (-1) ** (r - k)
            A = A + Poly([0, sign]) * sums[k - 1] / (2 * k)
            B = B + sums[k - 1] * F(sign, k)
        A = A - Poly([-1, 1]) * top_prev / (2 * r)
        B = B - top_prev / r
        if A.is_zero():
            raise MethodFailure("zero-denominator", "h-coefficient vanishes identically")
        try:
            h = hs[lat.key(mask)] = RatFun(-1 * B, A).constant_value()
        except NotConstant:
            raise MethodFailure(
                "non-constant-h", "alternating-sum equation has no constant solution"
            )
        return h

    try:
        lat = _connected_lattice(G)
        fp = face_polys(lat, h_of)
        _each_connected(lat, fp)
        npoly = fp(lat.full)[-1]
        h = hs[lat.key(lat.full)] if lat.rank > 2 else _base_result(lat, lat.full).h
        exps = exponents_from_facet_poly(npoly, h)
    except MethodFailure as exc:
        return _fail(exc)
    status, flags = _status_for_h(h)
    return MethodResult(
        status=status,
        h=h,
        facet_poly=npoly,
        positive_poly=f_plus_poly(npoly, G.rank),
        exponents=exps,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# symmetry-based method


def symmetry_method(G: CoxeterDiagram) -> MethodResult:
    """Use invariance of the facet-poly roots under reflection about
    their mean to pin h from two coefficients of Q = sum N(G') / (m+1)."""
    hs: dict[int, Fraction] = {}
    asymmetric: set[int] = set()

    def h_of(mask: int, sums: tuple[Poly, ...]) -> Fraction:
        r = len(sums)
        try:
            Q = poly_divide_exact(sums[r - 1], Poly([1, 1]))
        except NonZeroRemainder:
            raise MethodFailure(
                "non-polynomial-Q", "subdiagram facet sum not divisible by m+1"
            )
        if Q.degree != r - 2:
            raise MethodFailure(
                "zero-denominator", f"Q has degree {Q.degree}, expected {r - 2}"
            )
        ratio = Q.coeff(r - 3) / Q.coeff(r - 2)
        denom = 2 * ratio - (r - 2)
        if denom == 0:
            raise MethodFailure("zero-denominator", "mean-of-roots equation degenerates")
        h = 2 * (r - 2) / denom
        if h == 0:
            raise MethodFailure("zero-denominator", "h = 0")
        # audit: root multiset of Q invariant under mu -> -(h+2)/h - mu
        c = (h + 2) / h
        if Q.compose(Poly([-c, -1])) != Q * ((-1) ** Q.degree):
            asymmetric.add(lat.key(mask))
        hs[lat.key(mask)] = h
        return h

    try:
        lat = _connected_lattice(G)
        fp = face_polys(lat, h_of)
        _each_connected(lat, fp)
        npoly = fp(lat.full)[-1]
        h = hs[lat.key(lat.full)] if lat.rank > 2 else _base_result(lat, lat.full).h
        exps = exponents_from_facet_poly(npoly, h)
    except MethodFailure as exc:
        return _fail(exc)
    status, flags = _status_for_h(h)
    if lat.key(lat.full) in asymmetric:
        status = "asymmetric-Q"
    if asymmetric - {lat.key(lat.full)}:
        flags = tuple(sorted(set(flags) | {"subgraph-asymmetric-Q"}))
    return MethodResult(
        status=status,
        h=h,
        facet_poly=npoly,
        positive_poly=f_plus_poly(npoly, G.rank),
        exponents=exps,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# reciprocity methods


def reciprocity_simple_method(G: CoxeterDiagram) -> MethodResult:
    """Three linear equations in h, N(G), N+(G) at m = 1."""
    cache: dict[int, tuple[Fraction, Fraction, Fraction]] = {}

    def connected(mask: int) -> tuple[Fraction, Fraction, Fraction]:
        cls = lat.key(mask)
        res = cache.get(cls)
        if res is not None:
            return res
        r = mask.bit_count()
        if r <= 2:
            base = _base_result(lat, mask)
            res = (base.h, base.facet_poly(1), base.positive_poly(1))
        else:
            S = sum((n_at_1(sub) for sub in lat.codim1(mask)), F(0))
            T = sum((nplus_at_1(sub) for sub in lat.codim1(mask)), F(0))
            U = sum((nplus_at_1(sub) for sub in lat.submasks(mask) if sub != mask), F(0))
            den = S - 2 * T
            if den == 0:
                raise MethodFailure("zero-denominator", "3x3 reciprocity system is singular")
            h = (2 * r * U - 2 * S - 2 * T) / den
            res = (h, (h + 2) * S / (2 * r), (h - 1) * T / r)
        cache[cls] = res
        return res

    try:
        lat = _connected_lattice(G)
        # N and N+ at m=1 of any mask, products over its components
        n_at_1 = _products(lat, lambda mask: connected(mask)[1], F(1))
        nplus_at_1 = _products(lat, lambda mask: connected(mask)[2], F(1))
        _each_connected(lat, connected)
        h, n1, np1 = connected(lat.full)
        npoly = face_polys(lat, lambda mask, sums: connected(mask)[0])(lat.full)[-1]
        exps = exponents_from_facet_poly(npoly, h)
    except MethodFailure as exc:
        return _fail(exc)
    status, flags = _status_for_h(h)
    flagset = set(flags)
    ppoly = f_plus_poly(npoly, G.rank)
    if npoly(1) != n1 or ppoly(1) != np1:
        flagset.add("poly-mismatch")
    return MethodResult(
        status=status,
        h=h,
        facet_poly=npoly,
        positive_poly=ppoly,
        exponents=exps,
        flags=tuple(sorted(flagset)),
    )


def reciprocity_general_method(G: CoxeterDiagram) -> MethodResult:
    """Full polynomial reciprocity: h as a rational function of m that
    must collapse to a constant."""
    cache: dict[int, tuple[Fraction, Poly]] = {}

    def connected(mask: int) -> tuple[Fraction, Poly]:
        cls = lat.key(mask)
        res = cache.get(cls)
        if res is not None:
            return res
        r = mask.bit_count()
        if r <= 2:
            base = _base_result(lat, mask)
            res = (base.h, base.positive_poly)
        else:
            P = sum((nplus(sub) for sub in lat.codim1(mask)), Poly())
            # sum of N+(H) over the subsets H of each size up to r - 2
            by_size = [Poly()] * (r - 1)
            for sub in lat.submasks(mask):
                size = sub.bit_count()
                if size <= r - 2:
                    by_size[size] = by_size[size] + nplus(sub)
            W = sum((g * (r - s) for s, g in enumerate(by_size)), Poly())
            Xs = sum((g * s for s, g in enumerate(by_size)), Poly())
            num = ((r - 2) * P + Xs) * 2
            den = Poly([0, 1]) * W - P
            if den.is_zero():
                raise MethodFailure("zero-denominator", "reciprocity denominator is 0")
            try:
                h = RatFun(num, den).constant_value()
            except NotConstant:
                raise MethodFailure(
                    "non-constant-h", "reciprocity h is a non-constant function of m"
                )
            res = (h, Poly([h - 2, h]) * P / (2 * r))
        cache[cls] = res
        return res

    try:
        lat = _connected_lattice(G)
        nplus = _products(lat, lambda mask: connected(mask)[1], ONE)
        _each_connected(lat, connected)
        h, nplus_top = connected(lat.full)
        npoly = sum((nplus(sub) for sub in lat.submasks(lat.full)), Poly())
        exps = exponents_from_facet_poly(npoly, h)
    except MethodFailure as exc:
        return _fail(exc)
    status, flags = _status_for_h(h)
    return MethodResult(
        status=status,
        h=h,
        facet_poly=npoly,
        positive_poly=nplus_top,
        exponents=exps,
        flags=flags,
    )


# ---------------------------------------------------------------------------
# fully-supported-reflection count method


def mg_method(G: CoxeterDiagram) -> MethodResult:
    """Recursion on the number of reflections outside proper parabolics.

    The count is zero for disconnected diagrams, so only connected
    subgraphs enter the sums; h then follows from the total reflection
    count identity and the face polynomials from the recurrence.
    """
    mcache: dict[int, Fraction] = {}
    sigma2_cache: dict[int, Fraction] = {}

    def m_connected(mask: int) -> Fraction:
        cls = lat.key(mask)
        res = mcache.get(cls)
        if res is not None:
            return res
        r = mask.bit_count()
        if r <= 2:
            res = _base_result(lat, mask).full_support_count
        else:
            sigma1 = sum(
                (m_connected(sub) for sub in lat.codim1(mask)
                 if len(lat.components(sub)) == 1),
                F(0),
            )
            den = r * (r - 1) - sigma1
            if den == 0:
                raise MethodFailure(
                    "zero-denominator", "full-support recursion denominator is 0"
                )
            res = sigma1 * sigma2(mask) / den
        mcache[cls] = res
        return res

    def sigma2(mask: int) -> Fraction:
        cls = lat.key(mask)
        total = sigma2_cache.get(cls)
        if total is None:
            r = mask.bit_count()
            total = sigma2_cache[cls] = sum(
                (m_connected(sub) for sub in lat.submasks(mask)
                 if 2 <= sub.bit_count() <= r - 1 and len(lat.components(sub)) == 1),
                F(0),
            )
        return total

    def h_of(mask: int) -> Fraction:
        r = mask.bit_count()
        if r <= 2:
            return _base_result(lat, mask).h
        return 2 * (m_connected(mask) + sigma2(mask) + r) / r

    try:
        lat = _connected_lattice(G)
        _each_connected(lat, m_connected)
        mg = m_connected(lat.full)
        h = h_of(lat.full)
        npoly = face_polys(lat, lambda mask, sums: h_of(mask))(lat.full)[-1]
        exps = exponents_from_facet_poly(npoly, h)
    except MethodFailure as exc:
        return _fail(exc)
    status, flags = _status_for_h(h)
    return MethodResult(
        status=status,
        h=h,
        facet_poly=npoly,
        positive_poly=f_plus_poly(npoly, G.rank),
        exponents=exps,
        full_support_count=mg,
        flags=flags,
    )


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
        out["exponents"] = [str(e) for e in cls.exponents]
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


# The subset recursions walk up to 2^rank masks, once per isomorphism
# class.  A rank limit does not bound their work: the rank-12 star (one
# vertex joined to eleven; 2059 connected masks in 12 classes) takes
# 3.5 s (Python 3.11, shared 2-vCPU host), 2.4 of its 4.2 profiled
# seconds in _decide_root deciding which roots are rational, while the
# five methods on A14 take 0.23 s.  So the budget stays at 12 rather
# than growing with the speed of A_r.
RANK_BUDGET = 12


def compute_all(G: CoxeterDiagram, methods=None) -> InvariantReport:
    """Run the requested methods (default all) and compare answers."""
    report = InvariantReport(G)
    names = list(METHODS) if methods is None else list(methods)
    lat = subset_lattice(G)
    if len(lat.components(lat.full)) != 1:
        for name in names:
            report.methods[name] = MethodResult(status="not-applicable", detail=_NOT_APPLICABLE)
        report.consensus = "partial"
        return report
    if G.rank > RANK_BUDGET:
        for name in names:
            report.methods[name] = MethodResult(
                status="budget-exceeded",
                detail=f"rank {G.rank} exceeds the recursion budget {RANK_BUDGET}",
            )
        report.consensus = "partial"
        return report
    if G.rank <= 2:
        for name in names:
            res = _base_result(lat, lat.full)
            if name != "mg":
                res.full_support_count = None
            report.methods[name] = res
        report.consensus = "agree"
        return report
    for name in names:
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
                res.flags = tuple(sorted(set(res.flags) | {"specialization-suspect"}))

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
