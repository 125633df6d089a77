"""Combinatorial invariant algorithms on bare Coxeter diagrams.

Five recursive procedures recover the Coxeter number, exponents, and
facet-count polynomials from a diagram alone: the Euler-characteristic
linear equation, the root-reflection symmetry of the facet polynomial,
reciprocity between facet counts and positive facet counts (a one-shot
m=1 version and the full polynomial version), and the recursion on the
count of fully supported reflections.  Applied to diagrams of infinite
type they produce "fake" invariants; failure is a first-class result,
recorded per method, never an exception out of compute_all.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

from .diagram import (
    CoxeterDiagram,
    classify,
    codim1_subdiagrams,
    connected_components,
    induced_subdiagram,
)
from .exactmath import (
    NonZeroRemainder,
    NotConstant,
    Poly,
    RatFun,
    format_fraction,
    poly_divide_exact,
    rational_roots,
    real_roots,
)
from .formulas import f_polys_recursive, f_plus_poly

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
    exponents.  ``approx`` lists every real exponent with multiplicity,
    ascending: rationals rounded from their exact value, irrational ones
    isolated and bisected exactly to within 2^-52 relative, then rounded
    (``exactmath.real_roots``).
    """

    rational: tuple[Fraction, ...]
    residual: Poly | None
    approx: tuple[float, ...]

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


def _label(D: CoxeterDiagram) -> int:
    v1, v2 = D.vertices
    return D.label(v1, v2)


def exponents_from_facet_poly(npoly: Poly, h: Fraction) -> ExponentData:
    """Exponents from the roots of the facet-count polynomial, via the
    correspondence root = -(e+1)/h."""
    if h == 0:
        raise MethodFailure("zero-denominator", "h = 0 admits no exponents")
    roots = rational_roots(npoly)
    rationals = sorted(-h * mu - 1 for mu in roots.rational_multiset())
    residual = None
    approx = [float(e) for e in rationals]
    if roots.residual is not None:
        # map the residual to the exponent variable: mu = -(e+1)/h
        transformed = roots.residual.compose(Poly([F(-1, h), F(-1, h)]))
        ints = transformed * lcm(*[c.denominator for c in transformed.coeffs])
        content = gcd(*[int(c) for c in ints.coeffs])
        residual = ints / (content if ints.leading() > 0 else -content)
        approx.extend(real_roots(residual))
    return ExponentData(tuple(rationals), residual, tuple(sorted(approx)))


def _status_for_h(h: Fraction) -> tuple[str, tuple[str, ...]]:
    flags = []
    if h.denominator != 1:
        flags.append("non-integer-h")
    if h < 0:
        return "negative-h", tuple(flags)
    return "ok", tuple(flags)


def _base_result(D: CoxeterDiagram) -> MethodResult:
    """Postulated invariants for ranks one and two."""
    if D.rank == 1:
        return MethodResult(
            status="ok",
            h=F(2),
            facet_poly=Poly([1, 1]),
            positive_poly=Poly([0, 1]),
            exponents=ExponentData((F(1),), None, (1.0,)),
            full_support_count=F(1),
        )
    a = _label(D)
    f2 = Poly([2, a]) * Poly([1, 1]) / 2
    return MethodResult(
        status="ok",
        h=F(a),
        facet_poly=f2,
        positive_poly=Poly([0, F(a - 2, 2), F(a, 2)]),
        exponents=ExponentData((F(1), F(a - 1)), None, (1.0, float(a - 1))),
        full_support_count=F(a - 2),
    )


# ---------------------------------------------------------------------------
# Euler characteristic method


def euler_method(G: CoxeterDiagram) -> MethodResult:
    """Solve the alternating-sum identity for h, one linear equation.

    With the face recurrence substituted, the reduced Euler
    characteristic identity becomes A(m)*h + B(m) = 0 over the known
    subdiagram face polynomials; a finite-type diagram makes the
    solution a constant.
    """
    cache: dict[frozenset, tuple[Fraction, list[Poly]]] = {}

    def fpolys(D: CoxeterDiagram) -> list[Poly]:
        comps = connected_components(D)
        if len(comps) == 1:
            return connected(comps[0])[1]
        out = [ONE]
        for c in comps:
            cf = connected(c)[1]
            new = [Poly() for _ in range(len(out) + len(cf) - 1)]
            for i, p in enumerate(out):
                for j, q in enumerate(cf):
                    new[i + j] = new[i + j] + p * q
            out = new
        return out

    def connected(D: CoxeterDiagram) -> tuple[Fraction, list[Poly]]:
        key = frozenset(D.vertices)
        if key in cache:
            return cache[key]
        r = D.rank
        if r <= 2:
            base = _base_result(D)
            if r == 1:
                res = (base.h, [ONE, Poly([1, 1])])
            else:
                a = _label(D)
                res = (base.h, [ONE, Poly([2, a]), base.facet_poly])
        else:
            subs = [fpolys(sub) for _, sub in codim1_subdiagrams(D)]
            S = [None] + [
                sum((fs[k - 1] for fs in subs), Poly()) for k in range(1, r + 1)
            ]
            S_top_prev = S[r].shifted_arg(-1)  # S_r evaluated at m-1
            A = Poly()
            B = Poly.const((-1) ** r)
            for k in range(1, r + 1):
                sign = (-1) ** (r - k)
                A = A + Poly([0, sign]) * S[k] / (2 * k)
                B = B + S[k] * F(sign, k)
            A = A - Poly([-1, 1]) * S_top_prev / (2 * r)
            B = B - S_top_prev / r
            if A.is_zero():
                raise MethodFailure(
                    "zero-denominator", "h-coefficient vanishes identically"
                )
            try:
                h = RatFun(-1 * B, A).constant_value()
            except NotConstant:
                raise MethodFailure(
                    "non-constant-h", "alternating-sum equation has no constant solution"
                )
            fp = [ONE] + [Poly([2, h]) * S[k] / (2 * k) for k in range(1, r + 1)]
            res = (h, fp)
        cache[key] = res
        return res

    try:
        h, fp = connected(G)
    except MethodFailure as exc:
        return _fail(exc)
    npoly = fp[G.rank]
    try:
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
    cache: dict[frozenset, tuple[Fraction, Poly]] = {}
    flags: set[str] = set()
    top_key = frozenset(G.vertices)
    top_asym = [False]

    def npoly(D: CoxeterDiagram) -> Poly:
        comps = connected_components(D)
        out = ONE
        for c in comps:
            out = out * connected(c)[1]
        return out

    def connected(D: CoxeterDiagram) -> tuple[Fraction, Poly]:
        key = frozenset(D.vertices)
        if key in cache:
            return cache[key]
        r = D.rank
        if r <= 2:
            base = _base_result(D)
            res = (base.h, base.facet_poly)
        else:
            total = sum(
                (npoly(sub) for _, sub in codim1_subdiagrams(D)), Poly()
            )
            try:
                Q = poly_divide_exact(total, Poly([1, 1]))
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
                raise MethodFailure(
                    "zero-denominator", "mean-of-roots equation degenerates"
                )
            h = 2 * (r - 2) / denom
            if h == 0:
                raise MethodFailure("zero-denominator", "h = 0")
            # audit: root multiset of Q invariant under mu -> -(h+2)/h - mu
            c = (h + 2) / h
            reflected = Q.compose(Poly([-c, -1]))
            if reflected != Q * ((-1) ** Q.degree):
                if key == top_key:
                    top_asym[0] = True
                else:
                    flags.add("subgraph-asymmetric-Q")
            N = Poly([2, h]) * Poly([1, 1]) * Q / (2 * r)
            res = (h, N)
        cache[key] = res
        return res

    try:
        h, npoly_top = connected(G)
        exps = exponents_from_facet_poly(npoly_top, h)
    except MethodFailure as exc:
        return _fail(exc)
    status, hflags = _status_for_h(h)
    if top_asym[0]:
        status = "asymmetric-Q"
    return MethodResult(
        status=status,
        h=h,
        facet_poly=npoly_top,
        positive_poly=f_plus_poly(npoly_top, G.rank),
        exponents=exps,
        flags=tuple(sorted(set(hflags) | flags)),
    )


# ---------------------------------------------------------------------------
# reciprocity methods


def reciprocity_simple_method(G: CoxeterDiagram) -> MethodResult:
    """Three linear equations in h, N(G), N+(G) at m = 1."""
    cache: dict[frozenset, tuple[Fraction, Fraction, Fraction]] = {}

    def values(D: CoxeterDiagram) -> tuple[Fraction, Fraction]:
        """(N, N+) at m=1 for a possibly disconnected diagram."""
        n_val, p_val = F(1), F(1)
        for c in connected_components(D):
            _, nv, pv = connected(c)
            n_val *= nv
            p_val *= pv
        return n_val, p_val

    def connected(D: CoxeterDiagram) -> tuple[Fraction, Fraction, Fraction]:
        key = frozenset(D.vertices)
        if key in cache:
            return cache[key]
        r = D.rank
        if r == 1:
            res = (F(2), F(2), F(1))
        elif r == 2:
            a = _label(D)
            res = (F(a), F(a + 2), F(a - 1))
        else:
            S = T = F(0)
            for _, sub in codim1_subdiagrams(D):
                nv, pv = values(sub)
                S += nv
                T += pv
            U = F(0)
            verts = list(D.vertices)
            for mask in range(1 << r):
                if mask == (1 << r) - 1:
                    continue
                subset = [v for t, v in enumerate(verts) if mask >> t & 1]
                U += values(induced_subdiagram(D, subset))[1]
            den = S - 2 * T
            if den == 0:
                raise MethodFailure(
                    "zero-denominator", "3x3 reciprocity system is singular"
                )
            h = (2 * r * U - 2 * S - 2 * T) / den
            res = (h, (h + 2) * S / (2 * r), (h - 1) * T / r)
        cache[key] = res
        return res

    def h_of(D: CoxeterDiagram) -> Fraction:
        return connected(D)[0]

    try:
        h, n1, np1 = connected(G)
        npoly = f_polys_recursive(G, h_of)[G.rank]
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
    cache: dict[frozenset, tuple[Fraction, Poly]] = {}

    def ppoly(D: CoxeterDiagram) -> Poly:
        out = ONE
        for c in connected_components(D):
            out = out * connected(c)[1]
        return out

    def connected(D: CoxeterDiagram) -> tuple[Fraction, Poly]:
        key = frozenset(D.vertices)
        if key in cache:
            return cache[key]
        r = D.rank
        if r <= 2:
            base = _base_result(D)
            res = (base.h, base.positive_poly)
        else:
            P = sum((ppoly(sub) for _, sub in codim1_subdiagrams(D)), Poly())
            W = Poly()  # sum over small subsets of (r - |H|) N+(H)
            Xs = Poly()  # sum over small subsets of |H| N+(H)
            verts = list(D.vertices)
            for mask in range(1 << r):
                size = bin(mask).count("1")
                if size > r - 2:
                    continue
                subset = [v for t, v in enumerate(verts) if mask >> t & 1]
                val = ppoly(induced_subdiagram(D, subset))
                W = W + val * (r - size)
                Xs = Xs + val * size
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
            nplus = Poly([h - 2, h]) * P / (2 * r)
            res = (h, nplus)
        cache[key] = res
        return res

    try:
        h, nplus = connected(G)
        npoly = Poly()
        verts = list(G.vertices)
        for mask in range(1 << G.rank):
            subset = [v for t, v in enumerate(verts) if mask >> t & 1]
            if len(subset) == G.rank:
                npoly = npoly + nplus
            else:
                npoly = npoly + ppoly(induced_subdiagram(G, subset))
        exps = exponents_from_facet_poly(npoly, h)
    except MethodFailure as exc:
        return _fail(exc)
    status, flags = _status_for_h(h)
    return MethodResult(
        status=status,
        h=h,
        facet_poly=npoly,
        positive_poly=nplus,
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
    mcache: dict[frozenset, Fraction] = {}
    sigma2_cache: dict[frozenset, Fraction] = {}

    def m_connected(D: CoxeterDiagram) -> Fraction:
        key = frozenset(D.vertices)
        if key in mcache:
            return mcache[key]
        r = D.rank
        if r == 1:
            res = F(1)
        elif r == 2:
            res = F(_label(D) - 2)
        else:
            sigma1 = F(0)
            for _, sub in codim1_subdiagrams(D):
                comps = connected_components(sub)
                if len(comps) == 1:
                    sigma1 += m_connected(comps[0])
            den = r * (r - 1) - sigma1
            if den == 0:
                raise MethodFailure(
                    "zero-denominator", "full-support recursion denominator is 0"
                )
            res = sigma1 * sigma2(D) / den
        mcache[key] = res
        return res

    def sigma2(D: CoxeterDiagram) -> Fraction:
        key = frozenset(D.vertices)
        if key in sigma2_cache:
            return sigma2_cache[key]
        total = F(0)
        verts = list(D.vertices)
        r = D.rank
        for mask in range(1 << r):
            size = bin(mask).count("1")
            if not 2 <= size <= r - 1:
                continue
            subset = [v for t, v in enumerate(verts) if mask >> t & 1]
            sub = induced_subdiagram(D, subset)
            comps = connected_components(sub)
            if len(comps) == 1:
                total += m_connected(sub)
        sigma2_cache[key] = total
        return total

    def h_of(D: CoxeterDiagram) -> Fraction:
        r = D.rank
        if r == 1:
            return F(2)
        if r == 2:
            return F(_label(D))
        return 2 * (m_connected(D) + sigma2(D) + r) / r

    try:
        mg = m_connected(G)
        h = h_of(G)
        npoly = f_polys_recursive(G, h_of)[G.rank]
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
            irr_approx = [
                x
                for x in res.exponents.approx
                if all(abs(x - float(r)) > 1e-7 for r in res.exponents.rational)
            ]
            exps.append(
                {
                    "poly": res.exponents.residual.serialize(),
                    "approx": irr_approx,
                }
            )
        out["exponents"] = exps
        out["exponents_approx"] = list(res.exponents.approx)
    return out


RANK_BUDGET = 12  # the subset recursions walk 2^rank induced subgraphs


def compute_all(G: CoxeterDiagram, methods=None) -> InvariantReport:
    """Run the requested methods (default all) and compare answers."""
    report = InvariantReport(G)
    names = list(METHODS) if methods is None else list(methods)
    comps = connected_components(G)
    if G.rank == 0 or len(comps) != 1:
        for name in names:
            report.methods[name] = MethodResult(
                status="not-applicable",
                detail="invariants are defined for connected nonempty diagrams",
            )
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
        from dataclasses import replace

        for name in names:
            res = replace(_base_result(G))
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
