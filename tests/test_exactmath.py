import os
import subprocess
import sys
from fractions import Fraction as F
from decimal import Decimal
from math import cos, gcd, isqrt, lcm, pi, prod
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ccx
from ccx import exactmath
from ccx.exactmath import (
    NonZeroRemainder,
    NotConstant,
    Poly,
    RatFun,
    format_fraction,
    format_integer,
    minpoly_2cos,
    PolyVec,
    poly_divide_exact,
    poly_gcd,
    poly_sum,
    rational_roots,
    real_roots,
    vec_convolve,
    vec_sum,
)
from face_oracle import poly_dot


def poly_shift(p: Poly) -> Poly:
    """p(x - 1), the substitution behind the h-polynomial."""
    return p.shifted_arg(-1)


def test_eval_product():
    p = Poly([1, 1]) * Poly([2, 3])  # (m+1)(3m+2)
    assert p(1) == 10
    assert p(F(1, 2)) == F(21, 4)


def test_eval_dihedral_face_poly():
    # (am+2)(m+1)/2 with a=4 at m=3
    p = Poly([2, 4]) * Poly([1, 1]) / 2
    assert p(3) == 28


def test_subtraction_to_zero():
    p = Poly([3, -2, 5])
    assert (p - p).is_zero()
    assert p - p == Poly()


def test_shift_square():
    assert poly_shift(Poly([0, 0, 1])) == Poly([1, -2, 1])


def test_shift_pentagon_f_to_h():
    # F(x) = x^2 + 5x + 5 becomes x^2 + 3x + 1
    assert poly_shift(Poly([5, 5, 1])) == Poly([1, 3, 1])


def test_shift_constant():
    assert poly_shift(Poly([1])) == Poly([1])


def test_divide_exact():
    p = Poly([1, 1]) * Poly([2, 3])
    assert poly_divide_exact(p, Poly([1, 1])) == Poly([2, 3])


def test_divide_three_edge_sum():
    # sum over labels a1,a2,a3 of (a_i m + 2)(m+1)/2, divided by m+1
    a = (4, 3, 2)
    total = Poly()
    for ai in a:
        total = total + Poly([2, ai]) * Poly([1, 1]) / 2
    q = poly_divide_exact(total, Poly([1, 1]))
    assert q == Poly([3, F(sum(a), 2)])  # (am+6)/2


def test_divide_nonexact_raises():
    with pytest.raises(NonZeroRemainder):
        poly_divide_exact(Poly([1, 0, 1]), Poly([1, 1]))


def test_ratfun_constant():
    assert RatFun(Poly([4, 2]), Poly([2, 1])).constant_value() == 2


def test_ratfun_not_constant():
    with pytest.raises(NotConstant):
        RatFun(Poly([1, 0, 1]), Poly([1, 1])).constant_value()


def test_rational_roots_dihedral_facet_poly():
    p = Poly([2, 3]) * Poly([1, 1]) / 2  # N(A2, m)
    rs = rational_roots(p)
    assert rs.rational == ((F(-1), 1), (F(-2, 3), 1))
    assert rs.residual is None


def test_rational_roots_multiplicity():
    rs = rational_roots(Poly([0, 0, 1]))
    assert rs.rational == ((F(0), 2),)


def test_rational_roots_irrational_residual():
    # (m^2 - 2)(m - 1/3): rational root 1/3, residual m^2 - 2
    p = Poly([-2, 0, 1]) * Poly([F(-1, 3), 1])
    rs = rational_roots(p)
    assert rs.rational == ((F(1, 3), 1),)
    assert list(rs.residual.coeffs) == [-2, 0, 1]
    assert rs.residual_approx == pytest.approx((-(2**0.5), 2**0.5), abs=1e-9)


def test_rational_roots_large_prime_factors():
    # (m - 1000003)(m - 1000033): both primes lie above any trial-division bound
    rs = rational_roots(Poly([1000003 * 1000033, -2000036, 1]))
    assert rs.rational == ((F(1000003), 1), (F(1000033), 1))
    assert rs.residual is None


def test_residual_with_huge_coefficients():
    # A m^2 - (2A + 1) with 1100-bit A: roots +-sqrt(2 + 1/A), past float range
    a = 3**701
    rs = rational_roots(Poly([-(2 * a + 1), 0, a]))
    assert rs.rational == ()
    assert list(rs.residual.coeffs) == [-(2 * a + 1), 0, a]
    assert rs.residual_approx == pytest.approx((-(2**0.5), 2**0.5), abs=1e-9)


def test_real_roots_with_multiplicity():
    p = Poly([-2, 0, 1]) * Poly([-2, 0, 1]) * Poly([1, 1])
    expected = (-(2**0.5), -(2**0.5), -1.0, 2**0.5, 2**0.5)
    assert real_roots(p) == pytest.approx(expected, abs=1e-9)


def test_real_roots_across_a_sturm_degree_gap():
    # the Sturm sequence of m^4 + m - 1 drops from degree 3 to degree 1
    # under a negative leading coefficient
    p = Poly([-1, 1, 0, 0, 1])
    roots = real_roots(p)
    assert len(roots) == 2
    eps = F(1, 10**9)
    for x in roots:
        assert p(F(x) - eps) * p(F(x) + eps) < 0
    assert real_roots(Poly([1, 1, 0, 0, 1])) == ()


small_fracs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
polys = st.lists(small_fracs, min_size=0, max_size=5).map(Poly)


@given(polys, polys)
@settings(max_examples=60, deadline=None)
def test_multiply_then_divide_roundtrips(p, q):
    if q.is_zero():
        return
    assert poly_divide_exact(p * q, q) == p


@given(polys, polys, small_fracs)
@settings(max_examples=60, deadline=None)
def test_eval_is_ring_homomorphism(p, q, x):
    assert (p + q)(x) == p(x) + q(x)
    assert (p * q)(x) == p(x) * q(x)


@given(polys, polys)
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(p, q):
    g = poly_gcd(p, q)
    if g.is_zero():
        assert p.is_zero() and q.is_zero()
        return
    poly_divide_exact(p, g)
    poly_divide_exact(q, g)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_root_extraction_reassembles(p):
    if p.is_zero():
        return
    # rational_roots asserts the exact refactorization internally
    rs = rational_roots(p)
    assert sum(mult for _, mult in rs.rational) + (
        rs.residual.degree if rs.residual is not None else 0
    ) == p.degree


@given(polys, st.integers(min_value=-3, max_value=3))
@settings(max_examples=40, deadline=None)
def test_shift_agrees_pointwise(p, x):
    assert poly_shift(p)(x) == p(x - 1)


def _canonical(p: Poly) -> bool:
    return p.den > 0 and gcd(p.den, *p.num) == 1 and (not p.num or p.num[-1] != 0)


def scalar_sum(qs, ws=None) -> F:
    """The sum of the ints and Fractions qs, each times its int weight in
    ws (1 if ws is None), as one row of length 1 through ``_rows_sum``,
    read as a Fraction; its denominator is checked to be the lcm of the
    terms' denominators, unreduced."""
    qs = [F(q) for q in qs]
    ws = [1] * len(qs) if ws is None else list(ws)
    [row], den = exactmath._rows_sum(
        ((0, [q.numerator], q.denominator, w) for q, w in zip(qs, ws)), 1)
    assert den == lcm(*[q.denominator for q in qs]) and len(row) == min(len(qs), 1)
    return F(sum(row), den)


@given(polys)
@settings(max_examples=60, deadline=None)
def test_serialize_prints_each_coefficient_in_lowest_terms(p):
    assert p.serialize() == [format_fraction(c) for c in p.coeffs]


def test_serialize_divides_each_coefficient_by_its_own_gcd():
    p = Poly([F(1, 2), 1, F(-3, 4), 0, F(5, 6)])  # num (6, 12, -9, 0, 10) over 12
    assert (p.num, p.den) == ((6, 12, -9, 0, 10), 12)
    assert p.serialize() == ["1/2", "1", "-3/4", "0", "5/6"]
    big = 1 << 14_000  # printed through ``format_integer``'s decimal path
    assert Poly([F(big, 3), F(-1, 3 * big)]).serialize() == [
        format_fraction(F(big, 3)), format_fraction(F(-1, 3 * big))]


def test_sums_of_nothing_and_of_zeros():
    assert poly_sum([]) == Poly() and _canonical(poly_sum([]))
    assert poly_sum(iter([Poly(), Poly(), Poly()])) == Poly()
    assert exactmath._rows_sum([], 1) == ([[]], 1) and scalar_sum([]) == 0
    assert exactmath._rows_sum(iter([(0, [0], 1, 1), (0, [0], 1, 5)]), 1) == ([[0]], 1)


def test_sums_that_cancel():
    p = Poly([F(1, 3), 2, F(-5, 7)])
    total = poly_sum([p, -p, p * 2, p * -2])
    assert total == Poly() and (total.num, total.den) == ((), 1)
    assert poly_sum([Poly([1, F(1, 2)]), Poly([0, F(-1, 2)])]) == Poly([1])
    assert exactmath._rows_sum(
        [(0, [q.numerator], q.denominator, 1) for q in (F(1, 6), F(-1, 3), F(1, 6))], 1) == ([[0]], 6)
    assert exactmath._rows_sum(
        [(0, [q.numerator], q.denominator, 1) for q in (F(1, 6), F(1, 3), F(2))], 1) == ([[15]], 6)


@given(st.lists(polys, max_size=8))
@settings(max_examples=100, deadline=None)
def test_poly_sum_is_the_pairwise_sum(terms):
    total = poly_sum(terms)
    assert total == sum(terms, Poly())
    assert _canonical(total)
    # a list of terms that cancel exactly sums to zero
    assert poly_sum(terms + [-t for t in terms]) == Poly()


@given(st.lists(st.one_of(st.integers(min_value=-50, max_value=50), small_fracs), max_size=10))
@settings(max_examples=100, deadline=None)
def test_scalar_rows_sum_is_the_pairwise_sum(terms):
    assert scalar_sum(iter(terms)) == sum(terms, F(0))
    assert scalar_sum(terms + [-t for t in terms]) == 0


@given(st.lists(st.tuples(st.one_of(st.integers(min_value=-50, max_value=50), small_fracs),
                          st.integers(min_value=-3, max_value=600)), max_size=10))
@settings(max_examples=100, deadline=None)
def test_weighted_rows_sum_scales_each_term(pairs):
    total = scalar_sum((q for q, _ in pairs), iter([n for _, n in pairs]))
    assert total == sum((q * n for q, n in pairs), F(0))


def _reduced_constant(num: Poly, den: Poly) -> F:
    """The constant num/den by reducing first: both divided by their gcd,
    den made monic, and a constant read off when both are of degree 0;
    else NotConstant."""
    g = poly_gcd(num, den)
    if g.degree >= 1:
        num, den = poly_divide_exact(num, g), poly_divide_exact(den, g)
    lead = den.leading()
    num, den = num / lead, den / lead
    if num.is_zero():
        return F(0)
    if num.degree == 0 and den.degree == 0:
        return num.coeff(0) / den.coeff(0)
    raise NotConstant


def _constant_or_not(num: Poly, den: Poly, decide) -> F | None:
    try:
        return decide(num, den)
    except NotConstant:
        return None


nonzero_polys = polys.filter(lambda p: not p.is_zero())


@st.composite
def quotients(draw):
    """num/den, times a common factor or not: num a multiple c * den
    (c = 0 among them), such a multiple with one coefficient moved, or
    drawn freely; den may be constant."""
    den = draw(nonzero_polys)
    kind = draw(st.sampled_from(["multiple", "moved", "free"]))
    if kind == "free":
        num = draw(polys)
    else:
        num = den * draw(small_fracs)
        if kind == "moved":
            i = draw(st.integers(min_value=0, max_value=den.degree))
            num = num + Poly([0] * i + [draw(small_fracs.filter(bool))])
    common = draw(st.one_of(st.just(Poly([1])), nonzero_polys))
    return num * common, den * common


@given(quotients())
@settings(max_examples=150, deadline=None)
def test_constant_test_agrees_with_reducing_first(pair):
    num, den = pair
    want = _constant_or_not(num, den, _reduced_constant)
    got = _constant_or_not(num, den, lambda a, b: RatFun(a, b).constant_value())
    assert got == want and (got is None or isinstance(got, F))


@pytest.mark.parametrize("num,den,value", [
    (Poly(), Poly([0, 0, 3]), F(0)),
    (Poly([F(3, 4)]), Poly([F(-5, 2)]), F(-3, 10)),
    (Poly([2, 4, 6]), Poly([F(1, 3), F(2, 3), 1]), F(6)),
    (Poly([1, 1]), Poly([1]), None),
    (Poly([1]), Poly([1, 1]), None),
    (Poly([2, 4, 7]), Poly([1, 2, 3]), None),
    # 2 * (1 + 2m + 3m^2 + 4m^3) with one coefficient moved
    (Poly([3, 4, 6, 8]), Poly([1, 2, 3, 4]), None),
    (Poly([2, 5, 6, 8]), Poly([1, 2, 3, 4]), None),
    (Poly([2, 4, 7, 8]), Poly([1, 2, 3, 4]), None),
    (Poly([2, 4, 6, 9]), Poly([1, 2, 3, 4]), None),
])
def test_constant_test_cases(num, den, value):
    got = _constant_or_not(num, den, lambda a, b: RatFun(a, b).constant_value())
    assert got == value == _constant_or_not(num, den, _reduced_constant)


@pytest.mark.parametrize("a,b,scale", [
    ([], [0, 0, 3], 1),  # a zero numerator
    ([0, 0], [1, 2], 5),  # zero, with trailing zeros
    ([2, 4, 6], [1, 2, 3], 1),
    ([2, 4, 6, 0], [1, 2, 3], -2),
    ([6, 12], [4, 8, 0, 0], F(1, 3)),
    ([0, 5], [0, -7], F(-3, 2)),
    ([2, 4, 7], [1, 2, 3], 1),  # non-constant, of equal degree
    ([3, 4, 6, 8], [1, 2, 3, 4], 1),
    ([2, 4, 6, 9, 0], [1, 2, 3, 4], -2),
    ([1], [1, 1], 1),
    ([1, 1], [1], 1),
])
def test_constant_ratio_of_rows_is_the_reduced_constant(a, b, scale):
    got = _constant_or_not(a, b, lambda x, y: exactmath._constant_ratio(x, y, scale))
    want = _constant_or_not(Poly(a), Poly(b), _reduced_constant)
    assert got == (None if want is None else want * scale)
    assert got is None or isinstance(got, F)


@given(quotients(), st.integers(min_value=1, max_value=40),
       st.integers(min_value=-40, max_value=-1), st.integers(min_value=0, max_value=2))
@settings(max_examples=150, deadline=None)
def test_constant_ratio_ignores_common_factors_and_trailing_zeros(pair, k1, k2, zeros):
    # rows k1 A and k2 B of num = A / s and den = B / t, padded with zeros:
    # the ratio of the rows times k2 t / (k1 s) is num / den
    num, den = pair
    a = [k1 * c for c in num.num] + [0] * zeros
    b = [k2 * c for c in den.num] + [0] * zeros
    scale = F(k2 * den.den, k1 * num.den)
    got = _constant_or_not(a, b, lambda x, y: exactmath._constant_ratio(x, y, scale))
    assert got == _constant_or_not(num, den, _reduced_constant)


def test_ratfun_repr_is_reduced():
    r = RatFun(Poly([2, 2]) * Poly([1, 2]), Poly([3, 3]) * Poly([0, 4]))
    assert repr(r) == "RatFun(Poly(1/6 + 1/3*m), Poly(1*m))"


def vec(polys) -> PolyVec:
    """The PolyVec of the Polys ``polys``, in order."""
    return exactmath._vec(*exactmath._rows_sum(
        ((k, p.num, p.den, 1) for k, p in enumerate(polys)), len(polys)))


def _reduced(v: PolyVec) -> bool:
    return v.den > 0 and gcd(v.den, *[c for row in v.rows for c in row]) == 1


def test_poly_dot_of_nothing_is_zero():
    assert poly_dot([]) == Poly() and _canonical(poly_dot([]))
    assert poly_dot(iter([(Poly(), Poly([1, 2]))])) == Poly()
    # the convolution's entries of no nonzero product are zero, canonical
    zero = vec_convolve(vec([Poly()]), vec([Poly(), Poly([1, 2])]))
    assert list(zero) == [Poly(), Poly()] and all(map(_canonical, zero)) and _reduced(zero)
    assert list(vec_convolve(vec([Poly([1, 2])]), vec([Poly()]))) == [Poly()]


@given(st.lists(st.tuples(polys, polys), max_size=6))
@settings(max_examples=60, deadline=None)
def test_poly_dot_is_the_sum_of_products(pairs):
    total = poly_dot(iter(pairs))
    assert total == sum((p * q for p, q in pairs), Poly())
    assert _canonical(total)
    if not pairs:
        return
    # vec_convolve's entry k is the sum of the products a_i b_(k-i)
    a, b = [p for p, _ in pairs], [q for _, q in pairs[::-1]]
    c = vec_convolve(vec(a), vec(b))
    assert len(c) == 2 * len(pairs) - 1 and _reduced(c)
    for k, entry in enumerate(c):
        want = poly_dot((a[i], b[k - i]) for i in range(len(a)) if 0 <= k - i < len(b))
        assert entry == want == sum((a[i] * b[k - i] for i in range(len(a))
                                     if 0 <= k - i < len(b)), Poly())
        assert _canonical(entry)
    assert c[len(pairs) - 1] == total  # the middle entry pairs a_i with b_(n-1-i)


@given(st.lists(st.lists(polys, min_size=1, max_size=4), min_size=1, max_size=5),
       st.integers(min_value=0, max_value=5))
@settings(max_examples=80, deadline=None)
def test_vec_sum_is_the_entrywise_poly_sum(vectors, n):
    total = vec_sum(map(vec, vectors), n)
    assert len(total) == n and _reduced(total)
    for k in range(n):
        assert total[k] == poly_sum(v[k] for v in vectors if k < len(v))
        assert _canonical(total[k])


@given(st.lists(st.tuples(st.integers(min_value=0, max_value=3), polys), max_size=8),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=4, max_size=4),
       st.lists(st.integers(min_value=-3, max_value=600), min_size=8, max_size=8))
@settings(max_examples=80, deadline=None)
def test_graded_and_weighted_sums(terms, ws, counts):
    rows, den = exactmath._rows_sum(((k, p.num, p.den, 1) for k, p in terms), 4)
    assert den == lcm(*[p.den for _, p in terms])  # one lcm, no reduction
    for k in range(4):
        assert exactmath._of(list(rows[k]), den) == sum((p for j, p in terms if j == k), Poly())
    # an integer combination of the rows is the combination of the entries
    combo = exactmath._combine(rows, ws)
    assert exactmath._of(combo, den) == sum((p * ws[k] for k, p in terms), Poly())
    # an int weight per term scales it inside the one integer sum
    scaled, sden = exactmath._rows_sum(((k, p.num, p.den, n) for (k, p), n in zip(terms, counts)), 4)
    assert sden == den
    for k in range(4):
        want = sum((p * n for (j, p), n in zip(terms, counts) if j == k), Poly())
        assert exactmath._of(list(scaled[k]), den) == want


def test_poly_vec_is_reduced_once_and_read_once():
    v = vec([Poly([F(1, 6), F(1, 3)]), Poly([F(2, 3)]), Poly()])
    assert (v.rows, v.den) == (((1, 2), (4,), ()), 6)
    assert len(v) == 3 and v._read == [None] * 3  # len reads no entry
    assert v[-2] is v[1] == Poly([F(2, 3)]) and v._read[1] is not None
    assert list(v) == [Poly([F(1, 6), F(1, 3)]), Poly([F(2, 3)]), Poly()]
    assert all(p is q for p, q in zip(v, v))
    # a common factor of den and every coefficient is divided out once
    w = vec([Poly([2, 4]), Poly([6])])
    assert (w.rows, w.den) == (((2, 4), (6,)), 1)
    assert vec_sum([w, w], 2).rows == ((4, 8), (12,))
    assert vec_sum([vec([Poly([F(1, 2)])]), vec([Poly([F(1, 2)])])], 1).den == 1
    with pytest.raises(AttributeError):
        v.den = 1


def _ref_add(a, b):
    n = max(len(a), len(b))
    out = [F(0)] * n
    for cs in (a, b):
        for i, c in enumerate(cs):
            out[i] += c
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _ref_add(out, ())


def _ref_compose(a, b):
    out = ()
    for c in reversed(a):
        out = _ref_add(_ref_mul(out, b), (c,))
    return out


@st.composite
def built_polys(draw):
    """Polys built by a random chain of sums, products, scalar divisions,
    compositions and exact divisions, each paired with its coefficients
    computed alongside on plain Fraction tuples."""
    seeds = draw(st.lists(st.lists(small_fracs, max_size=4), min_size=1, max_size=3))
    pool = [(Poly(cs), _ref_add(cs, ())) for cs in seeds]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        (p, a), (q, b) = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
        op = draw(st.sampled_from(["add", "mul", "div", "compose", "divide"]))
        if op == "add":
            pool.append((p + q, _ref_add(a, b)))
        elif op == "mul":
            pool.append((p * q, _ref_mul(a, b)))
        elif op == "div":
            s = draw(small_fracs.filter(bool))
            pool.append((p / s, tuple(c / s for c in a)))
        elif op == "compose" and p.degree * q.degree <= 12:
            pool.append((p.compose(q), _ref_compose(a, b)))
        elif op == "divide" and not q.is_zero():
            pool.append((poly_divide_exact(p * q, q), a))
    return pool


@given(built_polys())
@settings(max_examples=100, deadline=None)
def test_arithmetic_matches_fractions_in_canonical_form(pool):
    for p, ref in pool:
        assert p.coeffs == ref
        assert p.den > 0 and gcd(p.den, *p.num) == 1
        assert not p.num or p.num[-1] != 0
        # equal values, equal fields: compare with the Poly built directly
        twin = Poly(ref)
        assert (p.num, p.den) == (twin.num, twin.den) and hash(p) == hash(twin)


# rational roots p/q whose numerators and denominators carry primes above
# 10^6, with multiplicities, times an irreducible quadratic
PRIMES = (2, 3, 7, 1000003, 1000033, 2147483647)
prime_products = st.lists(st.sampled_from(PRIMES), max_size=2).map(prod)
rational_root = st.builds(
    lambda sign, p, q: F(sign * p, q),
    st.sampled_from((1, -1)),
    prime_products,
    prime_products,
)


@st.composite
def irreducible_quadratics(draw):
    a = draw(st.integers(min_value=1, max_value=50))
    b = draw(st.integers(min_value=-50, max_value=50))
    c = draw(st.integers(min_value=-50, max_value=50).filter(bool))
    disc = b * b - 4 * a * c
    assume(disc < 0 or isqrt(disc) ** 2 != disc)
    return a, b, c


@given(
    st.dictionaries(rational_root, st.integers(min_value=1, max_value=3), max_size=4),
    irreducible_quadratics(),
    small_fracs.filter(bool),
)
@settings(max_examples=60, deadline=None)
def test_rational_roots_recovers_large_prime_roots(roots, quad, scale):
    a, b, c = quad
    p = Poly([c, b, a]) * scale
    for r, mult in roots.items():
        for _ in range(mult):
            p = p * Poly([-r, 1])
    rs = rational_roots(p)
    assert rs.rational == tuple(sorted(roots.items()))
    g = gcd(a, b, c)
    assert list(rs.residual.coeffs) == [x // g * (1 if scale > 0 else -1) for x in (c, b, a)]
    disc = b * b - 4 * a * c
    expected = []
    if disc > 0:
        expected = sorted((-b + s * disc**0.5) / (2 * a) for s in (1, -1))
    assert rs.residual_approx == pytest.approx(expected, abs=1e-9)


def test_minpoly_2cos_degree_and_root():
    for L in range(3, 31):
        p = minpoly_2cos(L)
        phi = sum(1 for k in range(1, 2 * L) if gcd(k, 2 * L) == 1)
        assert len(p) - 1 == phi // 2 and p[-1] == 1, L
        z = 2 * cos(pi / L)
        terms = [c * z**k for k, c in enumerate(p)]
        assert abs(sum(terms)) <= 1e-12 * sum(map(abs, terms)), L


# -- rational roots by p-adic lifting -----------------------------------------

# Cofactors without a rational root.  x^4 + 1 factors mod every prime,
# and (x^2-2)(x^2-3)(x^2-6) has a root mod every prime.
ROOT_FREE = ([-2, 0, 1], [1, 1, 1], [-2, 0, 0, 1], [5, -3, 7], [1, 0, 0, 0, 1],
             [-36, 0, 36, 0, -11, 0, 1])


def _times(p: Poly, r: F, mult: int = 1) -> Poly:
    """p (v m - u)^mult for r = u/v."""
    for _ in range(mult):
        p = p * Poly([-r.numerator, r.denominator])
    return p


@st.composite
def tall_roots(draw):
    """u/v with coprime 100-300-bit u and v, of either sign: v is the
    first integer from its draw up that is coprime to u."""
    u = draw(st.integers(min_value=2**100, max_value=2**299))
    v = draw(st.integers(min_value=2**100, max_value=2**299))
    while gcd(u, v) != 1:
        v += 1
    return F(draw(st.sampled_from((1, -1))) * u, v)


@given(
    st.dictionaries(tall_roots(), st.integers(min_value=1, max_value=3), min_size=1,
                    max_size=3),
    st.sampled_from(ROOT_FREE),
)
@settings(max_examples=40, deadline=None)
def test_rational_roots_of_tall_roots(roots, cofactor):
    p = Poly(cofactor)
    for r, mult in roots.items():
        p = _times(p, r, mult)
    rs = rational_roots(p)
    assert rs.rational == tuple(sorted(roots.items()))
    assert rs.residual == Poly(cofactor)


@pytest.mark.parametrize("root", [
    F(3**150 + 2), F(-(3**150) - 2), F(-(5**90) - 3), F(1, 3**150 + 2), F(-1, 2 * 3**150 + 1),
    F(2**200 + 1, 3), F(-7, 2**150 + 3),
])
@pytest.mark.parametrize("cofactor", [ROOT_FREE[0], ROOT_FREE[-1]])
def test_unbalanced_root_needs_the_full_bound(root, cofactor):
    """A root u/v with |u| and v far apart is reconstructed only once
    p^K > 2 |a_0 a_n|, with the numerator bound |a_0|: the balanced
    reconstruction of the lower precisions cannot reach it."""
    rs = rational_roots(_times(Poly(cofactor), root))
    assert rs.rational == ((root, 1),)
    assert rs.residual == Poly(cofactor)


def test_yun_runs_only_without_a_certifying_prime(monkeypatch):
    calls = []
    yun = exactmath._squarefree_factors
    monkeypatch.setattr(exactmath, "_squarefree_factors", lambda f: calls.append(f) or yun(f))
    p = _times(Poly([-2, 0, 1]), F(-2, 3))
    assert rational_roots(p).rational == ((F(-2, 3), 1),)
    assert calls == []
    assert rational_roots(_times(p, F(-2, 3))).rational == ((F(-2, 3), 2),)
    assert len(calls) == 1


# -- real-root isolation ------------------------------------------------------


def sturm_root_count(f: list[int]) -> int:
    """The real roots of the square-free integer polynomial f, by Sturm's
    theorem: the sign changes of its Sturm sequence at -infinity less
    those at +infinity, the sequence's remainders taken over Q.  A test
    oracle for ``exactmath._isolate``."""
    seq = [[F(c) for c in f], [F(i * c) for i, c in enumerate(f)][1:]]
    while True:
        r, b = list(seq[-2]), seq[-1]
        while len(r) >= len(b):
            q = r[-1] / b[-1]
            for i, c in enumerate(b):
                r[len(r) - len(b) + i] -= q * c
            r.pop()
        while r and not r[-1]:
            r.pop()
        if not r:
            break
        seq.append([-c for c in r])

    def changes(signs):
        return sum(x != y for x, y in zip(signs, signs[1:]))

    # p(-inf) has the sign of lc(p) times (-1)^deg(p)
    return changes([(p[-1] > 0) == (len(p) % 2 == 1) for p in seq]) - changes([p[-1] > 0 for p in seq])


def test_sturm_oracle_counts_known_roots():
    assert [sturm_root_count(f) for f in ROOT_FREE] == [2, 0, 1, 0, 0, 6]
    assert sturm_root_count([-1, 1, 0, 0, 1]) == 2  # m^4 + m - 1


@st.composite
def root_free_polys(draw):
    """Square-free integer polynomials without a rational root: products
    of one to three factors of degree 2 to 4 with small coefficients."""
    f = [1]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        g = draw(st.lists(st.integers(min_value=-40, max_value=40), min_size=3, max_size=5))
        assume(g[0] and g[-1])
        f = exactmath._zmul(f, g)
    assume(len(exactmath._zgcd(f, exactmath._zderiv(f))) == 1)
    assume(rational_roots(Poly(f)).rational == ())
    return f


@given(root_free_polys())
@settings(max_examples=150, deadline=None)
def test_isolating_intervals_hold_each_real_root_once(f):
    """As many intervals as Sturm counts roots, each (a/2^k, (a+1)/2^k]
    with k >= 1, ascending and disjoint, with f changing sign across it
    from -top to top: so each holds exactly one root."""
    roots = exactmath._isolate(f)
    assert len(roots) == sturm_root_count(f)
    ends = []
    for g, a, k, top in roots:
        assert g == tuple(f) and k >= 1
        lo, hi = exactmath._zeval(f, a, 1 << k), exactmath._zeval(f, a + 1, 1 << k)
        assert lo and hi and (lo > 0) != top and (hi > 0) == top
        ends.append((F(a, 1 << k), F(a + 1, 1 << k)))
    assert all(hi <= lo for (_, hi), (lo, _) in zip(ends, ends[1:]))


def test_isolating_a_mignotte_cluster_takes_two_taylor_shifts_a_level(monkeypatch):
    """x^8 - 2(a x - 1)^2 with a = 10^12 has two roots near 1/a, about
    a^-5 = 2^-200 apart, and two near -11 000 and 11 000, all inside the
    root bound 2^15.  The close pair parts about 215 halvings down, and
    each halving forms at most two halves, one Taylor shift each: so
    isolation takes fewer than 2 (215 + 15) shifts, a count set by the
    depth of the cluster and not by the size of the coefficients."""
    shifts = []
    shift = exactmath._taylor_shift
    monkeypatch.setattr(exactmath, "_taylor_shift", lambda g: shifts.append(len(g)) or shift(g))
    a = 10**12
    f = [-2, 4 * a, -2 * a * a, 0, 0, 0, 0, 0, 1]
    roots = exactmath._isolate(f)
    assert len(roots) == sturm_root_count(f) == 4
    assert F(roots[1][1] + 1, 1 << roots[1][2]) <= F(roots[2][1], 1 << roots[2][2])
    assert roots[1].rounded(1, 0, 1) == roots[2].rounded(1, 0, 1) == 1e-12
    assert len(shifts) < 2 * (215 + 15)


# 10^5000 + 3 over 10^4999 + 1, in lowest terms (10^4999 + 1 is 4 mod 7):
# each side has about 5000 digits, over the 4300 that ``str`` prints
BIG_NUM, BIG_DEN = 10**5000 + 3, 10**4999 + 1
BIG_NUM_TEXT, BIG_DEN_TEXT = "1" + "0" * 4999 + "3", "1" + "0" * 4998 + "1"


def test_format_integer_prints_any_size():
    import sys

    if getattr(sys, "get_int_max_str_digits", lambda: 0)():
        with pytest.raises(ValueError):
            str(BIG_NUM)
    assert format_integer(BIG_NUM) == BIG_NUM_TEXT
    assert format_integer(-BIG_DEN) == "-" + BIG_DEN_TEXT
    for n in (0, 7, -12, 2**13_999, -(2**14_000), 10**4300):
        text = format_integer(n)
        assert text.lstrip("-").isdigit() and text.count("-") == (n < 0)
        assert Decimal(text) == n
    assert format_integer(2**13_999) == str(2**13_999)  # the fast path


def test_format_integer_is_str_across_split_points():
    # from 14 000 bits format_integer splits n at 2^k, k the largest power
    # of 2 below its bit length: integers around the switch size, at and
    # next to each split point, with long runs of zero or one bits in the
    # low half and powers of 10 in decimal, each with both signs
    import random
    import sys

    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    lift = getattr(sys, "set_int_max_str_digits", lambda n: None)
    rng = random.Random(20051031)
    cases = [10**4214, 10**4215 - 1, 10**4300, 10**20_000 + 1]
    for bits in (13_999, 14_000, 14_001, 16_383, 16_384, 16_385, 16_384 + 8_192,
                 32_768, 32_769, 65_537, 140_000):
        cases += [1 << bits, (1 << bits) - 1, (1 << bits) + 1,
                  rng.getrandbits(bits) | 1 << (bits - 1)]
    for k in (8_192, 16_384, 32_768):
        cases += [(rng.getrandbits(k) | 1 << (k - 1)) << k | 7,
                  (1 << 2 * k) - (1 << k) + 1, (1 << k) * 12345]
    lift(0)
    try:
        for n in cases:
            assert format_integer(n) == str(n)
            assert format_integer(-n) == str(-n)
    finally:
        lift(limit)


def test_format_fraction_prints_any_size():
    q = F(BIG_NUM, BIG_DEN)
    assert (q.numerator, q.denominator) == (BIG_NUM, BIG_DEN)
    assert format_fraction(q) == f"{BIG_NUM_TEXT}/{BIG_DEN_TEXT}"
    assert format_fraction(-q) == f"-{BIG_NUM_TEXT}/{BIG_DEN_TEXT}"
    assert format_fraction(F(BIG_NUM)) == BIG_NUM_TEXT
    assert [format_fraction(x) for x in (F(-3, 4), F(5), 7)] == ["-3/4", "5", "7"]


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=7),
       st.integers(min_value=-30, max_value=30),
       st.integers(min_value=-30, max_value=30).filter(bool))
@settings(max_examples=150, deadline=None)
def test_scale_and_shift_substitute_a_line(f, s, t):
    # t^d f(s (y + 1) / t) by a scale and a shift by 1, f(-y) by a flip
    # and f(y - 1) by a flip, a shift and a flip, each against compose
    d, p = len(f) - 1, Poly(f)
    line = exactmath._taylor_shift(exactmath._scale(f, s, t))
    assert exactmath._of(line, 1) == p.compose(Poly([F(s, t), F(s, t)])) * t**d
    assert exactmath._of(exactmath._scale(f, s, t), 1) == p.compose(Poly([0, F(s, t)])) * t**d
    assert exactmath._of(exactmath._flip(f), 1) == p.compose(Poly([0, -1]))
    back = exactmath._flip(exactmath._taylor_shift(exactmath._flip(f)))
    assert exactmath._of(back, 1) == p.shifted_arg(-1)


def _losing_a_root(padic_roots):
    """``_padic_roots`` that deflates the caller's polynomial, in place, by
    the last root it finds and then drops that root: the factor x - r is
    lost from the factorization."""

    def run(f, p):
        roots, g = padic_roots(f, p)
        if roots:
            r = roots.pop()
            f[:] = exactmath._zquo(f, [-r.numerator, r.denominator])
        return roots, g

    return run


LOSSY_AUDIT = """
import sys
from ccx import exactmath
from ccx.exactmath import Poly, rational_roots
sys.path.insert(0, {tests!r})
from test_exactmath import _losing_a_root
assert sys.flags.optimize == 1
exactmath._padic_roots = _losing_a_root(exactmath._padic_roots)
try:
    rational_roots(Poly([-6, 11, -6, 1]) * Poly([-2, 0, 1]))
except ArithmeticError as e:
    print(e)
"""


def test_root_audit_raises_when_a_factor_is_lost(monkeypatch):
    """(x-1)(x-2)(x-3)(x^2-2) with one root lost: the re-multiplied
    factorization misses x - 3, and the audit raises."""
    monkeypatch.setattr(exactmath, "_padic_roots", _losing_a_root(exactmath._padic_roots))
    with pytest.raises(ArithmeticError, match="lost a factor"):
        rational_roots(Poly([-6, 11, -6, 1]) * Poly([-2, 0, 1]))


def test_root_audit_survives_python_O():
    """The audit is no ``assert``: ``python -O`` keeps it."""
    tests = str(Path(__file__).resolve().parent)
    env = dict(os.environ, PYTHONPATH=str(Path(ccx.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-O", "-c", LOSSY_AUDIT.format(tests=tests)], env=env,
                         check=True, capture_output=True, text=True, timeout=60).stdout
    assert out == "root extraction lost a factor\n"
