"""Character-sum identities and root-location criteria.

Everything here is exact and cross-checkable against brute force: the
quadratic-sum closed form, the root-in-H counts for quadratics of the shape
a*X^2 + b*X + a^q, Artin-Schreier solvability and a closed-form root of
z^2 + z = c (no linear solve), the quartic non-square pair search, and a
Weil-bound verification harness for quadratic characters.  Every trace goes
through `Field.trace_to`.  One square-free factorization (Yun's algorithm,
`squarefree_factors`) gives the radical, the square test and the Weil
harness's degrees.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormulaMismatch, PreconditionViolated
from .gf import Field, FieldContext
from .tower import chi_field

# ---------------------------------------------------------------------------
# dense polynomials over a Field (coefficients are field codes, ascending)


def poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def poly_deg(cs) -> int:
    return len(cs) - 1


def poly_is_monic(cs) -> bool:
    return bool(cs) and cs[-1] == 1


def poly_eval(F: Field, cs, x: int) -> int:
    acc = 0
    for c in reversed(cs):
        acc = F.add(F.mul(acc, x), c)
    return acc


def poly_mul(F: Field, a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(ai, bj))
    return poly_trim(out)


def poly_divmod(F: Field, a, b):
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    a = list(a)
    quot = [0] * max(0, len(a) - len(b) + 1)
    inv_lead = F.inv(b[-1])
    while len(a) >= len(b) and a:
        c = F.mul(a[-1], inv_lead)
        off = len(a) - len(b)
        quot[off] = c
        for j in range(len(b)):
            a[off + j] = F.sub(a[off + j], F.mul(c, b[j]))
        while a and a[-1] == 0:
            a.pop()
    return poly_trim(quot), poly_trim(a)


def poly_gcd(F: Field, a, b):
    a, b = poly_trim(a), poly_trim(b)
    while b:
        _, r = poly_divmod(F, a, b)
        a, b = b, r
    return poly_monic(F, a) if a else a


def poly_monic(F: Field, a):
    inv_lead = F.inv(a[-1])
    return tuple(F.mul(c, inv_lead) for c in a)


def poly_deriv(F: Field, a):
    return poly_trim([F.mul(a[i], i % F.p) for i in range(1, len(a))])


def poly_pth_root(F: Field, a):
    """b with b^p = a, valid when a has nonzero coefficients only at p | i."""
    if any(c for i, c in enumerate(a) if i % F.p):
        raise ValueError("polynomial is not a p-th power")
    root_exp = F.order // F.p  # inverse of the Frobenius x -> x^p
    return poly_trim([F.pow(c, root_exp) for c in a[::F.p]])


def squarefree_factors(F: Field, f):
    """[(g, e), ...] with f = lc(f) * prod g^e: each g monic, square-free and
    of positive degree, the g pairwise coprime, one g per multiplicity e.

    Yun's algorithm over a finite field: the loop peels off the factors whose
    multiplicity p does not divide, one multiplicity at a time; what is left
    of gcd(f, f') is then a p-th power, whose root is factored in turn.
    """
    f = poly_trim(f)
    if poly_deg(f) <= 0:
        return []
    f = poly_monic(F, f)
    c = poly_gcd(F, f, poly_deriv(F, f))  # f itself when f' = 0
    w, _ = poly_divmod(F, f, c)
    out, e = [], 1
    while poly_deg(w) > 0:
        y = poly_gcd(F, w, c)
        g, _ = poly_divmod(F, w, y)
        if poly_deg(g) > 0:
            out.append((g, e))
        c, _ = poly_divmod(F, c, y)
        w, e = y, e + 1
    if poly_deg(c) > 0:
        out += [(h, k * F.p) for h, k in squarefree_factors(F, poly_pth_root(F, c))]
    return out


def squarefree_part(F: Field, f):
    """Monic radical of f (product of its distinct irreducible factors)."""
    out = (1,)
    for g, _ in squarefree_factors(F, f):
        out = poly_mul(F, out, g)
    return out


def poly_is_square(F: Field, f) -> bool:
    """Is f the square of a polynomial over F?  Every multiplicity is even,
    and the leading coefficient is a square (always so when p = 2)."""
    f = poly_trim(f)
    if not f:
        return True
    return all(e % 2 == 0 for _, e in squarefree_factors(F, f)) and (
        F.p == 2 or chi_field(F, f[-1]) == 1)


# ---------------------------------------------------------------------------
# quadratic character sums


def _chi_lookup(F: Field):
    """The quadratic character of F (odd p) as a set lookup, for sums over
    every x: the nonzero squares are the subgroup <g^2>, walked once."""
    squares = set(F.cyclic_subgroup(2))
    return lambda v: 0 if v == 0 else (1 if v in squares else -1)


def quadratic_char_sum(F: Field, a2: int, a1: int, a0: int) -> int:
    """Sum of chi(a2*x^2 + a1*x + a0) over x in F, by direct summation.

    Self-testing: the direct sum is compared against the closed form
    (-chi(a2) when the discriminant is nonzero, (q-1)*chi(a2) when it is
    zero); a mismatch raises FormulaMismatch.
    """
    if F.p == 2:
        raise PreconditionViolated("odd characteristic required")
    if a2 == 0:
        raise PreconditionViolated("a2 must be nonzero")
    chi = _chi_lookup(F)
    total = 0
    for x in range(F.order):
        v = F.add(F.mul(a2, F.mul(x, x)), F.add(F.mul(a1, x), a0))
        total += chi(v)
    d = F.sub(F.mul(a1, a1), F.mul(4 % F.p, F.mul(a0, a2)))
    expected = (F.order - 1) * chi(a2) if d == 0 else -chi(a2)
    if total != expected:
        raise FormulaMismatch(
            f"quadratic sum {total} != closed form {expected} "
            f"for ({a2},{a1},{a0}) over order {F.order}")
    return total


# ---------------------------------------------------------------------------
# roots of alpha*X^2 + beta*X + alpha^q inside H


def roots_in_H_count_odd(ctx: FieldContext, alpha: int, beta: int) -> int:
    """Number of roots in H, odd q; decided by the discriminant's character."""
    if ctx.p == 2:
        raise PreconditionViolated("odd characteristic required")
    if alpha == 0 and beta == 0:
        raise PreconditionViolated("alpha and beta cannot both vanish")
    if ctx.pow(beta, ctx.q) != beta:
        raise PreconditionViolated("beta must lie in F_q")
    # Delta = beta^2 - 4*alpha^(q+1), an element of F_q
    delta = ctx.sub(ctx.mul(beta, beta),
                    ctx.mul(ctx.encode([4 % ctx.p]), ctx.pow(alpha, ctx.q + 1)))
    if delta == 0:
        return 1
    return 1 - chi_field(ctx, delta, ctx.q)


def artin_schreier_solvable(F: Field, a: int, b: int) -> bool:
    """Does x^2 + a*x + b have a root in F (characteristic 2)?"""
    if F.p != 2:
        raise PreconditionViolated("characteristic 2 required")
    if a == 0:
        return True  # x^2 = b has the root b^(order/2)
    c = F.mul(b, F.inv(F.mul(a, a)))
    return F.trace_to(c, 1) == 0


def solve_artin_schreier(F: Field, c: int) -> int | None:
    """A solution z of z^2 + z = c over F = F_{2^k}, or None when Tr(c) = 1.

    Closed form for every k: z = sum_{i<k-1} (sum_{j>i} delta^(2^j)) * c^(2^i)
    with delta of absolute trace 1.  The trace is F_2-linear, so the first
    code of trace 1 is a basis element X^i (delta = 1 when k is odd).
    """
    if F.p != 2:
        raise PreconditionViolated("characteristic 2 required")
    if F.trace_to(c, 1) != 0:
        return None
    delta = next(1 << i for i in range(F.k) if F.trace_to(1 << i, 1))
    # the same double sum over i < j <= k-1, grouped by j
    z = head = 0
    x, d = c, delta
    for _ in range(F.k - 1):
        head, d = F.add(head, x), F.mul(d, d)  # sum_{i<j} c^(2^i), delta^(2^j)
        z = F.add(z, F.mul(head, d))
        x = F.mul(x, x)
    assert F.add(F.mul(z, z), z) == c
    return z


def roots_in_H_exist_even(ctx: FieldContext, alpha: int, beta: int) -> bool:
    """Trace test for roots of alpha*X^2 + beta*X + alpha^q in H (even q)."""
    if ctx.p != 2:
        raise PreconditionViolated("characteristic 2 required")
    if beta == 0 or ctx.pow(beta, ctx.q) != beta:
        raise PreconditionViolated("beta must lie in F_q^*")
    if alpha == 0:
        return False
    c = ctx.div(ctx.pow(alpha, ctx.q + 1), ctx.mul(beta, beta))
    # c lies in F_q; its absolute trace there decides solvability
    return ctx.trace_to(c, 1, ctx.s * ctx.m) == 1


def roots_in_H_even(ctx: FieldContext, alpha: int, beta: int) -> tuple[int, int] | None:
    """Both roots in H when they exist (even q), else None."""
    if not roots_in_H_exist_even(ctx, alpha, beta):
        return None
    # substitute X = (beta/alpha)*Z: Z^2 + Z = alpha^(q+1)/beta^2
    c = ctx.div(ctx.pow(alpha, ctx.q + 1), ctx.mul(beta, beta))
    z = solve_artin_schreier(ctx, c)
    assert z is not None
    scale = ctx.div(beta, alpha)
    r1 = ctx.mul(scale, z)
    r2 = ctx.mul(scale, ctx.add(z, 1))
    assert ctx.pow(r1, ctx.q + 1) == 1 and ctx.pow(r2, ctx.q + 1) == 1
    return r1, r2


# ---------------------------------------------------------------------------
# the quartic non-square pair of the weight-3 construction


def _quartic_pair_scan(F: Field, d: int) -> tuple[int, int]:
    # scans the subfield of F of order p^d, codes ascending
    sub_order = F.p**d
    if F.p == 2 or sub_order < 5:
        raise PreconditionViolated("odd q0 >= 5 required")
    elements = F.subfield_elements(d)
    minus_one = F.neg(1)
    # Prefer pairs avoiding {0, +-1}; for q0 = 5 that set is empty of
    # solutions (every such pair makes the quartic vanish), so fall back to
    # the plain nonzero form, which always succeeds and still yields a valid
    # weight-3 construction.
    for banned in ({0, 1, minus_one}, {0}):
        for c1 in elements:
            if c1 in banned:
                continue
            for c2 in elements:
                if c2 in banned:
                    continue
                sum_, diff = F.add(c1, c2), F.sub(c1, c2)
                v = F.mul(F.mul(F.add(sum_, 1), F.sub(sum_, 1)),
                          F.mul(F.add(diff, 1), F.sub(diff, 1)))
                if chi_field(F, v, sub_order) == -1:
                    return c1, c2
    raise ArithmeticError("no quartic non-square pair found")  # unreachable


def find_nonsquare_quartic_pair(F: Field) -> tuple[int, int]:
    """First (c1, c2), row-major in code order, with
    chi((c1+c2+1)(c1+c2-1)(c1-c2+1)(c1-c2-1)) = -1, preferring c1, c2
    outside {0, +-1}.
    """
    return _quartic_pair_scan(F, F.k)


def find_nonsquare_quartic_pair_in_context(ctx: FieldContext) -> tuple[int, int]:
    """Same scan over the F_q0 subfield of an ambient context (codes ascending)."""
    return _quartic_pair_scan(ctx, ctx.m)


# ---------------------------------------------------------------------------
# Weil bound harness


@dataclass(frozen=True)
class WeilReport:
    sum: int
    degree_sum: int
    bound: float
    refined: bool
    margin: float


def weil_bound_check(F: Field, factors) -> WeilReport:
    """Exact character sum of a product of quadratic-character factors vs the
    Weil bound.

    factors: list of (coefficients, character_order) with character_order = 2
    (the only multiplicative character this package implements).  The bound
    uses the degrees of the largest squarefree divisors; when every such
    degree is even the sharper 1 + (sum(d)-2)*sqrt(q) form applies.
    Violations raise FormulaMismatch; they would mean an implementation bug.
    """
    if F.p == 2:
        raise PreconditionViolated("odd characteristic required")
    if not factors:
        raise PreconditionViolated("at least one factor required")
    polys = []
    for cs, r in factors:
        if r != 2:
            raise PreconditionViolated("only the quadratic character is supported")
        cs = poly_trim(cs)
        if not poly_is_monic(cs) or poly_deg(cs) < 1:
            raise PreconditionViolated("factors must be monic of degree >= 1")
        polys.append(cs)
    for i in range(len(polys)):
        for j in range(i + 1, len(polys)):
            if poly_deg(poly_gcd(F, polys[i], polys[j])) > 0:
                raise PreconditionViolated("factors must be pairwise coprime")
    # each factor is monic: a square exactly when every multiplicity is even
    factored = [squarefree_factors(F, cs) for cs in polys]
    if all(e % 2 == 0 for fs in factored for _, e in fs):
        raise PreconditionViolated("some factor must not be a perfect square")
    degs = [sum(poly_deg(g) for g, _ in fs) for fs in factored]
    dsum = sum(degs)
    chi = _chi_lookup(F)
    total = 0
    for x in range(F.order):
        term = 1
        for cs in polys:
            term *= chi(poly_eval(F, cs, x))
            if term == 0:
                break
        total += term
    refined = all(d % 2 == 0 for d in degs)
    q = F.order
    if refined:
        ok = total * total <= 1 if dsum < 2 else (
            abs(total) <= 1 or (abs(total) - 1) ** 2 <= (dsum - 2) ** 2 * q)
        bound = 1 + (dsum - 2) * q**0.5
    else:
        ok = total * total <= (dsum - 1) ** 2 * q
        bound = (dsum - 1) * q**0.5
    if not ok:
        raise FormulaMismatch(
            f"character sum {total} violates Weil bound {bound:.3f} over order {q}")
    return WeilReport(sum=total, degree_sum=dsum, bound=bound,
                      refined=refined, margin=bound - abs(total))
