import random

import pytest

from zetterberg import charsum as cs
from zetterberg.errors import PreconditionViolated
from zetterberg.gf import Field, factorize, make_field, make_field_for_q0
from zetterberg.tower import chi_field, subgroup_elements, subfield_elements


# ---------------------------------------------------------------------------
# polynomial utilities


def test_poly_divmod_roundtrip():
    F = Field(7, 1)
    rng = random.Random(2)
    for _ in range(50):
        a = tuple(rng.randrange(7) for _ in range(rng.randrange(1, 7)))
        b = tuple(rng.randrange(7) for _ in range(rng.randrange(1, 5)))
        a, b = cs.poly_trim(a), cs.poly_trim(b)
        if not b:
            continue
        q, r = cs.poly_divmod(F, a, b)
        back = cs.poly_trim([F.add(x, y) for x, y in
                             zip(list(cs.poly_mul(F, q, b)) + [0] * 10,
                                 list(r) + [0] * 10)][:10])
        assert back == a


def test_squarefree_part_strips_multiplicities():
    F = Field(3, 1)
    x_plus_1 = (1, 1)
    cube = cs.poly_mul(F, cs.poly_mul(F, x_plus_1, x_plus_1), x_plus_1)
    assert cs.squarefree_part(F, cube) == x_plus_1  # multiplicity 3 = p
    sq = cs.poly_mul(F, x_plus_1, x_plus_1)
    assert cs.squarefree_part(F, sq) == x_plus_1
    mixed = cs.poly_mul(F, cube, (2, 1))  # (x+1)^3 (x+2)
    assert cs.squarefree_part(F, mixed) == cs.poly_mul(F, x_plus_1, (2, 1))


def test_poly_is_square():
    F = Field(5, 1)
    g = (3, 2, 1)
    assert cs.poly_is_square(F, cs.poly_mul(F, g, g))
    assert not cs.poly_is_square(F, (0, 1))
    assert not cs.poly_is_square(F, cs.poly_mul(F, g, (1, 1)))
    F2 = Field(2, 3)
    h = (5, 3, 1)
    assert cs.poly_is_square(F2, cs.poly_mul(F2, h, h))
    assert not cs.poly_is_square(F2, (1, 1, 1))


def _monic_irreducibles_up_to_cubic(F):
    """Every monic irreducible of degree 1 to 3: at those degrees,
    irreducible means no root in F."""
    out = []
    for deg in (1, 2, 3):
        for low in range(F.order**deg):
            poly = tuple((low // F.order**i) % F.order for i in range(deg)) + (1,)
            if deg == 1 or all(cs.poly_eval(F, poly, x) for x in range(F.order)):
                out.append(poly)
    return out


def _poly_pow(F, f, e):
    out = (1,)
    for _ in range(e):
        out = cs.poly_mul(F, out, f)
    return out


def test_squarefree_factors_against_brute_force():
    rng = random.Random(5)
    for p, k in [(2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        F = Field(p, k)
        irreducibles = _monic_irreducibles_up_to_cubic(F)
        for case in range(40):
            # every fourth case is a pure p-th power, where f' = 0
            exps = [p, 2 * p] if case % 4 == 0 else [1, 2, 3, p, p + 1, 2 * p]
            picked = rng.sample(irreducibles, rng.randrange(1, 4))
            e_of = {P: rng.choice(exps) for P in picked}
            c = rng.randrange(1, F.order)
            f = (c,)
            for P, e in e_of.items():
                f = cs.poly_mul(F, f, _poly_pow(F, P, e))
            factors = cs.squarefree_factors(F, f)
            got = {e: g for g, e in factors}
            assert len(got) == len(factors)  # one g per multiplicity
            expected = {}
            for P, e in e_of.items():
                expected[e] = cs.poly_mul(F, expected.get(e, (1,)), P)
            assert got == expected
            gs = list(got.values())
            assert all(cs.poly_is_monic(g) for g in gs)
            assert all(cs.poly_gcd(F, g, h) == (1,)
                       for i, g in enumerate(gs) for h in gs[i + 1:])


# ---------------------------------------------------------------------------
# quadratic sums (the closed form self-checks inside the call)


def test_quadratic_sum_examples_f5():
    F5 = Field(5, 1)
    assert cs.quadratic_char_sum(F5, 1, 0, 0) == 4   # d = 0 branch
    assert cs.quadratic_char_sum(F5, 1, 0, 1) == -1  # d != 0 branch


def test_quadratic_sum_example_f7():
    F7 = Field(7, 1)
    # d = 9 - 8 = 1 != 0, so the direct sum must equal -chi(2)
    got = cs.quadratic_char_sum(F7, 2, 3, 1)
    assert got == -chi_field(F7, 2)


def test_quadratic_sum_exhaustive_small_fields():
    # the acceptance suite sweeps every odd order up to 169 in bulk
    for p, k in [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        F = Field(p, k)
        for a2 in range(1, F.order):
            for a1 in range(F.order):
                for a0 in range(F.order):
                    cs.quadratic_char_sum(F, a2, a1, a0)


def test_chi_lookup_is_euler_criterion():
    for F in (Field(3, 1), Field(5, 2), Field(3, 3), Field(13, 1), make_field(3, 1, 2)):
        chi = cs._chi_lookup(F)
        assert [chi(x) for x in range(F.order)] == \
            [chi_field(F, x) for x in range(F.order)]


def test_quadratic_sum_rejects_bad_inputs():
    with pytest.raises(PreconditionViolated):
        cs.quadratic_char_sum(Field(5, 1), 0, 1, 1)
    with pytest.raises(PreconditionViolated):
        cs.quadratic_char_sum(Field(2, 3), 1, 1, 1)


# ---------------------------------------------------------------------------
# roots in H, odd characteristic


def brute_roots_in_H(ctx, alpha, beta):
    aq = ctx.pow(alpha, ctx.q)
    count = 0
    for h in subgroup_elements(ctx, "H"):
        v = ctx.add(ctx.add(ctx.mul(alpha, ctx.mul(h, h)), ctx.mul(beta, h)), aq)
        if v == 0:
            count += 1
    return count


def test_roots_in_h_count_odd_exhaustive_q9():
    ctx = make_field(3, 1, 2)
    fq = subfield_elements(ctx, "q")
    for alpha in range(ctx.order):
        for beta in fq:
            if alpha == 0 and beta == 0:
                continue
            assert cs.roots_in_H_count_odd(ctx, alpha, beta) == \
                brute_roots_in_H(ctx, alpha, beta)


def test_roots_in_h_count_odd_sampled_q25_q27():
    rng = random.Random(17)
    for q0, s in [(5, 2), (3, 3)]:
        ctx = make_field_for_q0(q0, s)
        fq = subfield_elements(ctx, "q")
        for _ in range(400):
            alpha = rng.randrange(ctx.order)
            beta = rng.choice(fq)
            if alpha == 0 and beta == 0:
                continue
            assert cs.roots_in_H_count_odd(ctx, alpha, beta) == \
                brute_roots_in_H(ctx, alpha, beta)


def test_roots_in_h_count_branches():
    ctx = make_field(3, 1, 2)
    # delta = beta^2 - 4 alpha^(q+1); alpha = 0 makes delta a nonzero square
    assert cs.roots_in_H_count_odd(ctx, 0, 1) == 0
    found_double = False
    for alpha in range(1, ctx.order):
        for beta in subfield_elements(ctx, "q"):
            delta = ctx.sub(ctx.mul(beta, beta),
                            ctx.mul(ctx.encode([1]), ctx.pow(alpha, ctx.q + 1)))
            if delta == 0:
                assert cs.roots_in_H_count_odd(ctx, alpha, beta) == 1
                found_double = True
    assert found_double


# ---------------------------------------------------------------------------
# Artin-Schreier solvability, even characteristic


def test_artin_schreier_examples():
    F64 = Field(2, 6)
    assert cs.artin_schreier_solvable(F64, 1, 0)  # x^2 + x has roots 0, 1
    # b = a^2 reduces to Tr(1); over F_64 the absolute trace of 1 is 0
    a = 5
    assert cs.artin_schreier_solvable(F64, a, F64.mul(a, a)) == \
        (F64.trace_to(1, 1) == 0)


def test_artin_schreier_matches_brute_force():
    rng = random.Random(23)
    F64 = Field(2, 6)
    for _ in range(400):
        a = rng.randrange(1, 64)
        b = rng.randrange(64)
        brute = any(F64.add(F64.add(F64.mul(x, x), F64.mul(a, x)), b) == 0
                    for x in range(64))
        assert cs.artin_schreier_solvable(F64, a, b) == brute
    # a = 0: x^2 = b always has the root b^(order/2)
    for b in range(64):
        brute = any(F64.add(F64.mul(x, x), b) == 0 for x in range(64))
        assert brute and cs.artin_schreier_solvable(F64, 0, b)


def _absolute_trace(F, c):
    # c + c^2 + c^4 + ... by repeated squaring
    t, x = 0, c
    for _ in range(F.k):
        t, x = F.add(t, x), F.mul(x, x)
    return t


def _half_trace(F, c):
    # c + c^4 + c^16 + ... + c^(2^(k-1)), k odd
    z, x = 0, c
    for _ in range((F.k + 1) // 2):
        z = F.add(z, x)
        x = F.mul(F.mul(x, x), F.mul(x, x))
    return z


def test_solve_artin_schreier_both_parities():
    for k in range(1, 11):
        F = Field(2, k)
        soluble = 0
        for c in range(F.order):
            z = cs.solve_artin_schreier(F, c)
            assert (z is not None) == (_absolute_trace(F, c) == 0)
            if z is not None:
                assert F.add(F.mul(z, z), z) == c
                if k % 2:
                    assert z == _half_trace(F, c)
                soluble += 1
        assert soluble == F.order // 2


# ---------------------------------------------------------------------------
# roots in H, even characteristic


def test_roots_in_h_even_exhaustive():
    for q0, s in [(2, 2), (2, 3), (4, 2)]:  # q in {4, 8, 16}
        ctx = make_field_for_q0(q0, s)
        H = subgroup_elements(ctx, "H")
        for alpha in range(ctx.order):
            for beta in subfield_elements(ctx, "q"):
                if beta == 0:
                    continue
                aq = ctx.pow(alpha, ctx.q)
                roots = [h for h in H
                         if ctx.add(ctx.add(ctx.mul(alpha, ctx.mul(h, h)),
                                            ctx.mul(beta, h)), aq) == 0]
                flag = cs.roots_in_H_exist_even(ctx, alpha, beta)
                assert flag == bool(roots)
                if flag:
                    # "at least one" and "two distinct" are equivalent
                    assert len(roots) == 2
                    got = cs.roots_in_H_even(ctx, alpha, beta)
                    assert got is not None and set(got) == set(roots)


def test_roots_in_h_even_alpha_zero():
    ctx = make_field(2, 2, 2)
    assert cs.roots_in_H_exist_even(ctx, 0, 1) is False


# ---------------------------------------------------------------------------
# quartic non-square pairs


def quartic_value(F, c1, c2):
    s, d = F.add(c1, c2), F.sub(c1, c2)
    return F.mul(F.mul(F.add(s, 1), F.sub(s, 1)), F.mul(F.add(d, 1), F.sub(d, 1)))


def test_quartic_pair_q5_q7():
    F5 = Field(5, 1)
    c1, c2 = cs.find_nonsquare_quartic_pair(F5)
    squares5 = {(y * y) % 5 for y in range(1, 5)}
    v = quartic_value(F5, c1, c2)
    assert v != 0 and v not in squares5
    F7 = Field(7, 1)
    c1, c2 = cs.find_nonsquare_quartic_pair(F7)
    squares7 = {(y * y) % 7 for y in range(1, 7)}
    v = quartic_value(F7, c1, c2)
    assert v != 0 and v not in squares7
    assert c1 not in (0, 1, 6) and c2 not in (0, 1, 6)


def test_quartic_pair_deterministic():
    assert cs.find_nonsquare_quartic_pair(Field(11, 1)) == \
        cs.find_nonsquare_quartic_pair(Field(11, 1))


def test_quartic_pair_exists_up_to_199():
    for q0 in range(5, 200, 2):
        fac = factorize(q0)
        if len(fac) != 1:
            continue
        p, m = fac[0]
        F = Field(p, m)
        c1, c2 = cs.find_nonsquare_quartic_pair(F)
        assert chi_field(F, quartic_value(F, c1, c2)) == -1


def test_quartic_pair_rejects_small():
    with pytest.raises(PreconditionViolated):
        cs.find_nonsquare_quartic_pair(Field(3, 1))


# ---------------------------------------------------------------------------
# Weil bound harness


def test_weil_cubic_and_precondition():
    F27 = Field(3, 3)
    rep = cs.weil_bound_check(
        F27, [((0, 1), 2), ((F27.neg(1), 1), 2), ((F27.neg(2), 1), 2)])
    assert abs(rep.sum) <= rep.bound and rep.degree_sum == 3
    with pytest.raises(PreconditionViolated):
        cs.weil_bound_check(F27, [((0, 0, 1), 2)])  # x^2 is a perfect square
    with pytest.raises(PreconditionViolated):
        cs.weil_bound_check(F27, [((0, 1), 2), ((0, 2, 1), 2)])  # share root 0
    with pytest.raises(PreconditionViolated):
        cs.weil_bound_check(F27, [((0, 1), 3)])  # unsupported character order


def test_weil_random_squarefree_cubics():
    F27 = Field(3, 3)
    rng = random.Random(1)
    done = 0
    while done < 100:
        cubic = (rng.randrange(27), rng.randrange(27), rng.randrange(27), 1)
        if cs.poly_deg(cs.poly_gcd(F27, cubic, cs.poly_deriv(F27, cubic))) != 0:
            continue
        rep = cs.weil_bound_check(F27, [(cubic, 2)])
        assert rep.margin >= 0
        done += 1


def test_weil_refined_branch_even_degrees():
    F = Field(5, 2)
    # (x^2 - a)(x^2 - b) with distinct non-roots: both factors degree 2
    rep = cs.weil_bound_check(F, [((F.neg(2), 0, 1), 2), ((F.neg(3), 0, 1), 2)])
    assert rep.refined
