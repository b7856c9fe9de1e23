import itertools
import json
import random

import pytest

from zetterberg import gf
from zetterberg.caps import Caps
from zetterberg.errors import SizeCapExceeded
from zetterberg.gf import (Field, factorize, find_irreducible, is_prime,
                           make_field, make_field_for_q0, prime_power_split)


def brute_irreducible_quadratics_f3():
    # oracle: every monic quadratic over F_3 without a root
    out = []
    for c0 in range(3):
        for c1 in range(3):
            if all((x * x + c1 * x + c0) % 3 for x in range(3)):
                out.append((c0, c1, 1))
    return out


def test_find_irreducible_degree_one():
    assert find_irreducible(2, 1) == (0, 1)


def test_find_irreducible_unique_quadratic_f2():
    assert find_irreducible(2, 2) == (1, 1, 1)


def test_find_irreducible_f3_matches_enumeration():
    candidates = brute_irreducible_quadratics_f3()
    # lexicographic order on the ascending-degree tuple (c0, c1)
    expected = min(candidates, key=lambda f: (f[0], f[1]))
    assert find_irreducible(3, 2) == expected


def test_find_irreducible_deterministic_and_skippable():
    a = find_irreducible(5, 4)
    b = find_irreducible(5, 4)
    assert a == b
    alt = find_irreducible(5, 4, skip=1)
    assert alt != a and alt[-1] == 1


def _has_monic_factor(f, p, d):
    # trial division of f by every monic polynomial of degree d
    n = len(f) - 1
    for low in itertools.product(range(p), repeat=d):
        g = low + (1,)
        r = list(f)
        for top in range(n, d - 1, -1):
            c = r[top]
            if c:
                for j in range(d + 1):
                    r[top - d + j] = (r[top - d + j] - c * g[j]) % p
        if not any(r):
            return True
    return False


def test_is_irreducible_matches_trial_division():
    # every monic polynomial of each degree: irreducible exactly when no monic
    # factor of degree 1 .. n/2 divides it
    for p, degrees in [(2, range(1, 6)), (3, range(1, 5)), (5, range(1, 4))]:
        for n in degrees:
            for low in itertools.product(range(p), repeat=n):
                f = low + (1,)
                brute = not any(_has_monic_factor(f, p, d) for d in range(1, n // 2 + 1))
                assert gf._is_irreducible(f, p) == brute, f


def test_field_rejects_bad_modulus():
    with pytest.raises(ValueError, match="not irreducible"):
        Field(3, 2, (-1, 0, 1))  # X^2 - 1 = (X - 1)(X + 1)
    with pytest.raises(ValueError, match="not irreducible"):
        Field(2, 4, (1, 0, 1, 0, 1))  # (X^2 + X + 1)^2
    with pytest.raises(ValueError, match="monic"):
        Field(5, 2, (2, 0, 2))
    with pytest.raises(ValueError, match="monic"):
        Field(5, 2, (2, 1))


def test_poly_powmod_squares_once_per_bit(monkeypatch):
    calls = []
    mulmod = gf._poly_mulmod

    def counted(*args):
        calls.append(args)
        return mulmod(*args)

    monkeypatch.setattr(gf, "_poly_mulmod", counted)
    f = find_irreducible(3, 4)
    x = (0, 1)
    for e, n_calls in [(2, 1), (3, 2)]:
        calls.clear()
        assert gf._poly_powmod(x, e, f, 3) == (0,) * e + (1,)
        assert len(calls) == n_calls


def test_found_modulus_is_not_tested_again(monkeypatch):
    modulus = find_irreducible(7, 3)

    def refuse(*_args):
        raise AssertionError("found modulus tested again")

    monkeypatch.setattr(gf, "find_irreducible", lambda p, k: modulus)
    monkeypatch.setattr(gf, "_is_irreducible", refuse)
    F = Field(7, 3)
    assert F.modulus == modulus
    assert F.mul(F.generator, F.inv(F.generator)) == 1


def test_make_field_subgroup_orders():
    assert make_field(2, 1, 2).subgroup_order("H") == 5
    assert make_field(3, 1, 2).subgroup_order("H") == 10


def test_make_field_f4096_factorization_and_generator():
    ctx = make_field(2, 2, 3)
    assert ctx.order == 4096
    assert ctx.order_factorization == [(3, 2), (5, 1), (7, 1), (13, 1)]
    # generator order by brute force: walk all powers and find the first 1
    x, order = ctx.generator, 1
    while x != 1:
        x = ctx.mul(x, ctx.generator)
        order += 1
    assert order == 4095


def test_generator_matches_brute_force_scan():
    # the first code from 1 on whose powers walk the whole multiplicative group
    for p, k in [(2, 4), (3, 3), (5, 2), (7, 1), (29, 2)]:
        F = Field(p, k)
        brute = None
        for z in range(1, F.order):
            x, order = z, 1
            while x != 1:
                x = F.mul(x, z)
                order += 1
            if order == F.order - 1:
                brute = z
                break
        assert F.generator == brute


def test_make_field_for_q0_is_cached():
    assert make_field_for_q0(9, 2) is make_field_for_q0(9, 2)
    assert make_field_for_q0(9, 2) is make_field(3, 2, 2)


def test_field_axioms_randomized():
    rng = random.Random(7)
    for F in (Field(2, 6), Field(3, 4), Field(7, 2), Field(13, 1)):
        for _ in range(50):
            a, b, c = (rng.randrange(F.order) for _ in range(3))
            assert F.mul(a, b) == F.mul(b, a)
            assert F.mul(a, F.mul(b, c)) == F.mul(F.mul(a, b), c)
            assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
            assert F.add(a, F.neg(a)) == 0
            if a:
                assert F.mul(a, F.inv(a)) == 1


def test_pow_lagrange_and_minus_one():
    ctx = make_field(3, 1, 2)
    for x in range(1, ctx.order):
        assert ctx.pow(x, ctx.order - 1) == 1
    # the unique element of order 2 is -1 (brute-force over the field)
    order2 = [x for x in range(1, ctx.order)
              if ctx.mul(x, x) == 1 and x != 1]
    assert order2 == [ctx.neg(1)]
    assert ctx.pow(ctx.generator, (ctx.order - 1) // 2) == ctx.neg(1)


def test_frobenius_fixes_subfield_and_conjugation():
    ctx = make_field(3, 1, 2)
    for c in ctx.subfield_elements(ctx.m):
        assert ctx.pow(c, ctx.q0) == c
    xi = ctx.xi
    x = 1
    for _ in range(ctx.q + 1):
        assert ctx.mul(x, ctx.pow(x, ctx.q)) == 1  # x in H
        assert ctx.pow(ctx.pow(x, ctx.q), ctx.q) == x
        x = ctx.mul(x, xi)


def test_xi_has_exact_order_q_plus_one():
    for p, m, s in [(2, 1, 2), (3, 1, 2), (2, 2, 2), (5, 1, 2)]:
        ctx = make_field(p, m, s)
        assert ctx.pow(ctx.xi, ctx.q + 1) == 1
        for r, _ in factorize(ctx.q + 1):
            assert ctx.pow(ctx.xi, (ctx.q + 1) // r) != 1


def test_subfield_fixed_points_closed():
    ctx = make_field(2, 1, 3)  # ambient F_64, q = 8
    fixed = [x for x in range(ctx.order) if ctx.pow(x, ctx.q) == x]
    assert len(fixed) == ctx.q
    fset = set(fixed)
    for a in fixed:
        for b in fixed:
            assert ctx.add(a, b) in fset and ctx.mul(a, b) in fset


def test_prime_subfield_is_the_constants():
    for F in (Field(2, 5), Field(3, 4), Field(7, 2), make_field(5, 1, 2),
              make_field(3, 2, 2)):
        walked = sorted([0] + F.cyclic_subgroup((F.order - 1) // (F.p - 1)))
        assert F.subfield_elements(1) == walked == list(range(F.p))


def test_inv_zero_raises():
    F = Field(5, 2)
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_size_cap():
    with pytest.raises(SizeCapExceeded):
        make_field(2, 1, 17, caps=Caps(max_ambient_order=2**20))


def test_prime_power_split():
    assert prime_power_split(27) == (3, 3)
    assert prime_power_split(16) == (2, 4)
    with pytest.raises(ValueError):
        prime_power_split(12)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 2**31 - 1}
    for n in primes:
        assert is_prime(n)
    for n in (1, 4, 9, 91, 561, 2**31 - 2):
        assert not is_prime(n)


def test_context_serialization_roundtrip():
    ctx = make_field(3, 1, 2)
    blob = json.dumps(ctx.to_json(), sort_keys=True)
    data = json.loads(blob)
    assert data["p"] == 3 and data["m"] == 1 and data["s"] == 2
    assert len(data["modulus"]) == ctx.k + 1 and data["modulus"][-1] == 1
    assert ctx.encode(data["generator"]) == ctx.generator


def test_encode_decode_roundtrip():
    F = Field(7, 3)
    rng = random.Random(3)
    for _ in range(30):
        a = rng.randrange(F.order)
        assert F.encode(F.decode(a)) == a


def test_sqrt_odd_characteristic():
    F = Field(13, 2)
    rng = random.Random(11)
    for _ in range(40):
        a = rng.randrange(1, F.order)
        sq = F.mul(a, a)
        r = F.sqrt(sq)
        assert r in (a, F.neg(a))
    nonsquare = next(x for x in range(2, F.order)
                     if F.pow(x, (F.order - 1) // 2) != 1)
    with pytest.raises(ValueError):
        F.sqrt(nonsquare)
