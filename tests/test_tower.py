import random
from collections import Counter

import pytest

from zetterberg import tower
from zetterberg.errors import PreconditionViolated
from zetterberg.gf import Field, make_field, make_field_for_q0


def test_trace_zero_and_constants():
    ctx = make_field(3, 1, 2)  # q0 = 3, q = 9
    assert tower.trace(ctx, 0, "q", "q0") == 0
    # trace of a base-field constant is s copies of it
    for c in tower.subfield_elements(ctx, "q0"):
        expected = 0
        for _ in range(ctx.s):
            expected = ctx.add(expected, c)
        assert tower.trace(ctx, c, "q", "q0") == expected


def test_trace_f8_to_f2_frobenius_orbit():
    from zetterberg.gf import Field
    F8 = Field(2, 3)
    for x in range(8):
        orbit_sum = F8.add(F8.add(x, F8.pow(x, 2)), F8.pow(x, 4))
        assert F8.trace_to(x, 1) == orbit_sum
    g = F8.generator
    assert F8.trace_to(g, 1) in (0, 1)


def test_trace_surjective_with_equal_fibers():
    for p, m, s in [(3, 1, 2), (2, 2, 2), (5, 1, 2)]:
        ctx = make_field(p, m, s)
        fibers = Counter(tower.trace(ctx, x, "q", "q0")
                         for x in tower.subfield_elements(ctx, "q"))
        assert len(fibers) == ctx.q0
        assert set(fibers.values()) == {ctx.q // ctx.q0}


def test_norm_multiplicative_and_h_norm_one():
    ctx = make_field(3, 1, 2)
    rng = random.Random(5)
    assert tower.norm(ctx, 1, "q2", "q") == 1
    for x in tower.subgroup_elements(ctx, "H"):
        assert tower.norm(ctx, x, "q2", "q") == 1
    for _ in range(30):
        a, b = rng.randrange(ctx.order), rng.randrange(ctx.order)
        assert tower.norm(ctx, ctx.mul(a, b), "q2", "q") == \
            ctx.mul(tower.norm(ctx, a, "q2", "q"), tower.norm(ctx, b, "q2", "q"))


def test_norm_surjective_with_q_plus_one_fibers():
    # every q <= 64 that fits a default-cap context quickly
    for p, m, s in [(2, 1, 2), (3, 1, 2), (2, 1, 3), (2, 2, 2), (7, 1, 2)]:
        ctx = make_field(p, m, s)
        fibers = Counter(tower.norm(ctx, x, "q2", "q")
                         for x in range(1, ctx.order))
        assert set(fibers.values()) == {ctx.q + 1}
        assert len(fibers) == ctx.q - 1


def test_quadratic_character_f13():
    ctx = make_field(13, 1, 1)
    assert tower.quadratic_character(ctx, 1, "q0") == 1
    assert tower.quadratic_character(ctx, 4, "q0") == 1
    # derived: squares mod 13 are {1,3,4,9,10,12}; 2 is absent
    squares = {(y * y) % 13 for y in range(1, 13)}
    assert squares == {1, 3, 4, 9, 10, 12}
    assert tower.quadratic_character(ctx, 2, "q0") == -1
    assert tower.quadratic_character(ctx, 0, "q0") == 0


@pytest.mark.parametrize("p, k", [(5, 1), (7, 3), (3, 5), (4093, 1)])
def test_chi_field_over_f_p_is_euler_on_the_integer(p, k, monkeypatch):
    # the elements of F_p are the constant codes 0 ... p-1; the reference is
    # Euler's criterion through Field.pow, which chi_field over F_p never calls
    F = Field(p, k)
    expected = [0] + [1 if F.pow(x, (p - 1) // 2) == 1 else -1 for x in range(1, p)]

    def refuse(*args):
        raise AssertionError("Field.pow called")

    monkeypatch.setattr(Field, "pow", refuse)
    assert [tower.chi_field(F, x, p) for x in range(p)] == expected
    if k == 1:  # the default order is then p as well
        assert [tower.chi_field(F, x) for x in range(p)] == expected


def test_quadratic_character_multiplicative_and_balanced():
    rng = random.Random(9)
    for p, m, s in [(3, 1, 2), (5, 1, 2), (13, 1, 1)]:
        ctx = make_field(p, m, s)
        for _ in range(40):
            a = rng.randrange(1, ctx.order)
            b = rng.randrange(1, ctx.order)
            assert tower.quadratic_character(ctx, ctx.mul(a, b), "q2") == \
                tower.quadratic_character(ctx, a, "q2") * \
                tower.quadratic_character(ctx, b, "q2")
        assert sum(tower.quadratic_character(ctx, x, "q2")
                   for x in range(ctx.order)) == 0


def test_character_sums_to_zero_on_subfields():
    for p, m, s in [(3, 1, 2), (5, 1, 2), (7, 1, 1)]:
        ctx = make_field(p, m, s)
        for level in ("q0", "q", "q2"):
            total = sum(tower.quadratic_character(ctx, x, level)
                        for x in tower.subfield_elements(ctx, level))
            assert total == 0, (p, m, s, level)


def test_quadratic_character_rejects_char2():
    ctx = make_field(2, 1, 2)
    with pytest.raises(PreconditionViolated):
        tower.quadratic_character(ctx, 1, "q")


def test_base_squares_stay_squares_for_odd_s():
    # odd s: squares of F_q0 remain squares of F_q
    ctx = make_field(3, 1, 3)
    for b in {ctx.mul(c, c) for c in tower.subfield_elements(ctx, "q0") if c}:
        assert tower.quadratic_character(ctx, b, "q") == 1


def test_in_subgroup_identity_and_minus_one():
    odd = make_field(3, 1, 2)
    even = make_field(2, 2, 2)
    assert tower.in_subgroup(odd, 1, "H")
    assert tower.in_subgroup(odd, odd.neg(1), "H")  # q odd: (-1)^(q+1) = 1
    assert tower.in_subgroup(even, 1, "H")
    assert len(tower.subgroup_elements(odd, "H")) == odd.q + 1
    assert len(tower.subgroup_elements(even, "H")) == even.q + 1


def test_subgroup_sizes_by_membership_count():
    for p, m, s in [(3, 1, 2), (2, 2, 3), (3, 1, 4)]:  # q = 9, 64, 81
        ctx = make_field(p, m, s)
        count = sum(1 for x in range(1, ctx.order) if tower.in_subgroup(ctx, x, "H"))
        assert count == ctx.q + 1
        count = sum(1 for x in range(1, ctx.order)
                    if tower.in_subgroup(ctx, x, "Fq_star"))
        assert count == ctx.q - 1


def test_in_scaled_h_matches_direct_definition_q81():
    # the largest ambient the direct set comparison covers: q0 = 9, s = 2
    ctx = make_field(3, 2, 2)
    direct = {0}
    H = tower.subgroup_elements(ctx, "H")
    for c in tower.subfield_elements(ctx, "q0"):
        for h in H:
            direct.add(ctx.mul(c, h))
    computed = {y for y in range(ctx.order) if tower.in_scaled_H(ctx, y)}
    assert computed == direct


def test_in_scaled_h_matches_direct_definition():
    # exhaustive comparison against {c*h} for q0 = 3, s = 2 (6561 elements... 81^... )
    ctx = make_field(3, 1, 2)
    direct = {0}
    H = tower.subgroup_elements(ctx, "H")
    for c in tower.subfield_elements(ctx, "q0"):
        for h in H:
            direct.add(ctx.mul(c, h))
    computed = {y for y in range(ctx.order) if tower.in_scaled_H(ctx, y)}
    assert computed == direct
    assert len(direct) == (ctx.q0 - 1) * (ctx.q + 1) // 2 + 1


def test_in_scaled_h_even_characteristic():
    ctx = make_field(2, 2, 2)  # q0 = 4
    direct = {0}
    H = tower.subgroup_elements(ctx, "H")
    for c in tower.subfield_elements(ctx, "q0"):
        for h in H:
            direct.add(ctx.mul(c, h))
    computed = {y for y in range(ctx.order) if tower.in_scaled_H(ctx, y)}
    assert computed == direct


def test_in_scaled_h_orbit_invariance():
    ctx = make_field(5, 1, 2)
    rng = random.Random(21)
    scalars = [c for c in tower.subfield_elements(ctx, "q0") if c]
    for _ in range(40):
        y = rng.randrange(1, ctx.order)
        flag = tower.in_scaled_H(ctx, y)
        assert tower.in_scaled_H(ctx, ctx.mul(y, ctx.xi)) == flag
        assert tower.in_scaled_H(ctx, ctx.mul(rng.choice(scalars), y)) == flag


LEVELS = ("q2", "q", "q0")


def _frobenius_loop(ctx, x, d_from, d_to, op, acc):
    # the conjugates x, x^(p^d_to), x^(p^(2*d_to)), ... by repeated powering
    y = x
    for _ in range(d_from // d_to):
        acc = op(acc, y)
        for _ in range(d_to):
            y = ctx.pow(y, ctx.p)
    return acc


@pytest.mark.parametrize("q0,s", [(3, 2), (5, 2), (2, 3), (4, 2)])
def test_trace_and_norm_match_frobenius_loops_on_every_level_pair(q0, s):
    ctx = make_field_for_q0(q0, s)
    for i, src in enumerate(LEVELS):
        d_from = tower.level_degree(ctx, src)
        elements = tower.subfield_elements(ctx, src)
        for dst in LEVELS[i:]:
            d_to = tower.level_degree(ctx, dst)
            for x in elements:
                tr = _frobenius_loop(ctx, x, d_from, d_to, ctx.add, 0)
                nm = _frobenius_loop(ctx, x, d_from, d_to, ctx.mul, 1)
                assert ctx.trace_to(x, d_to, d_from) == tr == tower.trace(ctx, x, src, dst)
                assert ctx.norm_to(x, d_to, d_from) == nm == tower.norm(ctx, x, src, dst)
    # transitivity through the middle level
    for x in range(ctx.order):
        assert tower.trace(ctx, x, "q2", "q0") == \
            tower.trace(ctx, tower.trace(ctx, x, "q2", "q"), "q", "q0")
        assert tower.norm(ctx, x, "q2", "q0") == \
            tower.norm(ctx, tower.norm(ctx, x, "q2", "q"), "q", "q0")


def test_trace_to_rejects_non_dividing_degrees():
    ctx = make_field(2, 1, 3)  # degrees 6, 3, 1
    with pytest.raises(ValueError):
        ctx.trace_to(1, 2, 3)   # 2 does not divide 3
    with pytest.raises(ValueError):
        ctx.norm_to(1, 2, 4)    # 4 does not divide 6
    with pytest.raises(ValueError):
        tower.trace(ctx, 1, "q0", "q")
    with pytest.raises(PreconditionViolated):
        tower.norm(ctx, ctx.generator, "q", "q0")
