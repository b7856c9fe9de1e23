import itertools
import random

import pytest

from zetterberg import code as C
from zetterberg.caps import Caps
from zetterberg.classify import classify
from zetterberg.errors import PreconditionViolated, SizeCapExceeded
from zetterberg.gf import factorize, make_field_for_q0
from zetterberg.tower import subfield_elements, subgroup_elements


def test_build_code_parameters():
    full = C.build_code(make_field_for_q0(4, 2), "full")
    assert (full.length, full.dimension) == (17, 13)
    half = C.build_code(make_field_for_q0(5, 2), "half")
    assert (half.length, half.dimension) == (13, 9)
    trivial = C.build_code(make_field_for_q0(3, 1), "half")
    assert (trivial.length, trivial.dimension) == (2, 0)


def _shape_or_error(make):
    try:
        shape = make()
    except (ValueError, PreconditionViolated) as e:
        return type(e), str(e)
    return shape if isinstance(shape, tuple) else (shape.length, shape.dimension)


def test_code_shape_is_the_one_shape_rule():
    # fields up to q^2 = 31^8 lie above the default ambient cap
    caps = Caps(max_ambient_order=2**40)
    for q0 in (q0 for q0 in range(2, 33) if len(factorize(q0)) == 1):
        for s in range(1, 5):
            ctx = make_field_for_q0(q0, s, caps=caps)
            for variant in ("full", "half", "bogus"):
                shape = _shape_or_error(lambda: C.code_shape(q0, s, variant))
                assert _shape_or_error(lambda: C.ZetterbergCode(ctx, variant)) == shape
                assert _shape_or_error(lambda: classify(q0, s, variant)) == shape
                if variant == "full":
                    q = q0**s
                    assert shape == (q + 1, q + 1 - 2 * s)


def test_h_powers_are_the_subgroup_walk():
    for q0, s, variant in [(4, 2, "full"), (5, 2, "half"), (3, 3, "full")]:
        ctx = make_field_for_q0(q0, s)
        code = C.build_code(ctx, variant)
        assert code.h_powers == subgroup_elements(ctx, "H")
        assert code.h_powers == [ctx.pow(ctx.xi, i) for i in range(ctx.q + 1)]


def test_half_code_positions_stop_at_its_length():
    for q0, s in [(3, 3), (5, 2), (7, 3)]:
        ctx = make_field_for_q0(q0, s)
        code = C.build_code(ctx, "half")
        assert code.positions == [ctx.pow(ctx.xi, i) for i in range(code.length)]
        assert "h_powers" not in code.__dict__


def test_h_index_inverts_the_walk():
    for q0, s in [(3, 2), (5, 3), (4, 2), (2, 5)]:
        ctx = make_field_for_q0(q0, s)
        code = C.build_code(ctx, "full")
        assert [code.h_index(h) for h in code.h_powers] == list(range(ctx.q + 1))
        for outside in (0, ctx.generator):  # the generator has order q^2 - 1
            with pytest.raises(ValueError):
                code.h_index(outside)


def test_syndrome_matches_dense_reference():
    rng = random.Random(13)
    for q0, s, variant in [(3, 2, "full"), (4, 2, "full"), (5, 2, "half"), (7, 1, "half")]:
        ctx = make_field_for_q0(q0, s)
        code = C.build_code(ctx, variant)
        subs = subfield_elements(ctx, "q0")
        for density in (0.05, 0.3, 1.0):  # sparse to dense
            for _ in range(5):
                word = [rng.choice(subs) if rng.random() < density else 0
                        for _ in range(code.length)]
                dense = 0
                for c, h in zip(word, code.h_powers):
                    dense = ctx.add(dense, ctx.mul(c, h))
                assert C.syndrome(code, word) == dense


def test_witnesses_never_walk_h():
    # the explicit witnesses and their syndromes leave the positions unbuilt
    for q0, s, variant, witness in [(4093, 1, "half", C.weight3_witness_half_odd),
                                    (1024, 1, "full", C.weight3_witness_even)]:
        code = C.build_code(make_field_for_q0(q0, s), variant)
        w = witness(code)
        assert C.weight(w) == 3 and C.syndrome(code, w) == 0
        assert "h_powers" not in code.__dict__ and "positions" not in code.__dict__


def test_half_variant_needs_odd_q0():
    with pytest.raises(PreconditionViolated):
        C.build_code(make_field_for_q0(4, 2), "half")


def test_syndrome_basics():
    code = C.build_code(make_field_for_q0(3, 2), "full")
    ctx = code.ctx
    assert C.syndrome(code, [0] * code.length) == 0
    for i in (0, 1, code.length - 1):
        word = [0] * code.length
        word[i] = 1
        assert C.syndrome(code, word) == code.positions[i] != 0
    with pytest.raises(ValueError):
        C.syndrome(code, [0])


def test_syndrome_linearity():
    code = C.build_code(make_field_for_q0(3, 2), "full")
    ctx = code.ctx
    rng = random.Random(4)
    subs = subfield_elements(ctx, "q0")
    for _ in range(25):
        u = [rng.choice(subs) for _ in range(code.length)]
        v = [rng.choice(subs) for _ in range(code.length)]
        c = rng.choice(subs)
        combo = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(u, v)]
        assert C.syndrome(code, combo) == \
            ctx.add(C.syndrome(code, u), ctx.mul(c, C.syndrome(code, v)))


def systematic_basis(code):
    # H = [I | A]: word j >= 2s is e_j minus column j in the check positions
    ctx = code.ctx
    H = C.parity_check_matrix(code)
    basis = []
    for j in range(len(H), code.length):
        vec = [0] * code.length
        vec[j] = 1
        for r, row in enumerate(H):
            vec[r] = ctx.neg(row[j])
        basis.append(vec)
    return basis


def test_parity_check_rank_and_kernel():
    cases = [(2, 2, "full"), (3, 2, "full"), (4, 2, "full"), (2, 3, "full"),
             (3, 2, "half"), (5, 2, "half")]
    for q0, s, variant in cases:
        ctx = make_field_for_q0(q0, s)
        code = C.build_code(ctx, variant)
        H = C.parity_check_matrix(code)
        assert len(H) == 2 * s and len(H[0]) == code.length
        # an identity block in the first 2s columns: rank 2s
        assert [row[: 2 * s] for row in H] == \
            [[int(r == c) for c in range(2 * s)] for r in range(2 * s)]
        basis = systematic_basis(code)
        assert len(basis) == code.dimension
        for vec in basis:
            assert C.contains(code, vec)


def test_minimal_polynomial_of_xi():
    for q0, s in [(2, 1), (2, 3), (3, 2), (4, 2), (5, 3), (9, 2)]:
        ctx = make_field_for_q0(q0, s)
        poly = C.minimal_polynomial(ctx)
        assert len(poly) == 2 * s + 1 and poly[-1] == 1
        assert set(poly) <= set(subfield_elements(ctx, "q0"))
        value = 0
        for c in reversed(poly):  # Horner at xi
            value = ctx.add(ctx.mul(value, ctx.xi), c)
        assert value == 0


def test_min_distance_formula_table():
    assert C.min_distance_formula(4, 2, "full") == 4
    assert C.min_distance_formula(4, 3, "full") == 3
    assert C.min_distance_formula(2, 2, "full") == 5
    assert C.min_distance_formula(2, 3, "full") == 3
    assert C.min_distance_formula(3, 2, "full") == 2
    assert C.min_distance_formula(7, 2, "half") == 4
    assert C.min_distance_formula(7, 3, "half") == 3
    assert C.min_distance_formula(3, 5, "half") == 5
    assert C.min_distance_formula(3, 1, "half") is None
    with pytest.raises(PreconditionViolated):
        C.min_distance_formula(4, 2, "half")


def test_sphere_packing_guard():
    # formula output never beats the sphere-packing ceiling of 4
    for q0 in (4, 8, 16, 32):
        for s in range(1, 7):
            assert C.min_distance_formula(q0, s, "full") <= 4
    for q0 in (5, 7, 9, 11):
        for s in range(1, 7):
            assert C.min_distance_formula(q0, s, "half") <= 4


def test_min_distance_exhaustive_small():
    # the last three are weight-4 and weight-5 passes over lengths 65 and 41
    cases = [(3, 2, "full", 2), (4, 2, "full", 4), (2, 2, "full", 5),
             (5, 2, "half", 4), (3, 2, "half", 5),
             (8, 2, "full", 4), (2, 6, "full", 5), (3, 4, "half", 5)]
    for q0, s, var, expect in cases:
        code = C.build_code(make_field_for_q0(q0, s), var)
        assert C.min_distance_exhaustive(code, max_weight=5) == expect
        assert C.min_distance_formula(q0, s, var) == expect


def test_min_distance_exhaustive_respects_max_weight():
    code = C.build_code(make_field_for_q0(2, 2), "full")  # d = 5
    assert C.min_distance_exhaustive(code, max_weight=4) is None


# small cells of both variants where the exhaustive search checks the formula
SWEEP = [
    (2, 2, "full"), (2, 3, "full"), (2, 4, "full"), (2, 5, "full"),
    (4, 2, "full"), (4, 3, "full"),
    (3, 2, "full"), (5, 2, "full"), (7, 2, "full"), (9, 2, "full"),
    (3, 2, "half"), (3, 3, "half"),
    (5, 1, "half"), (5, 2, "half"), (5, 3, "half"),
    (7, 1, "half"), (7, 2, "half"), (9, 1, "half"), (9, 2, "half"),
]


def test_formula_matches_exhaustive_sweep():
    for q0, s, var in SWEEP:
        code = C.build_code(make_field_for_q0(q0, s), var)
        formula = C.min_distance_formula(q0, s, var)
        got = C.min_distance_exhaustive(code, max_weight=5)
        assert got == formula, (q0, s, var, got, formula)
    # a search bounded below d finds nothing
    big = C.build_code(make_field_for_q0(3, 4), "half")  # d = 5, dim 33
    assert C.min_distance_exhaustive(big, max_weight=4) is None


def test_weights_2_and_3_are_uncapped():
    tight = Caps(enum_codewords_cap=1)
    for q0, s, var in SWEEP:
        formula = C.min_distance_formula(q0, s, var)
        if formula <= 3:
            code = C.build_code(make_field_for_q0(q0, s, caps=tight), var)
            assert C.min_distance_exhaustive(code, max_weight=5) == formula
    code = C.build_code(make_field_for_q0(4, 2, caps=tight), "full")  # d = 4
    with pytest.raises(SizeCapExceeded):
        C.min_distance_exhaustive(code)


def test_cap_refuses_before_the_pass(monkeypatch):
    # (16,2) full has d = 4; its weight-4 pass would try C(256,2) * 15^2 words
    code = C.build_code(make_field_for_q0(16, 2), "full")
    passes, search = [], C._word_of_weight
    monkeypatch.setattr(C, "_word_of_weight",
                        lambda code, w, rays: passes.append(w) or search(code, w, rays))
    with pytest.raises(SizeCapExceeded, match="weight-4 pass tries 7344000 words"):
        C.min_distance_exhaustive(code, max_weight=5)
    assert passes == [2, 3]


def _weights_by_enumeration(code) -> set:
    """Weights of all nonzero codewords, over the systematic basis read from
    the parity-check matrix [I | A]: information symbols x at positions
    >= 2s, check symbols -A x."""
    ctx, n_checks = code.ctx, 2 * code.s
    info_columns = list(zip(*C.parity_check_matrix(code)))[n_checks:]
    weights = set()
    for info in itertools.product(subfield_elements(ctx, "q0"), repeat=code.dimension):
        checks = [0] * n_checks
        for x, col in zip(info, info_columns):
            if x:
                checks = [ctx.sub(c, ctx.mul(x, a)) for c, a in zip(checks, col)]
        weights.add(C.weight(info) + C.weight(checks))
    weights.discard(0)
    return weights


def test_search_matches_codeword_enumeration():
    cells = [(q0, s, var) for q0, s, var in SWEEP
             if q0 ** C.code_shape(q0, s, var)[1] <= 2**16]
    assert len(cells) == 9
    for q0, s, var in cells:
        code = C.build_code(make_field_for_q0(q0, s), var)
        weights = _weights_by_enumeration(code)
        assert C.min_distance_exhaustive(code, max_weight=code.length) == min(weights)
        rays = C._rays(code)
        for w in (2, 3, 4):
            found = C._word_of_weight(code, w, rays)
            assert (found is not None) == (w in weights), (q0, s, var, w)


def test_weight3_witness_even():
    for q0, s in [(4, 3), (8, 3), (4, 1)]:
        code = C.build_code(make_field_for_q0(q0, s), "full")
        w = C.weight3_witness_even(code)
        assert C.weight(w) == 3 and C.syndrome(code, w) == 0
    with pytest.raises(PreconditionViolated):
        C.weight3_witness_even(C.build_code(make_field_for_q0(4, 2), "full"))
    with pytest.raises(PreconditionViolated):
        C.weight3_witness_even(C.build_code(make_field_for_q0(2, 3), "full"))


def test_weight3_witness_half_odd():
    for q0, s in [(5, 3), (7, 3), (5, 1), (9, 3)]:
        code = C.build_code(make_field_for_q0(q0, s), "half")
        w = C.weight3_witness_half_odd(code)
        assert C.weight(w) == 3 and C.syndrome(code, w) == 0
    with pytest.raises(PreconditionViolated):
        C.weight3_witness_half_odd(C.build_code(make_field_for_q0(5, 2), "half"))


def test_witness_rejected_when_perturbed():
    code = C.build_code(make_field_for_q0(5, 3), "half")
    ctx = code.ctx
    w = C.weight3_witness_half_odd(code)
    i = C.support(w)[0]
    bad = list(w)
    bad[i] = ctx.add(bad[i], 1)
    assert not C.contains(code, bad)


def test_witness_zeta_elements_in_h():
    # the two derived support elements are norm-one and the signed relation holds
    code = C.build_code(make_field_for_q0(7, 3), "half")
    ctx = code.ctx
    w = C.weight3_witness_half_odd(code)
    total = 0
    for i in C.support(w):
        total = ctx.add(total, ctx.mul(w[i], code.positions[i]))
    assert total == 0


def test_shift_symmetries():
    rng = random.Random(8)
    for q0, s, var in [(4, 2, "full"), (2, 3, "full"), (5, 2, "half"), (3, 2, "half")]:
        ctx = make_field_for_q0(q0, s)
        code = C.build_code(ctx, var)
        basis = systematic_basis(code)
        subs = subfield_elements(ctx, "q0")
        for _ in range(10):
            word = [0] * code.length
            for vec in basis:
                c = rng.choice(subs)
                word = [ctx.add(a, ctx.mul(c, b)) for a, b in zip(word, vec)]
            assert C.contains(code, word)
            shifted = C.cyclic_shift(code, word)
            assert C.contains(code, shifted)


def test_parity_check_columns_round_trip():
    # every column i: sum_r H[r][i] * xi^r = xi^i, with the H[r][i] in F_q0
    for q0, s, variant in [(3, 2, "full"), (4, 2, "full"), (9, 2, "full"),
                           (2, 3, "full"), (5, 2, "half")]:
        ctx = make_field_for_q0(q0, s)
        code = C.build_code(ctx, variant)
        H = C.parity_check_matrix(code)
        subs = set(subfield_elements(ctx, "q0"))
        for i, pos in enumerate(code.positions):
            acc = 0
            for r, row in enumerate(H):
                assert row[i] in subs
                acc = ctx.add(acc, ctx.mul(row[i], code.h_powers[r]))
            assert acc == pos
