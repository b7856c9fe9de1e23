"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every expected value here is either a known table value for this code
family or is
recomputed by an independent brute-force oracle inside the test.
"""

import random
import time
from pathlib import Path

import numpy as np

from zetterberg import charsum as cs
from zetterberg import code as C
from zetterberg import radius as R
from zetterberg import thresholds as th
from zetterberg.gf import Field, factorize, make_field_for_q0
from zetterberg.tower import chi_field, subfield_elements, subgroup_elements

GOLDEN = Path(__file__).parent / "golden"


def _pass(num, name, t0):
    print(f"ACCEPTANCE {num:02d} {name}: PASS ({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------
# 1. oracle ground truth


def test_criterion_01_oracle_ground_truth():
    t0 = time.time()
    for q0, s, expected in [(2, 1, 1), (4, 1, 1), (8, 1, 1), (2, 2, 2), (3, 2, 3)]:
        t = time.time()
        rep = R.covering_radius_oracle(q0, s)
        assert rep.rho == expected, (q0, s, rep.rho)
        assert time.time() - t < 10
    _pass(1, "oracle ground truth", t0)


# ---------------------------------------------------------------------------
# 2. odd criterion regression


def test_criterion_02_odd_criterion_regression():
    t0 = time.time()
    for q0, s, expected in [(13, 3, 3), (17, 3, 2), (23, 5, 3), (25, 5, 3),
                            (27, 5, 3), (29, 5, 3)]:
        t = time.time()
        rep = R.rho_criterion_odd(q0, s)
        assert rep.rho == expected, (q0, s, rep.rho)
        assert time.time() - t < 60, (q0, s, time.time() - t)
    _pass(2, "odd criterion regression", t0)


# ---------------------------------------------------------------------------
# 3. even criterion regression


def test_criterion_03_even_criterion_regression():
    t0 = time.time()
    for q0, s, expected in [(4, 3, 2), (4, 5, 3), (8, 5, 2), (8, 7, 2)]:
        t = time.time()
        rep = R.rho_criterion_even(q0, s)
        assert rep.rho == expected, (q0, s, rep.rho)
        assert time.time() - t < 60, (q0, s, time.time() - t)
    _pass(3, "even criterion regression", t0)


# ---------------------------------------------------------------------------
# 4. master consistency


def test_criterion_04_master_consistency():
    t0 = time.time()
    pairs = []
    for q0 in range(2, 17):
        if len(factorize(q0)) != 1:
            continue
        s = 2
        while q0 ** (2 * s) <= 2**20:
            pairs.append((q0, s))
            s += 1
    assert len(pairs) == 30
    for q0, s in pairs:
        oracle = R.covering_radius_oracle(q0, s).rho
        criterion = R.rho_criterion(q0, s).rho
        shortcut = R.rho_shortcuts(q0, s)
        assert oracle in (2, 3), (q0, s, oracle)
        assert oracle == criterion, (q0, s, oracle, criterion)
        if shortcut is not None:
            assert shortcut[0] == oracle, (q0, s, shortcut, oracle)
    assert time.time() - t0 < 1800
    _pass(4, f"master consistency over {len(pairs)} parameter sets", t0)


# ---------------------------------------------------------------------------
# 5. threshold tables


def test_criterion_05_threshold_tables():
    t0 = time.time()
    odd = th.table_to_csv("odd", th.threshold_table("odd", 59))
    assert odd == (GOLDEN / "thresholds_odd.csv").read_text()
    even = th.table_to_csv("even", th.threshold_table("even", 128))
    assert even == (GOLDEN / "thresholds_even.csv").read_text()
    for q0, expected in [(2, 3), (4, 7), (8, 15), (16, 27), (32, 55),
                         (64, 111), (128, 223)]:
        assert th.s_star_upper_even(q0) == expected
    assert time.time() - t0 < 10
    _pass(5, "threshold tables byte-match", t0)


# ---------------------------------------------------------------------------
# 6. threshold range property


def test_criterion_06_threshold_range_property():
    t0 = time.time()
    ambiguous = []
    for q0 in th.odd_prime_powers(199, 13):
        r = th.threshold_range_check_odd(q0)
        assert r.applicable
        assert r.s_prime - r.s_star in (0, 2), (q0, r)
        if r.boundary_ambiguous:
            ambiguous.append(q0)  # reported, not asserted
        else:
            assert r.interval_ok, (q0, r)
    if ambiguous:
        print(f"    boundary-ambiguous q0: {ambiguous}")
    _pass(6, "threshold range property 13..199", t0)


# ---------------------------------------------------------------------------
# 7. minimum distance: formula vs exhaustive


def test_criterion_07_min_distance():
    t0 = time.time()
    cases = [(2, 2, "full", 5), (2, 3, "full", 3), (4, 2, "full", 4),
             (4, 3, "full", 3), (3, 2, "half", 5), (5, 2, "half", 4),
             (5, 3, "half", 3), (7, 2, "half", 4)]
    for q0, s, variant, expected in cases:
        t = time.time()
        code = C.build_code(make_field_for_q0(q0, s), variant)
        formula = C.min_distance_formula(q0, s, variant)
        found = C.min_distance_exhaustive(code, max_weight=5)
        assert formula == found == expected, (q0, s, variant, formula, found)
        assert time.time() - t < 120
    _pass(7, "minimum distance formula = exhaustive", t0)


# ---------------------------------------------------------------------------
# 8. weight-3 witness constructions


def test_criterion_08_weight3_witnesses():
    t0 = time.time()
    even_cases = []
    q0 = 4
    while q0 <= 4096:
        s = 1
        while q0**s <= 4096:
            even_cases.append((q0, s))
            s += 2
        q0 *= 2
    odd_cases = []
    for q0 in range(5, 4097, 2):
        if len(factorize(q0)) != 1:
            continue
        s = 1
        while q0**s <= 4096:
            odd_cases.append((q0, s))
            s += 2
    assert {(4, 3), (8, 3)} <= set(even_cases)
    assert {(5, 3), (7, 3)} <= set(odd_cases)
    for q0, s in even_cases:
        code = C.build_code(make_field_for_q0(q0, s), "full")
        w = C.weight3_witness_even(code)
        assert C.weight(w) == 3 and C.syndrome(code, w) == 0, (q0, s)
    for q0, s in odd_cases:
        code = C.build_code(make_field_for_q0(q0, s), "half")
        w = C.weight3_witness_half_odd(code)
        assert C.weight(w) == 3 and C.syndrome(code, w) == 0, (q0, s)
    _pass(8, f"weight-3 witnesses ({len(even_cases)} even + {len(odd_cases)} odd)", t0)


# ---------------------------------------------------------------------------
# 9. character-identity suites


def _verify_quadratic_identity_bulk(F: Field):
    """Direct summation == closed form for every (a2 != 0, a1, a0)."""
    q = F.order
    mul = np.empty((q, q), dtype=np.int64)
    add = np.empty((q, q), dtype=np.int64)
    for a in range(q):
        mul[a] = [F.mul(a, b) for b in range(q)]
        add[a] = [F.add(a, b) for b in range(q)]
    chi = np.array([chi_field(F, v) for v in range(q)], dtype=np.int64)
    sq = np.array([F.mul(x, x) for x in range(q)], dtype=np.int64)
    lin = mul.T                                    # lin[x, a1] = a1*x
    a0s = np.arange(q)
    inv4 = F.inv(F.encode([4 % F.p]))
    # chi_shift[v, a0] = chi(v + a0); all sums fit far inside float64 exactness
    chi_shift = chi[add].astype(np.float64)
    offsets = (a0s * q)[None, :]
    for a2 in range(1, q):
        t_quad = mul[a2][sq]                       # a2*x^2 per x
        r = add[t_quad[:, None], lin]              # r[x, a1]
        # counts[a1, v] = #{x : a2*x^2 + a1*x = v}, then one matmul gives
        # sums[a1, a0] = sum_v counts[a1, v] * chi(v + a0)
        counts = np.bincount((r + offsets).ravel(), minlength=q * q)
        counts = counts.reshape(q, q).astype(np.float64)
        sums = np.rint(counts @ chi_shift).astype(np.int64)
        expected = np.full((q, q), -chi[a2], dtype=np.int64)
        # discriminant a1^2 - 4*a0*a2 vanishes at a0 = a1^2/(4*a2)
        a0_zero_d = mul[F.mul(inv4, F.inv(a2))][sq]
        expected[a0s, a0_zero_d] = (q - 1) * chi[a2]
        assert (sums == expected).all(), (F.p, F.k, a2)


def test_criterion_09_character_identity_suites():
    t0 = time.time()
    # (a) quadratic-sum closed form, every odd prime-power order <= 169
    for q in range(3, 170, 2):
        fac = factorize(q)
        if len(fac) != 1:
            continue
        p, k = fac[0]
        _verify_quadratic_identity_bulk(Field(p, k))
    print(f"    quadratic identity swept (odd orders <= 169) "
          f"[{time.time() - t0:.1f}s]")

    # (b) root-in-H counts, odd q in {9, 25, 27}: alpha fully exhaustive.
    # Brute force: the products alpha*h^2 and beta*h come from scalar
    # Field.mul; numpy adds their digit vectors and counts the zero sums.
    t = time.time()
    for q0, s in [(3, 2), (5, 2), (3, 3)]:
        ctx = make_field_for_q0(q0, s)
        H = subgroup_elements(ctx, "H")
        fq = subfield_elements(ctx, "q")

        def digits(codes):
            return np.array([ctx.decode(c) for c in codes], dtype=np.int64)

        h_sq = [ctx.mul(h, h) for h in H]
        beta_h = np.stack([digits([ctx.mul(beta, h) for h in H]) for beta in fq])
        for alpha in range(ctx.order):
            lhs = (digits([ctx.mul(alpha, x) for x in h_sq])[None] + beta_h
                   + np.array(ctx.decode(ctx.pow(alpha, ctx.q))))
            brute = (lhs % ctx.p == 0).all(axis=2).sum(axis=1)  # per beta
            for beta, n_roots in zip(fq, brute):
                if alpha == 0 and beta == 0:
                    continue
                assert cs.roots_in_H_count_odd(ctx, alpha, beta) == n_roots
    print(f"    odd root-location criterion checked [{time.time() - t:.1f}s]")

    # (c) Artin-Schreier solvability, exhaustive over q in {4, 8, 16, 64}
    for k in (2, 3, 4, 6):
        F = Field(2, k)
        for a in range(1, F.order):
            a2 = F.mul(a, a)
            for b in range(F.order):
                brute = any(
                    F.add(F.add(F.mul(x, x), F.mul(a, x)), b) == 0
                    for x in range(F.order))
                assert cs.artin_schreier_solvable(F, a, b) == brute

    # (d) even root-in-H criterion, exhaustive over q in {4, 8, 16}
    for q0, s in [(2, 2), (2, 3), (4, 2)]:
        ctx = make_field_for_q0(q0, s)
        H = subgroup_elements(ctx, "H")
        for alpha in range(ctx.order):
            aq = ctx.pow(alpha, ctx.q)
            for beta in subfield_elements(ctx, "q"):
                if beta == 0:
                    continue
                roots = [h for h in H
                         if ctx.add(ctx.add(ctx.mul(alpha, ctx.mul(h, h)),
                                            ctx.mul(beta, h)), aq) == 0]
                flag = cs.roots_in_H_exist_even(ctx, alpha, beta)
                assert flag == bool(roots)
                if flag:
                    assert len(roots) == 2

    # (e) Weil bound: > 10^3 randomized instances, zero violations
    rng = random.Random(42)
    fields = [Field(5, 2), Field(3, 3), Field(7, 2), Field(3, 4), Field(11, 2),
              Field(13, 2)]
    done = 0
    while done < 1100:
        F = rng.choice(fields)
        q = F.order
        kind = rng.randrange(3)
        if kind == 0:  # squarefree cubic
            f = (rng.randrange(q), rng.randrange(q), rng.randrange(q), 1)
            if cs.poly_deg(cs.poly_gcd(F, f, cs.poly_deriv(F, f))) != 0:
                continue
            factors = [(f, 2)]
        elif kind == 1:  # product of three distinct linear factors
            roots = rng.sample(range(q), 3)
            factors = [((F.neg(r), 1), 2) for r in roots]
        else:  # two coprime quadratics
            f1 = (rng.randrange(q), rng.randrange(q), 1)
            f2 = (rng.randrange(q), rng.randrange(q), 1)
            if cs.poly_deg(cs.poly_gcd(F, f1, f2)) != 0:
                continue
            if cs.poly_is_square(F, f1) and cs.poly_is_square(F, f2):
                continue
            factors = [(f1, 2), (f2, 2)]
        rep = cs.weil_bound_check(F, factors)  # raises on violation
        assert rep.margin >= 0
        done += 1
    _pass(9, "character identity suites", t0)


# ---------------------------------------------------------------------------
# 10. classification tables


def test_criterion_10_classification_tables():
    from zetterberg.classify import classify
    t0 = time.time()
    even_rows = {
        (2, 1): (3, 1, "perfect", True), (4, 1): (3, 1, "perfect", True),
        (8, 1): (3, 1, "perfect", True), (2, 2): (5, 2, "perfect", True),
        (2, 4): (5, 3, "quasi-perfect", True), (2, 6): (5, 3, "quasi-perfect", True),
        (4, 2): (4, 2, "quasi-perfect", True), (8, 2): (4, 2, "quasi-perfect", True),
        (8, 3): (3, 2, "quasi-perfect", True), (4, 4): (4, 3, "-", True),
        (8, 4): (4, 3, "-", True), (4, 6): (4, 3, "-", True),
        (8, 6): (4, 3, "-", True),
    }
    odd_rows = {
        (3, 2): (5, 3, "quasi-perfect", True), (3, 3): (5, 3, "quasi-perfect", True),
        (5, 1): (3, 2, "quasi-perfect", True), (7, 1): (3, 2, "quasi-perfect", True),
        (5, 2): (4, 3, "-", True), (7, 2): (4, 3, "-", True),
    }
    for (q0, s), (d, rho, tag, maximal) in even_rows.items():
        r = classify(q0, s, "full")
        assert (r.d, r.rho, r.maximal) == (d, rho, maximal), (q0, s)
        assert r.perfect == (tag == "perfect")
        assert r.quasi_perfect == (tag == "quasi-perfect")
    for (q0, s), (d, rho, tag, maximal) in odd_rows.items():
        r = classify(q0, s, "half")
        assert (r.d, r.rho, r.maximal) == (d, rho, maximal), (q0, s)
        assert r.perfect == (tag == "perfect")
        assert r.quasi_perfect == (tag == "quasi-perfect")
    _pass(10, "classification tables", t0)


# ---------------------------------------------------------------------------
# 11. half/full covering radius equality


def test_criterion_11_half_full_equality():
    t0 = time.time()
    for q0, s in [(3, 2), (5, 2), (7, 2)]:
        assert R.half_full_radius_equality_check(q0, s), (q0, s)
    _pass(11, "half/full covering radius equality", t0)
