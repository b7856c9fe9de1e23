import json
import math
from pathlib import Path

import numpy as np
import pytest

from zetterberg import _bulk, thresholds
from zetterberg import radius as R
from zetterberg._bulk import BulkField, covering_layers
from zetterberg.caps import Caps
from zetterberg.errors import (PreconditionViolated, SizeCapExceeded, Undecidable,
                               ZetterbergError)
from zetterberg.gf import (Field, factorize, find_irreducible, make_field_for_q0,
                           prime_power_split)
from zetterberg.tower import subfield_elements, subgroup_elements

GOLDEN = Path(__file__).parent / "golden"


def test_oracle_known_small_values():
    for q0, s, expected in [(2, 1, 1), (4, 1, 1), (8, 1, 1), (2, 2, 2), (3, 2, 3)]:
        assert R.covering_radius_oracle(q0, s).rho == expected


def _pure_python_layers(ctx, n_pos=None):
    # independent re-derivation of the layering, set-based, no numpy; steps
    # c * xi^i on the first n_pos positions (all q + 1 by default)
    steps = set()
    xi_pows = [1]
    for _ in range((n_pos or ctx.q + 1) - 1):
        xi_pows.append(ctx.mul(xi_pows[-1], ctx.xi))
    for c in subfield_elements(ctx, "q0"):
        if not c:
            continue
        for h in xi_pows:
            steps.add(ctx.mul(c, h))
    layers = {0: 0}
    frontier = set(steps)
    level = 1
    for v in frontier:
        layers[v] = 1
    while len(layers) < ctx.order:
        level += 1
        nxt = {ctx.add(v, c) for v in frontier for c in steps} - layers.keys()
        for v in nxt:
            layers[v] = level
        frontier = nxt
    return steps, layers


def _classes_count(ctx):
    # r = (q-1) * gcd(2, q0-1) / (q0-1): the index of F_q0^* * H in F_{q^2}^*
    return (ctx.q - 1) * math.gcd(2, ctx.q0 - 1) // (ctx.q0 - 1)


def _class_layers(ctx):
    return _bulk._class_layers(_bulk._NormClasses(ctx))


def _element_layers(ctx):
    # the class oracle's layers expanded to every syndrome code; the class of
    # y != 0 is log_g(y) mod r, read off an ambient log table
    bf = BulkField(ctx)
    out = _class_layers(ctx)[bf.build_log_table(bf._codes(bf.build_exp())) % _classes_count(ctx)]
    out[0] = 0
    return out


def _layer_counts(ctx):
    # syndromes per layer: 0 alone at depth 0, then |G| = (q^2-1)/r per class
    layer = _class_layers(ctx)
    assert layer.min() >= 1
    counts = np.bincount(layer) * ((ctx.order - 1) // _classes_count(ctx))
    counts[0] = 1
    return counts.tolist()


def _reference_layers(ctx):
    # plain element BFS under S = F_q0^* * H, built from the two subgroups
    bf = BulkField(ctx)
    c = np.array(subgroup_elements(ctx, "Fq0_star"), dtype=np.int64)
    h = np.array(subgroup_elements(ctx, "H"), dtype=np.int64)
    steps = np.unique(bf.mul(np.repeat(c, h.size), np.tile(h, c.size)))
    return covering_layers(bf, steps.tolist())


def test_oracle_agrees_with_pure_python_bfs():
    for q0, s, expected in [(2, 2, 2), (3, 2, 3)]:  # one rho=2 and one rho=3
        ctx = make_field_for_q0(q0, s)
        steps, layers = _pure_python_layers(ctx)
        assert max(layers.values()) == expected
        layer_arr = covering_layers(BulkField(ctx), steps)
        assert int(layer_arr.max()) == expected
        classes = _element_layers(ctx)
        for v, lv in layers.items():
            assert layer_arr[v] == lv == classes[v]


def _oracle_cells(max_q2):
    return [(q0, s) for q0 in range(2, 1025) if len(factorize(q0)) == 1
            for s in range(1, 21) if q0 ** (2 * s) <= max_q2]


def test_class_oracle_matches_element_bfs():
    # every syndrome's layer and the witness (the smallest code at depth rho)
    # against the plain element BFS, at every cell with q^2 <= 2^16
    cells = _oracle_cells(2**16)
    assert {(2, 8), (3, 5), (16, 2), (256, 1), (251, 1)} <= set(cells)
    for q0, s in cells:
        ctx = make_field_for_q0(q0, s)
        ref = _reference_layers(ctx)
        assert (_element_layers(ctx) == ref).all(), (q0, s)
        rho = int(ref.max())
        rep = R.covering_radius_oracle(q0, s)
        assert rep.rho == rho, (q0, s)
        assert ctx.encode(rep.witness) == int(np.flatnonzero(ref == rho)[0]), (q0, s)


def test_class_edges_match_brute_force():
    # every (norm, trace) cell of the edge grid against the z in F_{q^2}^*
    # that realise it, classified by the ambient log table
    for q0, s in [(3, 1), (3, 2), (5, 2), (7, 1), (2, 4), (4, 2), (8, 2), (9, 2)]:
        ctx = make_field_for_q0(q0, s)
        nc = _bulk._NormClasses(ctx)
        bf = BulkField(ctx)
        log = bf.build_log_table(bf._codes(bf.build_exp()))
        r, Q = _classes_count(ctx), ctx.q - 1
        expected = np.full((Q, Q + 1), -1)
        for z in range(1, ctx.order):
            zq = ctx.pow(z, ctx.q)
            n, t = ctx.mul(z, zq), ctx.add(z, zq)
            # norms and traces lie in F_q^* = <g^(q+1)>: gamma-log = g-log / (q+1)
            j = Q if t == 0 else log[t] // (ctx.q + 1)
            one_z = ctx.add(1, z)
            expected[log[n] // (ctx.q + 1), j] = -1 if one_z == 0 else log[one_z] % r
        assert (nc.edges(np.arange(Q)) == expected).all(), (q0, s)


def test_class_layers_do_not_depend_on_the_block_size(monkeypatch):
    # one row per edge block: every level runs through many blocks
    cells = [(3, 4), (5, 3), (2, 8), (4, 4), (27, 2)]
    wide = {cell: _layer_counts(make_field_for_q0(*cell)) for cell in cells}
    monkeypatch.setattr(_bulk, "_GRID_BLOCK", 1)
    for cell in cells:
        assert _layer_counts(make_field_for_q0(*cell)) == wide[cell], cell


def test_oracle_layer_counts_cover_the_syndrome_space():
    for q0, s in _oracle_cells(2**20):
        ctx = make_field_for_q0(q0, s)
        counts = _layer_counts(ctx)
        assert sum(counts) == ctx.order, (q0, s)
        assert counts[1] == (ctx.order - 1) // _classes_count(ctx)  # G alone


def test_oracle_layer_counts_pinned():
    # the per-layer counts of the element BFS above q^2 = 2^16, where the
    # reference is too slow to rerun here ((27,2) took 27 s)
    pinned = {
        (2, 9): [1, 513, 130815, 130815],
        (2, 10): [1, 1025, 524800, 522750],
        (3, 6): [1, 730, 265720, 264990],
        (4, 5): [1, 3075, 999375, 46125],
        (5, 4): [1, 1252, 292968, 96404],
        (7, 3): [1, 1032, 103200, 13416],
        (8, 3): [1, 3591, 258552],
        (9, 3): [1, 2920, 502240, 26280],
        (27, 2): [1, 9490, 512460, 9490],
    }
    for (q0, s), counts in pinned.items():
        assert _layer_counts(make_field_for_q0(q0, s)) == counts, (q0, s)


def test_oracle_runs_no_element_bfs(monkeypatch):
    def no_bfs(*args):
        raise AssertionError("covering_layers called")
    monkeypatch.setattr(_bulk, "covering_layers", no_bfs)
    for q0, s in [(3, 2), (4, 3), (2, 5)]:
        assert R.covering_radius(q0, s, "verify").cross_checks[-1][0] == "oracle"


def test_oracle_beyond_default_cap_agrees_with_criterion():
    # 2^20 < q^2 <= 2^24: a second opinion for the criterion above the
    # default oracle cap
    raised = Caps(oracle_cap=2**24)
    for q0, s in [(37, 2), (2, 11), (3, 7), (8, 4)]:
        assert 2**20 < q0 ** (2 * s) <= 2**24
        oracle = R.covering_radius_oracle(q0, s, caps=raised).rho
        assert oracle == R.rho_criterion(q0, s).rho, (q0, s)
        shortcut = R.rho_shortcuts(q0, s)
        if shortcut is not None:
            assert oracle == shortcut[0], (q0, s, shortcut)


def test_oracle_layers_constant_on_orbits():
    ctx = make_field_for_q0(3, 2)
    layer = _element_layers(ctx)
    scalars = [c for c in subfield_elements(ctx, "q0") if c]
    for v in range(ctx.order):
        assert layer[ctx.mul(v, ctx.xi)] == layer[v]
        for c in scalars:
            assert layer[ctx.mul(c, v)] == layer[v]


def test_oracle_cap():
    with pytest.raises(SizeCapExceeded):
        R.covering_radius_oracle(2, 11)  # q^2 = 2^22 over the default cap


def test_criterion_odd_regression_small():
    assert R.rho_criterion_odd(13, 3).rho == 3
    assert R.rho_criterion_odd(17, 3).rho == 2
    rep = R.rho_criterion_odd(13, 3)
    assert rep.witness is not None and rep.witness_field["p"] == 13


def test_criterion_even_regression_small():
    assert R.rho_criterion_even(4, 3).rho == 2
    assert R.rho_criterion_even(4, 5).rho == 3
    assert R.rho_criterion_even(8, 5).rho == 2


def test_criterion_preconditions():
    with pytest.raises(PreconditionViolated):
        R.rho_criterion_odd(4, 3)
    with pytest.raises(PreconditionViolated):
        R.rho_criterion_even(5, 3)
    with pytest.raises(PreconditionViolated):
        R.rho_criterion_odd(13, 1)


def test_criterion_representation_independent():
    # the scan on F_q built from the next irreducible modulus must decide the
    # same rho as the default representation
    for q0, s in [(13, 3), (17, 3), (4, 5), (8, 3)]:
        p, m = prime_power_split(q0)
        K = Field(p, s * m, find_irreducible(p, s * m, skip=1))
        assert K.modulus != R._criterion_field(q0, s, Caps()).modulus
        witness = _bulk._scan(K, q0, _bulk._EvalBudget(Caps().scan_cap))[0]
        assert (3 if witness is not None else 2) == R.rho_criterion(q0, s).rho


def test_witness_count_odd():
    assert R.witness_count_odd(17, 3) == 0
    n13 = R.witness_count_odd(13, 3)
    assert n13 > 0
    # equivalence with the decision for a couple of small scans
    for q0, s in [(13, 3), (17, 3), (19, 3)]:
        count = R.witness_count_odd(q0, s)
        rho = R.rho_criterion_odd(q0, s).rho
        assert (count > 0) == (rho == 3)


def test_witness_count_rejects_even_s():
    with pytest.raises(PreconditionViolated):
        R.witness_count_odd(13, 2)


def test_scan_cap_enforced():
    tight = Caps(scan_cap=10)
    with pytest.raises(SizeCapExceeded):
        R.rho_criterion_odd(17, 3, caps=tight)


def test_digit_kernel_limit_is_a_cap(monkeypatch):
    # with criterion_order_cap lifted, a field beyond exact float digits is
    # refused like any cap, before the field (or context) is even built
    def refuse(*args, **kwargs):
        raise AssertionError("field built")

    monkeypatch.setattr(R, "Field", refuse)
    monkeypatch.setattr(R, "make_field_for_q0", refuse)
    lifted = Caps(criterion_order_cap=2**60)
    with pytest.raises(SizeCapExceeded, match="exact float digit kernels"):
        R.rho_criterion(200003, 2, caps=lifted)
    # likewise the oracle's ambient field, with its caps lifted
    lifted = Caps(oracle_cap=2**40, max_ambient_order=2**40)
    with pytest.raises(SizeCapExceeded, match="exact float digit kernels"):
        R.covering_radius_oracle(200003, 1, caps=lifted)


def test_scan_tests_decode_no_code(monkeypatch):
    # the tests run on digit rows in both parities: decode runs for the exp
    # builds and the blocks of a scan, never inside a test call.  (5,7) is
    # an odd-q0 count scan; (16,5) has rho = 2, so its scan runs all 15
    # tests on every block
    decode = BulkField.decode
    survivors = _bulk._survivors
    calls = {"decode": 0, "in_tests": 0, "tests": 0}
    inside = []

    def counting_decode(self, codes):
        calls["decode"] += 1
        calls["in_tests"] += bool(inside)
        return decode(self, codes)

    def watched(cur, n_tests, passes, budget):
        def run(i, t0, t1):
            calls["tests"] += 1
            inside.append(True)
            try:
                return passes(i, t0, t1)
            finally:
                inside.pop()
        return survivors(cur, n_tests, run, budget)

    monkeypatch.setattr(BulkField, "decode", counting_decode)
    monkeypatch.setattr(_bulk, "_survivors", watched)
    assert R.witness_count_odd(5, 7) == 19530
    assert calls["tests"] > 0 and calls["decode"] > 0
    assert calls["in_tests"] == 0
    calls.update(decode=0, tests=0)
    K = R._criterion_field(16, 5, Caps())
    assert _bulk._scan(K, 16, _bulk._EvalBudget(Caps().scan_cap)) == (None, 0)
    assert calls["tests"] > 0 and calls["decode"] > 0
    assert calls["in_tests"] == 0


def test_scan_decodes_no_more_as_blocks_grow(monkeypatch):
    # a block gathers its elements from the exp prefix's digit rows, so a
    # count scan's decode calls do not grow with its blocks: (5,7) scans 2
    # blocks of _BLOCK residues, (5,9) scans 30
    decode = BulkField.decode
    calls = []

    def counting_decode(self, codes):
        calls[-1] += 1
        return decode(self, codes)

    monkeypatch.setattr(BulkField, "decode", counting_decode)
    for s, count in [(7, 19530), (9, 488280)]:
        calls.append(0)
        assert R.witness_count_odd(5, s) == count
    assert calls[0] == calls[1] > 0


def test_exhaustive_scans_pinned():
    # the heaviest exhaustive scans of the benchmark, many blocks at
    # _BLOCK each: first witness code, count and charge of the count scans,
    # and the charge of the rho = 2 scans (no witness)
    pinned = {(5, 9, True): (237, 488280, 162802), (7, 7, True): (272348, 103005, 68516),
              (17, 5, True): (174574, 5560, 70727), (8, 7, False): (None, 0, 2327),
              (16, 5, False): (None, 0, 252), (83, 3, False): (None, 0, 9321)}
    for (q0, s, count_all), (first, count, used) in pinned.items():
        budget = _bulk._EvalBudget(Caps().scan_cap)
        K = R._criterion_field(q0, s, Caps())
        assert _bulk._scan(K, q0, budget, count_all) == (first, count), (q0, s)
        assert budget.used == used, (q0, s)


def test_scan_builds_each_power_once(monkeypatch):
    # the scan extends its exp prefix block by block instead of rebuilding
    # it: the rows build_exp computes add up to the final prefix length
    build_exp = BulkField.build_exp
    built = []

    def counting_exp(self, *args, **kwargs):
        rows = build_exp(self, *args, **kwargs)
        prefix = args[1] if len(args) > 1 else kwargs.get("prefix")
        built.append((rows.shape[0], 0 if prefix is None else prefix.shape[0]))
        return rows

    monkeypatch.setattr(BulkField, "build_exp", counting_exp)
    for q0, s in [(8, 7), (16, 5), (83, 3)]:
        built.clear()
        assert R.rho_criterion(q0, s).rho == 2
        assert len(built) > 1, (q0, s)
        final = built[-1][0]
        assert sum(n - old for n, old in built) == final <= _bulk._BLOCK, (q0, s)


def _orbit_reference(j, d, p, k):
    # pure Python: j is a representative when no j * p^i mod d is smaller,
    # and its orbit size is the least i >= 1 with j * p^i = j mod d
    orbit = [j * p**i % d for i in range(k)]
    return min(orbit) == j, orbit[1:].index(j) + 1 if j in orbit[1:] else k


@pytest.mark.parametrize("d,p,k", [(299593, 2, 21), (69905, 2, 20), (976562, 5, 9),
                                   (177482, 17, 5), (242, 3, 5),
                                   (65537**2 + 65537 + 1, 65537, 3)])
def test_orbit_walk_matches_pure_python(d, p, k):
    # blocks at the start, middle and end of [1, d): the scan residues d of
    # (8,7), (16,5), (5,9), (17,5) and (3,5) run in int32 (d * p < 2^31);
    # the last d, of (65537, 3), runs in int64
    assert pow(p, k, d) == 1
    assert _bulk._residue_dtype(d, p) == (np.int32 if d * p < 2**31 else np.int64)
    for lo in sorted({1, d // 2, max(1, d - 300)}):
        j = np.arange(lo, min(lo + 300, d), dtype=np.int64)
        ref = [_orbit_reference(int(i), d, p, k) for i in j]
        reps = _bulk._orbit_representatives(j, d, p, k)
        assert reps.dtype == _bulk._residue_dtype(d, p)
        assert reps.tolist() == [int(i) for i, (smallest, _) in zip(j, ref) if smallest]
        assert _bulk._orbit_sizes(j, d, p).tolist() == [size for _, size in ref]


def test_shortcut_rules():
    assert R.rho_shortcuts(3, 7) == (3, "q0=3")
    assert R.rho_shortcuts(16, 5) == (2, "odd s<=q0/2")
    assert R.rho_shortcuts(19, 3) == (2, "s<=s^*")
    assert R.rho_shortcuts(5, 3) == (3, "s>=s_*")
    assert R.rho_shortcuts(2, 1) == (1, "s=1")
    assert R.rho_shortcuts(7, 1) == (2, "s=1")
    assert R.rho_shortcuts(2, 6) == (3, "even s>=4")
    assert R.rho_shortcuts(7, 4) == (3, "even s")
    assert R.rho_shortcuts(4, 3) is None
    assert R.rho_shortcuts(16, 9) is None


def _rho_shortcuts_inline_bounds(q0, s):
    # the rules with the s^* bounds written out as inequalities
    if s < 1:
        raise ValueError("s must be >= 1")
    if q0 % 2 == 0:
        if s == 1:
            return 1, "s=1"
        if s == 2:
            return 2, "s=2"
        if s % 2 == 0:
            return 3, "even s>=4"
        if s <= q0 // 2:
            return 2, "odd s<=q0/2"
        if s >= thresholds.s_star_upper_even(q0):
            return 3, "s>=s_*"
    else:
        if s == 1:
            return 2, "s=1"
        if q0 == 3:
            return 3, "q0=3"
        if s % 2 == 0:
            return 3, "even s"
        if 4 * (s - 1) ** 2 * q0 < (q0 - 1) ** 2:
            return 2, "s<=s^*"
        if s >= thresholds.s_star_upper_odd(q0):
            return 3, "s>=s_*"
    for d in range(3, s, 2):
        if s % d == 0:
            decided = _rho_shortcuts_inline_bounds(q0, d)
            if decided is not None and decided[0] == 3:
                return 3, f"divisor s'={d}"
    return None


def test_shortcut_bounds_are_the_s_star_thresholds():
    for q0 in range(2, 513):
        if len(factorize(q0)) != 1:
            continue
        for s in range(1, 61):
            assert R.rho_shortcuts(q0, s) == _rho_shortcuts_inline_bounds(q0, s), (q0, s)


def test_shortcut_divisor_rule():
    # rho(C_3(5)) = 3 via s >= s_*, and 3 | 9 propagates when the direct
    # rules stay silent; for q0 = 5 s=9 is already >= s_*, so check the
    # mechanism on a constructed case instead: s=15 for q0=23 (s_* = 7).
    rho, rule = R.rho_shortcuts(23, 15)
    assert rho == 3  # either s >= s_* or the divisor rule; both give 3


def test_dispatcher_auto_and_verify():
    rep = R.covering_radius(5, 3, "auto")
    assert rep.rho == 3 and rep.method.startswith("shortcut")
    rep = R.covering_radius(3, 2, "verify")
    assert rep.rho == 3
    methods = {m for m, _ in rep.cross_checks}
    assert {"oracle", "criterion"} <= methods or len(methods) >= 2
    assert len({r for _, r in rep.cross_checks}) == 1


def test_dispatcher_gap_cell_uses_criterion():
    rep = R.covering_radius(4, 3, "auto")
    assert rep.rho == 2 and rep.method == "criterion"


def test_dispatcher_undecidable():
    with pytest.raises(Undecidable):
        R.covering_radius(16, 9, "auto")
    with pytest.raises(Undecidable):
        R.covering_radius(4, 3, "shortcut")


def test_report_json_shape():
    rep = R.covering_radius(3, 2, "verify")
    data = rep.to_json(timing=False)
    assert set(data) >= {"q0", "s", "rho", "method", "witness", "cross_checks"}
    assert "elapsed_ms" not in data
    blob = json.dumps(data, sort_keys=True)
    assert json.loads(blob)["rho"] == 3


def test_half_full_equality():
    for q0, s in [(3, 2), (5, 2), (7, 2)]:
        assert R.half_full_radius_equality_check(q0, s)
    with pytest.raises(PreconditionViolated):
        R.half_full_radius_equality_check(4, 2)


def _steps(ctx):
    """steps[c, i] = c * xi^i for c in F_q0^*, 0 <= i <= q: the syndromes of
    weight-1 words, position by position."""
    bf = BulkField(ctx)
    xi_pows = bf.powers(ctx.xi, ctx.q + 1)
    sub = np.array([c for c in subfield_elements(ctx, "q0") if c], dtype=np.int64)
    prod = bf.mul(np.repeat(sub, xi_pows.size), np.tile(xi_pows, sub.size))
    return prod.reshape(sub.size, xi_pows.size)


def test_half_full_check_matches_step_sets():
    # brute-force reference: the half code's steps (positions i < (q+1)/2)
    # are all of the full code's exactly when the check returns True
    cells = [(q0, s) for q0 in range(3, 256, 2) if len(factorize(q0)) == 1
             for s in range(1, 9) if q0 ** (2 * s) <= 2**16]
    assert len(cells) == 72
    for q0, s in cells:
        steps = _steps(make_field_for_q0(q0, s))
        half = steps[:, :steps.shape[1] // 2]  # q + 1 columns
        same = np.array_equal(np.unique(half), np.unique(steps))
        assert same == R.half_full_radius_equality_check(q0, s), (q0, s)


def test_half_code_bfs_matches_full_oracle_layers():
    # brute-force reference for the half code: a plain BFS over its own steps
    # (positions i < (q+1)/2) gives the full-code oracle's layers everywhere
    for q0, s in [(3, 2), (5, 2), (7, 2), (3, 3)]:
        ctx = make_field_for_q0(q0, s)
        _, layers = _pure_python_layers(ctx, (ctx.q + 1) // 2)
        full = _element_layers(ctx)
        assert [layers[v] for v in range(ctx.order)] == [int(v) for v in full]


def test_half_full_check_runs_no_bfs(monkeypatch):
    def no_bfs(*args):
        raise AssertionError("a BFS was called")
    monkeypatch.setattr(_bulk, "_class_layers", no_bfs)
    monkeypatch.setattr(_bulk, "covering_layers", no_bfs)
    for q0, s in [(3, 2), (7, 3), (13, 2)]:
        assert R.half_full_radius_equality_check(q0, s)
    with pytest.raises(SizeCapExceeded):
        R.half_full_radius_equality_check(3, 7)  # q^2 = 3^14 over the cap


def test_radius_reports_match_golden():
    # to_json(timing=False) of every strategy, or the class of what it raised
    out = {}
    for q0, s in [(2, 2), (3, 2), (4, 3), (5, 2), (13, 3), (16, 9)]:
        row = {}
        for strategy in ["auto", "oracle", "criterion", "shortcut", "verify"]:
            try:
                row[strategy] = R.covering_radius(q0, s, strategy).to_json(timing=False)
            except ZetterbergError as e:
                row[strategy] = {"error": type(e).__name__}
        out[f"{q0},{s}"] = row
    text = json.dumps(out, indent=1, sort_keys=True) + "\n"
    assert text == (GOLDEN / "radius_reports.json").read_text()


def test_rho_bounds_for_s_at_least_two():
    for q0, s in [(2, 2), (2, 5), (3, 2), (4, 3), (5, 2)]:
        rho = R.covering_radius_oracle(q0, s).rho
        assert rho in (2, 3)


def test_odd_scan_matches_naive_double_loop():
    # re-derive the (13,3) decision with explicit square sets, no shortcuts
    from zetterberg.gf import Field, find_irreducible
    K = Field(13, 3, find_irreducible(13, 3))
    squares_q = {K.mul(x, x) for x in range(1, K.order)}
    sub = K.subfield_elements(1)
    squares_q0 = sorted({K.mul(c, c) for c in sub if c})
    witnesses = [x for x in range(1, K.order)
                 if x not in squares_q0
                 and all(K.mul(x, K.sub(x, b)) in squares_q for b in squares_q0)]
    assert len(witnesses) == R.witness_count_odd(13, 3) == 24
    rep = R.rho_criterion_odd(13, 3)
    assert K.encode(rep.witness) in witnesses


def test_even_scan_matches_naive_double_loop():
    from zetterberg.gf import Field, find_irreducible
    K = Field(2, 10, find_irreducible(2, 10))  # q0 = 4, s = 5
    sub = K.subfield_elements(2)
    sub_nz = [c for c in sub if c]
    naive = [a for a in range(K.order)
             if a not in sub and K.trace_to(a, 2) == 0
             and all(K.trace_to(K.inv(K.add(1, K.mul(b, a))), 2) in (0, 1)
                     for b in sub_nz)]
    rep = R.rho_criterion_even(4, 5)
    assert bool(naive) == (rep.rho == 3)
    assert K.encode(rep.witness) in naive


def _naive_scan(q0, s):
    """The criterion by plain double loops over every x = g^j, 0 <= j < q-1:
    the field, d, the witness indices j in ascending order, and the
    evaluations an exhaustive scan charges on each orbit representative r
    (0 < r < d, r <= r * p^i mod d, a candidate): one per test run, up to
    the first test that r fails."""
    from zetterberg.gf import Field, find_irreducible, prime_power_split
    p, m = prime_power_split(q0)
    K = Field(p, s * m, find_irreducible(p, s * m))
    sub = K.subfield_elements(m)
    powers = [1]
    for _ in range(K.order - 2):
        powers.append(K.mul(powers[-1], K.generator))
    if q0 % 2:
        squares_q = set(powers[0::2])
        tests = sorted({K.mul(c, c) for c in sub if c})

        def candidate(x):
            return x not in tests

        def passes(x, b):
            return K.mul(x, K.sub(x, b)) in squares_q
    else:
        log = {x: j for j, x in enumerate(powers)}
        tests = [b for b in sub if b]
        tr = [0]  # Tr to F_q0 of every code, by additivity over the bits
        for i in range(K.k):
            t = K.trace_to(1 << i, m)
            tr += [v ^ t for v in tr]

        def candidate(a):
            return a not in sub and tr[a] == 0

        def passes(a, b):  # 1/y = g^(-log y); y = 0 would put a in F_q0
            return tr[powers[-log[K.add(1, K.mul(b, a))]]] in (0, 1)
    d = (K.order - 1) // len(tests)
    witnesses = [j for j, x in enumerate(powers)
                 if candidate(x) and all(passes(x, b) for b in tests)]
    charges = {}
    for r in range(1, d):
        if candidate(powers[r]) and all(r <= r * p**i % d for i in range(1, s * m)):
            charges[r] = next((i + 1 for i, b in enumerate(tests)
                               if not passes(powers[r], b)), len(tests))
    return K, d, witnesses, charges


def test_scan_matches_naive_double_loops():
    # decision, first witness, witness count, and the exact budget of every
    # exhaustive scan; (19,3) and (23,3) are rho=2 and span two and three
    # blocks of their 256-residue start
    for q0, s in [(3, 2), (5, 2), (13, 3), (17, 3), (19, 3), (23, 3), (4, 5), (16, 3),
                  (4, 2)]:
        K, _, naive, charges = _naive_scan(q0, s)
        rep = R.rho_criterion(q0, s)
        assert rep.rho == (3 if naive else 2)
        field = rep.witness_field
        first = None if rep.witness is None else \
            sum(d * field["p"] ** i for i, d in enumerate(rep.witness))
        assert first == (K.pow(K.generator, naive[0]) if naive else None)
        K = R._criterion_field(q0, s, Caps())
        if s % 2:  # both parities: (4,5) has 45 witnesses, (16,3) none
            if q0 % 2:
                assert R.witness_count_odd(q0, s) == len(naive)
            budget = _bulk._EvalBudget(Caps().scan_cap)
            assert _bulk._scan(K, q0, budget, count_all=True) == (first, len(naive))
            assert budget.used == sum(charges.values())
        if not naive:  # a rho=2 scan is exhaustive too
            budget = _bulk._EvalBudget(Caps().scan_cap)
            assert _bulk._scan(K, q0, budget) == (None, 0)
            assert budget.used == sum(charges.values())


def test_criterion_witnesses_are_closed_under_the_scan_symmetries():
    # the witness indices are a union of orbits of j -> j + d and j -> p j
    # (mod q - 1), which is what lets the scan test one residue per orbit
    for q0 in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16):
        p, _ = prime_power_split(q0)
        s = 2
        while q0 ** s <= 1 << 14:
            K, d, naive, _ = _naive_scan(q0, s)
            n1, witnesses = K.order - 1, set(naive)
            assert {(j + d) % n1 for j in witnesses} == witnesses, (q0, s)
            assert {p * j % n1 for j in witnesses} == witnesses, (q0, s)
            s += 1


def test_even_q0_with_s_2_builds_no_table(monkeypatch):
    # Tr(x) = x + x^q0 vanishes only on F_q0, which the scan excludes: no
    # candidate, so rho = 2 with nothing charged and no table built
    def refuse(*args, **kwargs):
        raise AssertionError("exp table built")

    monkeypatch.setattr(BulkField, "build_exp", refuse)
    for q0 in (512, 1024):
        budget = _bulk._EvalBudget(Caps().scan_cap)
        assert _bulk._scan(R._criterion_field(q0, 2, Caps()), q0, budget) == (None, 0)
        assert budget.used == 0
        assert R.rho_criterion(q0, 2).rho == 2


def test_early_exit_budget_pinned():
    # a rho=3 scan stops after the block that holds its first witness (the
    # first block has (q-1) >> 9 residues, at least 2^8; each next one
    # doubles) and charges what the naive loop charges the orbit
    # representatives below that block's end
    for q0, s in [(13, 3), (4, 5)]:
        K, d, naive, charges = _naive_scan(q0, s)
        end, size = 0, max(1 << 8, (K.order - 1) >> 9)
        while end <= naive[0]:
            end, size = min(end + size, d), min(2 * size, _bulk._BLOCK)
        budget = _bulk._EvalBudget(Caps().scan_cap)
        first = _bulk._scan(R._criterion_field(q0, s, Caps()), q0, budget)[0]
        assert first == K.pow(K.generator, naive[0])
        assert budget.used == sum(c for r, c in charges.items() if r < end)
    # the same charge at cells too large for the naive loop here, where the
    # last tests of a block run as one 2-D call; one evaluation less of
    # scan_cap stops each scan with SizeCapExceeded
    for (q0, s), used in {(1849, 2): 2795, (19, 5): 8877, (43, 4): 12370}.items():
        K = R._criterion_field(q0, s, Caps())
        budget = _bulk._EvalBudget(Caps().scan_cap)
        assert _bulk._scan(K, q0, budget)[0] is not None
        assert budget.used == used
        with pytest.raises(SizeCapExceeded):
            _bulk._scan(K, q0, _bulk._EvalBudget(used - 1))


def test_scan_holds_no_table_of_size_q(monkeypatch):
    # the scan forms its elements block by block from an exp table of at
    # most _BLOCK powers, and builds no chi, log or trace table
    def refuse(*args, **kwargs):
        raise AssertionError("a table of size q was built")

    build_exp = BulkField.build_exp

    def short_exp(self, n=None, prefix=None):
        assert n is not None and n <= _bulk._BLOCK
        return build_exp(self, n, prefix)

    for name in ["build_chi_table", "build_log_table", "build_trace_table_char2"]:
        monkeypatch.setattr(BulkField, name, refuse)
    monkeypatch.setattr(BulkField, "build_exp", short_exp)
    assert R.witness_count_odd(5, 9) == 488280
    for q0, s in [(8, 7), (128, 3), (16, 5)]:
        assert R.rho_criterion(q0, s).rho == 2


def test_criterion_witnesses_pinned():
    # witnesses found early in large scans, as the full-table scan found them
    pinned = {
        (4, 9): ([1, 1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 1],
                 {"p": 2, "k": 18,
                  "modulus": [1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1]}),
        (27, 4): ([0, 0, 0, 1, 1, 0, 0, 1, 2, 2, 1, 1],
                  {"p": 3, "k": 12, "modulus": [1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1, 1]}),
        (19, 5): ([1, 9, 13, 17, 9], {"p": 19, "k": 5, "modulus": [1, 0, 0, 0, 3, 1]}),
    }
    for (q0, s), (witness, field) in pinned.items():
        rep = R.rho_criterion(q0, s)
        assert (rep.rho, rep.witness, rep.witness_field) == (3, witness, field)
