import random

import numpy as np
import pytest

from zetterberg._bulk import BulkField, covering_layers
from zetterberg.gf import Field


@pytest.mark.parametrize("p,k", [(2, 6), (2, 11), (3, 4), (5, 3), (29, 2), (7, 2)])
def test_bulk_ops_match_scalar(p, k):
    F = Field(p, k)
    bf = BulkField(F)
    rng = random.Random(p * 100 + k)
    codes = np.array([rng.randrange(F.order) for _ in range(200)], dtype=np.int64)
    assert (bf.encode(bf.decode(codes)) == codes).all()
    for _ in range(5):
        c = rng.randrange(F.order)
        added = bf.add_const(codes, c)
        subbed = bf.sub_const(codes, c)
        mulled = bf.mul(codes, np.array([c]))
        for i in range(0, 200, 17):
            a = int(codes[i])
            assert int(added[i]) == F.add(a, c)
            assert int(subbed[i]) == F.sub(a, c)
            assert int(mulled[i]) == F.mul(a, c)
    other = codes[::-1].copy()
    prod = bf.mul(codes, other)
    for i in range(200):
        assert int(prod[i]) == F.mul(int(codes[i]), int(other[i]))


def test_exp_chi_log_tables_match_scalar():
    for p, k in [(3, 4), (2, 8), (5, 2)]:
        F = Field(p, k)
        bf = BulkField(F)
        exp = bf._codes(bf.build_exp())
        x = 1
        for j in range(F.order - 1):
            assert int(exp[j]) == x
            x = F.mul(x, F.generator)
        log = bf.build_log_table(exp)
        for j in range(0, F.order - 1, 7):
            assert log[exp[j]] == j
        if p != 2:
            chi = bf.build_chi_table(exp)
            assert chi[0] == 0
            half = (F.order - 1) // 2
            assert int((chi == 1).sum()) == half == int((chi == -1).sum())


def test_trace_table_char2_matches_scalar():
    F = Field(2, 8)
    bf = BulkField(F)
    for d in (1, 2, 4):
        tr = bf.build_trace_table_char2(d)
        for v in range(0, 256, 3):
            assert int(tr[v]) == F.trace_to(v, d)


def test_powers_and_frobenius_match_scalar():
    for p, k in [(2, 8), (3, 4), (29, 2)]:
        F = Field(p, k)
        bf = BulkField(F)
        base = F.pow(F.generator, 5)
        pows = bf.powers(base, 70)
        x = 1
        for j in range(70):
            assert int(pows[j]) == x
            x = F.mul(x, base)
        codes = np.arange(F.order, dtype=np.int64)
        for e in range(k + 1):
            frob = bf.frobenius(codes, e)
            for y in range(0, F.order, 11):
                assert int(frob[y]) == F.pow(y, p**e)


@pytest.mark.parametrize("p,k,dtype", [(3, 12, np.float32), (101, 3, np.float64),
                                       (2, 19, np.float32)])
def test_powers_match_scalar(p, k, dtype):
    # n = 2^17 + 2^16 + 5 and order - 1 run doubling steps of more than one
    # 2^16-row block and end past the kept digit rows, in both characteristics
    F = Field(p, k)
    bf = BulkField(F)
    assert bf._dtype is dtype
    base = F.generator
    full = bf.powers(base, F.order - 1)
    assert np.unique(full).size == F.order - 1
    for n in (0, 1, 2, 3, 4, 5, 64, 65, 1 << 16, (1 << 16) + 1, (1 << 17) + (1 << 16) + 5):
        assert (bf.powers(base, n) == full[:n]).all()
    rng = random.Random(p * k)
    seams = [j + d for j in (1 << 16, 1 << 17, 1 << 18, 1 << 19) for d in (-1, 0, 1)
             if j + d < F.order - 1]
    for j in [0, 1, 2, 3, F.order - 2] + seams + [rng.randrange(F.order - 1) for _ in range(200)]:
        assert int(full[j]) == F.pow(base, j)


@pytest.mark.parametrize("k", [1, 2, 7, 8, 9, 16, 17, 21, 22])
def test_char2_mul_const_matches_scalar(k):
    # a product by a constant is a one-row mul, on the same digit kernels
    # as odd p
    F = Field(2, k)
    bf = BulkField(F)
    rng = random.Random(k)
    codes = np.array([0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(300)],
                     dtype=np.int64)
    for c in (0, 1, F.generator, F.order - 1):
        assert bf.mul(codes, np.array([c])).tolist() == [F.mul(int(a), c) for a in codes]


def test_exp_prefix_matches_full_table():
    # a prefix built at once, or extended from any shorter prefix, is the
    # head of the full table's digit rows
    for p, k in [(5, 3), (2, 7)]:
        F = Field(p, k)
        bf = BulkField(F)
        full = bf.build_exp()
        assert bf._codes(full).tolist() == [F.pow(F.generator, j) for j in range(F.order - 1)]
        sizes = (0, 1, 2, 3, 7, 8, 64, 65, 100, F.order - 1)
        for n in sizes:
            assert (bf.build_exp(n) == full[:n]).all()
            for m in sizes:
                assert (bf.build_exp(n, bf.build_exp(m)) == full[:n]).all(), (p, k, m, n)


@pytest.mark.parametrize("p,k", [(3, 4), (5, 3), (29, 2), (5, 9), (7, 7)])
def test_chi_kernel_matches_table_and_norm(p, k):
    # every element of the small fields, random digit rows (0 and 1 among
    # them) of the large ones
    F = Field(p, k)
    bf = BulkField(F)
    sampled = F.order > 1000
    if sampled:
        rows = np.random.default_rng(p * k).integers(0, p, (400, k)).astype(bf._dtype)
        rows[:2] = 0
        rows[1, 0] = 1
    else:
        rows = bf._digits(np.arange(F.order, dtype=np.int64))
    chi = bf._chi(rows)
    if not sampled:
        assert (chi == bf.build_chi_table(bf._codes(bf.build_exp()))).all()
    for y, c in zip(bf._codes(rows).tolist(), chi):
        # scalar reference: Euler's criterion on the norm down to F_p
        euler = pow(F.norm_to(y, 1), (p - 1) // 2, p)
        assert int(c) == (euler if euler < 2 else -1)


@pytest.mark.parametrize("k", [8, 11])
def test_char2_inverse_kernel(k):
    F = Field(2, k)
    bf = BulkField(F)
    everything = np.arange(F.order, dtype=np.int64)
    # 1/y is the square of the kernel's root, and 0 maps to 0
    inv = bf._codes(bf._frobenius(bf._inverse_root(bf._digits(everything)), 1))
    assert int(inv[0]) == 0
    assert (bf.mul(everything[1:], inv[1:]) == 1).all()


@pytest.mark.parametrize("k", [6, 8, 12])
def test_trace_kernel_matches_table(k):
    F = Field(2, k)
    bf = BulkField(F)
    everything = np.arange(F.order, dtype=np.int64)
    for d in range(1, k + 1):
        if k % d == 0:
            tr = bf._codes(bf._trace(bf._digits(everything), d))
            assert (tr == bf.build_trace_table_char2(d)).all()


def test_covering_layers_rejects_asymmetric_steps():
    F = Field(3, 2)
    bf = BulkField(F)
    with pytest.raises(ValueError):
        covering_layers(bf, [1])  # -1 missing


def test_covering_layers_tiny_group():
    # steps {1, -1} over F_9: layer = least number of +-1 terms, i.e. the
    # "distance to zero" along the prime-subfield line, plus the rest
    F = Field(3, 1)
    bf = BulkField(F)
    layer = covering_layers(bf, [1, F.neg(1)])
    assert layer[0] == 0 and layer[1] == 1 and layer[2] == 1


@pytest.mark.parametrize("p,k,dtype", [(5, 9, np.float32), (101, 3, np.float64)])
def test_mul_const_and_one_row_mul_match_scalar(p, k, dtype):
    # the constant as the one row b (one 2-D product) and as the one row a
    # (broadcast against every code's multiplication matrix)
    F = Field(p, k)
    bf = BulkField(F)
    assert bf._dtype is dtype
    rng = random.Random(p + k)
    codes = np.array([0, 1, F.order - 1] + [rng.randrange(F.order) for _ in range(300)],
                     dtype=np.int64)
    for c in (0, 1, p - 1, p, F.order - 1, rng.randrange(F.order), rng.randrange(F.order)):
        expected = [F.mul(int(a), c) for a in codes]
        assert bf.mul(codes, np.array([c])).tolist() == expected
        assert bf.mul(np.array([c]), codes).tolist() == expected


def test_digit_kernels_refuse_inexact_fields():
    # digit products of F_p^2 with p near 10^6 overflow a float mantissa
    bf = BulkField(Field(1000003, 2))
    codes = np.arange(5, dtype=np.int64)
    with pytest.raises(ValueError):
        bf.mul(codes, codes)
    with pytest.raises(ValueError):
        bf._chi(bf._digits(codes))
    with pytest.raises(ValueError):
        bf.powers(2, 5)
    with pytest.raises(ValueError):
        bf.build_exp(5)


def _scalar_layers(F, steps):
    # level-by-level BFS over the additive group with plain sets
    layers = {0: 0}
    frontier = {0}
    level = 0
    while frontier:
        level += 1
        frontier = {F.add(v, c) for v in frontier for c in steps} - layers.keys()
        for v in frontier:
            layers[v] = level
    return layers


def _check_against_scalar_bfs(F, steps):
    layers = _scalar_layers(F, steps)
    if len(layers) < F.order:
        with pytest.raises(ArithmeticError):
            covering_layers(BulkField(F), steps)
        return
    layer = covering_layers(BulkField(F), steps)
    assert [int(v) for v in layer] == [layers[v] for v in range(F.order)]


def test_covering_layers_bottom_up_uses_previous_level_only():
    # a bottom-up pass that accepts a predecessor found earlier in the same
    # level reports radius 7 here and gets 40 layers wrong
    F = Field(101, 1)
    steps = [17, 84, 40, 61]
    layer = covering_layers(BulkField(F), steps)
    assert int(layer.max()) == 8
    _check_against_scalar_bfs(F, steps)


def test_covering_layers_fuzz_against_scalar_bfs():
    rng = random.Random(2024)
    for p, k in [(101, 1), (211, 1), (3, 5), (5, 3), (2, 8), (7, 3)]:
        F = Field(p, k)
        for _ in range(8):
            picks = {rng.randrange(1, F.order) for _ in range(rng.randrange(1, 4))}
            steps = sorted(picks | {F.neg(c) for c in picks})
            _check_against_scalar_bfs(F, steps)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 9), (7, 7), (29, 2), (101, 3), (2, 21)])
def test_digit0_product_is_column_0_of_the_product(p, k):
    F = Field(p, k)
    bf = BulkField(F)
    rng = np.random.default_rng(p + k)
    a, b = (rng.integers(0, p, (300, k)).astype(bf._dtype) for _ in range(2))
    low = bf._mul_digit0(a, b)
    assert low.shape == (300, 1)
    assert (low[:, 0] == bf._mul(a, b)[:, 0]).all()


@pytest.mark.parametrize("k,sample", [(8, None), (11, 500), (21, 500)])
def test_fused_char2_trace_of_the_inverse(k, sample):
    # Tr(1/y) to every subfield as one product after the inverse's chain,
    # against the scalar inverse and trace
    F = Field(2, k)
    bf = BulkField(F)
    if sample is None:
        ys = list(range(1, F.order))
    else:
        rng = random.Random(k)
        ys = [1, F.order - 1] + [rng.randrange(1, F.order) for _ in range(sample)]
    root = bf._inverse_root(bf._digits(np.array([0] + ys, dtype=np.int64)))
    for m in range(1, k + 1):
        if k % m:
            continue
        tr = bf._codes(bf._trace(root, m, 1))
        assert int(tr[0]) == 0  # y = 0 maps to 0
        assert tr[1:].tolist() == [F.trace_to(F.inv(y), m) for y in ys]
