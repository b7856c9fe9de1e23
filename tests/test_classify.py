import pytest

from zetterberg.classify import classify, reports_to_csv, reports_to_markdown, sweep
from zetterberg.errors import PreconditionViolated


def test_perfect_hamming_regime():
    r = classify(4, 1, "full")
    assert (r.d, r.rho) == (3, 1)
    assert r.perfect and r.maximal and not r.quasi_perfect


def test_binary_repetition_like_code():
    r = classify(2, 2, "full")
    assert (r.d, r.rho) == (5, 2) and r.perfect and r.maximal


def test_quasi_perfect_binary_even_s():
    r = classify(2, 4, "full")
    assert (r.d, r.rho) == (5, 3)
    assert r.quasi_perfect and r.maximal and not r.perfect


def test_half_even_s_maximal_only():
    r = classify(5, 2, "half")
    assert (r.d, r.rho) == (4, 3)
    assert r.maximal and not r.quasi_perfect and not r.perfect


def test_half_s1_mds_quasi_perfect():
    r = classify(5, 1, "half")
    assert (r.d, r.rho) == (3, 2)
    assert r.quasi_perfect and r.maximal


def test_trivial_zero_dimension():
    r = classify(3, 1, "half")
    assert r.dimension == 0 and r.d is None and r.rho is None


def test_flags_recomputed_from_invariants():
    for q0, s, variant in [(2, 3, "full"), (4, 2, "full"), (8, 3, "full"),
                           (3, 2, "half"), (7, 2, "half"), (5, 3, "half"),
                           (3, 2, "full"), (5, 2, "full")]:
        r = classify(q0, s, variant)
        packing = (r.d - 1) // 2
        assert r.perfect == (r.rho == packing)
        assert r.quasi_perfect == (r.rho == packing + 1)
        assert r.maximal == (r.rho <= r.d - 1)


EVEN_TABLE = {
    # (q0 selector, s selector) -> (d, rho, perfect/qp tag, maximal)
    (2, 1): (3, 1, "perfect", True),
    (4, 1): (3, 1, "perfect", True),
    (8, 1): (3, 1, "perfect", True),
    (2, 2): (5, 2, "perfect", True),
    (2, 4): (5, 3, "quasi-perfect", True),
    (2, 6): (5, 3, "quasi-perfect", True),
    (4, 2): (4, 2, "quasi-perfect", True),
    (8, 2): (4, 2, "quasi-perfect", True),
    (8, 3): (3, 2, "quasi-perfect", True),  # odd 3 <= q0/2
    (4, 4): (4, 3, "-", True),
    (8, 4): (4, 3, "-", True),
    (4, 6): (4, 3, "-", True),
    (8, 6): (4, 3, "-", True),
}


def test_even_table_rows_reproduced():
    for (q0, s), (d, rho, tag, maximal) in EVEN_TABLE.items():
        r = classify(q0, s, "full")
        assert (r.d, r.rho) == (d, rho), (q0, s)
        if tag == "perfect":
            assert r.perfect
        elif tag == "quasi-perfect":
            assert r.quasi_perfect and not r.perfect
        else:
            assert not r.perfect and not r.quasi_perfect
        assert r.maximal == maximal


ODD_TABLE = {
    (3, 2): (5, 3, "quasi-perfect", True),
    (3, 3): (5, 3, "quasi-perfect", True),
    (5, 1): (3, 2, "quasi-perfect", True),
    (7, 1): (3, 2, "quasi-perfect", True),
    (5, 2): (4, 3, "-", True),
    (7, 2): (4, 3, "-", True),
}


def test_odd_table_rows_reproduced():
    for (q0, s), (d, rho, tag, maximal) in ODD_TABLE.items():
        r = classify(q0, s, "half")
        assert (r.d, r.rho) == (d, rho), (q0, s)
        if tag == "quasi-perfect":
            assert r.quasi_perfect and not r.perfect
        else:
            assert not r.perfect and not r.quasi_perfect
        assert r.maximal == maximal


def test_perfect_only_in_expected_cells():
    hits = []
    for q0 in (2, 4, 8):
        for r in sweep(q0, 6, "full"):
            if r.perfect:
                hits.append((q0, r.s))
    assert set(hits) == {(2, 1), (4, 1), (8, 1), (2, 2)}


def test_sweep_emits_open_gap():
    rows = sweep(16, 9, "full")
    gap_rows = [r for r in rows if r.rule == "open gap"]
    assert [r.s for r in gap_rows] == [9]
    assert gap_rows[0].rho is None


def test_sweep_skips_negative_dimension():
    rows = sweep(3, 2, "half")
    assert [r.s for r in rows] == [1, 2]  # s=2 gives [5,1]; s=1 gives [2,0]


def test_sweep_rejects_a_q0_that_is_no_prime_power():
    for q0 in (0, 1, 6):
        with pytest.raises(ValueError, match="factorize|prime power"):
            sweep(q0, 3, "full")


def test_odd_full_code_classified_too():
    r = classify(5, 2, "full")
    assert r.d == 2 and r.rho == 3
    assert not r.perfect and not r.quasi_perfect and not r.maximal


def test_emitters():
    rows = sweep(4, 3, "full")
    md = reports_to_markdown(rows)
    assert md.count("\n") == len(rows) + 2
    csv_text = reports_to_csv(rows)
    assert csv_text.splitlines()[0].startswith("q0,s,variant")
    assert len(csv_text.splitlines()) == len(rows) + 1


def test_half_needs_odd_q0():
    with pytest.raises(PreconditionViolated):
        classify(4, 2, "half")
