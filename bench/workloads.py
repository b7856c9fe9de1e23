"""Workloads of the benchmark: cell strata, seeded drawing, cell execution and
the per-cell correctness check.

A cell is one parameter point (q0, s) together with the question asked about
it.  Every workload is a list of strata; a stratum is a fixed candidate list
with the expected answer recorded for each candidate, a number of cells to
draw, and the reason it is there.  The seed only chooses which candidates of
a stratum are drawn, so the program under test receives nothing but (q0, s)
pairs.  Cells run in stratum order: a seeded order would move one-time costs
and heap growth from cell to cell, and with them the median, tail and peak
RSS.

The figures must stay steady from seed to seed, so that a seed change is not
mistaken for a regression.  Hence candidates inside one stratum cost about
the same (same field size, or a narrow band of p), and the strata named
*_anchor are drawn in full: they hold the cells that sit at the median and in
the tail of a pass and the one that sets its peak RSS.  The seed varies the
cells around them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _primes(lo: int, hi: int) -> list[int]:
    return [p for p in range(lo, hi) if _is_prime(p)]


def _odd_prime_powers(lo: int, hi: int) -> list[int]:
    out = []
    for p in _primes(3, hi):
        q = p
        while q < hi:
            if q >= lo:
                out.append(q)
            q *= p
    return sorted(out)


@dataclass(frozen=True)
class Stratum:
    name: str
    kind: str          # "witness" | "verify" | "rho" | "count"
    draw: int
    members: tuple     # (q0, s, expected) triples; expected is None for "witness"
    why: str


def _witness_members(pairs):
    return tuple((q0, s, None) for q0, s in pairs)


# ---------------------------------------------------------------------------
# witness_sweep: field construction + code + explicit weight-3 witness


def _witness_small_odd():
    out = []
    for q0 in _odd_prime_powers(5, 256):
        s = 1
        while q0 ** s <= 4096:
            out.append((q0, s))
            s += 2
    return out


def _witness_even():
    out = []
    q0 = 4
    while q0 <= 4096:
        s = 1
        while q0 ** s <= 4096:
            out.append((q0, s))
            s += 2
        q0 *= 2
    return out


WITNESS_SWEEP = (
    Stratum("even_q0", "witness", 4, _witness_members(_witness_even()),
            "even q0 with odd s: the order-(q0+1) subgroup witness"),
    Stratum("odd_q0_below_256", "witness", 5, _witness_members(_witness_small_odd()),
            "odd prime powers with odd s, where the code and quartic pair, not the generator, cost most"),
    Stratum("odd_p_700_760", "witness", 3,
            _witness_members(((p, 1) for p in _primes(700, 760))),
            "odd p in a narrow band: these three cells hold the median of the pass"),
    Stratum("odd_p_960_1024", "witness", 4,
            _witness_members(((p, 1) for p in _primes(960, 1024))), "mid odd p"),
    Stratum("odd_p_1536_1792", "witness", 3,
            _witness_members(((p, 1) for p in _primes(1536, 1792))), "mid odd p"),
    Stratum("top_anchor", "witness", 2, ((3067, 1, None), (4093, 1, None)),
            "drawn in full: the largest odd p, where the generator scan from code 1 costs"
            " about p powerings; they set the tail of the pass"),
)


# ---------------------------------------------------------------------------
# verify_grid: every route on cells the oracle can reach (q^2 <= 2^20)

VERIFY_GRID = (
    Stratum("q2_upto_2e12", "verify", 7,
            ((2, 2, 2), (2, 3, 3), (2, 4, 3), (2, 5, 3), (2, 6, 3), (3, 2, 3),
             (3, 3, 3), (4, 2, 2), (4, 3, 2), (5, 2, 3), (7, 2, 3), (8, 2, 2)),
            "tiny syndrome spaces; per-cell fixed costs (shortcuts, scalar criterion)"),
    Stratum("q2_2e12_2e16", "verify", 10,
            ((2, 7, 3), (2, 8, 3), (3, 4, 3), (3, 5, 3), (4, 4, 3), (5, 3, 3),
             (9, 2, 3), (11, 2, 3), (13, 2, 3), (16, 2, 2)),
            "mid syndrome spaces, drawn in full so that the median cell is fixed"),
    Stratum("q2_2e16_2e20", "verify", 4, ((2, 9, 3), (7, 3, 3), (2, 10, 3), (4, 5, 3)),
            "drawn in full: the largest syndrome spaces whose BFS fits a short pass (q^2 <= 2^20)"),
)


# ---------------------------------------------------------------------------
# criterion_early_exit: rho = 3 cells, the scan stops at an early witness


def _splits(p: int, k: int, rho: int, exclude=()) -> tuple:
    """Every (q0, s) with q0**s = p**k and s >= 2, skipping `exclude`."""
    out = []
    for m in range(1, k):
        if k % m == 0 and (p ** m, k // m) not in exclude:
            out.append((p ** m, k // m, rho))
    return tuple(out)


CRITERION_EARLY_EXIT = (
    Stratum("q_2e18", "rho", 2, _splits(2, 18, 3, exclude={(64, 3), (512, 2)}),
            "q = 2^18, char 2, any rho=3 split of the field"),
    Stratum("q_2e20", "rho", 2, _splits(2, 20, 3, exclude={(16, 5), (1024, 2)}),
            "q = 2^20, char 2"),
    Stratum("q_5e8", "rho", 1, _splits(5, 8, 3, exclude={(625, 2)}), "q = 5^8"),
    Stratum("odd_p_600_700_s2", "rho", 3,
            tuple((p, 2, 3) for p in _primes(600, 700)),
            "odd p with s = 2 (rho = 3 by the even-s rule), q near 2^18.5"),
    Stratum("median_anchor", "rho", 4, ((7, 7, 3), (13, 5, 3), (17, 5, 3), (37, 4, 3)),
            "drawn in full: (13,5) below, the others at the median of the pass"),
    Stratum("q_3e12", "rho", 1, _splits(3, 12, 3, exclude={(3, 12), (81, 3)}),
            "q = 3^12: six digits or fewer per element over F_p"),
    Stratum("q_11e6", "rho", 1, _splits(11, 6, 3, exclude={(121, 3)}), "q = 11^6"),
    Stratum("odd_p_1100_1250_s2", "rho", 2,
            tuple((p, 2, 3) for p in _primes(1100, 1250)),
            "odd p with s = 2, q near 2^20.3"),
    Stratum("top_anchor", "rho", 5,
            ((2, 22, 3), (4, 11, 3), (19, 5, 3), (43, 4, 3), (1849, 2, 3)),
            "drawn in full: the largest tables (q up to 2^22), which set the tail and peak RSS"),
)


# ---------------------------------------------------------------------------
# criterion_exhaustive: rho = 2 cells and witness counts scan all of F_q

CRITERION_EXHAUSTIVE = (
    Stratum("odd_p_19_62_s3", "rho", 4, tuple((p, 3, 2) for p in _primes(19, 62)),
            "odd q0 >= 19 with s = 3 (rho = 2), small bulk tables"),
    Stratum("q_2e18_rho2", "rho", 1, ((64, 3, 2), (512, 2, 2)), "q = 2^18, even q0, rho = 2"),
    Stratum("scalar_even_small", "rho", 2,
            ((4, 3, 2), (8, 3, 2), (8, 2, 2), (16, 2, 2), (32, 2, 2)),
            "even q0, q <= 1024: the scalar scan branch"),
    Stratum("count_bulk_small", "count", 2, ((9, 5, 3840), (5, 7, 19530), (11, 5, 5020)),
            "witness counts on small bulk tables"),
    Stratum("median_anchor", "rho", 3, ((16, 5, 2), (83, 3, 2), (1024, 2, 2)),
            "drawn in full, at the median of the pass: bulk tables near 2^20, both parities"),
    Stratum("odd_p_97_104_s3", "rho", 3, tuple((p, 3, 2) for p in _primes(97, 104)),
            "odd q0 with s = 3, q near 2^20"),
    Stratum("q_2e21_rho2", "rho", 2, ((8, 7, 2), (128, 3, 2)), "q = 2^21, even q0, rho = 2"),
    Stratum("count_scalar", "count", 1, ((9, 3, 36), (11, 3, 15)),
            "witness counts with q <= 4096, on the scalar branch"),
    Stratum("count_anchor", "count", 3, ((7, 7, 103005), (17, 5, 5560), (5, 9, 488280)),
            "drawn in full: the largest witness counts, which set the tail and peak RSS"),
)


WORKLOADS = {
    "witness_sweep": WITNESS_SWEEP,
    "verify_grid": VERIFY_GRID,
    "criterion_early_exit": CRITERION_EARLY_EXIT,
    "criterion_exhaustive": CRITERION_EXHAUSTIVE,
}


# one small cell per workload, decided untimed at the start of every pass so
# that one-time process costs (first allocations, BLAS start-up) do not land
# on whichever cell the seed puts first; none of them is a stratum member
WARMUP = {
    "witness_sweep": (521, 1, "witness"),
    "verify_grid": (3, 1, "verify"),
    "criterion_early_exit": (23, 4, "rho"),
    "criterion_exhaustive": (17, 3, "rho"),
}


def warmup_cell(workload: str) -> dict:
    q0, s, kind = WARMUP[workload]
    return {"q0": q0, "s": s, "kind": kind, "expected": None, "stratum": "warmup"}


def draw(workload: str, seed: int) -> list[dict]:
    """The cells of `workload` for `seed`: a fixed number from each stratum,
    in stratum order.  The same (workload, seed) always gives the same list,
    in any process (string seeds of `random.Random` do not depend on hash
    randomization)."""
    rng = random.Random(f"{workload}/{seed}")
    cells = []
    for st in WORKLOADS[workload]:
        for q0, s, expected in rng.sample(st.members, st.draw):
            cells.append({"q0": q0, "s": s, "kind": st.kind,
                          "expected": expected, "stratum": st.name})
    return cells


# ---------------------------------------------------------------------------
# running and checking one cell


def run_cell(cell: dict, zb) -> dict:
    """Decide one cell through the public API; returns the raw outcome.

    `zb` is a namespace holding the program's modules (gf, code, radius).
    Names are looked up on the modules at call time, so a traced run sees
    its wrappers.
    """
    q0, s, kind = cell["q0"], cell["s"], cell["kind"]
    gf, code, radius = zb.gf, zb.code, zb.radius
    if kind == "witness":
        ctx = gf.make_field_for_q0(q0, s)
        if q0 % 2 == 0:
            cw = code.build_code(ctx, "full")
            word = code.weight3_witness_even(cw)
        else:
            cw = code.build_code(ctx, "half")
            word = code.weight3_witness_half_odd(cw)
        return {"weight": sum(1 for c in word if c), "syndrome": code.syndrome(cw, word)}
    if kind == "verify":
        rep = radius.covering_radius(q0, s, "verify")
        out = {"rho": rep.rho}
        if q0 % 2:
            out["half_full"] = radius.half_full_radius_equality_check(q0, s)
        return out
    if kind == "rho":
        rep = radius.covering_radius(q0, s, "criterion")
        return {"rho": rep.rho, "witness": rep.witness, "witness_field": rep.witness_field}
    if kind == "count":
        return {"count": radius.witness_count_odd(q0, s)}
    raise ValueError(f"unknown cell kind {kind!r}")


def check_cell(cell: dict, outcome: dict, shortcut) -> list[str]:
    """Reasons the cell failed; empty when its outcome is correct.

    `outcome` is what `run_cell` returned, or {"error": text} when the
    program raised.  `shortcut` is `rho_shortcuts(q0, s)`: None, or a
    (rho, rule) pair that the decided rho must agree with.
    """
    if "error" in outcome:
        return [outcome["error"]]
    kind = cell["kind"]
    bad = []
    if kind == "witness":
        if outcome["weight"] != 3:
            bad.append(f"witness weight {outcome['weight']} != 3")
        if outcome["syndrome"] != 0:
            bad.append("witness syndrome is nonzero")
        return bad
    if kind == "count":
        if outcome["count"] != cell["expected"]:
            bad.append(f"witness count {outcome['count']} != recorded {cell['expected']}")
        return bad
    rho = outcome["rho"]
    if rho != cell["expected"]:
        bad.append(f"rho {rho} != recorded {cell['expected']}")
    if shortcut is not None and shortcut[0] != rho:
        bad.append(f"rho {rho} disagrees with shortcut {shortcut[1]!r} = {shortcut[0]}")
    if outcome.get("half_full") is False:
        bad.append("half and full code radii differ")
    return bad
