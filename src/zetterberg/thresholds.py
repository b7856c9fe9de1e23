"""Exact evaluation of the covering-radius threshold inequalities.

For each base field size q0 the interesting odd exponents are bracketed by
two thresholds: below s^* a character-sum argument forces rho = 2, from s_*
upward a counting bound forces rho = 3, and the odd values strictly between
form the open gap.  All inequalities involve q0^(s/2) with s odd, so they
are decided exactly by squaring (arbitrary-width integers), never floats.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field

from .gf import factorize


def _holds(q0: int, s: int, B: int, C: int) -> bool:
    """Exact test of q0^s - q0^(s/2)*B > C."""
    lhs = q0**s - C
    if B <= 0:
        # q0^(s/2)*B <= 0, so the inequality reduces to q0^s > C
        return lhs > 0
    return lhs > 0 and lhs * lhs > B * B * q0**s


def _least_odd(q0: int, B: int, C: int) -> int:
    s = 3
    while not _holds(q0, s, B, C):
        s += 2
    return s


def s_star_upper_odd(q0: int) -> int:
    """Least odd s >= 3 where the odd-q0 counting bound fires (rho = 3)."""
    if q0 % 2 == 0 or q0 < 3:
        raise ValueError("odd q0 >= 3 required")
    m = (q0 - 1) // 2
    B = (m - 3) * 2 ** (m - 1) + 2
    C = 3 * 2 ** (m - 1) - 1
    return _least_odd(q0, B, C)


def s_prime_star_odd(q0: int) -> int:
    """Least odd s >= 3 for the earlier (weaker) counting bound."""
    if q0 % 2 == 0 or q0 < 5:
        raise ValueError("odd q0 >= 5 required")
    m = (q0 - 1) // 2
    B = (m - 2) * 2**m + 2
    C = 2**m - 1
    return _least_odd(q0, B, C)


def s_star_lower_odd(q0: int) -> int | None:
    """Largest odd s >= 3 with 4*(s-1)^2*q0 < (q0-1)^2 (rho = 2), or None."""
    if q0 % 2 == 0 or q0 < 3:
        raise ValueError("odd q0 >= 3 required")
    best = None
    s = 3
    while 4 * (s - 1) ** 2 * q0 < (q0 - 1) ** 2:
        best = s
        s += 2
    return best


def s_star_upper_even(q0: int) -> int:
    """Least odd s >= 3 where the even-q0 counting bound fires (rho = 3)."""
    if q0 % 2 or q0 < 2:
        raise ValueError("even q0 required")
    half_pow = (q0 // 2) ** (q0 - 1)
    B = half_pow * (2 * q0 * q0 - 7 * q0 + 3)
    C = half_pow * (4 * q0 - 2) - q0 * q0
    return _least_odd(q0, B, C)


def s_star_lower_even(q0: int) -> int | None:
    """Largest odd s >= 3 with s <= q0/2 (rho = 2), or None for q0 in {2, 4}."""
    if q0 % 2 or q0 < 2:
        raise ValueError("even q0 required")
    half = q0 // 2
    if half < 3:
        return None
    return half - 1 if half % 2 == 0 else half


def gap_set(q0: int) -> list[int]:
    """Odd s with undetermined rho: strictly between the thresholds.

    Divisor propagation (rho = 3 at an odd divisor forces rho = 3) settles
    none of them: every proper divisor of such an s lies below s_*, where no
    rule gives rho = 3 (the q0 = 3 blanket rule is handled first)."""
    if q0 % 2 == 0:
        lower = s_star_lower_even(q0)
        upper = s_star_upper_even(q0)
    else:
        if q0 == 3:
            return []
        lower = s_star_lower_odd(q0)
        upper = s_star_upper_odd(q0)
    low = lower if lower is not None else 1
    return list(range(low + 2, upper, 2))


# ---------------------------------------------------------------------------
# interval property of the two odd-case bounds


@dataclass(frozen=True)
class RangeCheck:
    q0: int
    applicable: bool
    s_star: int | None = None
    s_prime: int | None = None
    interval_ok: bool | None = None
    difference_ok: bool | None = None
    boundary_ambiguous: bool = False

    @property
    def ok(self) -> bool:
        return not self.applicable or (bool(self.interval_ok) and bool(self.difference_ok))


_ENDPOINT_BAND = 1e-9


def threshold_range_check_odd(q0: int) -> RangeCheck:
    """For odd q0 >= 13: s_* sits in the predicted log-interval and the two
    counting thresholds differ by 0 or 2.

    Interval endpoints are irrational; they are evaluated in double precision
    with a relative band of _ENDPOINT_BAND around each, and a value inside a
    band is reported as boundary-ambiguous instead of asserted either way.
    """
    if q0 % 2 == 0:
        raise ValueError("odd q0 required")
    if q0 < 13:
        return RangeCheck(q0=q0, applicable=False)
    s_up = s_star_upper_odd(q0)
    s_pr = s_prime_star_odd(q0)
    lo = (q0 * math.log(2) - 5) / math.log(q0) + 2
    hi = (q0 * math.log(2) - 5 * math.log(2)) / math.log(q0) + 4
    band_lo = abs(lo) * _ENDPOINT_BAND
    band_hi = abs(hi) * _ENDPOINT_BAND
    ambiguous = abs(s_up - lo) <= band_lo or abs(s_up - hi) <= band_hi
    interval_ok = lo < s_up < hi
    diff_ok = s_pr - s_up in (0, 2)
    return RangeCheck(q0=q0, applicable=True, s_star=s_up, s_prime=s_pr,
                      interval_ok=interval_ok, difference_ok=diff_ok,
                      boundary_ambiguous=ambiguous)


# ---------------------------------------------------------------------------
# table generation


@dataclass(frozen=True)
class ThresholdRow:
    q0: int
    s_star_lower: int | None
    s_star_upper: int
    s_prime_star: int | None  # odd parity only
    gap: tuple[int, ...] = field(default_factory=tuple)


def odd_prime_powers(limit: int, start: int = 3):
    for q0 in range(start, limit + 1, 2):
        if len(factorize(q0)) == 1:
            yield q0


def even_prime_powers(limit: int):
    q0 = 2
    while q0 <= limit:
        yield q0
        q0 *= 2


def threshold_table(parity: str, q0_max: int) -> list[ThresholdRow]:
    rows = []
    if parity == "odd":
        for q0 in odd_prime_powers(q0_max):
            rows.append(ThresholdRow(
                q0=q0,
                s_star_lower=s_star_lower_odd(q0),
                s_star_upper=s_star_upper_odd(q0),
                s_prime_star=s_prime_star_odd(q0) if q0 >= 5 else None,
                gap=tuple(gap_set(q0)),
            ))
    elif parity == "even":
        for q0 in even_prime_powers(q0_max):
            rows.append(ThresholdRow(
                q0=q0,
                s_star_lower=s_star_lower_even(q0),
                s_star_upper=s_star_upper_even(q0),
                s_prime_star=None,
                gap=tuple(gap_set(q0)),
            ))
    else:
        raise ValueError("parity must be 'odd' or 'even'")
    return rows


def _cell(v) -> str:
    return "" if v is None else str(v)


def table_to_csv(parity: str, rows: list[ThresholdRow]) -> str:
    """CSV with a fixed column order; the gap column is ';'-joined."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    if parity == "odd":
        w.writerow(["q0", "s_star_lower", "s_star_upper", "s_prime_star", "gap"])
        for r in rows:
            w.writerow([r.q0, _cell(r.s_star_lower), r.s_star_upper,
                        _cell(r.s_prime_star), ";".join(map(str, r.gap))])
    else:
        w.writerow(["q0", "s_star_lower", "s_star_upper", "gap"])
        for r in rows:
            w.writerow([r.q0, _cell(r.s_star_lower), r.s_star_upper,
                        ";".join(map(str, r.gap))])
    return buf.getvalue()


def table_to_markdown(parity: str, rows: list[ThresholdRow]) -> str:
    if parity == "odd":
        head = ["q0", "s^*", "s_*", "s'_*", "gap"]
        body = [[str(r.q0), _cell(r.s_star_lower), str(r.s_star_upper),
                 _cell(r.s_prime_star), "{" + ",".join(map(str, r.gap)) + "}"]
                for r in rows]
    else:
        head = ["q0", "s^*", "s_*", "gap"]
        body = [[str(r.q0), _cell(r.s_star_lower), str(r.s_star_upper),
                 "{" + ",".join(map(str, r.gap)) + "}"] for r in rows]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "|".join("---" for _ in head) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in body]
    return "\n".join(lines) + "\n"
