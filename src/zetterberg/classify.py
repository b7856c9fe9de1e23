"""Perfect / quasi-perfect / maximal verdicts from (d, rho).

The flags are always recomputed from their defining inequalities
(perfect: rho = floor((d-1)/2); quasi-perfect: one more; maximal:
rho <= d-1), never looked up, so the known parameter tables act purely
as regression expectations in the test suite.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass

from .caps import DEFAULT_CAPS, Caps
from .errors import Undecidable
from .code import code_shape, min_distance_formula
from .gf import prime_power_split
from .radius import covering_radius
from .thresholds import s_star_lower_even, s_star_lower_odd


@dataclass(frozen=True)
class ClassificationReport:
    q0: int
    s: int
    variant: str
    length: int
    dimension: int
    d: int | None
    rho: int | None
    perfect: bool | None
    quasi_perfect: bool | None
    maximal: bool | None
    rule: str

    def to_json(self) -> dict:
        return asdict(self)


def _regime(q0: int, s: int, variant: str) -> str:
    if variant == "full" and q0 % 2 == 0:
        if s == 1:
            return "s=1"
        if q0 == 2:
            return "q0=2, s=2" if s == 2 else (
                "q0=2, even s>=4" if s % 2 == 0 else "q0=2, odd s>=3")
        if s == 2:
            return "s=2"
        if s % 2 == 0:
            return "even s>=4"
        lower = s_star_lower_even(q0)
        if lower is not None and s <= lower:
            return "odd s<=q0/2"
        return "odd s"
    if variant == "half":
        if q0 == 3:
            return "q0=3, trivial" if s == 1 else "q0=3, s>=2"
        if s == 1:
            return "s=1"
        if s % 2 == 0:
            return "even s"
        lower = s_star_lower_odd(q0)
        if lower is not None and s <= lower:
            return "odd s<=s^*"
        return "odd s"
    return "odd q0, full"


def classify(q0: int, s: int, variant: str, caps: Caps = DEFAULT_CAPS) -> ClassificationReport:
    """Verdict for one parameter cell; raises Undecidable inside the open gap."""
    prime_power_split(q0)
    length, dimension = code_shape(q0, s, variant)
    d = min_distance_formula(q0, s, variant)
    if dimension == 0 or d is None:
        return ClassificationReport(
            q0=q0, s=s, variant=variant, length=length, dimension=dimension,
            d=None, rho=None, perfect=None, quasi_perfect=None, maximal=None,
            rule=_regime(q0, s, variant))
    # rho is the depth of F_{q^2} under the steps c*x, c in F_q0^*, x among
    # the code's positions.  For the half code (odd q0) those steps are the
    # full code's: xi^((q+1)/2) = -1, so c*xi^(i+(q+1)/2) = (-c)*xi^i.  Equal
    # step sets give equal radii, so the full-code dispatcher answers for both
    # (radius.half_full_radius_equality_check tests that xi^((q+1)/2) lies in
    # F_q0^*).
    rho = covering_radius(q0, s, "auto", caps).rho
    packing = (d - 1) // 2
    return ClassificationReport(
        q0=q0, s=s, variant=variant, length=length, dimension=dimension,
        d=d, rho=rho,
        perfect=rho == packing,
        quasi_perfect=rho == packing + 1,
        maximal=rho <= d - 1,
        rule=_regime(q0, s, variant))


def sweep(q0: int, s_max: int, variant: str,
          caps: Caps = DEFAULT_CAPS) -> list[ClassificationReport]:
    """Reports for s = 1..s_max; undecidable cells are emitted, not errors."""
    prime_power_split(q0)
    out = []
    for s in range(1, s_max + 1):
        try:
            out.append(classify(q0, s, variant, caps))
        except Undecidable:
            length, dimension = code_shape(q0, s, variant)
            out.append(ClassificationReport(
                q0=q0, s=s, variant=variant, length=length,
                dimension=dimension,
                d=min_distance_formula(q0, s, variant), rho=None,
                perfect=None, quasi_perfect=None, maximal=None,
                rule="open gap"))
    return out


def _flag(v) -> str:
    if v is None:
        return "?"
    return "yes" if v else "-"


def reports_to_markdown(reports: list[ClassificationReport]) -> str:
    head = ["q0", "s", "variant", "[n,k]", "d", "rho",
            "perfect", "quasi-perfect", "maximal", "rule"]
    lines = ["| " + " | ".join(head) + " |",
             "|" + "|".join("---" for _ in head) + "|"]
    for r in reports:
        lines.append("| " + " | ".join([
            str(r.q0), str(r.s), r.variant, f"[{r.length},{r.dimension}]",
            "?" if r.d is None else str(r.d),
            "?" if r.rho is None else str(r.rho),
            _flag(r.perfect), _flag(r.quasi_perfect), _flag(r.maximal),
            r.rule]) + " |")
    return "\n".join(lines) + "\n"


def reports_to_csv(reports: list[ClassificationReport]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["q0", "s", "variant", "length", "dimension", "d", "rho",
                "perfect", "quasi_perfect", "maximal", "rule"])
    for r in reports:
        w.writerow([r.q0, r.s, r.variant, r.length, r.dimension,
                    "" if r.d is None else r.d,
                    "" if r.rho is None else r.rho,
                    "" if r.perfect is None else r.perfect,
                    "" if r.quasi_perfect is None else r.quasi_perfect,
                    "" if r.maximal is None else r.maximal,
                    r.rule])
    return buf.getvalue()
