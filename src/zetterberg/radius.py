"""Covering radius by three independent routes: the dispatcher, the cap
checks and the route entry points, all scalar.

oracle     -- exact BFS layering of the syndrome space F_{q^2} under single
              steps c*x (c in F_q0^*, x in H); ground truth at desk scale.
              The steps form a multiplicative group G, so every layer is a
              union of cosets of G; the BFS runs over the r = [F_{q^2}^* : G]
              cosets, which are told apart by the norm to F_q, and works in
              F_q only, with tables of size O(q).
criterion  -- one scan of F_q deciding rho in {2, 3} by a square pattern
              (odd q0) or a trace pattern (even q0).  It tests one power
              g^j of the generator per orbit of the pattern's symmetries
              j -> j + d and j -> p*j, block by block, so its memory does
              not grow with q; feasible far beyond the oracle.
shortcuts  -- closed-form parameter rules (threshold inequalities et al.).

The dispatcher tries them cheapest first (shortcuts, criterion, oracle) and,
in verify mode, runs every feasible one with an agreement check.  The array
code of the oracle and the criterion scan lives in `_bulk`, which the two
routes import once their caps pass, so numpy is loaded only when an array
route runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .caps import DEFAULT_CAPS, Caps, power_exceeds
from .code import code_shape
from .errors import (FormulaMismatch, PreconditionViolated, SizeCapExceeded,
                     Undecidable)
from .gf import Field, make_field_for_q0, prime_power_split
from . import thresholds, tower


@dataclass
class RadiusReport:
    q0: int
    s: int
    rho: int
    method: str
    witness: list[int] | None = None
    witness_field: dict | None = None
    cross_checks: list[tuple[str, int]] | None = None
    elapsed_ms: float | None = None

    def to_json(self, timing: bool = True) -> dict:
        out = {
            "q0": self.q0,
            "s": self.s,
            "rho": self.rho,
            "method": self.method,
            "witness": self.witness,
            "cross_checks": [{"method": m, "rho": r} for m, r in (self.cross_checks or [])],
        }
        if self.witness_field is not None:
            out["witness_field"] = self.witness_field
        if timing and self.elapsed_ms is not None:
            out["elapsed_ms"] = round(self.elapsed_ms, 3)
        return out


# ---------------------------------------------------------------------------
# exact oracle: BFS over the norm classes of F_{q^2}


def _check_digit_kernels(p: int, k: int, name: str):
    from ._bulk import digit_dtype
    if digit_dtype(p, k) is None:
        raise SizeCapExceeded(f"{name} = {p}^{k} is too large for exact float digit kernels")


def _check_oracle_cap(q0: int, s: int, caps: Caps):
    if power_exceeds(q0, 2 * s, caps.oracle_cap):
        raise SizeCapExceeded(f"q^2 = {q0}^{2 * s} exceeds oracle cap {caps.oracle_cap}")


def covering_radius_oracle(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    """Exact rho by breadth-first layering of the syndrome space, class by
    class; the witness is the smallest syndrome code at depth rho."""
    t0 = time.perf_counter()
    p, m = prime_power_split(q0)
    _check_oracle_cap(q0, s, caps)
    _check_digit_kernels(p, 2 * s * m, "q^2")
    from . import _bulk
    ctx = make_field_for_q0(q0, s, caps=caps)
    nc = _bulk._NormClasses(ctx)
    layer = _bulk._class_layers(nc)
    rho = int(layer.max())
    deepest = _bulk._first_at_depth(nc, layer, rho)
    return RadiusReport(
        q0=q0, s=s, rho=rho, method="oracle",
        witness=list(ctx.decode(deepest)),
        witness_field={"p": p, "k": ctx.k, "modulus": list(ctx.modulus)},
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def half_full_radius_equality_check(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Whether the half code's oracle steps are exactly the full code's.

    The covering radius is the BFS depth of F_{q^2} under the code's steps
    c * xi^i (c in F_q0^*), so equal step sets give equal layers and equal
    radii.  The half code keeps the positions i < (q+1)/2.  When
    u = xi^((q+1)/2) lies in F_q0^*, every c * xi^(i + (q+1)/2) is
    (c*u) * xi^i, so the sets are equal; this tests that membership.  For odd
    q0 it holds: xi has order q+1, so u = -1.
    """
    code_shape(q0, s, "half")  # rejects even q0
    _check_oracle_cap(q0, s, caps)
    ctx = make_field_for_q0(q0, s, caps=caps)
    return tower.in_subgroup(ctx, ctx.pow(ctx.xi, (ctx.q + 1) // 2), "Fq0_star")


# ---------------------------------------------------------------------------
# criterion scan (works in F_q, never in the ambient field)


def _criterion_field(q0: int, s: int, caps: Caps) -> Field:
    p, m = prime_power_split(q0)
    if power_exceeds(q0, s, caps.criterion_order_cap):
        raise SizeCapExceeded(
            f"q = {q0}^{s} exceeds criterion cap {caps.criterion_order_cap}")
    _check_digit_kernels(p, s * m, "q")
    return Field(p, s * m)


def _check_parity(q0: int, odd: bool):
    if odd and (q0 % 2 == 0 or q0 < 3):
        raise PreconditionViolated("odd q0 >= 3 required")
    if not odd and (q0 % 2 or q0 < 2):
        raise PreconditionViolated("even q0 required")


def rho_criterion(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    """rho in {2,3} for s >= 2 from the criterion scan over F_q: 3 exactly
    when the scan finds a witness."""
    t0 = time.perf_counter()
    _check_parity(q0, odd=q0 % 2 == 1)
    if s < 2:
        raise PreconditionViolated("criterion applies for s >= 2")
    K = _criterion_field(q0, s, caps)
    from . import _bulk
    witness, _ = _bulk._scan(K, q0)
    return RadiusReport(
        q0=q0, s=s, rho=3 if witness is not None else 2, method="criterion",
        witness=None if witness is None else list(K.decode(witness)),
        witness_field={"p": K.p, "k": K.k, "modulus": list(K.modulus)},
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def rho_criterion_odd(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    """rho in {2,3} for odd q0, s >= 2, via the square-pattern scan over F_q."""
    _check_parity(q0, odd=True)
    return rho_criterion(q0, s, caps)


def rho_criterion_even(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    """rho in {2,3} for even q0, s >= 2, via the trace-pattern scan over F_q."""
    _check_parity(q0, odd=False)
    return rho_criterion(q0, s, caps)


def witness_count_odd(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of scan witnesses; positive exactly when rho = 3."""
    _check_parity(q0, odd=True)
    if s < 3 or s % 2 == 0:
        raise PreconditionViolated("witness counting is stated for odd s >= 3")
    K = _criterion_field(q0, s, caps)
    from . import _bulk
    _, count = _bulk._scan(K, q0, count_all=True)
    return count


# ---------------------------------------------------------------------------
# closed-form shortcuts


def rho_shortcuts(q0: int, s: int) -> tuple[int, str] | None:
    """A decided rho with its rule name; None exactly for s in gap_set(q0)."""
    if s < 1:
        raise ValueError("s must be >= 1")
    if q0 % 2 == 0:
        if s == 1:
            return 1, "s=1"
        if s == 2:
            return 2, "s=2"
        if s % 2 == 0:
            return 3, "even s>=4"
        if s <= (thresholds.s_star_lower_even(q0) or 0):
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
        if s <= (thresholds.s_star_lower_odd(q0) or 0):
            return 2, "s<=s^*"
        if s >= thresholds.s_star_upper_odd(q0):
            return 3, "s>=s_*"
    return None


# ---------------------------------------------------------------------------
# dispatcher


def _shortcut_report(q0: int, s: int, caps: Caps) -> RadiusReport:
    t0 = time.perf_counter()
    decided = rho_shortcuts(q0, s)
    if decided is None:
        raise Undecidable(f"no shortcut rule fires for (q0={q0}, s={s})")
    rho, rule = decided
    return RadiusReport(q0=q0, s=s, rho=rho, method=f"shortcut:{rule}",
                        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def covering_radius(q0: int, s: int, strategy: str = "auto",
                    caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    """rho(C_s(q0)) by the requested strategy.

    The route chain is shortcut, criterion (s >= 2), oracle, in order of
    cheapness; a route declines with Undecidable (no rule fires) or
    SizeCapExceeded (over a cap).  auto: the first route that decides.
    verify: every route that decides, failing on any disagreement and
    recording the cross-checks.  Either raises Undecidable when no route
    decides.  shortcut, criterion and oracle run that one route.
    """
    t0 = time.perf_counter()
    prime_power_split(q0)
    if s < 1:
        raise PreconditionViolated("s must be >= 1")
    # looked up at call time, so wrappers installed on the module take effect
    routes = {"shortcut": _shortcut_report, "criterion": rho_criterion,
              "oracle": covering_radius_oracle}
    if strategy in routes:
        return routes[strategy](q0, s, caps)
    if strategy not in ("auto", "verify"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if s < 2:
        del routes["criterion"]
    reports: list[RadiusReport] = []
    for route in routes.values():
        try:
            reports.append(route(q0, s, caps))
        except (Undecidable, SizeCapExceeded):
            continue
        if strategy == "auto":
            return reports[0]
    if not reports:
        raise Undecidable(
            f"(q0={q0}, s={s}) is outside every feasible method under current caps")
    rhos = {r.rho for r in reports}
    if len(rhos) != 1:
        raise FormulaMismatch(
            "methods disagree: " + ", ".join(f"{r.method}={r.rho}" for r in reports))
    primary = reports[0]
    return RadiusReport(
        q0=q0, s=s, rho=primary.rho, method=primary.method,
        witness=next((r.witness for r in reports if r.witness), None),
        witness_field=next((r.witness_field for r in reports if r.witness), None),
        cross_checks=[(r.method, r.rho) for r in reports],
        elapsed_ms=(time.perf_counter() - t0) * 1e3)
