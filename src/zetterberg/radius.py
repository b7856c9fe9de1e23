"""Covering radius by three independent routes.

oracle     -- exact BFS layering of the syndrome space F_{q^2} under single
              steps c*x (c in F_q0^*, x in H); ground truth at desk scale.
              The steps form a multiplicative group G, so every layer is a
              union of cosets of G; the BFS runs over the r = [F_{q^2}^* : G]
              cosets, which are told apart by the norm to F_q, and works in
              F_q only, with tables of size O(q).
criterion  -- the character/trace scans deciding rho in {2, 3} inside F_q,
              feasible far beyond the oracle.
shortcuts  -- closed-form parameter rules (threshold inequalities et al.).

The dispatcher tries them cheapest first (shortcuts, criterion, oracle) and,
in verify mode, runs every feasible one with an agreement check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._bulk import BulkField
from .caps import DEFAULT_CAPS, Caps
from .errors import (FormulaMismatch, PreconditionViolated, SizeCapExceeded,
                     Undecidable)
from .gf import Field, FieldContext, make_field_for_q0, prime_power_split
from . import thresholds, tower

_BLOCK = 1 << 15  # scan block length once the full tables are built


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

_GRID_BLOCK = 1 << 16  # (norm, trace) pairs per edge block


class _NormClasses:
    """The cosets of the step group G = F_q0^* * H in F_{q^2}^*, and F_q^*
    in discrete-log form.

    G is the subgroup <g^r> with r = (q-1) * gcd(2, q0-1) / (q0-1), so the
    coset ("class") of y is log_g(y) mod r, which equals log_gamma N(y) mod r
    for the norm N(y) = y^(q+1) and gamma = g^(q+1).  Elements of F_q are
    handled by their gamma-logs 0 <= j < Q = q-1, with Q standing for 0.
    """

    def __init__(self, ctx: FieldContext):
        self.ctx = ctx
        self.bf = BulkField(ctx)
        self.Q = ctx.q - 1
        self.r = self.Q * math.gcd(2, ctx.q0 - 1) // (ctx.q0 - 1)
        exp = self.bf.powers(ctx.pow(ctx.generator, ctx.q + 1), self.Q)
        self._order = np.argsort(exp)
        self._sorted = exp[self._order]
        # Zech logs: zech[j] = log(1 + gamma^j), zech[Q] = log(1 + 0) = 0
        self.zech = np.append(self.log(self.bf.add_const(exp, 1)), 0)
        if ctx.p == 2:
            # Tr_{F_q/F_2} is 0 exactly on the image of u -> u^2 + u = u(1 + u)
            j = np.arange(1, self.Q)
            self.trace_one = np.ones(self.Q, dtype=bool)
            self.trace_one[(j + self.zech[j]) % self.Q] = False
        else:
            self.log_minus_4 = int(self.log(np.array([(-4) % ctx.p]))[0])

    def log(self, codes: np.ndarray) -> np.ndarray:
        """gamma-logs of codes in F_q (Q for 0)."""
        i = np.searchsorted(self._sorted, codes).clip(max=self.Q - 1)
        return np.where(self._sorted[i] == codes, self._order[i], self.Q)

    def of(self, codes: np.ndarray) -> np.ndarray:
        """Classes of nonzero ambient codes, from their norms y^q * y."""
        k = self.ctx.k
        return self.log(self.bf.mul(self.bf.frobenius(codes, k // 2), codes)) % self.r

    def edges(self, rows: np.ndarray) -> np.ndarray:
        """out[i, j]: the class of 1 + z over the z with N(z) = gamma^rows[i]
        and Tr(z) = gamma^j (j = Q: Tr(z) = 0); -1 where no such z exists
        or 1 + z = 0.

        N(1 + z) = 1 + t + n for t = Tr(z), n = N(z), and z exists exactly
        when X^2 - t*X + n has no two distinct roots in F_q.
        """
        Q, zech = self.Q, self.zech
        a = rows[:, None]
        b = np.arange(Q + 1)[None, :]
        t_zero = b == Q
        # log(t + n) = a + log(1 + t/n), then log(1 + t + n)
        w = zech[np.where(t_zero, Q, (b - a) % Q)]
        target = zech[np.where(w == Q, Q, (a + w) % Q)]
        if self.ctx.p == 2:
            # t = 0, or Tr(n/t^2) = 1
            ok = t_zero | self.trace_one[(a - 2 * b) % Q]
        else:
            # t^2 - 4n = -4n * (1 + t^2/(-4n)) is 0 or a nonsquare (odd log)
            m4 = self.log_minus_4
            u = zech[np.where(t_zero, Q, (2 * b - a - m4) % Q)]
            ok = (u == Q) | ((a + m4 + u) % 2 == 1)
        return np.where(ok & (target != Q), target % self.r, -1)


def _class_layers(nc: _NormClasses) -> np.ndarray:
    """layer[i] = BFS depth of class i: {0} is depth 0, G (class 0) depth 1.

    The class graph joins class(n) to class(1 + z) for the z of each
    norm n; it is symmetric because G = -G.  A level expands the rows
    (norm logs) of the previous level's classes, block by block, and stops
    early once every class is reached.
    """
    Q, r = nc.Q, nc.r
    layer = np.zeros(r, dtype=np.int64)  # 0: not reached yet
    layer[0] = 1
    row_class = np.arange(Q) % r
    block = max(1, _GRID_BLOCK // (Q + 1))
    level = 1
    while not layer.all():
        level += 1
        rows = np.flatnonzero(layer[row_class] == level - 1)
        hit = layer > 0
        for i in range(0, rows.size, block):
            targets = nc.edges(rows[i:i + block])
            hit[targets[targets >= 0]] = True
            if hit.all():
                break
        new = hit & (layer == 0)
        if not new.any():
            raise ArithmeticError("step set does not generate F_{q^2}")
        layer[new] = level
    return layer


def _first_at_depth(nc: _NormClasses, layer: np.ndarray, depth: int) -> int:
    """The smallest ambient code whose class lies at the given depth."""
    lo, n = 1, 64
    while lo < nc.ctx.order:
        codes = np.arange(lo, min(lo + n, nc.ctx.order), dtype=np.int64)
        deep = np.flatnonzero(layer[nc.of(codes)] == depth)
        if deep.size:
            return int(codes[deep[0]])
        lo, n = lo + n, 2 * n
    raise ArithmeticError(f"no class at depth {depth}")


def _steps(ctx: FieldContext) -> np.ndarray:
    """steps[c, i] = c * xi^i for c in F_q0^*, 0 <= i <= q: the syndromes of
    weight-1 words, position by position."""
    bf = BulkField(ctx)
    xi_pows = bf.powers(ctx.xi, ctx.q + 1)
    sub = np.array([c for c in tower.subfield_elements(ctx, "q0") if c], dtype=np.int64)
    prod = bf.mul(np.repeat(sub, xi_pows.size), np.tile(xi_pows, sub.size))
    return prod.reshape(sub.size, xi_pows.size)


def _check_oracle_cap(q0: int, s: int, caps: Caps):
    if q0 ** (2 * s) > caps.oracle_cap:
        raise SizeCapExceeded(
            f"q^2 = {q0 ** (2 * s)} exceeds oracle cap {caps.oracle_cap}")


def covering_radius_oracle(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    """Exact rho by breadth-first layering of the syndrome space, class by
    class; the witness is the smallest syndrome code at depth rho."""
    t0 = time.perf_counter()
    p, m = prime_power_split(q0)
    _check_oracle_cap(q0, s, caps)
    ctx = make_field_for_q0(q0, s, caps=caps)
    nc = _NormClasses(ctx)
    layer = _class_layers(nc)
    rho = int(layer.max())
    deepest = _first_at_depth(nc, layer, rho)
    return RadiusReport(
        q0=q0, s=s, rho=rho, method="oracle",
        witness=list(ctx.decode(deepest)),
        witness_field={"p": p, "k": ctx.k, "modulus": list(ctx.modulus)},
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def half_full_radius_equality_check(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> bool:
    """Whether the half code's oracle steps are exactly the full code's.

    The covering radius is the BFS depth of F_{q^2} under the code's steps,
    so equal step sets give equal layers and equal radii.  For odd q0 they
    are equal: xi^((q+1)/2) = -1 lies in F_q0^*, so every c * xi^(i + (q+1)/2)
    is (-c) * xi^i with i < (q+1)/2.
    """
    if q0 % 2 == 0:
        raise PreconditionViolated("half code requires odd q0")
    _check_oracle_cap(q0, s, caps)
    ctx = make_field_for_q0(q0, s, caps=caps)
    steps = _steps(ctx)
    return np.array_equal(np.unique(steps[:, :(ctx.q + 1) // 2]), np.unique(steps))


# ---------------------------------------------------------------------------
# criterion scans (work in F_q, never in the ambient field)


class _EvalBudget:
    def __init__(self, cap: int):
        self.cap = cap
        self.used = 0

    def spend(self, n: int):
        self.used += n
        if self.used > self.cap:
            raise SizeCapExceeded(
                f"criterion scan exceeded {self.cap} character evaluations")


def _criterion_field(q0: int, s: int, caps: Caps) -> Field:
    p, m = prime_power_split(q0)
    if q0**s > caps.criterion_order_cap:
        raise SizeCapExceeded(
            f"q = {q0 ** s} exceeds criterion cap {caps.criterion_order_cap}")
    return Field(p, s * m)


def _scan_blocks(n1: int, lazy: int) -> list[tuple[int, int]]:
    """Index ranges [j0, j1) covering 0 <= j < n1: the lazy prefix [0, lazy)
    in two halves, then blocks of _BLOCK.  Every range is also cut at the
    multiples of _BLOCK, so an early exit never scans past the block a plain
    table scan would have finished."""
    cuts = sorted({lazy // 2, lazy, n1}.union(range(_BLOCK, n1, _BLOCK)) - {0})
    return list(zip([0] + cuts[:-1], cuts))


def _survivors(cur: np.ndarray, n_tests: int, passes, budget: _EvalBudget) -> np.ndarray:
    """The entries of cur that pass tests 0, 1, ..., n_tests-1 in order.

    passes(cur, t0, t1) is the (len(cur), t1 - t0) pass matrix of tests
    [t0, t1).  The tests run one at a time until the survivors times the
    tests left fit in the size of the first test; the rest is then one 2-D
    call.  Either way the budget is charged, call by call, what a loop of
    one test at a time charges: the entries still alive before each test,
    read off a cumulative AND along the test axis.
    """
    first, t = cur.size, 0
    while cur.size and t < n_tests:
        width = n_tests - t if cur.size * (n_tests - t) <= first else 1
        ok = passes(cur, t, t + width)
        if width > 1:
            ok = np.logical_and.accumulate(ok, axis=1)
        for n in [cur.size, *ok[:, :-1].sum(axis=0)]:
            if n == 0:
                break
            budget.spend(int(n))
        cur = cur[ok[:, -1]]
        t += width
    return cur


def _zech_squares(bf: BulkField, exp: np.ndarray, chi: np.ndarray) -> np.ndarray:
    """good[i]: y (y - 1) is a nonzero square for y = g^i = exp[i].

    y - 1 differs from y in digit 0 only, so its code is exp[i] - 1, or
    exp[i] + p - 1 where digit 0 is 0; and chi(y) = (-1)^i.  Built in
    blocks of even length, so the parity pattern starts even in each.
    """
    p, n1 = bf.p, exp.size
    good = np.empty(n1, dtype=bool)
    for i in range(0, n1, 1 << 20):
        e = exp[i:i + (1 << 20)]
        t = chi[e - 1 + p * (e % p == 0)]
        t[1::2] *= -1
        good[i:i + e.size] = t == 1
    return good


def _odd_scan(K: Field, q0: int, budget: _EvalBudget, count_all: bool):
    """Witnesses x in F_q^* minus the q0-squares with x*(x-beta) a square
    for every nonzero square beta of F_q0.

    Enumerates x = g^j in ascending j; returns (first witness or None,
    count) with count only exact when count_all.  Candidates travel as
    log indices j; the q0-squares are the j divisible by d = 2(q-1)/(q0-1),
    and the betas are the g^(i*d), tested in ascending code order.
    The first (q-1) >> 8 powers come from a short exp prefix and chi is
    evaluated per element; the full tables are built only when that prefix
    holds no witness (at once when counting).  From there on the scan runs
    in the log domain: x*(x-beta) = beta^2 * y*(y-1) with y = x/beta =
    g^(j - log beta), so each test is one lookup in the Zech table of
    `_zech_squares`, with no field arithmetic.
    """
    n1 = K.order - 1
    d = 2 * n1 // (q0 - 1)
    # the nonzero squares of F_q0 are the subgroup <g^d>; element i is g^(i*d)
    sq = np.array(K.cyclic_subgroup(d), dtype=np.int64)
    by_code = np.argsort(sq)
    betas, beta_logs = sq[by_code], by_code * d
    lazy = 0 if count_all else n1 >> 8
    bf = BulkField(K)
    exp = bf.build_exp(lazy) if lazy else None
    beta_digits = bf.decode(betas)

    def prefix_passes(j, t0, t1):
        # chi(x - beta) == chi(x) = (-1)^j, one chi call for all the pairs
        x = bf.decode(exp[j])
        y = bf.encode(x[:, None, :] - beta_digits[None, t0:t1, :])
        signs = 1 - 2 * (j & 1)
        return bf.chi(y.ravel()).reshape(y.shape) == signs[:, None]

    def table_passes(j, t0, t1):
        # good[(j - log beta) mod (q-1)]; a negative index wraps by q-1
        return good[j[:, None] - beta_logs[None, t0:t1]]

    passes = prefix_passes
    first = None
    count = 0
    for j0, j1 in _scan_blocks(n1, lazy):
        if j0 == lazy:
            exp = bf.build_exp()
            good = _zech_squares(bf, exp, bf.build_chi_table(exp))
            passes = table_passes
        j = np.arange(j0, j1)
        cur = _survivors(j[j % d != 0], betas.size, passes, budget)
        if cur.size:
            if first is None:
                first = int(exp[cur[0]])
            count += int(cur.size)
            if not count_all:
                return first, count
    return first, count


def _even_scan(K: Field, q0: int, budget: _EvalBudget):
    """First alpha = g^j outside F_q0 with zero trace and all 1/(1+b*alpha)
    traces in {0, 1}, in ascending j.

    F_q0^* is the subgroup of the g^j with j divisible by (q-1)/(q0-1).
    As in _odd_scan, the first (q-1) >> 8 powers are tested per element
    (trace, inverse and product kernels); the exp, log and trace tables are
    built only when that prefix holds no witness, and the products are then
    log-table lookups.  (A log-domain table of Tr(1/(1+g^i)) was tried and
    is slower: it needs extra log and inverse scatters.)
    """
    m = q0.bit_length() - 1
    sub_nonzero = [c for c in K.subfield_elements(m) if c]
    n1 = K.order - 1
    sub_step = n1 // (q0 - 1)
    lazy = n1 >> 8
    bf = BulkField(K)
    exp = bf.build_exp(lazy) if lazy else None
    log = tr = None  # the full tables, once built
    for j0, j1 in _scan_blocks(n1, lazy):
        if j0 == lazy:
            exp = bf.build_exp()
            log = bf.build_log_table(exp)
            tr = bf.build_trace_table_char2(m)
        codes = exp[j0:j1]
        tr_codes = bf.trace(codes, m) if tr is None else tr[codes]
        cur = codes[(tr_codes == 0) & (np.arange(j0, j1) % sub_step != 0)]
        for b in sub_nonzero:
            if cur.size == 0:
                break
            budget.spend(int(cur.size))
            # y = 1 + b*alpha, never 0; t = Tr(1/y)
            if tr is None:
                y = bf.mul(cur, np.array([b])) ^ 1
                t = bf.trace(bf.inverse(y), m)
            else:
                y = exp[(log[cur] + log[b]) % n1] ^ 1
                t = tr[exp[(n1 - log[y]) % n1]]
            cur = cur[(t == 0) | (t == 1)]
        if cur.size:
            return int(cur[0])
    return None


def _check_parity(q0: int, odd: bool):
    if odd and (q0 % 2 == 0 or q0 < 3):
        raise PreconditionViolated("odd q0 >= 3 required")
    if not odd and (q0 % 2 or q0 < 2):
        raise PreconditionViolated("even q0 required")


def _criterion_report(q0: int, s: int, caps: Caps, odd: bool) -> RadiusReport:
    """rho in {2,3} for s >= 2 from the parity's scan over F_q: 3 exactly
    when the scan finds a witness."""
    t0 = time.perf_counter()
    _check_parity(q0, odd)
    if s < 2:
        raise PreconditionViolated("criterion applies for s >= 2")
    K = _criterion_field(q0, s, caps)
    budget = _EvalBudget(caps.scan_cap)
    if odd:
        witness, _ = _odd_scan(K, q0, budget, count_all=False)
    else:
        witness = _even_scan(K, q0, budget)
    return RadiusReport(
        q0=q0, s=s, rho=3 if witness is not None else 2, method="criterion",
        witness=None if witness is None else list(K.decode(witness)),
        witness_field={"p": K.p, "k": K.k, "modulus": list(K.modulus)},
        elapsed_ms=(time.perf_counter() - t0) * 1e3)


def rho_criterion_odd(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    """rho in {2,3} for odd q0, s >= 2, via the square-pattern scan over F_q."""
    return _criterion_report(q0, s, caps, odd=True)


def rho_criterion_even(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    """rho in {2,3} for even q0, s >= 2, via the trace-pattern scan over F_q."""
    return _criterion_report(q0, s, caps, odd=False)


def rho_criterion(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> RadiusReport:
    return _criterion_report(q0, s, caps, odd=q0 % 2 == 1)


def witness_count_odd(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> int:
    """Number of scan witnesses; positive exactly when rho = 3."""
    _check_parity(q0, odd=True)
    if s < 3 or s % 2 == 0:
        raise PreconditionViolated("witness counting is stated for odd s >= 3")
    K = _criterion_field(q0, s, caps)
    budget = _EvalBudget(caps.scan_cap)
    _, count = _odd_scan(K, q0, budget, count_all=True)
    return count


# ---------------------------------------------------------------------------
# closed-form shortcuts


def rho_shortcuts(q0: int, s: int) -> tuple[int, str] | None:
    """A decided rho with its rule name, or None inside the open gap."""
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
    # divisor propagation: rho=3 at a proper odd divisor forces rho=3
    for d in range(3, s, 2):
        if s % d == 0:
            decided = rho_shortcuts(q0, d)
            if decided is not None and decided[0] == 3:
                return 3, f"divisor s'={d}"
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
