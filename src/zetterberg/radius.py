"""Covering radius by three independent routes.

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
in verify mode, runs every feasible one with an agreement check.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from ._bulk import BulkField, digit_dtype
from .caps import DEFAULT_CAPS, Caps
from .code import code_shape
from .errors import (FormulaMismatch, PreconditionViolated, SizeCapExceeded,
                     Undecidable)
from .gf import Field, FieldContext, make_field_for_q0, prime_power_split
from . import thresholds, tower

_BLOCK = 1 << 15  # the most residues one criterion scan block tests
_WIDE = 1 << 12  # a 2-D pass matrix this small costs less than a call per test


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


def _check_digit_kernels(p: int, k: int, name: str):
    if digit_dtype(p, k) is None:
        raise SizeCapExceeded(f"{name} = {p ** k} is too large for exact float digit kernels")


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
    _check_digit_kernels(p, 2 * s * m, "q^2")
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
    _check_digit_kernels(p, s * m, "q")
    return Field(p, s * m)


def _survivors(cur: np.ndarray, n_tests: int, passes, budget: _EvalBudget) -> np.ndarray:
    """The entries of cur that pass tests 0, 1, ..., n_tests-1 in order.

    passes(cur, t0, t1) is the (len(cur), t1 - t0) pass matrix of tests
    [t0, t1).  The tests run one at a time until the survivors times the
    tests left fit in the size of the first test, or in _WIDE; the rest is
    then one 2-D call.  Either way the budget is charged, call by call, what
    a loop of one test at a time charges: the entries still alive before
    each test, read off a cumulative AND along the test axis.
    """
    first, t = cur.size, 0
    while cur.size and t < n_tests:
        width = n_tests - t if cur.size * (n_tests - t) <= max(first, _WIDE) else 1
        budget.spend(cur.size)
        ok = passes(cur, t, t + width)
        if width > 1:
            ok = np.logical_and.accumulate(ok, axis=1)
            for n in ok[:, :-1].sum(axis=0):
                if n == 0:
                    break
                budget.spend(int(n))
        cur = cur[ok[:, -1]]
        t += width
    return cur


def _pattern(bf: BulkField, q0: int, tests: np.ndarray):
    """(keep, passes) for `_scan`, on the float digit rows x of elements
    g^j.  keep(x) selects the rows left as candidates beyond the orbit
    walk; passes(x, j, t0, t1) is the pass matrix of tests [t0, t1) on
    candidate rows.

    Odd q0: x passes the square beta of F_q0 when x (x - beta) is a nonzero
    square, that is when chi(x - beta) == chi(x) = (-1)^j.  x - beta is
    x + (p - beta) digit by digit, reduced, and chi reads digit rows.
    Even q0 = 2^m: x needs Tr(x) = 0 (trace to F_q0), and passes b when
    Tr(1/(1 + b x)) is 0 or 1, that is when its digits 1 ... k-1 are 0
    (1 + b x != 0: x is not in F_q0).  Every b x is one product of the
    candidates with the tests' k x k multiplication matrices, built once
    per scan ((q0 - 1) k^2 floats), 1 + b x flips digit 0, and Tr(1/y) is
    one product after the chain.
    """
    if q0 % 2:
        minus = bf.p - bf._digits(tests)

        def keep(x):
            return slice(None)

        def passes(x, j, t0, t1):
            y = bf._reduce(x[:, None, :] + minus[None, t0:t1, :])
            signs = 1 - 2 * (j & 1)
            return bf._chi(y.reshape(-1, bf.k)).reshape(y.shape[:2]) == signs[:, None]
        return keep, passes
    m = q0.bit_length() - 1
    times = (bf._digits(tests) @ bf._shift_matrix).reshape(-1, bf.k, bf.k)

    def keep(x):
        return ~bf._trace(x, m).any(axis=1)

    def passes(x, j, t0, t1):
        y = bf._reduce(x @ times[t0:t1])  # as in _mul, test by test
        y[:, :, 0] = 1 - y[:, :, 0]
        tr = bf._trace(bf._inverse_root(y.reshape(-1, bf.k)), m, 1)
        return ~tr[:, 1:].any(axis=1).reshape(t1 - t0, -1).T
    return keep, passes


def _orbit_representatives(j: np.ndarray, d: int, p: int, k: int) -> np.ndarray:
    """The j that are smallest in their orbit {j * p^i mod d : i < k}."""
    t = j
    for _ in range(k - 1):
        t = t * p % d
        smallest = j <= t
        j, t = j[smallest], t[smallest]
    return j


def _orbit_sizes(j: np.ndarray, d: int, p: int) -> np.ndarray:
    """The least i >= 1 with j * p^i = j mod d, for each j (p^k = 1 mod d)."""
    size = np.zeros_like(j)
    t, i = j * p % d, 1
    while not size.all():
        size[(size == 0) & (t == j)] = i
        t, i = t * p % d, i + 1
    return size


def _scan(K: Field, q0: int, budget: _EvalBudget, count_all: bool = False):
    """The criterion's first witness x = g^j in F_q (smallest j) and the
    witness count: returns (first witness or None, count), with count only
    exact when count_all.

    The tests are the subgroup <g^d> of F_q0^* in ascending code order: the
    nonzero squares of F_q0 for odd q0 (d = 2(q-1)/(q0-1)), all of F_q0^*
    for even q0 (d = (q-1)/(q0-1)).  The witness indices j form a union of
    orbits of j -> j + d (x -> c x for c in <g^d>, which permutes the tests)
    and j -> p j (x -> x^p, likewise).  So the scan walks only the residues
    0 < j < d that are smallest in their orbit under j -> p j mod d, in
    ascending j: the smallest witness index is one of them.  The count is
    (q-1)/d times the orbit sizes of the witness residues.

    The residues go in blocks of x = g^j0 * g^i (i < block), the g^i from
    a short exp table.  The first block has (q-1) >> 9 residues (at least
    2^8), so a witness found early costs little; each next block doubles,
    up to _BLOCK, where counting starts.  `_pattern`'s keep filters each
    block and `_survivors` runs the tests on what is left.  The elements
    stay float digit rows: a block decodes its residues' exp entries and
    takes one product with the digit matrix of g^j0, g^j0 moves on by one
    product per block, and only the first witness is encoded.

    Even q0 with q = q0^2 has no candidate, so the scan returns at once:
    Tr(x) = x + x^q0 vanishes exactly when x^q0 = x, that is on F_q0, which
    j mod d != 0 excludes.
    """
    if q0 % 2 == 0 and K.order == q0 * q0:
        return None, 0
    n1 = K.order - 1
    d = n1 // (q0 - 1) * (2 if q0 % 2 else 1)
    bf = BulkField(K)
    tests = np.sort(bf.powers(K.pow(K.generator, d), n1 // d))
    keep, passes = _pattern(bf, q0, tests)
    size = _BLOCK if count_all else min(_BLOCK, max(1 << 8, n1 >> 9))
    first, count, exp, j0 = None, 0, np.empty(0, dtype=np.int64), 0
    g, gj0 = bf._digits(np.array([K.generator, 1])).reshape(2, 1, K.k)
    while j0 < d:
        n = min(size, d - j0)
        if exp.size < n:
            exp = bf.build_exp(n)
            step = bf._mul(bf._digits(exp[-1:]), g)  # g^n: blocks of this size start n apart
        j = _orbit_representatives(np.arange(max(j0, 1), j0 + n), d, K.p, K.k)
        x = bf._digits(exp[j - j0])
        if j0:
            x = bf._mul(x, gj0)
        kept = keep(x)
        j, x = j[kept], x[kept]
        cur = _survivors(np.arange(j.size), tests.size,
                         lambda i, t0, t1: passes(x[i], j[i], t0, t1), budget)
        if cur.size:
            if first is None:
                first = int(bf._codes(x[cur[:1]])[0])
            count += n1 // d * int(_orbit_sizes(j[cur], d, K.p).sum())
            if not count_all:
                return first, count
        j0, gj0, size = j0 + n, bf._mul(gj0, step), min(2 * size, _BLOCK)
    return first, count


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
    witness, _ = _scan(K, q0, _EvalBudget(caps.scan_cap))
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
    _, count = _scan(K, q0, _EvalBudget(caps.scan_cap), count_all=True)
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
