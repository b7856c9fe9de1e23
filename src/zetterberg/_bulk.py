"""Vectorized kernels (numpy) for the criterion scans and the class oracle,
and the array code of both routes: the class oracle's norm-class tables and
BFS (`_NormClasses`, `_class_layers`) and the criterion scan (`_scan`).

This is the only module that imports numpy.  `radius` holds the scalar
dispatcher and imports this module inside the oracle and criterion routes,
after their caps pass, so `import zetterberg` loads no numpy.

Everything here reproduces the scalar Field semantics exactly; numpy is used
only to process many field elements per call.  Elements travel as digit rows
(their coefficients over F_p); they are encoded as int64 codes only where a
caller sorts or searches them.  Digit matrices use exact small-integer
arithmetic (float matmuls stay below the mantissa limit of their dtype, so
they are exact too).

The field kernels work on such float digit rows, with one arithmetic for
every characteristic: products, Frobenius powers, the quadratic character
(whose last product forms only digit 0 of the norm), the characteristic-2
inverse and the trace, fused with a Frobenius power so that Tr(1/y) is one
matrix product after the inverse's addition chain.  One builder, `powers`,
forms the digit rows of base^j by doubling; `build_exp` is its call for the
generator.  The criterion scan keeps its elements as digit rows from the exp
prefix to the verdict and encodes its tests once, to sort them; the class
oracle encodes its powers once, to search them, and reads its Zech logs off
the same rows.  The code-level `mul` and `frobenius`, which the oracle
calls, decode, call the same kernels and encode.

`covering_layers`, a direction-optimized BFS over a whole additive group, is
not on any production path: the tests use it as the element-level reference
for the oracle, which works on norm classes instead.  Nor are the tables of
size q (`build_chi_table`, `build_log_table`, `build_trace_table_char2`): the
criterion scan evaluates its characters per element, and only the tests
build the tables (the benchmark's traced pass wraps them, but none of its
cells calls them).
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .gf import Field, FieldContext

_POWERS_BLOCK = 1 << 16  # digit rows per product in `powers` and per encode
_BLOCK = 1 << 15  # the most residues one criterion scan block tests
_WIDE = 1 << 12  # a 2-D pass matrix this small costs less than a call per test


def digit_dtype(p: int, k: int):
    """The float dtype of exact digit products in F_{p^k}, or None for a
    field too large for exact float digit kernels.

    A digit product sums k^2 terms below p^2 times a matrix entry below p;
    this is the smaller float dtype that holds such sums exactly, with room
    for _reduce (codes themselves are summed in float64).
    """
    bound = k**2 * (p - 1) ** 3
    if bound >= 2**52 or p**k > 2**53:
        return None
    return np.float32 if bound < 2**23 else np.float64


class BulkField:
    """Array-at-a-time companion of a scalar Field."""

    def __init__(self, F: Field):
        self.F = F
        self.p = F.p
        self.k = F.k
        self.order = F.order
        self._pk = np.array([F.p**i for i in range(F.k)], dtype=np.int64)
        self._pk_float = self._pk.astype(np.float64)
        self._dtype = digit_dtype(F.p, F.k)
        self._frob = [np.eye(F.k, dtype=self._dtype)]  # Frobenius powers 0, 1, ...
        self._traces = {}  # (subfield degree, e) -> digit matrix of y -> Tr(y^(p^e))

    # -- digit representation

    def decode(self, codes: np.ndarray) -> np.ndarray:
        if self.p == 2:  # the low k bits of each code, as uint8
            octets = np.ascontiguousarray(codes, dtype="<i8").view(np.uint8).reshape(-1, 8)
            return np.unpackbits(octets, axis=1, count=self.k, bitorder="little")
        out = np.empty((codes.shape[0], self.k), dtype=np.int64)
        c = codes.astype(np.int64, copy=True)
        for i in range(self.k):
            out[:, i] = c % self.p
            c //= self.p
        return out

    def encode(self, digits: np.ndarray) -> np.ndarray:
        return (digits % self.p) @ self._pk

    def _exact_dtype(self):
        if self._dtype is None:
            raise ValueError(f"{self.F} is too large for exact float digit kernels")
        return self._dtype

    def _digits(self, codes: np.ndarray) -> np.ndarray:
        return self.decode(codes).astype(self._exact_dtype())

    def _codes(self, digits: np.ndarray) -> np.ndarray:
        # digits are reduced mod p; float64 holds every code exactly.  In
        # blocks of rows, so narrow integer rows are never all cast to float64
        out = np.empty(digits.shape[0], dtype=np.int64)
        for i in range(0, digits.shape[0], _POWERS_BLOCK):
            out[i:i + _POWERS_BLOCK] = digits[i:i + _POWERS_BLOCK] @ self._pk_float
        return out

    def _reduce(self, x: np.ndarray) -> np.ndarray:
        """x mod p for nonnegative integers x held exactly in a float dtype
        (below half its mantissa limit): the correctly rounded x / p then
        floors to the exact quotient.  Cheaper than the float remainder.
        Allocates a single array of x's shape."""
        out = x / self.p
        np.floor(out, out=out)
        out *= self.p
        return np.subtract(x, out, out=out)

    def _frobenius_matrix(self, e: int) -> np.ndarray:
        """Digit matrix of y -> y^(p^e), composed from the matrix of y -> y^p."""
        frob = self._frob
        if len(frob) == 1:
            # row i is (X^i)^p = (X^p)^i; code p is X (k >= 2)
            F, rows, y = self.F, [], 1
            xp = F.pow(F.p, F.p) if F.k > 1 else 1
            for _ in range(F.k):
                rows.append(F.decode(y))
                y = F.mul(y, xp)
            frob.append(np.array(rows, dtype=self._dtype))
        while len(frob) <= e:
            frob.append(self._reduce(frob[-1] @ frob[1]))
        return frob[e]

    def _frobenius(self, digits: np.ndarray, e: int) -> np.ndarray:
        """digits of y^(p^e)."""
        return self._reduce(digits @ self._frobenius_matrix(e))

    @cached_property
    def _shift_matrix(self) -> np.ndarray:
        # S[j, i*k + l] is digit l of X^(i+j) mod the field modulus, so that
        # b @ S lists, for each i, the digits of X^i * b
        F, k = self.F, self.k
        x_pows = [1]
        for _ in range(2 * k - 2):
            x_pows.append(F.mul(x_pows[-1], F.p))  # code p is X (k >= 2)
        rows = np.array([F.decode(c) for c in x_pows], dtype=self._dtype)
        return rows[np.add.outer(np.arange(k), np.arange(k))].reshape(k, k * k)

    def _mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """digits of a*b = sum_i a_i * (X^i * b); a and b broadcast along
        the first axis, and a single row b is one 2-D product."""
        shifted = (b @ self._shift_matrix).reshape(-1, self.k, self.k)
        if shifted.shape[0] == 1:
            return self._reduce(a @ shifted[0])
        return self._reduce((a[:, None, :] @ shifted)[:, 0, :])

    def _mul_digit0(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """digit 0 of a*b, as one column: sum_i a_i * digit 0 of X^i * b,
        read off the columns of the shift matrix that hold digit 0."""
        low = b @ self._shift_matrix[:, ::self.k]
        return self._reduce(np.einsum("ij,ij->i", a, low)[:, None])

    def _chain(self, digits: np.ndarray, n: int, last=None) -> np.ndarray:
        """digits of y^(1 + p + ... + p^(n-1)), n >= 1, by the Itoh-Tsujii
        addition chain r_(2a) = r_a^(p^a) * r_a, r_(a+1) = r_a^p * y.
        last(a, b), if given, forms the chain's final product a*b in place
        of _mul; for n = 1 there is no product and y is returned."""
        steps, a = [], 1  # (e, b): r <- r^(p^e) * b, with b = None for r
        for bit in bin(n)[3:]:
            steps.append((a, None))
            a *= 2
            if bit == "1":
                steps.append((1, digits))
                a += 1
        r = digits
        for i, (e, b) in enumerate(steps, 1):
            mul = last if last is not None and i == len(steps) else self._mul
            r = mul(self._frobenius(r, e), r if b is None else b)
        return r

    @cached_property
    def _legendre(self) -> np.ndarray:
        t = np.full(self.p, -1, dtype=np.int8)
        t[np.arange(1, self.p, dtype=np.int64) ** 2 % self.p] = 1
        t[0] = 0
        return t

    def _chi(self, digits: np.ndarray) -> np.ndarray:
        """Quadratic character in {-1, 0, +1} of digit rows (odd p).

        y^((q-1)/2) = N(y)^((p-1)/2) with N(y) = y^(1 + p + ... + p^(k-1))
        in F_p, so chi(y) is the Legendre symbol of the norm's constant digit,
        the only digit the chain's last product forms.
        """
        if self.p == 2:
            raise ValueError("quadratic character needs odd characteristic")
        norm = self._chain(digits, self.k, self._mul_digit0)[:, 0]
        return self._legendre[norm.astype(np.int64)]

    def _inverse_root(self, digits: np.ndarray) -> np.ndarray:
        """digits of z with z^2 = 1/y (0 for y = 0), in characteristic 2.

        y^(q-2) = 1/y, and q - 2 = 2*(1 + 2 + ... + 2^(k-2)), so
        z = chain(y, k-1); in F_2, z = y.
        """
        if self.p != 2:
            raise ValueError("the inverse kernel needs characteristic 2")
        return digits if self.k == 1 else self._chain(digits, self.k - 1)

    def _trace(self, digits: np.ndarray, sub_degree: int, e: int = 0) -> np.ndarray:
        """digits of Tr(y^(p^e)) to the subfield F_{p^sub_degree}: the trace
        is the sum of the Frobenius powers p^(sub_degree*i), an F_p-linear
        map, so with the Frobenius power it is one digit matrix."""
        if self.k % sub_degree:
            raise ValueError("subfield degree must divide k")
        key = sub_degree, e
        if key not in self._traces:
            tr = sum(self._frobenius_matrix(i) for i in range(0, self.k, sub_degree))
            self._traces[key] = self._reduce(self._frobenius_matrix(e) @ self._reduce(tr))
        return self._reduce(digits @ self._traces[key])

    # -- elementwise kernels on arrays of codes

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a*b elementwise; a length-1 array broadcasts."""
        return self._codes(self._mul(self._digits(a), self._digits(b)))

    def frobenius(self, codes: np.ndarray, e: int) -> np.ndarray:
        """y^(p^e) elementwise."""
        return self._codes(self._frobenius(self._digits(codes), e))

    # -- elementwise sums with a constant

    def add_const(self, codes: np.ndarray, c: int) -> np.ndarray:
        if self.p == 2:
            return codes ^ c
        d = self.decode(codes)
        d += np.array(self.F.decode(c), dtype=np.int64)
        return self.encode(d)

    def sub_const(self, codes: np.ndarray, c: int) -> np.ndarray:
        if self.p == 2:
            return codes ^ c
        return self.add_const(codes, self.F.neg(c))

    # -- group enumeration and character tables

    def powers(self, base: int, n: int, prefix: np.ndarray | None = None) -> np.ndarray:
        """Digit rows of base^j for 0 <= j < n, stored in the narrowest
        unsigned integer dtype that holds p - 1 (a quarter of float32 for
        p <= 256); products with them are float, in the exact dtype.

        Given the rows of a shorter prefix, extends it: rows [f, f + span)
        are rows [0, span) times base^f, one product with the digit matrix
        of y -> y * base^f in blocks of _POWERS_BLOCK rows, and base^(2f) is
        the square of base^f, starting from f = len(prefix) and base^f the
        prefix's last row times base, so no power is computed twice.
        Raises ValueError on fields too large for exact float digits when a
        row is left to compute, in every characteristic.
        """
        if prefix is None or not len(prefix):  # the row of base^0 = 1
            prefix = np.zeros((min(n, 1), self.k), dtype=np.min_scalar_type(self.p - 1))
            prefix[:, 0] = 1
        filled = prefix.shape[0]
        if filled >= n:
            return prefix[:n]
        rows = np.empty((n, self.k), dtype=prefix.dtype)
        rows[:filled] = prefix
        c = self._mul(prefix[-1:], self._digits(np.array([base])))
        while filled < n:
            span = min(filled, n - filled)
            shift = (c @ self._shift_matrix).reshape(self.k, self.k)
            for i in range(0, span, _POWERS_BLOCK):
                e = min(i + _POWERS_BLOCK, span)
                rows[filled + i:filled + e] = self._reduce(rows[i:e] @ shift)  # as in _mul
            filled += span
            if filled < n:
                c = self._mul(c, c)
        return rows

    def build_exp(self, n: int | None = None, prefix: np.ndarray | None = None) -> np.ndarray:
        """`powers` of the generator g, for 0 <= j < n (default order-1)."""
        return self.powers(self.F.generator, self.order - 1 if n is None else n, prefix)

    def build_chi_table(self, exp: np.ndarray) -> np.ndarray:
        """chi[code] in {-1, 0, +1} for the quadratic character (odd p)."""
        if self.p == 2:
            raise ValueError("quadratic character needs odd characteristic")
        chi = np.full(self.order, -1, dtype=np.int8)
        chi[exp[0::2]] = 1
        chi[0] = 0
        return chi

    def build_log_table(self, exp: np.ndarray) -> np.ndarray:
        """log[code] = j with exp[j] = code (log[0] = 0); int32 below 2^31."""
        dtype = np.int32 if self.order < 2**31 else np.int64
        log = np.zeros(self.order, dtype=dtype)
        log[exp] = np.arange(self.order - 1, dtype=dtype)
        return log

    def build_trace_table_char2(self, sub_degree: int) -> np.ndarray:
        """trace[code] = code of Tr to the subfield F_{2^sub_degree} (char 2).

        The trace is F_2-linear, so the table doubles up over basis bits.
        """
        if self.p != 2:
            raise ValueError("char-2 trace table requested for odd field")
        tr = np.zeros(self.order, dtype=np.int64)
        for i in range(self.k):
            t = self.F.trace_to(1 << i, sub_degree)
            lo, hi = 1 << i, 1 << (i + 1)
            tr[lo:hi] = tr[:lo] ^ t
        return tr


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
        rows = self.bf.powers(ctx.pow(ctx.generator, ctx.q + 1), self.Q)
        exp = self.bf._codes(rows)
        self._order = np.argsort(exp)
        self._sorted = exp[self._order]
        # Zech logs: zech[j] = log(1 + gamma^j), zech[Q] = log(1 + 0) = 0.
        # 1 + gamma^j adds 1 to digit 0 of the row: the code goes up by 1,
        # or down by p - 1 where that digit is p - 1
        exp += 1
        exp[rows[:, 0] == ctx.p - 1] -= ctx.p
        self.zech = np.append(self.log(exp), 0)
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
    early once every class is reached.  Each level's first block holds
    about _WIDE grid cells (at least one row); the blocks then double up
    to _GRID_BLOCK cells, the memory bound of one block.  One row of the
    grid already reaches about half of the classes, so the last level
    usually stops within its first few blocks instead of a whole wide one.
    """
    Q, r = nc.Q, nc.r
    layer = np.zeros(r, dtype=np.int64)  # 0: not reached yet
    layer[0] = 1
    row_class = np.arange(Q) % r
    cap = max(1, _GRID_BLOCK // (Q + 1))
    level = 1
    while not layer.all():
        level += 1
        rows = np.flatnonzero(layer[row_class] == level - 1)
        hit = layer > 0
        i, block = 0, min(cap, max(1, _WIDE // (Q + 1)))
        while i < rows.size:
            targets = nc.edges(rows[i:i + block])
            hit[targets[targets >= 0]] = True
            if hit.all():
                break
            i, block = i + block, min(2 * block, cap)
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


# ---------------------------------------------------------------------------
# criterion scan (works in F_q, never in the ambient field)


def _survivors(cur: np.ndarray, n_tests: int, passes) -> np.ndarray:
    """The entries of cur that pass tests 0, 1, ..., n_tests-1.

    passes(cur, t0, t1) is the (len(cur), t1 - t0) pass matrix of tests
    [t0, t1).  The tests run one at a time until the survivors times the
    tests left fit in the size of the first test, or in _WIDE; the rest is
    then one 2-D call, whose rows pass when they pass every test.
    """
    first, t = cur.size, 0
    while cur.size and t < n_tests:
        width = n_tests - t if cur.size * (n_tests - t) <= max(first, _WIDE) else 1
        cur = cur[passes(cur, t, t + width).all(axis=1)]
        t += width
    return cur


def _pattern(bf: BulkField, q0: int, tests: np.ndarray):
    """(keep, passes) for `_scan`, on the float digit rows x of elements
    g^j, and the integer digit rows of the tests in ascending code order.
    keep(x) selects the rows left as candidates beyond the orbit walk;
    passes(x, j, t0, t1) is the pass matrix of tests [t0, t1) on candidate
    rows.

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
        minus = bf.p - tests.astype(bf._dtype)

        def keep(x):
            return slice(None)

        def passes(x, j, t0, t1):
            y = bf._reduce(x[:, None, :] + minus[None, t0:t1, :])
            signs = 1 - 2 * (j & 1)
            return bf._chi(y.reshape(-1, bf.k)).reshape(y.shape[:2]) == signs[:, None]
        return keep, passes
    m = q0.bit_length() - 1
    times = (tests @ bf._shift_matrix).reshape(-1, bf.k, bf.k)

    def keep(x):
        return ~bf._trace(x, m).any(axis=1)

    def passes(x, j, t0, t1):
        y = bf._reduce(x @ times[t0:t1])  # as in _mul, test by test
        y[:, :, 0] = 1 - y[:, :, 0]
        tr = bf._trace(bf._inverse_root(y.reshape(-1, bf.k)), m, 1)
        return ~tr[:, 1:].any(axis=1).reshape(t1 - t0, -1).T
    return keep, passes


def _residue_dtype(d: int, p: int):
    """int32 when every j * p of residues j < d stays below 2^31."""
    return np.int32 if d * p < 2**31 else np.int64


def _times_p(t: np.ndarray, p: int, d: int) -> np.ndarray:
    """t * p mod d for residues t < d, as t * p minus its floor quotient by
    d times d: numpy's floor division by a scalar (libdivide) costs about a
    third of its remainder."""
    t = t * p
    t -= t // d * d
    return t


def _orbit_representatives(j: np.ndarray, d: int, p: int, k: int) -> np.ndarray:
    """The j that are smallest in their orbit {j * p^i mod d : i < k}, as
    `_residue_dtype` residues."""
    j = j.astype(_residue_dtype(d, p), copy=False)
    t = j
    for _ in range(k - 1):
        t = _times_p(t, p, d)
        smallest = j <= t
        j, t = j[smallest], t[smallest]
    return j


def _orbit_sizes(j: np.ndarray, d: int, p: int) -> np.ndarray:
    """The least i >= 1 with j * p^i = j mod d, for each j (p^k = 1 mod d)."""
    j = j.astype(_residue_dtype(d, p), copy=False)
    size = np.zeros_like(j)
    t, i = _times_p(j, p, d), 1
    while not size.all():
        size[(size == 0) & (t == j)] = i
        t, i = _times_p(t, p, d), i + 1
    return size


def _scan(K: Field, q0: int, count_all: bool = False):
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
    (q-1)/d times the orbit sizes of the witness residues.  The residues
    times the tests are d (q-1)/d = q - 1, so a scan makes fewer than q - 1
    evaluations: the caller's cap on q bounds its work.

    The residues, int32 where d * p < 2^31, go in blocks of
    x = g^j0 * g^i (i < block), the g^i from a short exp prefix of
    integer digit rows.  The first block has (q-1) >> 9 residues (at least 2^8), so a
    witness found early costs little; each next block doubles, up to
    _BLOCK, where counting starts, and the prefix is extended to it, not
    rebuilt, so each g^i is computed once.  `_pattern`'s keep filters each
    block and `_survivors` runs the tests on what is left.  The elements
    stay float digit rows: a block gathers its residues' rows from the
    prefix and takes one product with the digit matrix of g^j0, g^j0 moves
    on by one product per block.  The tests are encoded once, to sort
    them; of the candidates, only the first witness is encoded.

    Even q0 with q = q0^2 has no candidate, so the scan returns at once:
    Tr(x) = x + x^q0 vanishes exactly when x^q0 = x, that is on F_q0, which
    j mod d != 0 excludes.
    """
    if q0 % 2 == 0 and K.order == q0 * q0:
        return None, 0
    n1 = K.order - 1
    d = n1 // (q0 - 1) * (2 if q0 % 2 else 1)
    bf = BulkField(K)
    tests = bf.powers(K.pow(K.generator, d), n1 // d)
    tests = tests[np.argsort(bf._codes(tests))]
    keep, passes = _pattern(bf, q0, tests)
    size = _BLOCK if count_all else min(_BLOCK, max(1 << 8, n1 >> 9))
    first, count, rows, j0 = None, 0, None, 0
    g = bf._digits(np.array([K.generator]))
    gj0 = np.zeros_like(g)
    gj0[0, 0] = 1
    while j0 < d:
        n = min(size, d - j0)
        if rows is None or rows.shape[0] < n:
            rows = bf.build_exp(n, rows)
            step = bf._mul(rows[-1:], g)  # g^n: blocks of this size start n apart
        j = _orbit_representatives(np.arange(max(j0, 1), j0 + n), d, K.p, K.k)
        x = rows[j - j0].astype(bf._dtype)
        if j0:
            x = bf._mul(x, gj0)
        kept = keep(x)
        j, x = j[kept], x[kept]
        cur = _survivors(np.arange(j.size), len(tests),
                         lambda i, t0, t1: passes(x[i], j[i], t0, t1))
        if cur.size:
            if first is None:
                first = int(bf._codes(x[cur[:1]])[0])
            count += n1 // d * int(_orbit_sizes(j[cur], d, K.p).sum())
            if not count_all:
                return first, count
        j0, gj0, size = j0 + n, bf._mul(gj0, step), min(2 * size, _BLOCK)
    return first, count


# ---------------------------------------------------------------------------
# breadth-first layering of a(n additive) Cayley graph


def covering_layers(bf: BulkField, steps) -> np.ndarray:
    """layer[v] = least number of terms from `steps` summing to v.

    The plain-BFS reference that the tests hold the class oracle to: every
    element of the additive group is visited, so it costs O(|F| * |steps|)
    digit operations and stays out of production.  Direction-optimized
    expansion (top-down from small frontiers, bottom-up into small unvisited
    sets); both directions assign identical layers because the step set is
    symmetric (verified here).
    """
    F = bf.F
    step_set = set(int(s) for s in steps)
    step_list = sorted(step_set)
    if any(F.neg(s) not in step_set for s in step_list):
        raise ValueError("step set must be symmetric under negation")
    order = bf.order
    layer = np.full(order, 0xFF, dtype=np.uint8)
    layer[0] = 0
    frontier = np.array(step_list, dtype=np.int64)
    layer[frontier] = 1
    level = 1
    unassigned = order - 1 - frontier.size
    while unassigned > 0:
        level += 1
        if level >= 0xFF:
            raise ArithmeticError("BFS exceeded representable depth")
        if frontier.size <= unassigned // 4:
            # top-down: push each frontier element through every step
            pieces = []
            for c in step_list:
                cand = bf.add_const(frontier, c)
                fresh = cand[layer[cand] == 0xFF]
                if fresh.size:
                    layer[fresh] = level
                    pieces.append(fresh)
            new = np.unique(np.concatenate(pieces)) if pieces else np.empty(0, np.int64)
        else:
            # bottom-up: each unvisited element looks for a visited in-neighbor
            remaining = np.flatnonzero(layer == 0xFF).astype(np.int64)
            pieces = []
            for c in step_list:
                if remaining.size == 0:
                    break
                prev = bf.sub_const(remaining, c)
                hit = layer[prev] < level
                found = remaining[hit]
                if found.size:
                    layer[found] = level
                    pieces.append(found)
                    remaining = remaining[~hit]
            new = np.concatenate(pieces) if pieces else np.empty(0, np.int64)
        if new.size == 0:
            raise ArithmeticError("step set does not generate the group")
        unassigned -= new.size
        frontier = new
    return layer
