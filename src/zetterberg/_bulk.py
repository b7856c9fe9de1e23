"""Vectorized kernels (numpy) for the criterion scans and the class oracle.

Everything here reproduces the scalar Field semantics exactly; numpy is used
only to process many field elements per call.  Element codes travel as int64
arrays; digit matrices use exact small-integer arithmetic (float matmuls stay
below the mantissa limit of their dtype, so they are exact too).

The field kernels work on such float digit rows, with one arithmetic for
every characteristic: products, Frobenius powers, the powers of an element,
the quadratic character (whose last product forms only digit 0 of the norm),
the characteristic-2 inverse and the trace, fused with a Frobenius power so
that Tr(1/y) is one matrix product after the inverse's addition chain.  The
criterion scan keeps its elements as digit rows from the exp table to the
verdict.  The code-level `mul` and `frobenius`, which the oracle calls,
decode, call the same kernels and encode.

`covering_layers`, a plain BFS over a whole additive group, is not on any
production path: the tests use it as the element-level reference for the
oracle, which works on norm classes instead (`radius`).  Nor are the tables
of size q (`build_chi_table`, `build_log_table`, `build_trace_table_char2`):
the criterion scan evaluates its characters per element, and the tests and
the benchmark's traced pass still use the tables.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .gf import Field

_POWERS_BLOCK = 1 << 16  # digit rows per product in `powers`


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
        # digits are reduced mod p; float64 holds every code exactly
        return (digits @ self._pk_float).astype(np.int64)

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

    def powers(self, base: int, n: int) -> np.ndarray:
        """Codes of base^j for 0 <= j < n, by doubling: powers [f, f + span)
        are powers [0, span) times base^f, the square of the previous step's
        constant.

        It runs on float digit rows, so no code is decoded: a step is a
        product with the digit matrix of y -> y * base^f, in blocks of
        _POWERS_BLOCK rows, each block encoded once.  Only the rows below
        the largest power of 2 under n are kept, since the last step reads
        no row it writes.  Raises ValueError on fields too large for exact
        float digits (n >= 2), in every characteristic.
        """
        out = np.empty(n, dtype=np.int64)
        out[:1] = 1
        if n < 2:
            return out
        kept = 1 << ((n - 1).bit_length() - 1)
        digits = np.zeros((kept, self.k), dtype=self._exact_dtype())
        digits[0, 0] = 1
        filled, c = 1, base
        while filled < n:
            if filled > 1:
                c = self.F.mul(c, c)  # base^filled
            span = min(filled, n - filled)
            shift = (self._digits(np.array([c])) @ self._shift_matrix).reshape(self.k, self.k)
            for i in range(0, span, _POWERS_BLOCK):
                e = min(i + _POWERS_BLOCK, span)
                rows = self._reduce(digits[i:e] @ shift)  # as in _mul
                out[filled + i:filled + e] = self._codes(rows)
                if filled < kept:
                    digits[filled + i:filled + e] = rows
            filled += span
        return out

    def build_exp(self, n: int | None = None) -> np.ndarray:
        """exp[j] = code of g^j for 0 <= j < n (default order-1)."""
        return self.powers(self.F.generator, self.order - 1 if n is None else n)

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
