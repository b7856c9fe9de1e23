"""Generalized Zetterberg codes and their half-length variants.

A code is pinned to an ambient FieldContext: the full code has length q+1
with parity condition sum(c_i * xi^i) = 0 over all of H = <xi>, the half code
(odd q0 only) keeps the first (q+1)/2 positions.  Codewords are plain lists
of F_q0 coefficient codes.

The positions xi^0, xi^1, ... are walked only on first read (`h_powers`,
`positions`), by the minimum-distance search and callers that need every
position.  A syndrome steps from one support position to the next by a
power of xi, and `h_index` finds the position of an element of H by
baby-step giant-step, O(sqrt(q)) products; so the explicit weight-3
witnesses and their syndromes never walk H.

A word is a codeword exactly when M(X), the minimal polynomial of xi over
F_q0 (degree 2s), divides sum(c_i * X^i).  Column i of the parity-check
matrix is X^i mod M, so its first 2s columns are the identity and the code
has the systematic basis e_j - (X^j mod M), j >= 2s; no linear solve is
needed anywhere.

`code_shape` is the one rule for a cell's (length, dimension) and for the
half code's odd-q0 precondition.  `_codeword` assembles every word the
searches and witnesses return from (position, coefficient) pairs, folds a
half-code position t >= L to (t - L, -c) since xi^L = -1, and asserts the
word's weight and zero syndrome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

from .errors import PreconditionViolated, SizeCapExceeded
from .gf import FieldContext
from . import charsum, tower


def code_shape(q0: int, s: int, variant: str) -> tuple[int, int]:
    """(length, dimension) of the variant's code over F_q0 with q = q0^s.

    The dimension length - 2s is nonnegative for q0 >= 2 and s >= 1:
    2^s + 1 - 2s >= 1 for full codes, (3^s + 1)/2 - 2s >= 0 for odd half
    codes.  Raises ValueError for an unknown variant and PreconditionViolated
    for a half code over even q0."""
    if variant not in ("full", "half"):
        raise ValueError("variant must be 'full' or 'half'")
    if variant == "half" and q0 % 2 == 0:
        raise PreconditionViolated("half code requires odd q0")
    length = q0**s + 1 if variant == "full" else (q0**s + 1) // 2
    return length, length - 2 * s


@dataclass
class ZetterbergCode:
    ctx: FieldContext
    variant: str                      # "full" | "half"
    xi: int = field(init=False)
    length: int = field(init=False)
    dimension: int = field(init=False)

    def __post_init__(self):
        ctx = self.ctx
        self.length, self.dimension = code_shape(ctx.q0, ctx.s, self.variant)
        self.xi = ctx.xi

    @cached_property
    def h_powers(self) -> list:
        """xi^0 .. xi^q: all of H, in order (walked on first read)."""
        return tower.subgroup_elements(self.ctx, "H")

    @cached_property
    def positions(self) -> list:
        """xi^0 .. xi^(length-1), walked on first read: the half code stops
        at (q+1)/2, where h_powers walks all of H."""
        out = [1]
        for _ in range(self.length - 1):
            out.append(self.ctx.mul(out[-1], self.xi))
        return out

    @cached_property
    def _baby_steps(self) -> tuple[dict, int]:
        # ({xi^j: j for j < n}, xi^(-n)) with n = ceil(sqrt(q + 1))
        ctx, order = self.ctx, self.ctx.q + 1
        n = math.isqrt(order - 1) + 1
        table, x = {}, 1
        for j in range(n):
            table[x] = j
            x = ctx.mul(x, self.xi)
        return table, ctx.pow(self.xi, order - n)

    def h_index(self, h: int) -> int:
        """The t in [0, q] with xi^t = h, by baby-step giant-step in H:
        O(sqrt(q)) products, no walk of H.  ValueError when h is not in H."""
        table, giant = self._baby_steps
        n = len(table)
        # t = i*n + j with j < n; the first i that hits gives the least t
        for i in range(n):
            j = table.get(h)
            if j is not None:
                return i * n + j
            h = self.ctx.mul(h, giant)
        raise ValueError("element is not in H")

    @property
    def q0(self) -> int:
        return self.ctx.q0

    @property
    def s(self) -> int:
        return self.ctx.s

    def __repr__(self):
        return (f"ZetterbergCode(q0={self.q0}, s={self.s}, {self.variant}, "
                f"[{self.length},{self.dimension}])")


def build_code(ctx: FieldContext, variant: str) -> ZetterbergCode:
    return ZetterbergCode(ctx, variant)


# ---------------------------------------------------------------------------
# syndrome / membership


def syndrome(code: ZetterbergCode, word) -> int:
    """sum(c_i * xi^i) in the ambient field; 0 iff the word is a codeword."""
    if len(word) != code.length:
        raise ValueError(f"word length {len(word)} != code length {code.length}")
    ctx = code.ctx
    acc, pos, prev = 0, 1, 0
    for i in support(word):  # pos = xi^i, stepped from the last support position
        if i > prev:
            pos = ctx.mul(pos, ctx.pow(code.xi, i - prev))
            prev = i
        acc = ctx.add(acc, ctx.mul(word[i], pos))
    return acc


def contains(code: ZetterbergCode, word) -> bool:
    return syndrome(code, word) == 0


def weight(word) -> int:
    return sum(1 for c in word if c)


def support(word) -> list[int]:
    return [i for i, c in enumerate(word) if c]


def cyclic_shift(code: ZetterbergCode, word) -> list:
    """One step of the code's shift symmetry.

    Full code: plain cyclic shift.  Half code: constacyclic shift, the entry
    wrapping around picks up a sign (X^((q+1)/2) acts as -1).
    """
    if code.variant == "full":
        return [word[-1]] + list(word[:-1])
    return [code.ctx.neg(word[-1])] + list(word[:-1])


def _codeword(code: ZetterbergCode, terms) -> list:
    """The codeword with coefficient c at position t for each (t, c) in
    terms.  A half-code position t >= L folds to (t - L, -c): xi^L = -1."""
    word = [0] * code.length
    for t, c in terms:
        if t >= code.length:
            t, c = t - code.length, code.ctx.neg(c)
        word[t] = c
    assert weight(word) == len(terms) and syndrome(code, word) == 0
    return word


# ---------------------------------------------------------------------------
# parity-check view


def minimal_polynomial(ctx: FieldContext) -> list[int]:
    """M(X) = prod_{j<2s} (X - xi^(q0^j)), the minimal polynomial of xi over
    F_q0: monic of degree 2s, coefficients ascending (ambient codes of F_q0
    elements).  The code is the set of words whose polynomial M divides."""
    poly = [1]
    root = ctx.xi
    for _ in range(2 * ctx.s):
        # poly *= (X - root)
        poly = [ctx.sub(a, ctx.mul(root, b)) for a, b in zip([0] + poly, poly + [0])]
        root = ctx.pow(root, ctx.q0)
    assert all(ctx.pow(c, ctx.q0) == c for c in poly)
    return poly


def parity_check_matrix(code: ZetterbergCode) -> list[list[int]]:
    """2s x length matrix over F_q0 (entries are ambient codes of subfield
    elements); column i holds the coordinates of xi^i in the basis
    (1, xi, ..., xi^(2s-1)), i.e. the coefficients of X^i mod M."""
    ctx = code.ctx
    poly = minimal_polynomial(ctx)
    columns = [[1] + [0] * (2 * ctx.s - 1)]
    while len(columns) < code.length:
        # X * col mod M: shift up, subtract the overflow times M (monic)
        col = columns[-1]
        columns.append([ctx.sub(c, ctx.mul(col[-1], m))
                        for c, m in zip([0] + col[:-1], poly)])
    return [list(row) for row in zip(*columns)]


# ---------------------------------------------------------------------------
# minimum distance


def min_distance_formula(q0: int, s: int, variant: str) -> int | None:
    """Closed-form minimum distance; None for the zero-dimensional case."""
    if q0 < 2 or s < 1:
        raise ValueError("q0 >= 2 and s >= 1 required")
    code_shape(q0, s, variant)  # rejects an unknown variant or an even-q0 half code
    if variant == "full":
        if q0 % 2 == 0:
            if q0 == 2:
                return 5 if s % 2 == 0 else 3
            return 4 if s % 2 == 0 else 3
        return 2
    if q0 == 3:
        return 5 if s >= 2 else None  # s=1 is the zero-dimensional [2,0]
    return 4 if s % 2 == 0 else 3


def _rays(code: ZetterbergCode) -> dict[int, list[int]]:
    """{xi^(t(q0-1)): [t, ...]} over the positions 1 <= t < length, one
    product per position.

    (c * xi^t)^(q0-1) = xi^(t(q0-1)) for c in F_q0^*, and z^(q0-1) equals it
    exactly when z * xi^(-t) lies in F_q0^*: the key of z names the
    positions whose ray F_q0^* * xi^t holds z.  A key holds two positions,
    t and t + (q+1)/2, only in the odd-q0 full code."""
    ctx = code.ctx
    step = ctx.pow(code.xi, ctx.q0 - 1)
    rays, key = {}, 1
    for t in range(1, code.length):
        key = ctx.mul(key, step)
        rays.setdefault(key, []).append(t)
    return rays


def _word_of_weight(code: ZetterbergCode, w: int, rays: dict) -> list | None:
    """A codeword of weight w with coefficient 1 at position 0, or None.

    Walks the middle terms 1 <= u_1 < ... < u_(w-2) < length with
    coefficients a_i in F_q0^*.  When z = 1 + sum(a_i * xi^(u_i)) is nonzero
    and its ray key holds a position t outside {u_i}, the word ends with
    coefficient -z * xi^(-t) at t."""
    ctx, positions, e = code.ctx, code.positions, code.q0 - 1
    scalars = tower.subfield_elements(ctx, "q0")[1:]

    def extend(start, z, terms):
        if len(terms) == w - 2:
            for t in rays.get(ctx.pow(z, e), ()) if z else ():
                if all(t != u for u, _ in terms):
                    last = (t, ctx.neg(ctx.div(z, positions[t])))
                    return _codeword(code, [(0, 1), *terms, last])
            return None
        for u in range(start, code.length):
            for a in scalars:
                word = extend(u + 1, ctx.add(z, ctx.mul(a, positions[u])), terms + [(u, a)])
                if word:
                    return word
        return None

    return extend(1, 1, [])


def min_distance_exhaustive(code: ZetterbergCode, max_weight: int = 4) -> int | None:
    """Least weight w <= max_weight of a nonzero codeword, else None.

    Both codes are closed under their shift (cyclic, or constacyclic with
    xi^length = -1 for the half code) and under scaling by F_q0^*, so a word
    of weight w exists exactly when one has coefficient 1 at position 0: one
    normalized pass per weight decides it.  The pass for w >= 4 tries
    C(length-1, w-2) * (q0-1)^(w-2) candidates and is refused before it
    starts when that exceeds enum_codewords_cap; the passes for weights 2
    and 3 try at most length * q0 and are not capped.
    """
    cap = code.ctx.caps.enum_codewords_cap
    rays = _rays(code)
    for w in range(2, max_weight + 1):
        tries = math.comb(code.length - 1, w - 2) * (code.q0 - 1) ** (w - 2)
        if w >= 4 and tries > cap:
            raise SizeCapExceeded(
                f"the weight-{w} pass tries {tries} words, over enum_codewords_cap {cap}")
        if _word_of_weight(code, w, rays) is not None:
            return w
    return None


# ---------------------------------------------------------------------------
# explicit weight-3 witnesses


def weight3_witness_even(code: ZetterbergCode) -> list:
    """The explicit weight-3 codeword for even q0 >= 4 and odd s, supported on
    the order-(q0+1) subgroup of H."""
    ctx = code.ctx
    if ctx.p != 2 or ctx.q0 < 4:
        raise PreconditionViolated("even q0 >= 4 required")
    if ctx.s % 2 == 0:
        raise PreconditionViolated("s must be odd")
    if code.variant != "full":
        raise PreconditionViolated("witness lives in the full code")
    step = (ctx.q + 1) // (ctx.q0 + 1)
    theta = ctx.pow(code.xi, step)  # generates H0 = {x : x^(q0+1) = 1}
    i, j = 1, 2
    ti, tj = ctx.pow(theta, i), ctx.pow(theta, j)
    denom = ctx.add(ti, tj)
    denom2 = ctx.mul(denom, denom)
    a = ctx.div(ctx.mul(ti, ctx.pow(ctx.add(tj, 1), 2)), denom2)
    b = ctx.div(ctx.mul(tj, ctx.pow(ctx.add(ti, 1), 2)), denom2)
    assert tower.in_subgroup(ctx, a, "Fq0_star") and tower.in_subgroup(ctx, b, "Fq0_star")
    return _codeword(code, [(0, 1), (i * step, a), (j * step, b)])


def weight3_witness_half_odd(code: ZetterbergCode) -> list:
    """The explicit weight-3 codeword of the half code for odd q0 >= 5, odd s.

    Built from a quartic non-square pair (c1, c2): the discriminant's square
    root lives outside F_q, the two derived elements land in H0 minus {+-1},
    and signs fold every support position into the half range.
    """
    ctx = code.ctx
    if ctx.p == 2 or ctx.q0 < 5:
        raise PreconditionViolated("odd q0 >= 5 required")
    if ctx.s % 2 == 0:
        raise PreconditionViolated("s must be odd")
    if code.variant != "half":
        raise PreconditionViolated("witness lives in the half code")
    c1, c2 = charsum.find_nonsquare_quartic_pair_in_context(ctx)
    sum_, diff = ctx.add(c1, c2), ctx.sub(c1, c2)
    delta = ctx.mul(ctx.mul(ctx.add(sum_, 1), ctx.sub(sum_, 1)),
                    ctx.mul(ctx.add(diff, 1), ctx.sub(diff, 1)))
    # nonsquare in F_q0, hence (s odd) nonsquare in F_q, but a square in F_{q^2}
    assert tower.chi_field(ctx, delta, ctx.q) == -1
    sd = ctx.sqrt(delta)
    c1sq, c2sq = ctx.mul(c1, c1), ctx.mul(c2, c2)
    two = ctx.encode([2 % ctx.p])
    zeta1 = ctx.div(ctx.add(ctx.sub(ctx.sub(c2sq, c1sq), 1), sd), ctx.mul(two, c1))
    zeta2 = ctx.div(ctx.sub(ctx.sub(ctx.sub(c1sq, c2sq), 1), sd), ctx.mul(two, c2))
    minus_one = ctx.neg(1)
    for z in (zeta1, zeta2):
        assert ctx.pow(z, ctx.q + 1) == 1 and z not in (1, minus_one)
    assert zeta1 != zeta2
    assert ctx.add(ctx.add(ctx.mul(c1, zeta1), ctx.mul(c2, zeta2)), 1) == 0
    # The three positions are distinct: position 0 is taken only by +-1, which
    # the asserts above exclude, and zeta1, zeta2 share a position only if
    # zeta1 = -zeta2.  Then (c1 - c2) * zeta1 = -1 puts zeta1 in
    # H cap F_q0^*, whose order divides gcd(q + 1, q0 - 1) = 2, so zeta1 = +-1.
    return _codeword(code, [(0, 1), (code.h_index(zeta1), c1),
                            (code.h_index(zeta2), c2)])
