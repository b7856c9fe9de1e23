"""Finite field arena.

All algebra happens inside one ambient field F_{p^n} with n = 2*s*m,
q0 = p^m, q = q0^s.  The subfields F_q0, F_q and the norm-one subgroup H of
order q+1 are realized as exponent-indexed subsets of the ambient
multiplicative group; no embedding maps are ever needed.

Field elements are plain integers: the code of an element with coefficient
vector (c_0, ..., c_{k-1}) in the polynomial basis is sum(c_i * p**i).
Arithmetic is exposed as methods of Field acting on codes.  There is one
product modulo the field polynomial f, _poly_mulmod on coefficient tuples,
shared by the odd-p Field.mul, Field.pow and Ben-Or's irreducibility test
(in characteristic 2, Field.mul shifts and xors bit-packed codes instead),
and one square-and-multiply loop, _binary_pow.  Field.pow runs that loop on
codes for p = 2 and, through _poly_powmod, on one decoded coefficient tuple
for odd p, so an odd-p power decodes and encodes once.

Two routines divide polynomials instead, through one long division,
_poly_divmod: the extended Euclidean algorithm of Field.inv (both parities)
and the resultant _poly_res, nonzero exactly on coprime pairs (Ben-Or's
test) and the norm N(z) = Res(f, z) of an element to F_p, in O(k^2).  Since
z^((p^k - 1)/(p - 1)) = N(z), every power of z whose exponent is a multiple
of (p^k - 1)/(p - 1) is a power of an integer mod p: the generator scan
tests the primes of p - 1 that way, and Field.sqrt runs Euler's test on N(a).

A FieldContext is the ambient field: a Field subclass that adds the tower
data (q0, q, the subgroup exponents and xi), so every Field method applies
to it directly.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from .caps import DEFAULT_CAPS, Caps, power_exceeds
from .errors import SizeCapExceeded

# ---------------------------------------------------------------------------
# integer helpers


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (valid far beyond the caps used here)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    # cycle-finding with retry over polynomial offsets; n must be composite
    if n % 2 == 0:
        return 2
    for c in range(1, 64):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"rho failed on {n}")


def factorize(n: int) -> list[tuple[int, int]]:
    """Sorted (prime, exponent) factorization; trial division then rho."""
    if n < 1:
        raise ValueError("factorize expects n >= 1")
    factors: dict[int, int] = {}

    def _add(p, e=1):
        factors[p] = factors.get(p, 0) + e

    for p in (2, 3, 5):
        while n % p == 0:
            _add(p)
            n //= p
    d = 7
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    i = 0
    while d * d <= n and d < 10**6:
        while n % d == 0:
            _add(d)
            n //= d
        d += wheel[i]
        i = (i + 1) % 8
    stack = [n] if n > 1 else []
    while stack:
        n = stack.pop()
        if n == 1:
            continue
        if is_prime(n):
            _add(n)
            continue
        d = _pollard_rho(n)
        stack.extend((d, n // d))
    return sorted(factors.items())


def prime_power_split(q: int) -> tuple[int, int]:
    """q = p**m with p prime, else ValueError."""
    fac = factorize(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    return fac[0]


# ---------------------------------------------------------------------------
# dense polynomials over F_p (ascending-degree coefficient tuples)


def _poly_trim(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mulmod(a, b, f, p):
    # a*b mod f, f monic: sum the products, then reduce top down, taking each
    # coefficient mod p once
    n = len(f) - 1
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                prod[j] += ai * bj
    for d in range(len(prod) - 1, n - 1, -1):
        c = prod[d] % p
        if c:
            # f[n] = 1 lands on prod[d], which is not read again
            for j, fj in enumerate(f, d - n):
                if fj:
                    prod[j] -= c * fj
    return _poly_trim([c % p for c in prod[:n]])


def _binary_pow(a, e, mul):
    # a^e for e >= 1, left to right: one squaring per bit below the leading one
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


def _poly_powmod(a, e, f, p):
    # a^e mod f for e >= 1
    return _binary_pow(a, e, lambda x, y: _poly_mulmod(x, y, f, p))


def _poly_divmod(r, b, p):
    """Reduce the list r to r mod b in place and return the quotient.

    b is trimmed and nonzero, and r's coefficients lie in [0, p); r ends
    trimmed."""
    n = len(b) - 1
    inv_lead = pow(b[-1], p - 2, p)
    quot = [0] * max(len(r) - n, 0)
    while len(r) > n:
        c = r.pop() * inv_lead % p  # the top coefficient, which c * b cancels
        if c:
            off = len(r) - n
            quot[off] = c
            for j in range(n):
                r[off + j] = (r[off + j] - c * b[j]) % p
    while r and r[-1] == 0:
        r.pop()
    return quot


def _poly_res(f, a, p):
    """Res(f, a) over F_p for a monic f: the product of a over the roots of
    f.  For an irreducible f it is the norm of a(X) mod f down to F_p.

    Euclid's algorithm on Res(A, B) = (-1)^(deg A deg B) lc(B)^(deg A - deg R)
    Res(B, R) with R = A mod B, ending at Res(A, c) = c^(deg A)."""
    acc = 1
    u, v = list(f), list(_poly_trim(list(a)))
    while len(v) > 1:
        du = len(u) - 1
        _poly_divmod(u, v, p)  # u is now R
        if du * (len(v) - 1) % 2:
            acc = -acc
        acc = acc * pow(v[-1], du + 1 - len(u), p) % p
        u, v = v, u
    return acc * pow(v[0], len(u) - 1, p) % p if v else 0


def _poly_inv(a, f, p):
    """a^-1 mod f by the extended Euclidean algorithm, for a coprime to f.

    Each step keeps s with s * a = r (mod f) for the current remainder r, so
    when r is a nonzero constant c, s / c is the inverse.  The first step
    divides a by f, which only trims a."""
    r0, r1 = list(a), list(f)
    s0, s1 = [1], []
    while len(r1) > 1:
        quot = _poly_divmod(r0, r1, p)  # r0 is now r0 mod r1
        s = s0 + [0] * (len(quot) + len(s1) - 1 - len(s0))
        for i, qi in enumerate(quot):
            if qi:
                for j, sj in enumerate(s1, i):
                    if sj:
                        s[j] = (s[j] - qi * sj) % p
        r0, r1, s0, s1 = r1, r0, s1, s
    c = pow(r1[0], p - 2, p)
    return tuple(x * c % p for x in s1)


def _is_irreducible(f: tuple[int, ...], p: int) -> bool:
    """Ben-Or's test for a monic f of degree n >= 1: Res(f, X^(p^i) - X) != 0
    (coprime) for i = 1 .. n/2; a reducible f has a factor of degree <= n/2."""
    t = (0, 1)
    for _ in range((len(f) - 1) // 2):
        t = _poly_powmod(t, p, f, p)  # X^(p^i) mod f
        g = list(t) + [0] * (2 - len(t))
        g[1] = (g[1] - 1) % p
        if _poly_res(f, g, p) == 0:
            return False
    return True


def find_irreducible(p: int, n: int, skip: int = 0) -> tuple[int, ...]:
    """The (skip+1)-th monic irreducible of degree n over F_p.

    Candidates are ordered lexicographically by the ascending-degree
    coefficient tuple (c0, c1, ..., c_{n-1}), so the result is deterministic
    across runs and platforms.  skip > 0 yields alternate moduli for
    representation-independence checks.
    """
    if not is_prime(p):
        raise ValueError(f"p={p} is not prime")
    if n < 1:
        raise ValueError("degree must be >= 1")
    # candidate i reads (c0, ..., c_{n-1}) as its base-p digits, c0 most
    # significant; c0 = 0 means X | f, reducible for n >= 2
    place = [p ** (n - 1 - j) for j in range(n)]
    for i in range(place[0] if n > 1 else 0, p**n):
        f = tuple(i // w % p for w in place) + (1,)
        if _is_irreducible(f, p):
            if skip == 0:
                return f
            skip -= 1
    raise ArithmeticError("no irreducible polynomial found")  # unreachable


# ---------------------------------------------------------------------------
# scalar field arithmetic on integer codes


class Field:
    """F_{p^k} with elements as radix-p integer codes.

    Immutable after construction; all operations are pure functions of codes.
    """

    def __init__(self, p: int, k: int, modulus: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if k < 1:
            raise ValueError("extension degree must be >= 1")
        if modulus is None:
            modulus = find_irreducible(p, k)
        else:
            modulus = tuple(int(c) % p for c in modulus)
            if len(modulus) != k + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree k")
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is not irreducible")
        self.p = p
        self.k = k
        self.order = p**k
        self.modulus = modulus
        if p == 2:
            # full modulus bit pattern, including the X^k term
            self._mod2 = sum(c << i for i, c in enumerate(modulus))

    # -- representation

    def decode(self, a: int) -> tuple[int, ...]:
        """Coefficient vector (ascending degree) of a code."""
        p = self.p
        out = []
        for _ in range(self.k):
            out.append(a % p)
            a //= p
        return tuple(out)

    def encode(self, coeffs) -> int:
        p = self.p
        if len(coeffs) > self.k:
            raise ValueError("too many coefficients")
        a = 0
        for c in reversed([int(c) % p for c in coeffs]):
            a = a * p + c
        return a

    # -- arithmetic

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        p = self.p
        out = 0
        mul = 1
        for _ in range(self.k):
            out += (a % p + b % p) % p * mul
            a //= p
            b //= p
            mul *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        p = self.p
        out = 0
        mul = 1
        for _ in range(self.k):
            out += (-(a % p)) % p * mul
            a //= p
            mul *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.p == 2:
            r = 0
            k = self.k
            mod2 = self._mod2
            while b:
                if b & 1:
                    r ^= a
                b >>= 1
                a <<= 1
                if (a >> k) & 1:
                    a ^= mod2
            return r
        prod = _poly_mulmod(self.decode(a), self.decode(b), self.modulus, self.p)
        return self.encode(prod)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            return self.pow(self.inv(a), -e)
        if e == 0:
            return 1
        if self.p == 2:
            return _binary_pow(a, e, self.mul)
        # odd p: square and multiply on coefficient tuples, one decode
        return self.encode(_poly_powmod(self.decode(a), e, self.modulus, self.p))

    def inv(self, a: int) -> int:
        """a^-1 by the extended Euclidean algorithm on the decoded tuple."""
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return self.encode(_poly_inv(self.decode(a), self.modulus, self.p))

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    # -- tower maps from the subfield of degree from_degree (default k) to
    #    the subfield of degree d, d | from_degree | k

    def trace_to(self, a: int, d: int, from_degree: int | None = None) -> int:
        """a + a^(p^d) + a^(p^(2d)) + ... over from_degree/d conjugates; a must
        lie in the subfield of degree from_degree (not checked)."""
        return self._frobenius_fold(a, d, from_degree, self.add, 0)

    def norm_to(self, a: int, d: int, from_degree: int | None = None) -> int:
        """a * a^(p^d) * a^(p^(2d)) * ..., with a as in trace_to."""
        return self._frobenius_fold(a, d, from_degree, self.mul, 1)

    def _frobenius_fold(self, a: int, d: int, from_degree: int | None, op, acc: int) -> int:
        n = self.k if from_degree is None else from_degree
        if n % d or self.k % n:
            raise ValueError("subfield degree must divide k")
        step = self.p**d
        for _ in range(n // d):
            acc = op(acc, a)
            a = self.pow(a, step)
        return acc

    # -- multiplicative structure

    @cached_property
    def order_factorization(self) -> list[tuple[int, int]]:
        return factorize(self.order - 1)

    @cached_property
    def generator(self) -> int:
        """First code (ascending) generating the full multiplicative group:
        z^((p^k - 1)/r) != 1 for every prime r | p^k - 1.

        For k >= 2 the scan starts at code p: codes below p are the F_p
        constants, whose orders divide p - 1 < p^k - 1.  For a prime
        r | p - 1 the test is z^((p^k - 1)/r) = N(z)^((p - 1)/r) with the norm
        N(z) = Res(f, z) in F_p, a power of an integer mod p; only the other
        primes cost a Field.pow.
        """
        p, n1 = self.p, self.order - 1
        primes = [r for r, _ in self.order_factorization]
        norm_exps = [(p - 1) // r for r in primes if (p - 1) % r == 0]
        cofactors = [n1 // r for r in primes if (p - 1) % r]
        for z in range(1 if self.k == 1 else p, self.order):
            if norm_exps:
                norm = _poly_res(self.modulus, self.decode(z), p)
                if any(pow(norm, e, p) == 1 for e in norm_exps):
                    continue
            if all(self.pow(z, c) != 1 for c in cofactors):
                return z
        raise ArithmeticError("no generator found")  # unreachable

    def cyclic_subgroup(self, e: int) -> list[int]:
        """The subgroup <g^e> as consecutive powers 1, g^e, g^(2e), ...
        of g^e, where g is the generator."""
        gen = self.pow(self.generator, e)
        out = [1]
        x = gen
        while x != 1:
            out.append(x)
            x = self.mul(x, gen)
        return out

    def subfield_elements(self, d: int) -> list[int]:
        """Sorted codes of the subfield of order p^d (d | k)."""
        if self.k % d:
            raise ValueError("subfield degree must divide k")
        sub_order = self.p**d
        if d in (1, self.k):  # the constants, or the whole field
            return list(range(sub_order))
        els = [0] + self.cyclic_subgroup((self.order - 1) // (sub_order - 1))
        if len(els) != sub_order:
            raise ArithmeticError("subfield enumeration failed")
        return sorted(els)

    def sqrt(self, a: int) -> int:
        """A square root in odd characteristic (Tonelli-Shanks); raises if none.

        Euler's test a^((p^k - 1)/2) = 1 runs on the norm to F_p, as
        N(a)^((p - 1)/2) mod p with N(a) = Res(f, a).  With p^k - 1 = s * 2^m,
        s odd, one power h = a^((s - 1)/2) gives both a^((s + 1)/2) = a * h
        and a^s = a * h^2."""
        if self.p == 2:
            # squaring is the Frobenius, its inverse is x -> x^(2^(k-1))
            return self.pow(a, self.order // 2)
        if a == 0:
            return 0
        p, n1 = self.p, self.order - 1
        if pow(_poly_res(self.modulus, self.decode(a), p), (p - 1) // 2, p) != 1:
            raise ValueError("element is not a square")
        s, m = n1, 0
        while s % 2 == 0:
            s //= 2
            m += 1
        z = self.pow(self.generator, s)  # order 2^m
        h = self.pow(a, (s - 1) // 2)
        x = self.mul(a, h)  # a^((s + 1)/2)
        b = self.mul(x, h)  # a^s
        while b != 1:
            t, k = b, 0
            while t != 1:
                t = self.mul(t, t)
                k += 1
            z2 = z
            for _ in range(m - k - 1):
                z2 = self.mul(z2, z2)
            x = self.mul(x, z2)
            b = self.mul(b, self.mul(z2, z2))
            m = k
        return x

    def __repr__(self):
        return f"Field(p={self.p}, k={self.k})"


# ---------------------------------------------------------------------------
# the ambient tower context


class FieldContext(Field):
    """The ambient field F_{p^(2sm)}, with handles to F_q0, F_q and H.

    A context is the ambient Field itself: arithmetic, the generator g and
    the subfield enumeration are inherited, and the context adds the tower
    data.  q0 = p^m, q = q0^s.  The fixed generator g of the ambient
    multiplicative group pins down every subgroup: H = <g^(q-1)> (order q+1),
    F_q^* = <g^(q+1)> (order q-1), F_q0^* = <g^((q^2-1)/(q0-1))>.
    Immutable after construction; safe to share across threads.
    """

    def __init__(self, p: int, m: int, s: int, caps: Caps = DEFAULT_CAPS):
        if not is_prime(p):
            raise ValueError(f"p={p} is not prime")
        if m < 1 or s < 1:
            raise ValueError("m and s must be >= 1")
        n = 2 * s * m
        if power_exceeds(p, n, caps.max_ambient_order):
            raise SizeCapExceeded(
                f"ambient order p^(2sm) = {p}^{n} exceeds cap {caps.max_ambient_order}")
        super().__init__(p, n)
        self.m = m
        self.s = s
        self.q0 = p**m
        self.q = self.q0**s
        self.caps = caps
        q, q0 = self.q, self.q0
        self.subgroup_exponents = {
            "H": q - 1,
            "Fq_star": q + 1,
            "Fq0_star": (q * q - 1) // (q0 - 1),
        }
        self.xi = self.pow(self.generator, q - 1)

    def subgroup_order(self, tag: str) -> int:
        return (self.order - 1) // self.subgroup_exponents[tag]

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "s": self.s,
            "modulus": list(self.modulus),
            "generator": list(self.decode(self.generator)),
        }

    def __repr__(self):
        return f"FieldContext(p={self.p}, m={self.m}, s={self.s}, order={self.order})"


@lru_cache(maxsize=64)
def _cached_context(p: int, m: int, s: int, caps: Caps) -> FieldContext:
    return FieldContext(p, m, s, caps=caps)


def make_field(p: int, m: int, s: int, caps: Caps = DEFAULT_CAPS) -> FieldContext:
    """Build the ambient context for (q0, s) with q0 = p^m.

    Contexts are immutable, so identical parameter sets share one instance.
    """
    return _cached_context(p, m, s, caps)


def make_field_for_q0(q0: int, s: int, caps: Caps = DEFAULT_CAPS) -> FieldContext:
    p, m = prime_power_split(q0)
    return _cached_context(p, m, s, caps)
