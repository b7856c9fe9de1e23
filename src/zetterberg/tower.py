"""Maps between the levels F_q0 <= F_q <= F_{q^2} and the subgroup H.

Levels are named by tags: 'q2' (the ambient field), 'q', 'q0'.  All functions
are pure over an immutable FieldContext.  `trace` and `norm` check the levels
and the element, then apply `Field.trace_to` / `Field.norm_to`, the package's
one Frobenius sum and one Frobenius product.
"""

from __future__ import annotations

from .errors import PreconditionViolated
from .gf import Field, FieldContext


def level_degree(ctx: FieldContext, level: str) -> int:
    """Degree over F_p of the named level."""
    if level == "q2":
        return ctx.k
    if level == "q":
        return ctx.s * ctx.m
    if level == "q0":
        return ctx.m
    raise ValueError(f"unknown level {level!r}")


def level_order(ctx: FieldContext, level: str) -> int:
    return ctx.p ** level_degree(ctx, level)


def in_level(ctx: FieldContext, x: int, level: str) -> bool:
    """Subfield membership: x is fixed by the level's Frobenius."""
    return ctx.pow(x, level_order(ctx, level)) == x


def _map_degrees(ctx: FieldContext, x: int, from_level: str,
                 to_level: str) -> tuple[int, int]:
    """(d_to, d_from) for a tower map on x, after the level checks."""
    d_from = level_degree(ctx, from_level)
    d_to = level_degree(ctx, to_level)
    if d_from % d_to:
        raise ValueError(f"{to_level} is not a subfield of {from_level}")
    if not in_level(ctx, x, from_level):
        raise PreconditionViolated(f"element not in level {from_level}")
    return d_to, d_from


def trace(ctx: FieldContext, x: int, from_level: str, to_level: str) -> int:
    return ctx.trace_to(x, *_map_degrees(ctx, x, from_level, to_level))


def norm(ctx: FieldContext, x: int, from_level: str, to_level: str) -> int:
    return ctx.norm_to(x, *_map_degrees(ctx, x, from_level, to_level))


def quadratic_character(ctx: FieldContext, x: int, level: str) -> int:
    """chi of the named subfield: 1 on nonzero squares, -1 on non-squares, 0 at 0."""
    if ctx.p == 2:
        raise PreconditionViolated("quadratic character needs odd characteristic")
    if x == 0:
        return 0
    if not in_level(ctx, x, level):
        raise PreconditionViolated(f"element not in level {level}")
    return chi_field(ctx, x, level_order(ctx, level))


def chi_field(F: Field, x: int, order: int | None = None) -> int:
    """Quadratic character of the subfield of F of the given order (all of F
    by default), by Euler's criterion; x must lie in that subfield, which is
    not checked.  Over F_p, x is a constant code below p, and the criterion
    runs on the integer."""
    if F.p == 2:
        raise PreconditionViolated("quadratic character needs odd characteristic")
    if x == 0:
        return 0
    order = order or F.order
    if order == F.p:
        t = pow(x, (F.p - 1) // 2, F.p)
    else:
        t = F.pow(x, (order - 1) // 2)
    return 1 if t == 1 else -1


def in_subgroup(ctx: FieldContext, x: int, tag: str) -> bool:
    """Membership in H, F_q^* or F_q0^* by the order test x^|subgroup| = 1."""
    if x == 0:
        return False
    return ctx.pow(x, ctx.subgroup_order(tag)) == 1


def subgroup_elements(ctx: FieldContext, tag: str) -> list[int]:
    """All subgroup element codes, as consecutive powers of its generator."""
    return ctx.cyclic_subgroup(ctx.subgroup_exponents[tag])


def subfield_elements(ctx: FieldContext, level: str) -> list[int]:
    """Sorted codes of the named subfield (canonical element order)."""
    return ctx.subfield_elements(level_degree(ctx, level))


def in_scaled_H(ctx: FieldContext, y: int) -> bool:
    """Membership in F_q0 * H = {c*h : c in F_q0, h in H}.

    Decided through the norm to F_q: y*conj(y) = y^(q+1) must be c^2 for some
    c in F_q0^* (odd q0), or any element of F_q0^* (even q0, where squaring
    is a bijection).  By convention 0 belongs (c = 0).
    """
    if y == 0:
        return True
    w = ctx.pow(y, ctx.q + 1)
    return in_level(ctx, w, "q0") and (ctx.p == 2 or chi_field(ctx, w, ctx.q0) == 1)
