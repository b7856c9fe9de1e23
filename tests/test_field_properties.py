"""Field axioms as property tests, on standalone fields and on an ambient
context (which is a Field).  Examples are derandomized, so runs repeat."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetterberg import gf
from zetterberg.gf import Field, make_field

FIELDS = {
    "F_7^3": Field(7, 3),
    "F_2^9": Field(2, 9),
    "ctx(5,1,2)": make_field(5, 1, 2),
}

bounded = settings(derandomize=True, database=None, deadline=None, max_examples=60)
over_fields = pytest.mark.parametrize("F", FIELDS.values(), ids=FIELDS.keys())


def element(data, F, nonzero=False):
    return data.draw(st.integers(min_value=1 if nonzero else 0, max_value=F.order - 1))


@over_fields
@bounded
@given(data=st.data())
def test_distributive(F, data):
    a, b, c = (element(data, F) for _ in range(3))
    assert F.mul(a, F.add(b, c)) == F.add(F.mul(a, b), F.mul(a, c))
    assert F.mul(F.sub(a, b), c) == F.sub(F.mul(a, c), F.mul(b, c))


@over_fields
@bounded
@given(data=st.data())
def test_inverse(F, data):
    a = element(data, F, nonzero=True)
    assert F.mul(a, F.inv(a)) == 1
    assert F.div(a, a) == 1


@over_fields
@bounded
@given(data=st.data(), e1=st.integers(-5000, 5000), e2=st.integers(-5000, 5000))
def test_pow_adds_exponents(F, data, e1, e2):
    a = element(data, F, nonzero=True)
    assert F.pow(a, e1 + e2) == F.mul(F.pow(a, e1), F.pow(a, e2))


@over_fields
def test_pow_small_exponents(F, monkeypatch):
    # exact values, and the number of products: e = 2 squares once.  For
    # p = 2 a product is a Field.mul call on codes; for odd p, pow works on
    # the decoded coefficient tuple, and a product is a _poly_mulmod call.
    mul, calls = type(F).mul, []
    if F.p == 2:
        def counting_mul(self, a, b):
            calls.append((a, b))
            return mul(self, a, b)

        monkeypatch.setattr(type(F), "mul", counting_mul)
        operand = int
    else:
        mulmod = gf._poly_mulmod

        def counting_mulmod(a, b, f, p):
            calls.append((a, b))
            return mulmod(a, b, f, p)

        monkeypatch.setattr(gf, "_poly_mulmod", counting_mulmod)
        operand = F.decode
    for a in (1, 2, F.order - 1):
        sq = mul(F, a, a)
        cube = mul(F, sq, a)
        assert F.pow(a, 0) == 1 and F.pow(a, 1) == a
        calls.clear()
        assert F.pow(a, 2) == sq and calls == [(operand(a), operand(a))]
        calls.clear()
        assert F.pow(a, 3) == cube and len(calls) == 2
        assert mul(F, a, F.pow(a, -1)) == 1


@over_fields
@bounded
@given(data=st.data())
def test_encode_decode_roundtrip(F, data):
    a = element(data, F)
    digits = F.decode(a)
    assert len(digits) == F.k and all(0 <= d < F.p for d in digits)
    assert F.encode(digits) == a
