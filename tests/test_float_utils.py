"""Tests for directed-rounding primitives."""

import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from repro.numeric import float_utils as fu
from repro.numeric.float_utils import (
    BINARY32,
    BINARY64,
    add_down,
    add_up,
    div_down,
    div_up,
    mul_down,
    mul_up,
    next_down,
    next_up,
    sqrt_down,
    sqrt_up,
    sub_down,
    sub_up,
    ulp_error_bound,
)

finite = st.floats(allow_nan=False, allow_infinity=False)
nonzero = finite.filter(lambda x: x != 0.0)


class TestNextUpDown:
    def test_next_up_strictly_increases(self):
        assert next_up(1.0) > 1.0

    def test_next_down_strictly_decreases(self):
        assert next_down(1.0) < 1.0

    def test_next_up_of_inf(self):
        assert next_up(math.inf) == math.inf

    def test_next_down_of_neg_inf(self):
        assert next_down(-math.inf) == -math.inf

    def test_next_up_zero(self):
        assert next_up(0.0) > 0.0

    def test_adjacent(self):
        x = 1.5
        assert next_down(next_up(x)) == x


class TestDirectedAdd:
    @given(finite, finite)
    def test_add_brackets_true_sum(self, a, b):
        lo, hi = add_down(a, b), add_up(a, b)
        assert lo <= hi
        # The rounded-to-nearest sum is within the bracket.
        s = a + b
        if not math.isnan(s):
            assert lo <= s <= hi

    def test_exact_add_not_widened(self):
        assert add_down(1.0, 2.0) == 3.0
        assert add_up(1.0, 2.0) == 3.0

    def test_inexact_add_widened(self):
        # 0.1 + 0.2 is inexact in binary64.
        assert add_down(0.1, 0.2) < 0.1 + 0.2 < add_up(0.1, 0.2)

    def test_overflow_add_up(self):
        big = 1.7e308
        assert add_up(big, big) == math.inf

    def test_inf_minus_inf_is_unconstrained(self):
        assert add_down(math.inf, -math.inf) == -math.inf
        assert add_up(math.inf, -math.inf) == math.inf

    @given(finite, finite)
    def test_sub_matches_add_of_negation(self, a, b):
        assert sub_down(a, b) == add_down(a, -b)
        assert sub_up(a, b) == add_up(a, -b)


class TestDirectedMul:
    @given(finite, finite)
    def test_mul_brackets_nearest(self, a, b):
        lo, hi = mul_down(a, b), mul_up(a, b)
        p = a * b
        assert lo <= hi
        if not math.isnan(p):
            assert lo <= p <= hi

    def test_exact_mul_not_widened(self):
        assert mul_down(3.0, 4.0) == 12.0
        assert mul_up(3.0, 4.0) == 12.0

    def test_mul_by_zero(self):
        assert mul_down(0.0, 5.0) == 0.0
        assert mul_up(0.0, 5.0) == 0.0

    def test_zero_times_inf(self):
        assert mul_down(0.0, math.inf) == -math.inf
        assert mul_up(0.0, math.inf) == math.inf

    def test_inexact_mul_widened(self):
        assert mul_down(0.1, 0.1) < 0.1 * 0.1 < mul_up(0.1, 0.1)


class TestDirectedDiv:
    @given(finite, nonzero)
    def test_div_brackets_nearest(self, a, b):
        lo, hi = div_down(a, b), div_up(a, b)
        q = a / b
        assert lo <= hi
        if not math.isnan(q):
            assert lo <= q <= hi

    def test_exact_div(self):
        assert div_down(6.0, 2.0) == 3.0
        assert div_up(6.0, 2.0) == 3.0

    def test_inexact_div_widened(self):
        assert div_down(1.0, 3.0) < div_up(1.0, 3.0)

    def test_div_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            div_down(1.0, 0.0)
        with pytest.raises(ZeroDivisionError):
            div_up(1.0, 0.0)


class TestSqrt:
    @given(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False))
    def test_sqrt_brackets(self, x):
        lo, hi = sqrt_down(x), sqrt_up(x)
        assert lo <= math.sqrt(x) <= hi

    def test_exact_square(self):
        assert sqrt_down(4.0) == 2.0
        assert sqrt_up(4.0) == 2.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            sqrt_down(-1.0)


class TestFormats:
    def test_binary32_max(self):
        import numpy as np

        assert BINARY32.max_value == float(np.finfo(np.float32).max)

    def test_binary64_max(self):
        assert BINARY64.max_value == math.ldexp(1.0, 1023) * (2.0 - math.ldexp(1.0, -52))

    def test_rel_err(self):
        assert BINARY32.rel_err == 2.0**-24
        assert BINARY64.rel_err == 2.0**-53

    def test_min_subnormal(self):
        import numpy as np

        assert BINARY32.min_subnormal == float(np.finfo(np.float32).smallest_subnormal)

    def test_ulp_error_bound_monotone(self):
        assert ulp_error_bound(BINARY32, 1.0) <= ulp_error_bound(BINARY32, 2.0)

    def test_ulp_error_bound_infinite_magnitude(self):
        assert ulp_error_bound(BINARY32, math.inf) == math.inf

    def test_binary32_roundtrip_error(self):
        """Rounding any real near 1.0 to binary32 errs <= the bound."""
        import numpy as np

        x = 1.0000000123
        err = abs(float(np.float32(x)) - x)
        assert err <= ulp_error_bound(BINARY32, abs(x))


# -- against exact rationals ---------------------------------------------------

_TINY = 5e-324
_MIN_NORMAL = 2.2250738585072014e-308
_MAX = 1.7976931348623157e308


def _edge_values():
    """Signed zeros, infinities, subnormals, binade edges and values that
    make sums and products overflow, cancel or underflow."""
    base = [0.0, _TINY, 2 * _TINY, 3 * _TINY, _MIN_NORMAL,
            math.nextafter(_MIN_NORMAL, 0.0), math.nextafter(_MIN_NORMAL, 1.0),
            2.0 ** -537, math.nextafter(2.0 ** -537, 1.0), 2.0 ** -969,
            0.1, 0.375, 0.5, math.nextafter(1.0, 0.0), 1.0,
            math.nextafter(1.0, 2.0), 1.25, 3.0, 2.0 ** 26,
            math.nextafter(2.0 ** 26, 0.0), 2.0 ** 53, 2.0 ** 53 + 2.0,
            1e300, 2.0 ** 1023, _MAX, math.inf]
    return base + [-x for x in base]


EDGES = _edge_values()
_OPS = {
    "add": (add_down, add_up), "sub": (sub_down, sub_up),
    "mul": (mul_down, mul_up), "div": (div_down, div_up),
}


def _exact(op, a, b):
    """The exact real result: a Fraction, ``±inf`` when infinite, None
    when undefined (inf - inf, 0 * inf, inf / inf)."""
    if math.isinf(a) or math.isinf(b):
        with_nan = _apply(op, a, b)
        if math.isnan(with_nan):
            return None
        if op == "div" and math.isinf(b):
            return Fraction(0)  # finite / inf
        return with_nan  # an infinity: the operation's sign rules apply
    return _apply(op, Fraction(a), Fraction(b))


def _apply(op, a, b):
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    return a * b if op == "mul" else a / b


def _check_brackets(op, a, b):
    down, up = _OPS[op]
    lo, hi = down(a, b), up(a, b)
    exact = _exact(op, a, b)
    if exact is None:
        assert (lo, hi) == (-math.inf, math.inf), (op, a, b)
        return
    if isinstance(exact, float):  # infinite
        assert lo <= exact <= hi, (op, a, b, lo, hi)
        return
    assert lo == -math.inf or Fraction(lo) <= exact, (op, a, b, lo)
    assert hi == math.inf or exact <= Fraction(hi), (op, a, b, hi)
    # A bound left at the round-to-nearest result claims exactness.
    nearest = _apply(op, a, b)
    for bound in (lo, hi):
        if bound == nearest and math.isfinite(bound):
            assert Fraction(bound) == exact, (op, a, b, bound)


def _random_pairs(seed, count):
    rng = random.Random(seed)

    def draw():
        r = rng.random()
        if r < 0.3:
            return rng.choice(EDGES)
        if r < 0.5:
            return float(rng.randint(-2 ** 27, 2 ** 27))
        if r < 0.75:
            return math.ldexp(rng.uniform(-1.0, 1.0), rng.randint(-1080, 1024))
        return struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0]

    pairs = []
    while len(pairs) < count:
        a, b = draw(), draw()
        if not (math.isnan(a) or math.isnan(b)):
            pairs.append((a, b))
    return pairs


def _all_pairs():
    return [(a, b) for a in EDGES for b in EDGES] + _random_pairs(0xF1, 4000)


def _exact_fma(x, y, z):
    """A correctly rounded fused multiply-add, from exact rationals
    (``int / int`` rounds correctly), standing in for ``math.fma``."""
    return float(Fraction(x) * Fraction(y) + Fraction(z))


class TestAgainstExactRationals:
    """Every directed bound brackets the exact rational result, and a
    bound left un-nudged is the exact result."""

    @pytest.mark.parametrize("op", sorted(_OPS))
    def test_brackets_exact(self, op):
        for a, b in _all_pairs():
            if op == "div" and b == 0.0:
                continue
            _check_brackets(op, a, b)

    def test_signed_zeros(self):
        assert str(add_up(-0.0, -0.0)) == "-0.0"
        assert str(add_down(-0.0, 0.0)) == "0.0"
        assert str(mul_up(-0.0, 3.0)) == "-0.0"
        assert str(div_down(0.0, -2.0)) == "-0.0"

    @pytest.mark.parametrize("op", ["mul", "div"])
    def test_fma_branch(self, monkeypatch, op):
        """The FMA exactness test, run on any Python by injecting an
        exact ``fma`` (``math.fma`` exists only from Python 3.13)."""
        monkeypatch.setattr(fu, "_fma", _exact_fma)
        for a, b in _all_pairs():
            if op == "div" and b == 0.0:
                continue
            _check_brackets(op, a, b)

    def test_fma_branch_tightens_exact_products(self, monkeypatch):
        # 0.375 * 1.25 is exact, but not a product of integers: the
        # integer test must widen it, the FMA test need not.
        monkeypatch.setattr(fu, "_fma", None)
        assert mul_up(0.375, 1.25) > 0.46875
        monkeypatch.setattr(fu, "_fma", _exact_fma)
        assert mul_up(0.375, 1.25) == mul_down(0.375, 1.25) == 0.46875

    def test_fma_residual_lost_to_underflow(self, monkeypatch):
        """A subnormal product whose residual rounds to zero: a zero FMA
        residual must not be taken as proof of exactness there."""
        monkeypatch.setattr(fu, "_fma", _exact_fma)
        a = 2.0 ** -537
        b = math.nextafter(2.0 ** -537, 1.0)
        p = a * b
        assert _exact_fma(a, b, -p) == 0.0
        assert Fraction(a) * Fraction(b) != Fraction(p)
        assert Fraction(mul_down(a, b)) < Fraction(a) * Fraction(b) \
            < Fraction(mul_up(a, b))
