"""The pivot-restricted octagon closure against exact rationals.

A transfer that edits an already-closed octagon closes the result only
through the variables it touched (``_closed_matrix(E, n, pivots)``).
These tests build random closed octagons, apply each such transfer with
random arguments, capture the edited matrix ``E`` and the pivots the
transfer passes, and check the pivot closure of ``E`` against the exact
strong closure of ``E`` computed with :class:`fractions.Fraction`:

* sound: every entry is at least the exact entry;
* never looser than its input: every entry is at most ``E``'s;
* bottom (a negative diagonal entry) only when ``E`` is exactly empty;
* when the input octagon is exactly closed (the premise of the
  incremental closure), within ``MAX_ULPS`` of the full closure of
  ``E``.  The unit is the ulp of ``E``'s largest finite bound: entries
  near zero come from cancelling sums of such bounds, so an ulp of the
  entry itself would measure nothing.  An input closed by the nudged
  kernel is closed only up to its nudges (closure is not idempotent),
  and the full closure of ``E`` also re-tightens the untouched part.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from repro.domains import octagon
from repro.domains.octagon import (Octagon, _closed_matrix,
                                   _closed_matrix_scalar)
from repro.numeric import FloatInterval

#: Largest distance allowed between the pivot closure and the full
#: closure of the same edit of an exactly closed matrix, in ulps of the
#: matrix's largest finite bound.
MAX_ULPS = 4


def exact_strong_closure(e: np.ndarray, n: int):
    """Floyd-Warshall then strengthening over exact rationals (``None``
    is +inf); for a coherent matrix that is the strong closure.
    Returns ``None`` when the constraints are unsatisfiable."""
    size = 2 * n
    m = [[None if x == math.inf else Fraction(x) for x in row]
         for row in e.tolist()]
    for k in range(size):
        mk = m[k]
        for i in range(size):
            mik = m[i][k]
            if mik is None:
                continue
            mi = m[i]
            for j in range(size):
                if mk[j] is not None:
                    s = mik + mk[j]
                    if mi[j] is None or s < mi[j]:
                        mi[j] = s
    if any(m[i][i] < 0 for i in range(size)):
        return None
    unary = [m[i][i ^ 1] for i in range(size)]
    for i in range(size):
        for j in range(size):
            a, b = unary[i], unary[j ^ 1]
            if a is not None and b is not None:
                s = (a + b) / 2
                if m[i][j] is None or s < m[i][j]:
                    m[i][j] = s
    return m


def gap_ulps(a: np.ndarray, b: np.ndarray, e: np.ndarray) -> float:
    """Largest off-diagonal distance between ``a`` and ``b``, in ulps of
    ``e``'s largest finite bound (inf where only one is infinite)."""
    off = ~np.eye(len(e), dtype=bool)
    if not (np.isinf(a) == np.isinf(b))[off].all():
        return math.inf
    fin = off & np.isfinite(a)
    if not fin.any():
        return 0.0
    unit = math.ulp(float(np.abs(e[np.isfinite(e)]).max()))
    return float(np.abs(a[fin] - b[fin]).max()) / unit


def random_closed(rng: random.Random, n: int, exact: bool) -> Octagon:
    """A closed, non-empty octagon: random coherent constraints that a
    random point satisfies, closed either exactly (short dyadic bounds,
    so the rational closure is representable) or by the analyzer's own
    kernel (full-precision bounds; the result is closed only up to its
    upward nudges, as in an analysis)."""
    size = 2 * n
    point = [rng.uniform(-20.0, 20.0) for _ in range(n)]
    node = [point[a // 2] if a % 2 == 0 else -point[a // 2]
            for a in range(size)]
    m = np.full((size, size), math.inf)
    np.fill_diagonal(m, 0.0)
    for a in range(size):
        for b in range(size):
            if a == b or rng.random() < 0.4:
                continue
            c = node[b] - node[a] + rng.choice([0.0, rng.uniform(0.0, 6.0)])
            c = math.ceil(c * 8) / 8 if exact else math.nextafter(c, math.inf)
            m[a, b] = min(m[a, b], c)
            m[b ^ 1, a ^ 1] = min(m[b ^ 1, a ^ 1], c)
    if exact:
        closed = exact_strong_closure(m, n)
        x = np.array([[math.inf if v is None else float(v) for v in row]
                      for row in closed])
        assert all(Fraction(x[a, b]) == closed[a][b] for a in range(size)
                   for b in range(size) if closed[a][b] is not None)
    else:
        x = _closed_matrix(m, n)
        assert not (np.diagonal(x) < 0).any()
        np.fill_diagonal(x, 0.0)
    return Octagon(n, x, closed=True)


def random_interval(rng: random.Random) -> FloatInterval:
    lo = rng.uniform(-25.0, 25.0)
    hi = lo + rng.choice([0.0, rng.uniform(0.0, 10.0), math.inf])
    if rng.random() < 0.2:
        lo = -math.inf
    return FloatInterval.of(lo, hi)


def random_transfer(rng: random.Random, o: Octagon):
    """Apply one transfer that closes through pivots, with random
    arguments; returns its name."""
    n = o.n
    i = rng.randrange(n)
    j = rng.choice([k for k in range(n) if k != i] or [i])
    kind = rng.choice(["set_var_bounds", "assign_interval", "guard_unary",
                       "guard_binary", "assign_var_plus",
                       "assign_neg_var_plus", "shift_var"])
    iv = random_interval(rng)
    if kind == "set_var_bounds":
        o.set_var_bounds(i, iv)
    elif kind == "assign_interval":
        o.assign_interval(i, iv)
    elif kind == "guard_unary":
        o.guard_upper({i: rng.choice([1, -1])}, rng.uniform(-25.0, 25.0))
    elif kind == "guard_binary":
        if i == j:
            return None
        seeds = {j: iv} if rng.random() < 0.5 else None
        o.guard_upper({i: rng.choice([1, -1]), j: rng.choice([1, -1])},
                      rng.uniform(-40.0, 40.0), seed_bounds=seeds)
    elif kind in ("assign_var_plus", "assign_neg_var_plus"):
        if i == j:
            return None
        transfer = (o.assign_var_plus_interval if kind == "assign_var_plus"
                    else o.assign_neg_var_plus_interval)
        delta = iv if iv.is_bounded else FloatInterval.of(-1.0, 2.5)
        jb = random_interval(rng) if rng.random() < 0.5 else None
        transfer(i, j, delta, j_bounds=jb)
    else:
        o.shift_var(i, FloatInterval.of(iv.lo, iv.lo + rng.uniform(0, 3))
                    if iv.lo > -math.inf else FloatInterval.of(-0.5, 0.25))
    return kind


@pytest.fixture
def edits(monkeypatch):
    """Records (n, edited matrix, pivots) of every pivot closure."""
    seen = []
    real = octagon._close

    def recording(n, m, pivots):
        if pivots is not None:
            seen.append((n, m.copy(), pivots))
        return real(n, m, pivots)

    monkeypatch.setattr(octagon, "_close", recording)
    return seen


def test_pivot_closure_against_exact_rationals(edits):
    rng = random.Random(0xC1051)
    kinds = {}
    worst = 0.0
    bottoms = 0
    with np.errstate(over="ignore", invalid="ignore"):
        for trial in range(600):
            n = 1 + trial % 6
            exact_input = trial % 2 == 0
            kind = random_transfer(rng, random_closed(rng, n, exact_input))
            if kind is not None and edits:
                kinds[kind] = kinds.get(kind, 0) + 1
            while edits:
                n, e, pivots = edits.pop()
                out = _closed_matrix(e, n, pivots)
                assert out.tobytes() == \
                    _closed_matrix_scalar(e, n, pivots).tobytes()
                exact = exact_strong_closure(e, n)
                size = 2 * n
                if np.any(np.diagonal(out) < 0.0):
                    assert exact is None, (kind, pivots)
                    bottoms += 1
                    continue
                assert (out <= e).all(), (kind, pivots)
                if exact is not None:
                    for a in range(size):
                        for b in range(size):
                            x = exact[a][b]
                            assert (out[a, b] == math.inf if x is None
                                    else Fraction(out[a, b]) >= x), \
                                (kind, pivots, a, b)
                if exact_input:
                    worst = max(worst, gap_ulps(out, _closed_matrix(e, n), e))
    assert worst <= MAX_ULPS
    # Every transfer shape was exercised, and so was bottom.
    assert len(kinds) == 7 and bottoms > 0, (kinds, bottoms)


def test_unclosed_input_gets_the_full_closure(edits):
    rng = random.Random(7)
    o = random_closed(rng, 3, exact=False)
    widened = o.widen(o.assign_interval(0, FloatInterval.of(-1e6, 1e6)))
    assert not widened._closed
    edits.clear()
    widened.set_var_bounds(1, FloatInterval.of(0.0, 1.0))
    assert not edits
    o.set_var_bounds(1, FloatInterval.of(0.0, 1.0))
    assert [p for _, _, p in edits] == [(1,)]


def test_pivot_closures_are_counted_and_memo_keyed_by_pivots():
    octagon.configure_closure_memo(0)
    octagon.configure_closure_memo(64)
    try:
        rng = random.Random(11)
        o = random_closed(rng, 3, exact=False)
        c0, p0 = Octagon.closure_computations, Octagon.pivot_closures
        a = o.set_var_bounds(0, FloatInterval.of(-1.0, 1.0))
        assert (Octagon.closure_computations - c0,
                Octagon.pivot_closures - p0) == (1, 1)
        # The same edit again hits the memo...
        assert o.set_var_bounds(0, FloatInterval.of(-1.0, 1.0)) is a
        # ...but the same matrix under a full closure is another key.
        raw = Octagon(3, o.m.copy(), closed=False)
        edited = raw.set_var_bounds(0, FloatInterval.of(-1.0, 1.0))
        assert edited is not a
        assert Octagon.pivot_closures - p0 == 1
    finally:
        octagon.configure_closure_memo(0)
