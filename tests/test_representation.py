"""Matrix storage: one read-only ndarray, and every engine exact on every dtype.

Each case is built twice, from nested lists and from an ndarray, in the three
storage classes: int64 (p = 10007), object at a prime above 2**31, and exact
entries above 2**63.  All engines and the oracle must agree and return plain
Python ints.
"""

import random

import numpy as np
import pytest

from congruence_lab.detper import (
    det_exact,
    det_field,
    det_naive,
    factor_checkerboard,
    per_naive,
    per_ryser,
)
from congruence_lab.matgen import Matrix, checkerboard_support
from congruence_lab.modnum import ModCtx

import oracle

WIDE_PRIME = 2**31 + 11

#: storage class -> (ctx, stored dtype, entry sampler)
CLASSES = {
    "int64": (ModCtx.prime(10007), np.int64, lambda r: r.randrange(10007)),
    "object-wide": (ModCtx.prime(WIDE_PRIME), object, lambda r: r.randrange(WIDE_PRIME)),
    "exact-big": (None, object, lambda r: r.choice((1, -1)) * (2**63 + r.randrange(2**40))),
}


def _rows(shape, sample, rng, zero):
    if shape == "order1":
        return [[sample(rng)]]
    if shape == "singular":
        rows = [[sample(rng) for _ in range(4)] for _ in range(3)]
        return rows + [list(rows[1])]
    # "zero-block": the leading 2x2 block is 0 mod p, so elimination must pivot past it
    rows = [[sample(rng) for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for j in range(2):
            rows[i][j] = zero(rng)
    return rows


def _build(cls, shape, source):
    ctx, _, sample = CLASSES[cls]
    rng = random.Random(f"{cls}-{shape}")
    zero = (lambda r: 0) if ctx is not None else (lambda r: 10007 * sample(r))
    rows = _rows(shape, sample, rng, zero)
    if source == "array":
        fits = all(-(2**63) <= x < 2**63 for row in rows for x in row)
        rows = np.array(rows, dtype=np.int64 if fits else object)
    return Matrix(rows, ctx)


def _agree(matrix, signed, values):
    reference = oracle.matrix_permutation_sum(matrix, signed=signed)
    assert type(reference) is int
    for value in values:
        assert type(value) is int
        assert value == reference
    return reference


@pytest.mark.parametrize("source", ["list", "array"])
@pytest.mark.parametrize("shape", ["order1", "singular", "zero-block"])
@pytest.mark.parametrize("cls", sorted(CLASSES))
def test_engines_agree_on_every_storage_class(cls, shape, source):
    ctx, dtype, _ = CLASSES[cls]
    m = _build(cls, shape, source)
    assert m.entries.dtype == dtype
    if dtype is object:
        assert all(type(x) is int for x in m.entries.flat)
    assert np.array_equal(m.entries, _build(cls, shape, "list").entries)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 0

    dets = [det_exact(m, reduce_ctx=ctx), det_naive(m)]
    if ctx is not None:
        dets.append(det_field(m))
    det = _agree(m, True, dets)
    if shape == "singular":
        assert det == 0
    _agree(m, False, [per_ryser(m), per_naive(m)])

    # the same entries restricted to the checkerboard support
    cb = Matrix(np.where(checkerboard_support(m.n), m.entries, 0), ctx)
    _agree(cb, True, [factor_checkerboard(cb, "det")])
    _agree(cb, False, [factor_checkerboard(cb, "per")])


def test_order_nine_near_int64_products_stays_exact():
    """Entries just below 2**31 are stored as int64; products of nine of them are not."""
    p = 2**31 - 1
    ctx = ModCtx.prime(p)
    rng = random.Random(9)
    m = Matrix([[p - 1 - rng.randrange(1000) for _ in range(9)] for _ in range(9)], ctx)
    assert m.entries.dtype == np.int64
    _agree(m, True, [det_field(m), det_exact(m, reduce_ctx=ctx)])
    _agree(m, False, [per_ryser(m)])
    # at order 5 the naive engines already take their Python-int fallback
    small = Matrix(m.entries[:5, :5], ctx)
    _agree(small, True, [det_naive(small), det_field(small)])
    _agree(small, False, [per_naive(small)])
