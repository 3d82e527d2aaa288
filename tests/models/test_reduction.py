"""The shared deterministic reduction core.

Every port finalises its reduction partials through this one pairwise
tree, so these properties — padding transparency, chunk/combine
consistency, accuracy against fsum — are what make cross-port bitwise
equality possible at all.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.models.reduction import (
    CHUNK,
    _tree_fold,
    chunk_partials,
    combine_partials,
    deterministic_dot,
    deterministic_multi_sum,
    deterministic_sum,
)


def random_values(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7, size=n)


# --------------------------------------------------------------------- #
# the per-row fold the transposed one replaced, kept as the oracle
# --------------------------------------------------------------------- #
def reference_tree_fold(rows):
    """Fold each row of ``(m, 2**k)`` by the stride-halving tree."""
    work = np.asarray(rows, dtype=np.float64).copy()
    stride = work.shape[1] // 2
    while stride >= 1:
        work[:, :stride] += work[:, stride : 2 * stride]
        stride //= 2
    return work[:, 0].copy()


def reference_sum(values, chunk=CHUNK):
    """Zero-pad to whole chunks, fold each, zero-pad partials, fold."""
    flat = np.asarray(values, dtype=np.float64).ravel()
    if flat.size == 0:
        return 0.0
    flat = np.concatenate([flat, np.zeros((-flat.size) % chunk)])
    partials = reference_tree_fold(flat.reshape(-1, chunk))
    width = 1
    while width < partials.size:
        width <<= 1
    partials = np.concatenate([partials, np.zeros(width - partials.size)])
    return float(reference_tree_fold(partials.reshape(1, width))[0])


def same_bits(a, b) -> bool:
    """Bitwise equality, except that any NaN matches any NaN.

    NaN payloads are outside the contract: NumPy's contiguous and strided
    add loops may propagate either operand's payload.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return bool((nan == np.isnan(b)).all()) and a[~nan].tobytes() == b[~nan].tobytes()


def sprinkled(n, seed, specials):
    """``n`` random values of any exponent, ``specials`` at seeded places."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    if n:
        values[rng.integers(0, n, size=len(specials))] = specials
    return values


#: Finite values of every magnitude, signed zeros and the non-finite ones.
special_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324]),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf, overflow
class TestTransposedFoldMatchesPerRowFold:
    """The contiguous ``(2**k, m)`` fold gives the per-row fold's bits."""

    @given(
        rows=st.integers(1, 12),
        log_width=st.integers(0, 7),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(special_floats, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_tree_fold(self, rows, log_width, seed, specials):
        values = sprinkled(rows << log_width, seed, specials)
        values = values.reshape(rows, 1 << log_width)
        got = _tree_fold(values.T.copy())  # folds its argument in place
        assert same_bits(got, reference_tree_fold(values))

    @given(
        n=st.integers(0, 3 * CHUNK + 5),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(special_floats, max_size=6),
    )
    @settings(max_examples=100, deadline=None)
    def test_deterministic_sum(self, n, seed, specials):
        values = sprinkled(n, seed, specials)
        assert same_bits(deterministic_sum(values), reference_sum(values))
        padded = np.concatenate([values, np.zeros((-n) % CHUNK)])
        assert same_bits(
            chunk_partials(values), reference_tree_fold(padded.reshape(-1, CHUNK))
        )

    @given(
        lanes=st.integers(1, 5),
        n=st.integers(0, 2 * CHUNK + 3),
        seed=st.integers(0, 2**32 - 1),
        specials=st.lists(special_floats, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_multi_sum_rows(self, lanes, n, seed, specials):
        values = sprinkled(lanes * n, seed, specials).reshape(lanes, n)
        got = deterministic_multi_sum(values)
        assert len(got) == lanes
        for lane in range(lanes):
            assert same_bits(got[lane], reference_sum(values[lane]))

    @pytest.mark.parametrize(
        "n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 7 * CHUNK + 100, 64 * CHUNK]
    )
    def test_tails_and_many_chunks(self, n):
        values = random_values(n, seed=n)
        assert same_bits(deterministic_sum(values), reference_sum(values))

    def test_signed_zero(self):
        # -0.0 + -0.0 stays -0.0; the +0.0 tail padding turns it to +0.0.
        for n in (1, CHUNK):
            values = np.full(n, -0.0)
            assert same_bits(deterministic_sum(values), reference_sum(values))


class TestDeterministicSum:
    def test_empty(self):
        assert deterministic_sum(np.zeros(0)) == 0.0

    def test_single_value(self):
        assert deterministic_sum(np.asarray([3.25])) == 3.25

    @pytest.mark.parametrize("n", [1, 2, 7, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3])
    def test_zero_padding_is_exact(self, n):
        """Appending zeros never changes the result (x + 0.0 == x)."""
        values = random_values(n, seed=n)
        padded = np.concatenate([values, np.zeros(17)])
        assert deterministic_sum(values) == deterministic_sum(padded)

    def test_equals_chunked_pipeline(self):
        values = random_values(1000, seed=1)
        assert deterministic_sum(values) == combine_partials(chunk_partials(values))

    def test_layout_independent(self):
        """Non-contiguous views reduce identically to contiguous copies."""
        base = random_values(2 * 513, seed=2)
        strided = base[::2]
        assert deterministic_sum(strided) == deterministic_sum(strided.copy())

    @given(n=st.integers(0, 600), seed=st.integers(0, 100))
    @settings(max_examples=60, deadline=None)
    def test_close_to_fsum(self, n, seed):
        """Pairwise trees are at least as accurate as recursive summation."""
        values = random_values(n, seed=seed)
        exact = math.fsum(values)
        got = deterministic_sum(values)
        scale = max(1.0, float(np.abs(values).sum()))
        assert abs(got - exact) <= 1e-12 * scale

    def test_order_sensitivity_is_the_point(self):
        """The canonical order is fixed; permuting inputs may change bits.

        This documents that deterministic_sum is *not* a mathematical
        set-sum: ports must present contributions in the canonical
        row-major interior order to get bitwise-identical scalars.
        """
        values = random_values(300, seed=3)
        assert deterministic_sum(values) == deterministic_sum(values.copy())


class TestCombinePartials:
    def test_empty(self):
        assert combine_partials(np.zeros(0)) == 0.0

    def test_pow2_tree(self):
        # 4 partials: ((a+c) + (b+d)) after one stride-2 then stride-1 fold.
        a, b, c, d = 1e100, 1.0, -1e100, 2.0
        assert combine_partials(np.asarray([a, b, c, d])) == (a + c) + (b + d)

    def test_non_pow2_zero_padded(self):
        partials = random_values(5, seed=4)
        padded = np.concatenate([partials, np.zeros(3)])
        assert combine_partials(partials) == combine_partials(padded)


class TestDotAndMulti:
    def test_dot_equals_sum_of_products(self):
        a = random_values(333, seed=5)
        b = random_values(333, seed=6)
        assert deterministic_dot(a, b) == deterministic_sum(a * b)

    def test_dot_shape_mismatch(self):
        with pytest.raises(ValueError):
            deterministic_dot(np.zeros(3), np.zeros(4))

    def test_multi_sum_is_per_array(self):
        arrays = [random_values(50, seed=s) for s in range(4)]
        got = deterministic_multi_sum(arrays)
        assert got == tuple(deterministic_sum(a) for a in arrays)


class TestScalarDispatchBitwise:
    def test_kokkos_scalar_matches_batch(self):
        """Scalar (per-index) Kokkos dispatch reduces bit-identically to
        batch dispatch: both buffer through the same reducer finalize."""
        from repro.models.kokkos.parallel import RangePolicy, Sum, parallel_reduce

        values = random_values(301, seed=7)
        batch = parallel_reduce(RangePolicy(0, 301), lambda idx: values[idx])
        scalar = parallel_reduce(
            RangePolicy(0, 301, scalar=True), lambda i: values[i], Sum()
        )
        assert batch == scalar
        assert batch == deterministic_sum(values)


class TestRajaDeterministicFinalize:
    def test_get_idempotent(self):
        from repro.models.raja import ReduceSum, seq_exec

        r = ReduceSum(seq_exec)
        r += random_values(40, seed=8)
        r += random_values(24, seed=9)
        first = r.get()
        assert r.get() == first

    def test_buffered_finalize_matches_canonical(self):
        from repro.models.raja import ReduceSum, seq_exec

        values = random_values(200, seed=10)
        r = ReduceSum(seq_exec)
        # Segment-at-a-time accumulation, as forall delivers rows.
        for start in range(0, 200, 25):
            r += values[start : start + 25]
        assert r.get() == deterministic_sum(values)
