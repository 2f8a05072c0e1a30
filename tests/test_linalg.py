"""Checks for the small dense complex linear algebra layer."""

import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import expm_series
from expm_series import NonConvergenceError, expm
from ybgates.eightvertex import build_b_phi
from ybgates.linalg import (
    DimensionMismatchError,
    dagger,
    kron,
    residual,
    residuals,
    unitarity_residuals,
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_matrix(rng, n=2, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), I4)


def test_kron_pauli_pair():
    expected = np.array(
        [
            [0, 0, 0, -1j],
            [0, 0, 1j, 0],
            [0, -1j, 0, 0],
            [1j, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert residual(kron(SX, SY), expected) == 0.0


def test_kron_diagonal():
    assert np.array_equal(kron(SZ, I2), np.diag([1, 1, -1, -1]).astype(complex))


def test_kron_mixed_product():
    rng = np.random.default_rng(7)
    for _ in range(8):
        a, b, c, d = (_random_matrix(rng) for _ in range(4))
        assert residual(kron(a, b) @ kron(c, d), kron(a @ c, b @ d)) < 1e-12


_SHAPE_PAIRS = [
    ((2, 2), (2, 2)),
    ((4, 4), (2, 2)),
    ((0, 4), (2, 2)),
]

# Stacks on either side or both, broadcast against each other.
_STACK_SHAPE_PAIRS = [
    ((3, 4, 4), (2, 2)),
    ((2, 2), (3, 4, 4)),
    ((64, 4, 4), (2, 2)),
    ((3, 1, 2), (2, 3)),
    ((5, 2, 2), (5, 2, 2)),
    ((3, 1, 2, 2), (4, 2, 2)),
    ((0, 2, 2), (2, 2)),
]

# Vectors and scalars: kron takes two matrices or stacks and nothing else.
_REFUSED_SHAPE_PAIRS = [
    ((2,), (2,)),
    ((4,), (2,)),
    ((2,), (2, 2)),
    ((3, 4, 4), (2,)),
    ((), (2,)),
    ((2, 2), ()),
]


def _pairwise_kron(a, b):
    """np.kron of each pair of matrices of two stacks that broadcast."""
    lead = np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    a, b = (np.broadcast_to(m, lead + m.shape[-2:]) for m in (a, b))
    shape = lead + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1])
    pairs = [np.kron(a[index], b[index]) for index in np.ndindex(lead)]
    return np.array(pairs, dtype=complex).reshape(shape)


@given(
    pair=st.sampled_from(_SHAPE_PAIRS + _STACK_SHAPE_PAIRS + _REFUSED_SHAPE_PAIRS),
    seed=st.integers(0, 2**32 - 1),
)
def test_kron_bit_identical_to_numpy(pair, seed):
    # Two matrices give np.kron's bytes; two stacks give them for each pair.
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in pair)
    if pair in _REFUSED_SHAPE_PAIRS:
        with pytest.raises(DimensionMismatchError, match=re.escape(f"{a.shape} and {b.shape}")):
            kron(a, b)
        return
    got, expected = kron(a, b), _pairwise_kron(a, b)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()
    if pair in _SHAPE_PAIRS:
        assert got.tobytes() == np.kron(a, b).tobytes()


@given(
    shape_a=st.lists(st.integers(1, 3), min_size=1, max_size=4),
    shape_b=st.lists(st.integers(1, 3), min_size=1, max_size=4),
)
def test_kron_matches_numpy_on_any_shapes(shape_a, shape_b):
    # Two matrices match np.kron and two stacks match it pair by pair; a
    # vector on either side is refused, as are stacks that do not broadcast.
    rng = np.random.default_rng(len(shape_a) * 10 + len(shape_b))
    a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
    b = rng.standard_normal(shape_b)
    try:
        np.broadcast_shapes(a.shape[:-2], b.shape[:-2])
    except ValueError:
        with pytest.raises(ValueError):
            kron(a, b)
        return
    if len(shape_a) < 2 or len(shape_b) < 2:
        with pytest.raises(DimensionMismatchError):
            kron(a, b)
        return
    got, expected = kron(a, b), _pairwise_kron(a, b.astype(complex))
    assert got.dtype == complex
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


_SPECIAL_PARTS = np.array([0.0, -0.0, 1.0, -2.5, np.inf, -np.inf, np.nan, -np.nan, 1e-310, 1e300])


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((2, 2), (2, 2)), ((4, 4), (2, 2)), ((2, 2), (4, 4)), ((2, 3), (3, 1)), ((1, 1), (2, 2)),
     ((0, 2), (2, 2))],
    ids=["2x2-2x2", "4x4-2x2", "2x2-4x4", "2x3-3x1", "1x1-2x2", "0x2-2x2"],
)
def test_kron_of_two_matrices_bit_identical_to_numpy_on_special_values(shape_a, shape_b):
    # Real and imaginary parts drawn from signed zeros, infinities, NaNs of
    # both signs, a subnormal and a near-overflow value.
    rng = np.random.default_rng(1801)
    for _ in range(200):
        a, b = (
            rng.choice(_SPECIAL_PARTS, s) + 1j * rng.choice(_SPECIAL_PARTS, s)
            for s in (shape_a, shape_b)
        )
        got, expected = kron(a, b), np.kron(a, b)
        assert got.shape == expected.shape and got.dtype == complex
        assert got.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "shape_a, shape_b",
    [((8, 2, 2), (2, 2)), ((2, 2), (8, 4, 4)), ((8, 2, 2), (8, 2, 2)), ((3, 1, 2, 2), (4, 2, 2))],
    ids=["8x2x2-2x2", "2x2-8x4x4", "8x2x2-8x2x2", "3x1x2x2-4x2x2"],
)
def test_kron_of_two_stacks_bit_identical_to_pairs_on_special_values(shape_a, shape_b):
    # Each matrix of the stacked product has the bytes of np.kron of its pair.
    rng = np.random.default_rng(1802)
    for _ in range(50):
        a, b = (
            rng.choice(_SPECIAL_PARTS, s) + 1j * rng.choice(_SPECIAL_PARTS, s)
            for s in (shape_a, shape_b)
        )
        got, expected = kron(a, b), _pairwise_kron(a, b)
        assert got.shape == expected.shape and got.dtype == complex
        assert got.tobytes() == expected.tobytes()


def test_kron_bilinear_and_associative():
    rng = np.random.default_rng(11)
    a, b, c = (_random_matrix(rng) for _ in range(3))
    assert residual(kron(2.0 * a + b, c), 2.0 * kron(a, c) + kron(b, c)) < 1e-12
    assert residual(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-12


def test_dagger_examples():
    assert np.array_equal(dagger(I4), I4)
    assert residual(dagger(SY), SY) == 0.0
    assert np.array_equal(dagger(np.diag([1, 1j])), np.diag([1, -1j]))


def test_dagger_involution_exact():
    rng = np.random.default_rng(3)
    a = _random_matrix(rng, n=4)
    assert np.array_equal(dagger(dagger(a)), a)


def test_expm_zero():
    assert residual(expm(np.zeros((4, 4))), I4) == 0.0


def test_expm_involution_closed_form():
    got = expm(-0.25j * math.pi * SX)
    assert residual(got, (I2 - 1j * SX) / math.sqrt(2)) < 1e-15


def test_expm_skew_square_root_series():
    # W^2 = -I, so expm(c W) must equal cos(c) I + sin(c) W; cross-check
    # against a directly summed series.
    w = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
    assert residual(w @ w, -I4) == 0.0
    for c in (0.3, 1.2, 2.9):
        expected = math.cos(c) * I4 + math.sin(c) * w
        series = np.zeros((4, 4), dtype=complex)
        term = I4.copy()
        for k in range(1, 40):
            series += term
            term = term @ (c * w) / k
        assert residual(expm(c * w), expected) < 1e-13
        assert residual(series, expected) < 1e-13


def test_expm_inverse_pairs():
    rng = np.random.default_rng(5)
    for _ in range(6):
        a = _random_matrix(rng, n=4, scale=math.pi / 2.0)
        assert residual(expm(a) @ expm(-a), I4) < 1e-10


def test_expm_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        expm(bad)


def test_residual_examples():
    assert residual(I4, I4) == 0.0
    assert residual(I4, 2.0 * I4) == 1.0
    assert abs(residual(SX, SY) - math.sqrt(2)) < 1e-15


def test_residual_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        residual(I2, I4)


def test_unitarity_residual():
    assert float(unitarity_residuals(build_b_phi("+", 1.1))) < 1e-12
    assert float(unitarity_residuals(2.0 * I4)) == 3.0


def _expm_oracle(a):
    # The one-matrix scaling and squaring that expm runs on each member of
    # a stack, written out for a single 2-D matrix.
    norm = float(np.linalg.norm(a, 1))
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    scaled = a / (2.0 ** squarings)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, 17):
        term = term @ scaled / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def test_expm_stack_mixing_squaring_counts_bit_identical_to_oracle():
    rng = np.random.default_rng(11)
    # Norms from 1e-3 to 1e2 give squaring counts 0 through 8, interleaved.
    scales = 10.0 ** rng.uniform(-3.0, 2.0, size=40)
    stack = np.array([_random_matrix(rng, n=4, scale=c) for c in scales])
    counts = {int(np.ceil(np.log2(max(np.linalg.norm(m, 1), 0.5) / 0.5))) for m in stack}
    assert len(counts) >= 5
    got = expm(stack)
    assert got.shape == stack.shape
    assert np.array_equal(got, [_expm_oracle(m) for m in stack])
    for m in stack[:5]:
        assert np.array_equal(expm(m), _expm_oracle(m))


@given(
    shape=st.sampled_from([(2, 2), (1, 4, 4), (3, 2, 2), (2, 3, 4, 4), (0, 4, 4)]),
    scale=st.floats(1e-3, 50.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_expm_any_stack_shape_matches_oracle(shape, scale, seed):
    rng = np.random.default_rng(seed)
    a = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    n = shape[-1]
    expected = np.array([_expm_oracle(m) for m in a.reshape(-1, n, n)]).reshape(shape)
    assert np.array_equal(expm(a), expected)


def test_expm_convergence_checked_per_matrix(monkeypatch):
    # Two terms cannot converge on a nonzero matrix; the zero matrix
    # converges at once, so only a stack holding a nonzero matrix fails.
    monkeypatch.setattr(expm_series, "_SERIES_ORDER", 2)
    zeros = np.zeros((3, 4, 4), dtype=complex)
    assert np.array_equal(expm(zeros), np.broadcast_to(I4, zeros.shape))
    mixed = zeros.copy()
    mixed[1] = 0.25 * np.kron(SX, SY)
    with pytest.raises(NonConvergenceError):
        expm(mixed)


@pytest.mark.parametrize(
    "shape, failing, index",
    [((4,), [2, 3], "(2,)"), ((2, 3), [4, 5], "(1, 1)"), ((), [0], "()")],
)
def test_expm_nonconvergence_names_first_failing_matrix(monkeypatch, shape, failing, index):
    # Flat members in failing are given a norm the 2-term series cannot meet;
    # the message gives the first one's index over the batch axes.
    monkeypatch.setattr(expm_series, "_SERIES_ORDER", 2)
    flat = np.zeros((max(1, math.prod(shape)), 4, 4), dtype=complex)
    flat[failing] = 0.25 * np.kron(SX, SY)
    with pytest.raises(NonConvergenceError, match=re.escape(f"at index {index}") + "$"):
        expm(flat.reshape(shape + (4, 4)))


def _zero_signs_flipped(m):
    # The same matrix with every zero real or imaginary part of the other sign.
    m = m.copy()
    for part in (m.real, m.imag):
        part[part == 0] *= -1.0
    return m


_DERIVED = {
    "copy": lambda m: m.copy(),
    "x2": lambda m: 2.0 * m,
    "x4": lambda m: 4.0 * m,
    "x8": lambda m: 8.0 * m,
    "zero": lambda m: np.zeros_like(m),
    "signed zero": _zero_signs_flipped,
}


@given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.floats(1e-3, 10.0),
    picks=st.lists(
        st.tuples(st.sampled_from(sorted(_DERIVED)), st.integers(0, 63)), min_size=1, max_size=24
    ),
)
def test_expm_deduplicated_stack_matches_one_call_per_matrix(seed, scale, picks):
    # Exact duplicates, the doubling pattern of the theta grid, zero matrices
    # and +-0.0 variants (kept as separate series) among fresh matrices.
    rng = np.random.default_rng(seed)
    stack = [_random_matrix(rng, n=4, scale=scale) for _ in range(3)]
    for m in stack:
        for part in (m.real, m.imag):
            part[rng.random((4, 4)) < 0.3] = 0.0
    # A zero-heavy sigma x sigma generator, as verify exponential builds
    # them, with zero parts of both signs.
    pauli = (SX, SY, SZ)
    g = -0.5j * scale * np.kron(pauli[rng.integers(3)], pauli[rng.integers(3)])
    for part in (g.real, g.imag):
        part[(part == 0) & (rng.random((4, 4)) < 0.5)] = -0.0
    stack.append(g)
    fresh = len(stack)
    for kind, k in picks:
        # Multiples of the fresh matrices only, so that norms stay finite.
        stack.append(_DERIVED[kind](stack[k % (fresh if kind.startswith("x") else len(stack))]))
    stack = np.array(stack)
    got = expm(stack).tobytes()
    assert got == np.array([expm(m) for m in stack]).tobytes()
    assert got == np.array([_expm_oracle(m) for m in stack]).tobytes()


def test_expm_runs_one_series_per_distinct_scaled_matrix(monkeypatch):
    # a, 2a, 4a and 8a scale down to the same bytes, as theta, 2 theta,
    # 4 theta and 8 theta do; the +-0.0 variant and the zero matrix do not.
    a = 0.75j * np.kron(SX, SY)
    stack = np.array([a, 2.0 * a, 4.0 * a, 8.0 * a, _zero_signs_flipped(a), 0 * I4, 0 * I4, a])
    distinct = []
    unique = np.unique

    def spy(keys, **kwargs):
        found = unique(keys, **kwargs)
        distinct.append(len(found[0]))
        return found

    monkeypatch.setattr(expm_series.np, "unique", spy)
    got = expm(stack)
    monkeypatch.undo()
    assert distinct == [3]
    assert got.tobytes() == np.array([_expm_oracle(m) for m in stack]).tobytes()


@pytest.mark.parametrize("scale", [1.0, 3e-162], ids=["in the scaling", "in the series"])
def test_expm_keeps_the_one_matrix_bits_on_subnormal_entries(scale):
    # Subnormal entries of both signs go to zero in the scaling of matrices
    # of norm > 0.5, and at 3e-162 the series' terms reach them.
    rng = np.random.default_rng(29)
    stack = np.array([_random_matrix(rng, n=4, scale=scale) for _ in range(8)])
    stack.view(float)[..., ::3] = rng.choice([-5e-324, 5e-324, -1e-323], size=(8, 4, 3))
    assert expm(stack).tobytes() == np.array([_expm_oracle(m) for m in stack]).tobytes()


@pytest.mark.parametrize("order", ["ab", "ba"], ids=["a-first", "b-first"])
def test_expm_nonconvergence_names_first_failing_matrix_before_its_duplicate(
    monkeypatch, order
):
    # Two failing matrices, each repeated later in the stack: whichever of
    # them sorts first by bytes, the message names stack index 1 and that
    # matrix's own tail, as a one-matrix call gives it.
    monkeypatch.setattr(expm_series, "_SERIES_ORDER", 2)
    failing = {"a": 0.25 * np.kron(SX, SY), "b": 0.3 * np.kron(SZ, SX)}
    first, second = (failing[c] for c in order)
    stack = np.array([0 * I4, first, second, first, 0 * I4, second]).reshape(2, 3, 4, 4)
    with pytest.raises(NonConvergenceError) as alone:
        expm(first)
    tail = str(alone.value).split(" at index")[0]
    with pytest.raises(NonConvergenceError) as stacked:
        expm(stack)
    assert str(stacked.value) == f"{tail} at index (0, 1)"


@pytest.mark.parametrize(
    "shape", [(3, 4, 3), (), (4,), (2, 3)], ids=["stack-of-4x3", "0-d", "1-d", "2x3"]
)
def test_expm_refuses_non_square_shapes(shape):
    with pytest.raises(DimensionMismatchError, match=re.escape(f"got shape {shape}") + "$"):
        expm(np.full(shape, 2.0))


def test_expm_empty_stack():
    got = expm(np.zeros((0, 4, 4)))
    assert got.shape == (0, 4, 4) and got.dtype == complex


@pytest.mark.parametrize("shape", [(0, 0), (2, 0, 0)], ids=["0x0", "stack-of-0x0"])
def test_expm_of_0x0_matrices_is_empty(shape):
    got = expm(np.zeros(shape))
    assert got.shape == shape and got.dtype == complex


def test_expm_squaring_counts_at_powers_of_two_match_oracle():
    # 1-norms 0.5 * 2**k and both float neighbours of each, where a
    # squaring count could be off by one; each matrix is a rotation
    # generator of that 1-norm, so every exponential stays finite.
    powers = 0.5 * 2.0 ** np.arange(-3, 61)
    norms = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf)])
    stack = np.zeros((len(norms), 2, 2), dtype=complex)
    stack[:, 0, 1], stack[:, 1, 0] = -norms, norms
    expected = np.array([_expm_oracle(m) for m in stack])
    assert expm(stack).tobytes() == expected.tobytes()


# The 1-norm of the last case overflows in its column sum, and numpy warns.
@pytest.mark.filterwarnings("ignore:overflow encountered in reduce:RuntimeWarning")
@pytest.mark.parametrize(
    "column, norm",
    [([5e307, 0.0], "5.000e+307"), ([9e307, 0.0], "9.000e+307"), ([1.7e308, 1.7e308], "inf")],
    ids=["count-1024", "scaled-norm-overflows", "column-sum-overflows"],
)
def test_expm_refuses_a_1_norm_above_2_to_the_1022(column, norm):
    # Past 2**1022 the squaring count reaches 1024 and 2^s is inf: a matrix
    # was scaled to zero and came back as I, or from about 9e307 its count
    # was undefined. At 2**1022 itself, N = [[0, t], [0, 0]] still gets its
    # exact exponential I + N, and just above it is refused too.
    edge = 2.0**1022
    exact = np.array([[1, edge], [0, 1]], dtype=complex)
    assert expm(np.array([[0, edge], [0, 0]])).tobytes() == exact.tobytes()
    stack = np.zeros((2, 3, 2, 2), dtype=complex)
    stack[1, 1, :, 1] = column
    stack[1, 2, 0, 1] = np.nextafter(edge, np.inf)
    message = f"expm: 1-norm {norm} above 2**1022 at index (1, 1)"
    with pytest.raises(OverflowError, match=re.escape(message) + "$"):
        expm(stack)
    with pytest.raises(OverflowError, match=re.escape("at index (1, 0)") + "$"):
        expm(stack[:, 2:])


def test_expm_stack_rejects_any_nonfinite_matrix():
    stack = np.stack([I4, I4])
    stack[1, 2, 3] = np.inf
    with pytest.raises(ValueError):
        expm(stack)


@given(
    n=st.sampled_from([2, 4, 8]),
    count=st.integers(1, 6),
    scale=st.floats(0.1, 10.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_unitarity_residuals_bit_identical_to_scalar(n, count, scale, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([_random_matrix(rng, n=n, scale=scale) for _ in range(count)])
    got = unitarity_residuals(stack)
    assert got.shape == (count,)
    assert np.array_equal(got, [float(unitarity_residuals(m)) for m in stack])


def test_unitarity_residuals_on_unitary_family():
    stack = np.array([build_b_phi(sign, 0.3 * k) for sign in "+-" for k in range(8)])
    got = unitarity_residuals(stack)
    assert np.array_equal(got, [float(unitarity_residuals(m)) for m in stack])
    assert np.all(got < 1e-12)


def test_residuals_per_matrix_and_shape_check():
    a = np.stack([I4, 2.0 * I4, I4 + 0.5j])
    assert residuals(a, np.broadcast_to(I4, a.shape)).tolist() == [0.0, 1.0, 0.5]
    with pytest.raises(DimensionMismatchError):
        residuals(a, I4)
