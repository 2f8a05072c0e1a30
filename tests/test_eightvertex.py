"""Constructors of the eight-vertex braid family and its unitary forms."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ybgates.eightvertex import (
    EightVertexWeights,
    ZeroDeformationError,
    angle_form,
    build_b,
    build_b_phi,
    build_b_phi_stack,
    build_b_stack,
    build_R_theta,
    build_R_x,
    build_R_x_normalized,
    build_R_x_normalized_stack,
    check_constraints,
    R_x_family,
    rho,
    sign_value,
    theta_from_x,
)
from ybgates.linalg import residual, unitarity_residuals
from ybgates.yangbaxter import braid_residuals, verify_two_eigenvalues

I4 = np.eye(4, dtype=complex)
PHI_GRID = [2.0 * math.pi * k / 8 for k in range(8)]


def test_sign_value():
    assert sign_value("+") == 1.0
    assert sign_value("-") == -1.0
    with pytest.raises(ValueError):
        sign_value("plus")


def test_build_b_stack_reads_each_label_of_an_array():
    # A (2, 3) label array against one q: each matrix has its label's sign.
    labels = np.array([["+", "-", "-"], ["-", "+", "+"]])
    got = build_b_stack(labels, np.exp(-0.7j))
    assert got.shape == (2, 3, 4, 4)
    assert got[..., 1, 2].real.tolist() == [[1.0, -1.0, -1.0], [-1.0, 1.0, 1.0]]
    with pytest.raises(ValueError, match="got 'x'"):
        build_b_stack(np.array(["+", "x", "-"]), np.ones(3))


def test_constraints_on_family_weights():
    w = EightVertexWeights(w1=1, w2=1, w3=1, w4=-1, w5=1, w6=1, w7=1, w8=-1)
    assert all(value == 0.0 for value in check_constraints(w))
    assert residual(w.to_matrix(), build_b("+", 1.0)) == 0.0


def test_constraints_all_ones():
    w = EightVertexWeights(1, 1, 1, 1, 1, 1, 1, 1)
    values = check_constraints(w)
    assert values[-1] == 2.0


def test_constraints_braid_valid_off_circle():
    # q = 2 weights satisfy every constraint and the braid relation, but
    # the matrix is not unitary.
    w = EightVertexWeights(w1=1, w2=1, w3=1, w4=-1, w5=1, w6=1, w7=2, w8=-0.5)
    assert all(value == 0.0 for value in check_constraints(w))
    assert float(braid_residuals(w.to_matrix())) < 1e-12
    assert float(unitarity_residuals(w.to_matrix() / math.sqrt(2))) > 1e-2


def test_build_b_lower_sign():
    expected = np.array(
        [[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]],
        dtype=complex,
    )
    assert np.array_equal(build_b("-", 1.0), expected)


def test_build_b_zero_deformation():
    with pytest.raises(ZeroDeformationError):
        build_b("+", 0.0)
    with pytest.raises(ZeroDeformationError):
        build_b_stack("+", np.array([1.0, 0.0]))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_stack_constructors_are_bit_identical_to_scalar(sign):
    phis = np.array(PHI_GRID + [0.37, 5.1, -2.2])
    qs = np.exp(-1j * phis)
    xs = np.array([-2.5, -1.0, 0.0, 0.3, 1.0, 1.7, 3.0])
    b = build_b_stack(sign, qs)
    assert b.shape == (len(qs), 4, 4)
    # q varies along the first axis, x along the second.
    r = R_x_family(sign, qs[:, None])(xs)
    assert r.shape == (len(qs), len(xs), 4, 4)
    for k, phi in enumerate(phis):
        q = np.exp(-1j * float(phi))
        assert np.array_equal(b[k], build_b(sign, q))
        for m, x in enumerate(xs):
            assert np.array_equal(r[k, m], build_R_x(sign, q, float(x)))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_b_braid_and_eigenvalues(sign):
    for phi in PHI_GRID:
        b = build_b(sign, np.exp(-1j * phi))
        assert float(braid_residuals(b)) < 1e-12
        assert verify_two_eigenvalues(b, (1 - 1j, 1 + 1j)) < 1e-12


def test_build_b_phi_at_zero():
    s2 = 1.0 / math.sqrt(2)
    expected = np.array(
        [[s2, 0, 0, s2], [0, s2, -s2, 0], [0, s2, s2, 0], [-s2, 0, 0, s2]],
        dtype=complex,
    )
    assert residual(build_b_phi("-", 0.0), expected) < 1e-15


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_b_phi_unitary_and_braid(sign):
    for phi in PHI_GRID:
        b = build_b_phi(sign, phi)
        assert float(unitarity_residuals(b)) < 1e-12
        assert float(braid_residuals(b)) < 1e-12


def test_build_b_phi_square_is_skew_root():
    # b_+(0)^2 comes out as the plain anti-symmetric flip, and its square
    # is -I; direct squaring is the oracle for both statements.
    w = build_b_phi("+", 0.0) @ build_b_phi("+", 0.0)
    expected = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
        dtype=complex,
    )
    assert residual(w, expected) < 1e-15
    assert residual(w @ w, -I4) < 1e-12


@pytest.mark.parametrize("sign", ["+", "-"])
def test_b_phi_square_squares_to_minus_identity(sign):
    for phi in PHI_GRID:
        w = build_b_phi(sign, phi) @ build_b_phi(sign, phi)
        assert residual(w @ w, -I4) < 1e-12
        assert residual(w, -w.conj().T) < 1e-12


def test_build_R_x_examples():
    assert np.array_equal(build_R_x("+", 1j, 0.0), build_b("+", 1j))
    assert residual(build_R_x("-", 1.0, 1.0), 2.0 * I4) < 1e-14
    expected = np.array(
        [[1.5, 0, 0, 0.5], [0, 1.5, -0.5, 0], [0, 0.5, 1.5, 0], [-0.5, 0, 0, 1.5]],
        dtype=complex,
    )
    assert residual(build_R_x("-", 1.0, 0.5), expected) < 1e-14


def test_rho_values():
    assert rho(0.0) == 2.0
    assert rho(1.0) == 4.0
    assert rho(2.0) == 10.0


def test_normalized_family_examples():
    assert float(unitarity_residuals(build_R_x_normalized("-", 0.0, 0.5))) < 1e-12
    assert residual(build_R_x_normalized("+", 1.2, 0.0), build_b_phi("+", 1.2)) < 1e-15
    assert residual(build_R_x_normalized("-", 0.7, 1.0), I4) < 1e-15


@pytest.mark.parametrize("sign", ["+", "-"])
def test_normalized_family_unitary_grid(sign):
    for phi in PHI_GRID:
        for x in np.linspace(-3.0, 3.0, 13):
            assert float(unitarity_residuals(build_R_x_normalized(sign, phi, float(x)))) < 1e-12


def test_normalized_family_counterexample_off_unit_circle():
    # q = 2 breaks unitarity even after dividing by sqrt(rho).
    m = build_R_x("+", 2.0, 0.5) / math.sqrt(rho(0.5))
    assert float(unitarity_residuals(m)) > 1e-2


def test_build_R_theta_examples():
    assert residual(build_R_theta("+", 0.9, 0.0), build_b_phi("+", 0.9)) < 1e-15
    assert residual(build_R_theta("-", 1.7, math.pi / 4), I4) < 1e-15
    for theta in (0.1, 0.3, 0.6):
        assert (
            residual(
                build_R_theta("-", 0.0, theta),
                build_R_x_normalized("-", 0.0, math.tan(theta)),
            )
            < 1e-12
        )


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_R_theta_unitary_for_all_theta(sign):
    # The angle form needs no extra normalization anywhere on the circle.
    for phi in (0.0, 2.1):
        for theta in np.linspace(-math.pi, math.pi, 9):
            assert float(unitarity_residuals(build_R_theta(sign, phi, float(theta)))) < 1e-12


def test_parameterization_consistency():
    for sign in ("+", "-"):
        for phi in (0.0, math.pi / 3):
            for x in (0.0, 0.25, 1.0, 4.0):
                assert (
                    residual(
                        build_R_theta(sign, phi, math.atan(x)),
                        build_R_x_normalized(sign, phi, x),
                    )
                    < 1e-12
                )


def test_theta_from_x():
    assert theta_from_x(0.0) == 0.0
    assert abs(theta_from_x(1.0) - math.pi / 4) < 1e-15
    assert abs(theta_from_x(math.sqrt(3.0)) - math.pi / 3) < 1e-15
    assert theta_from_x(-5.0) < 0.0


@given(
    sign=st.sampled_from(["+", "-"]),
    phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
)
# A multiply by the reciprocal of the norm would give one zero here the
# other sign: a subnormal part of exp(-i phi) goes to zero.
@example(sign="+", phis=[-5e-324], xs=[2.0])
def test_normalized_stack_bit_identical_to_scalar(sign, phis, xs):
    # phi varies along the first axis, x along the second; by the bytes,
    # so the sign of each zero counts.
    got = build_R_x_normalized_stack(sign, np.array(phis)[:, None], xs)
    assert got.shape == (len(phis), len(xs), 4, 4)
    for k, phi in enumerate(phis):
        for m, x in enumerate(xs):
            assert got[k, m].tobytes() == build_R_x_normalized(sign, phi, x).tobytes()


@given(sign=st.sampled_from(["+", "-"]), phis=st.lists(st.floats(-10.0, 10.0), max_size=5))
@example(sign="-", phis=[5e-324, -5e-324, -0.0, math.pi])
def test_b_phi_stack_bit_identical_to_scalar(sign, phis):
    got = build_b_phi_stack(sign, phis)
    assert got.shape == (len(phis), 4, 4)
    for k, phi in enumerate(phis):
        assert got[k].tobytes() == build_b_phi(sign, phi).tobytes()


def test_normalized_stack_divides_by_python_rho():
    # At this x, numpy's (1+x)**2 + (1-x)**2 differs from Python's in the
    # last bit, so dividing by the numpy form would move the matrix.
    x = -0.3987991964982853
    xs = np.array([x])
    numpy_rho = ((1.0 + xs) ** 2 + (1.0 - xs) ** 2)[0]
    assert numpy_rho != rho(x)
    for sign in "+-":
        for phi in (0.0, 0.3, 2.5):
            got = build_R_x_normalized_stack(sign, phi, xs)[0]
            assert np.array_equal(got, build_R_x_normalized(sign, phi, x))
            by_numpy = R_x_family(sign, np.exp(-1j * phi))(x) / math.sqrt(numpy_rho)
            assert not np.array_equal(got, by_numpy)


def test_rho_overflow_names_x():
    with pytest.raises(OverflowError, match=r"x=1e\+200"):
        rho(1e200)
    with pytest.raises(OverflowError, match=r"x=5e\+199"):
        build_R_x_normalized_stack("+", 0.0, [0.0, 5e199, 1e200])


def test_rho_reads_numpy_floats_as_python_floats():
    xs = [-0.3987991964982853, 0.0, -0.0, 1.0, 2.5e-8, 3.7] + np.random.default_rng(
        1805
    ).uniform(-3.0, 3.0, 200).tolist()
    for x in xs:
        want = rho(x)
        for v in (np.float64(x), np.float32(x)):
            got = rho(v)
            # A float32 is rounded once, on the way in, and squared as a double.
            assert type(got) is float and got == rho(float(v))
        assert rho(np.float64(x)) == want


@pytest.mark.parametrize(
    "x, shown",
    [(np.float64(1e200), r"1e\+200"), (np.float64(-3e160), r"-3e\+160"), (10**400, r"1000")],
    ids=["float64", "negative-float64", "huge-int"],
)
def test_rho_overflow_names_numpy_and_int_x(x, shown):
    with pytest.raises(OverflowError, match=rf"overflows at x=.*{shown}"):
        rho(x)
    if isinstance(x, np.floating):
        # Before, numpy's ** gave inf with a warning and this returned zeros.
        with pytest.raises(OverflowError, match=shown):
            build_R_x_normalized("+", 0.0, x)


def _nested_b(sign, q):
    s = sign_value(sign)
    return np.array(
        [[1, 0, 0, q], [0, 1, s, 0], [0, -s, 1, 0], [-1.0 / q, 0, 0, 1]], dtype=complex
    )


def _nested_weights(w):
    return np.array(
        [[w.w1, 0, 0, w.w7], [0, w.w5, w.w3, 0], [0, w.w4, w.w6, 0], [w.w8, 0, 0, w.w2]],
        dtype=complex,
    )


def test_build_b_bytes_match_nested_rows():
    # tobytes, unlike np.array_equal, tells +0.0 from -0.0 and NaNs apart.
    qs = [1, -1.0, 2.0, 1j, complex(0.3, -0.0), complex(-0.0, 1.0), np.complex64(1 + 2j)]
    qs += np.exp(-1j * np.linspace(-7.0, 7.0, 57)).tolist()
    for sign in "+-":
        for q in qs:
            assert build_b(sign, q).tobytes() == _nested_b(sign, q).tobytes()
        # build_b_stack, matrix by matrix: all of qs as one stack, a (3, 5)
        # stack and an empty one, each against nested rows at its numpy q.
        stack = np.array(qs, dtype=complex)
        for q in (stack, stack[:15].reshape(3, 5), stack[:0]):
            b = build_b_stack(sign, q)
            assert b.shape == q.shape + (4, 4)
            for index in np.ndindex(q.shape):
                assert b[index].tobytes() == _nested_b(sign, q[index]).tobytes()
    # to_matrix, on weights with signed zeros, NaNs of both signs and
    # infinities in either part, and on ints, floats and numpy scalars.
    parts = [0.0, -0.0, 1.5, np.inf, -np.inf, np.nan, -np.nan]
    values = [complex(re, im) for re in parts for im in parts]
    values += [0, -1, -0.0, np.float64(-0.0), np.complex64(-0.0 - 2j), np.nan, -np.inf]
    for k in range(len(values)):
        w = EightVertexWeights(*(values[(k + 11 * j) % len(values)] for j in range(8)))
        assert w.to_matrix().tobytes() == _nested_weights(w).tobytes()

# Signed zeros, subnormals and angles up to the largest doubles.
_EDGE_PHIS = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e16, -1e16, 1e300, -1e300, 1.7e308]


@given(
    labels=st.one_of(
        st.sampled_from(["+", "-"]), st.lists(st.sampled_from(["+", "-"]), min_size=1, max_size=4)
    ),
    phis=st.lists(
        st.one_of(st.sampled_from(_EDGE_PHIS), st.floats(allow_nan=False, allow_infinity=False)),
        min_size=1,
        max_size=4,
    ),
)
def test_normalized_stack_at_x_zero_is_b_phi_stack(labels, phis):
    # R(0) has b(phi)'s bytes, the one b schrodinger_residuals builds for
    # both R(x) and H(x); a label array runs down a first axis.
    if not isinstance(labels, str):
        labels = np.array(labels)[:, None]
    got = build_R_x_normalized_stack(labels, phis, 0.0)
    want = build_b_phi_stack(labels, phis)
    assert got.shape == want.shape and got.tobytes() == want.tobytes()



# Labels down the first axis, in an order that repeats each of them.
_LABELS = np.array(["+", "-", "-", "+"])


@given(
    phis=st.lists(st.floats(-1e3, 1e3), max_size=5),
    xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=3),
)
@example(phis=[0.0, -0.0, 5e-324, -5e-324, math.pi], xs=[2.0, -0.0])
@example(phis=[-math.pi, 1e16, 2.2250738585072014e-308], xs=[0.0])
def test_stack_constructors_over_a_label_axis_are_each_labels_stack(phis, xs):
    # A label array broadcasts against q (phi, x) like one more axis; each
    # label's slice has the bytes of that label's own stack.
    phis = np.array(phis, dtype=float)
    qs = np.exp(-1j * phis)
    labels = _LABELS[:, None]
    b, b_phi = build_b_stack(labels, qs), build_b_phi_stack(labels, phis)
    r = build_R_x_normalized_stack(labels[:, :, None], phis[:, None], xs)
    family = R_x_family(labels[:, :, None], qs[:, None])(xs)
    assert b.shape == b_phi.shape == (len(_LABELS), len(phis), 4, 4)
    assert r.shape == family.shape == (len(_LABELS), len(phis), len(xs), 4, 4)
    for k, label in enumerate(_LABELS.tolist()):
        assert b[k].tobytes() == build_b_stack(label, qs).tobytes()
        assert b_phi[k].tobytes() == build_b_phi_stack(label, phis).tobytes()
        assert r[k].tobytes() == build_R_x_normalized_stack(label, phis[:, None], xs).tobytes()
        assert family[k].tobytes() == R_x_family(label, qs[:, None])(xs).tobytes()


# Seeded angles and the special ones: signed zeros, +-pi/4, a large angle
# and the smallest subnormals.
_STACK_THETAS = np.concatenate([
    np.random.default_rng(3303).uniform(-1e3, 1e3, 60),
    [0.0, -0.0, math.pi / 4, -math.pi / 4, 1e16, 5e-324, -5e-324],
])


def test_angle_form_stack_bit_identical_to_build_R_theta():
    # Signs down the first axis, phi down the second and theta along the
    # third; each matrix has the bytes of the one-matrix call at float theta.
    signs, phis = np.array(["+", "-"]), np.array([0.0, -0.0, 0.9, -2.2, 5e-324])
    b = build_b_phi_stack(signs[:, None, None], phis[:, None])
    got = angle_form(b, _STACK_THETAS[:, None, None])
    assert got.shape == (len(signs), len(phis), len(_STACK_THETAS), 4, 4)
    for k, m, n in np.ndindex(got.shape[:3]):
        want = build_R_theta(signs[k], float(phis[m]), float(_STACK_THETAS[n]))
        assert got[k, m, n].tobytes() == want.tobytes()


def test_label_array_broadcasts_on_any_axis():
    # Labels along the last axis, q down the first; a 0-d label array is one label.
    qs = np.exp(-1j * np.array([0.3, -0.0, 2.0]))[:, None]
    got = build_b_stack(np.array(["-", "+"]), qs)
    assert got.shape == (3, 2, 4, 4)
    assert got[:, 0].tobytes() == build_b_stack("-", qs[:, 0]).tobytes()
    assert got[:, 1].tobytes() == build_b_stack("+", qs[:, 0]).tobytes()
    assert build_b_stack(np.array("+"), qs).tobytes() == build_b_stack("+", qs).tobytes()
    assert build_b_phi_stack(np.array([], dtype=str)[:, None], [0.1, 0.2]).shape == (0, 2, 4, 4)


@pytest.mark.parametrize(
    "build",
    [
        lambda labels: build_b_stack(labels, np.ones(3)),
        lambda labels: build_b_phi_stack(labels, np.zeros(3)),
        lambda labels: R_x_family(labels, np.ones(3)),
        lambda labels: build_R_x_normalized_stack(labels, 0.0, np.zeros(3)),
    ],
    ids=["build_b_stack", "build_b_phi_stack", "R_x_family", "build_R_x_normalized_stack"],
)
def test_a_bad_label_in_the_array_is_refused(build):
    for labels in (np.array(["+", "x"])[:, None], np.array([["-", "-"], ["+", "plus"]])[..., None]):
        with pytest.raises(ValueError, match="sign must be '\\+' or '-'"):
            build(labels)
