import cmath
import math

import numpy as np
import pytest

from cdlab.canonical import (
    _CHAIN_BLOCK,
    DomainError,
    Hamiltonian,
    J,
    TransferOverflowError,
    jacobi_hamiltonian,
    kernel_kh,
    mobius,
    opuc_hamiltonian,
    rescale_h,
    rescaled_schrodinger,
    schrodinger_kernel,
    transfer_form_integral,
    transfer_matrix,
    weyl,
    _schrodinger_sweep,
)
from cdlab.measures import RegVarFn, cauchy_transform, gallery
from cdlab.oprl import RecurrenceCoeffs, eval_polys, interp_kernel, kernel_diag, stieltjes_coeffs
from cdlab.opuc import (VerblunskyCoeffs, kernel_diag_circle, opuc_canonical_kernel,
                       opuc_interp_kernel, szego_eval)


@pytest.fixture(scope="module")
def cheb():
    return stieltjes_coeffs(gallery("chebyshev"), 40)


def test_hamiltonian_validation():
    with pytest.raises(ValueError):
        Hamiltonian(np.array([1.0]), np.array([[[1.0, 0.0], [0.0, -0.5]]]))
    with pytest.raises(ValueError):
        Hamiltonian(np.array([-1.0]), np.array([[[1.0, 0.0], [0.0, 1.0]]]))


@pytest.mark.parametrize("lengths, mats, tail", [
    ([np.nan], [np.eye(2)], None),
    ([np.inf], [np.eye(2)], None),
    ([1.0], [[[np.nan, 0.0], [0.0, 1.0]]], None),
    ([1.0], [[[1.0, np.inf], [np.inf, 1.0]]], None),
    ([1.0], [np.eye(2)], [[1.0, 0.0], [0.0, np.inf]]),
])
def test_hamiltonian_rejects_non_finite(lengths, mats, tail):
    with pytest.raises(ValueError, match="finite"):
        Hamiltonian(np.array(lengths), np.array(mats), tail=tail)


def test_opuc_hamiltonian_overflow_is_named():
    # |phi_n(1)| grows like 4.4^n and overflows: the pieces used to be NaN
    v = VerblunskyCoeffs(np.full(3000, 0.9))
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(ValueError, match="pieces must be finite"):
        opuc_hamiltonian(v, 3000)


_REC5 = RecurrenceCoeffs(a=np.ones(5), b=np.zeros(5))
_FREE5 = VerblunskyCoeffs.free(5)


@pytest.mark.parametrize("call", [
    lambda: eval_polys(_REC5, -1, 0.0),
    lambda: szego_eval(_FREE5, -1, 1.0),
    lambda: kernel_diag(_REC5, -2, 0.0),
    lambda: kernel_diag(_REC5, -0.5, 0.0),
    lambda: kernel_diag_circle(_FREE5, -3, 0.0),
    lambda: jacobi_hamiltonian(_REC5, 0),
    lambda: opuc_hamiltonian(_FREE5, 0),
], ids=["eval_polys", "szego_eval", "kernel_diag", "kernel_diag_real",
        "kernel_diag_circle", "jacobi_hamiltonian", "opuc_hamiltonian"])
def test_negative_sizes_raise(call):
    # kernel_diag and kernel_diag_circle returned 0.0, the others a bare IndexError
    with pytest.raises(ValueError, match=">= "):
        call()


def test_rank_one_transfer_alpha_zero():
    e = np.array([1.0, 0.0])
    h = Hamiltonian(np.array([1.0]), np.outer(e, e)[None, :, :])
    z = 0.7 - 0.3j
    w = transfer_matrix(h, 1.0, z)
    assert np.max(np.abs(w - np.array([[1.0, z], [0.0, 1.0]]))) <= 1e-15


def test_transfer_identity_at_zero():
    rng = np.random.default_rng(1)
    m = rng.normal(size=(2, 2))
    m = m @ m.T
    h = Hamiltonian(np.array([1.5, 0.7]), np.array([m, m / 3.0]))
    w = transfer_matrix(h, 2.0, 0.0)
    assert np.max(np.abs(w - np.eye(2))) <= 1e-15


def test_free_half_rotation_vs_fine_step_product():
    # closed form for H = I/2 against a fine-step Euler-like product oracle
    h = Hamiltonian.constant(np.eye(2) / 2.0, length=10.0)
    z = 0.8 + 0.3j
    t = 3.7
    w = transfer_matrix(h, t, z)
    expected = np.array([
        [cmath.cos(t * z / 2), cmath.sin(t * z / 2)],
        [-cmath.sin(t * z / 2), cmath.cos(t * z / 2)],
    ])
    assert np.max(np.abs(w - expected)) <= 1e-12
    # product oracle: many short pieces of the same Hamiltonian
    n = 2000
    h_fine = Hamiltonian(np.full(n, t / n), np.tile(np.eye(2) / 2.0, (n, 1, 1)))
    w_fine = transfer_matrix(h_fine, t, z)
    assert np.max(np.abs(w - w_fine)) <= 1e-10


def test_det_unimodular():
    rng = np.random.default_rng(3)
    mats = []
    for _ in range(5):
        m = rng.normal(size=(2, 2))
        m = m @ m.T + 1e-3 * np.eye(2)
        mats.append(m / np.trace(m))
    h = Hamiltonian(rng.uniform(0.2, 1.0, 5), np.array(mats))
    for t in (0.3, 1.7, h.total_length):
        w = transfer_matrix(h, t, 1.2 - 0.8j)
        assert abs(np.linalg.det(w) - 1.0) <= 1e-10 * max(1.0, np.max(np.abs(w)) ** 2)


def test_domain_error_without_tail():
    h = Hamiltonian(np.array([1.0]), np.eye(2)[None, :, :] / 2.0)
    with pytest.raises(DomainError):
        transfer_matrix(h, 2.0, 1.0)
    h_tail = Hamiltonian(np.array([1.0]), np.eye(2)[None, :, :] / 2.0,
                         tail=np.eye(2) / 2.0)
    transfer_matrix(h_tail, 2.0, 1.0)  # no error


@pytest.mark.parametrize("h, t, z, derivative", [
    (Hamiltonian.constant(np.eye(2)), 1e3, 1e3j, False),  # cmath.cos raised a bare OverflowError
    (Hamiltonian(np.ones(3), np.array([np.eye(2)] * 3)), 3.0, 300j, False),  # the product overflows
    (Hamiltonian(np.ones(3), np.array([np.eye(2)] * 3)), 3.0, 300j, True),
], ids=["factor", "product", "derivative"])
def test_transfer_matrix_overflow_is_typed(h, t, z, derivative):
    with np.errstate(all="raise"):
        with pytest.raises(TransferOverflowError, match=f"at z = {z} over the length t = {t}"):
            transfer_matrix(h, t, z, derivative=derivative)
    assert issubclass(TransferOverflowError, OverflowError)


def test_transfer_matrix_rejects_non_finite_z():
    with pytest.raises(ValueError, match="z must be finite"):
        transfer_matrix(Hamiltonian.constant(np.eye(2)), 1.0, complex(math.nan, 0.0))


def test_kernel_kh_free_half():
    h = Hamiltonian.constant(np.eye(2) / 2.0, length=30.0, tail=True)
    z, w = 0.9 + 0.2j, -0.4 + 0.1j
    u = z - np.conj(w)
    for t in (0.0, 2.5, 9.0):
        val = kernel_kh(h, t, z, w)
        expected = 0.0 if t == 0.0 else cmath.sin(t * u / 2.0) / u
        assert abs(val - expected) <= 1e-12 * max(1.0, abs(expected))
    assert abs(kernel_kh(h, 7.0, 0.0, 0.0) - 3.5) <= 1e-12


def test_kernel_kh_hermitian():
    rng = np.random.default_rng(12)
    m = rng.normal(size=(2, 2))
    m = m @ m.T
    h = Hamiltonian(np.array([2.0, 1.0]), np.array([m / np.trace(m), np.eye(2) / 2]))
    z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    w = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
    a = kernel_kh(h, 2.4, z, w)
    b = kernel_kh(h, 2.4, w, z)
    assert abs(a - b.conjugate()) <= 1e-12 * max(1.0, abs(a))


def test_j_inner_integral_identity():
    rng = np.random.default_rng(6)
    mats = []
    for _ in range(4):
        m = rng.normal(size=(2, 2))
        m = m @ m.T + 1e-2 * np.eye(2)
        mats.append(m / np.trace(m))
    h = Hamiltonian(rng.uniform(0.3, 1.0, 4), np.array(mats))
    t = h.total_length
    z, w = 0.8 + 0.4j, -0.2 + 0.9j
    wz = transfer_matrix(h, t, z)
    ww = transfer_matrix(h, t, w)
    lhs = (wz @ J @ ww.conj().T - J) / (z - np.conj(w))
    rhs = transfer_form_integral(h, t, z, w)
    assert np.max(np.abs(lhs - rhs)) <= 1e-8



@pytest.mark.parametrize("t", [1.7, 3.0, 4.25])
def test_transfer_form_integral_inside_a_piece_and_on_the_tail(t):
    # t inside the second piece, at the end of the domain, and on the tail:
    # W(start) is carried across pieces, the identity holds at each t
    h = Hamiltonian(np.array([1.0, 2.0]), np.array([[[0.7, 0.2], [0.2, 0.3]], np.eye(2) / 2.0]),
                    tail=np.array([[0.4, -0.1], [-0.1, 0.6]]))
    z, w = 0.8 + 0.4j, -0.2 + 0.9j
    wz, ww = transfer_matrix(h, t, z), transfer_matrix(h, t, w)
    lhs = (wz @ J @ ww.conj().T - J) / (z - np.conj(w))
    assert np.max(np.abs(lhs - transfer_form_integral(h, t, z, w))) <= 1e-12


_H12 = Hamiltonian(np.array([1.0, 2.0]), np.array([np.eye(2) / 2.0, np.eye(2) / 2.0]))


@pytest.mark.parametrize("call", [
    lambda t: transfer_matrix(_H12, t, 0.5),
    lambda t: kernel_kh(_H12, t, 0.5, 0.5),
    lambda t: weyl(_H12, 0.5j, t),
    lambda t: transfer_form_integral(_H12, t, 0.5, 0.5),
    lambda t: interp_kernel(RecurrenceCoeffs(a=np.ones(5), b=np.zeros(5)), t, 0.5, 0.5),
    lambda t: opuc_canonical_kernel(VerblunskyCoeffs.free(5), t, 0.5, 0.5),
    lambda t: opuc_interp_kernel(VerblunskyCoeffs.free(5), t, 0.5, 0.5),
], ids=["transfer_matrix", "kernel_kh", "weyl", "transfer_form_integral", "interp_kernel",
        "opuc_canonical_kernel", "opuc_interp_kernel"])
@pytest.mark.parametrize("t", [math.nan, -1.0, math.inf])
def test_non_finite_or_negative_t_is_named(call, t):
    # a NaN t took every whole piece: kernel_kh returned the t = 3 value 1.5;
    # the chain kernels raised "cannot convert float NaN to integer" or a bare
    # OverflowError at inf
    with pytest.raises(ValueError, match=f"t must be finite and >= 0, got {t}"):
        call(t)


@pytest.mark.parametrize("call", [
    lambda x: rescaled_schrodinger(lambda y: 0.0, 0.0, 1.0, RegVarFn(), x, [(0.0, 0.0)]),
    lambda x: schrodinger_kernel(lambda y: 0.0, 0.0, x, 1.0, 2.0),
], ids=["rescaled_schrodinger", "schrodinger_kernel"])
@pytest.mark.parametrize("x", [math.inf, math.nan, -1.0, 0.0])
def test_non_finite_or_non_positive_length_is_named(call, x):
    # x = inf raised a bare OverflowError, and rescaled_schrodinger at x = -1
    # a ZeroDiagonalError "K = -0.27"
    with pytest.raises(ValueError, match=f"x must be finite and > 0, got {x}"):
        call(x)

def test_weyl_free_half():
    h = Hamiltonian.constant(np.eye(2) / 2.0, length=50.0, tail=True)
    for z in (1j, 0.5 + 0.8j, -1.2 + 0.3j):
        q, disk_radius = weyl(h, z, 45.0)
        assert abs(q - 1j) <= 1e-12
        assert disk_radius <= 1e-5


def test_weyl_rank_one_limit():
    # H = diag(0,1): W = [[1,0],[-lz,1]], so W * i -> 0 as l grows
    h = Hamiltonian(np.array([500.0]), np.array([[[0.0, 0.0], [0.0, 1.0]]]))
    q, _ = weyl(h, 1j, 500.0)
    assert abs(q) <= 3e-3


def test_weyl_requires_upper_half():
    h = Hamiltonian.constant(np.eye(2) / 2.0, length=5.0)
    with pytest.raises(ValueError):
        weyl(h, 1.0, 5.0)


def test_weyl_matches_cauchy_transform(cheb):
    # the decisive measure <-> canonical-system correspondence at z = i
    mu = gallery("chebyshev")
    rec = stieltjes_coeffs(mu, 201)
    ham = jacobi_hamiltonian(rec, 200)
    q, _ = weyl(ham, 1j, 200.0)
    m = cauchy_transform(mu, 1j)
    assert abs(q - m) <= 1e-6


def test_rescale_h_identities():
    rng = np.random.default_rng(7)
    mats = []
    for _ in range(5):
        m = rng.normal(size=(2, 2))
        m = m @ m.T + 1e-3 * np.eye(2)
        mats.append(m / np.trace(m))
    h = Hamiltonian(rng.uniform(0.3, 1.0, 5), np.array(mats))
    g = RegVarFn(scale=1.4, index=1.1)
    for r in (0.5, 3.0):
        hr = rescale_h(h, g, r)
        # lengths divided by r; per-piece determinant invariant
        assert np.allclose(hr.lengths, h.lengths / r)
        assert np.allclose(np.linalg.det(hr.matrices), np.linalg.det(h.matrices))
        # kernel rescaling identity
        t = h.total_length / r * 0.8
        z, w = 0.6 + 0.4j, -0.2 - 0.1j
        lhs = kernel_kh(hr, t, z, w)
        rhs = kernel_kh(h, r * t, z / r, w / r) / g(r)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))
    # r = 1 with g(1) = 1 leaves H unchanged
    hr1 = rescale_h(h, RegVarFn(scale=1.0, index=1.0), 1.0)
    assert np.allclose(hr1.matrices, h.matrices)


def test_jacobi_hamiltonian_blocks(cheb):
    ham = jacobi_hamiltonian(cheb, 3)
    assert np.allclose(ham.matrices[0], [[0.0, 0.0], [0.0, 1.0]])
    assert np.allclose(ham.matrices[1], [[2.0, 0.0], [0.0, 0.0]], atol=1e-9)
    assert np.allclose(np.linalg.det(ham.matrices), 0.0, atol=1e-12)


def test_jacobi_hamiltonian_second_kind(cheb):
    # pieces [[q_n^2, -p_n q_n], [-p_n q_n, p_n^2]] at 0, with the second kind
    # q_0 = 0 and q_1 = 1/a_1 read off the shifted coefficients
    mats = jacobi_hamiltonian(cheb, 3).matrices
    assert np.array_equal(mats[0], [[0.0, 0.0], [0.0, 1.0]])
    assert abs(mats[1][0, 0] - 1.0 / cheb.a[0] ** 2) <= 1e-12
    assert np.array_equal(jacobi_hamiltonian(cheb, 1).matrices, mats[:1])


def test_jacobi_kernel_equals_interpolated_cd(cheb):
    ham = jacobi_hamiltonian(cheb, 32)
    rng = np.random.default_rng(15)
    for _ in range(8):
        t = rng.uniform(0.0, 30.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        w = complex(rng.uniform(-2, 2), rng.uniform(-1, 1))
        lhs = kernel_kh(ham, t, z, w)
        rhs = interp_kernel(cheb, t, z, w)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_opuc_hamiltonian_free_pieces():
    v = VerblunskyCoeffs.free(4)
    ham = opuc_hamiltonian(v, 4)
    for m in ham.matrices:
        assert np.allclose(m, np.eye(2) / 2.0)


def test_opuc_hamiltonian_kernel_equality():
    rng = np.random.default_rng(20)
    v = VerblunskyCoeffs(rng.uniform(-0.5, 0.5, 16) + 1j * rng.uniform(-0.5, 0.5, 16))
    ham = opuc_hamiltonian(v, 16)
    for m in ham.matrices:  # PSD with positive determinant in general
        evals = np.linalg.eigvalsh(m)
        assert evals[0] >= -1e-14
    for _ in range(8):
        t = rng.uniform(0.0, 15.0)
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.6, 0.6))
        w = complex(rng.uniform(-2, 2), rng.uniform(-0.6, 0.6))
        lhs = kernel_kh(ham, t, z, w)
        rhs = opuc_canonical_kernel(v, t, z, w)
        assert abs(lhs - rhs) <= 1e-8 * max(1.0, abs(rhs))


def test_mobius_point_at_infinity():
    m = np.array([[2.0, 1.0], [1.0, 1.0]])
    assert mobius(m, cmath.inf) == 2.0


def test_schrodinger_free_closed_form():
    # V = 0, Dirichlet: u(x,z) = -sin(x sqrt z)/sqrt z; kernel from the
    # product-to-sum antiderivative as the oracle
    z, w = 1.0 + 0.2j, 2.0
    x = 5.0
    quad, wron = schrodinger_kernel(lambda y: 0.0, 0.0, x, z, w, tol=1e-10)
    sz = cmath.sqrt(z)
    sw = cmath.sqrt(np.conj(w))
    closed = (cmath.sin((sz - sw) * x) / (2 * (sz - sw))
              - cmath.sin((sz + sw) * x) / (2 * (sz + sw))) / (sz * sw)
    assert abs(quad - closed) <= 1e-8
    assert abs(wron - closed) <= 1e-8
    assert abs(quad - wron) <= 1e-8 * (1 + abs(closed))


def test_schrodinger_diagonal_positive():
    quad, wron = schrodinger_kernel(lambda y: 0.0, 0.0, 5.0, 2.0, 2.0)
    assert quad.imag == pytest.approx(0.0, abs=1e-12)
    assert quad.real > 0
    assert abs(quad - wron) <= 1e-8 * (1 + abs(quad))


def test_schrodinger_with_potential_two_forms_agree():
    quad, wron = schrodinger_kernel(lambda y: 0.3 * math.cos(y), 0.7, 4.0,
                                    1.3 + 0.1j, 0.9 - 0.2j, tol=1e-9)
    assert abs(quad - wron) <= 1e-8 * (1 + abs(quad))


def _stage_rk4(rhs, state, integrand, x, n_steps):
    """Oracle: RK4 stage by stage for state' = rhs(y, state) on [0, x] (row 0
    of state is u), with m = int integrand(u) by Simpson's rule on the
    substeps and the third-order dense output at the midpoint."""
    m = 0.0
    h = x / n_steps
    y = 0.0
    for _ in range(n_steps):
        k1 = rhs(y, state)
        k2 = rhs(y + 0.5 * h, state + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h, state + 0.5 * h * k2)
        k4 = rhs(y + h, state + h * k3)
        new = state + h * (k1 + 2.0 * k2 + 2.0 * k3 + k4) / 6.0
        u_mid = 0.5 * (state[0] + new[0]) + (h / 8.0) * (k1[0] - k4[0])
        m += (h / 6.0) * (integrand(state[0]) + 4.0 * integrand(u_mid)
                          + integrand(new[0]))
        state = new
        y += h
    return state, m


def _stage_sweep(v_fn, beta_bc, x, lams, n_steps):
    lams = np.asarray(lams, dtype=complex)
    state = np.empty((2, lams.size), dtype=complex)
    state[0] = math.sin(beta_bc)
    state[1] = -math.cos(beta_bc)

    def rhs(y, s):
        return np.array([s[1], (v_fn(y) - lams) * s[0]])

    return _stage_rk4(rhs, state, lambda u: u[0::2] * u[1::2], x, n_steps)


def _stage_confluent(v_fn, beta_bc, x, lam, n_steps):
    """The lam-derivative system: udot'' = (V - lam) udot - u."""
    state = np.array([math.sin(beta_bc), -math.cos(beta_bc), 0.0, 0.0], dtype=complex)

    def rhs(y, s):
        pot = v_fn(y) - lam
        return np.array([s[1], pot * s[0], s[3], pot * s[2] - s[0]])

    return _stage_rk4(rhs, state, lambda u: u * u, x, n_steps)


def _rel(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return np.max(np.abs(a - b)) / np.max(np.abs(b))


_COS_V = (lambda y: 0.3 * math.cos(y), 0.7)
_FREE_V = (lambda y: 0.0, 0.0)
_LAMS = [1.3 + 0.1j, 0.9 - 0.2j, 2.0, 2.0, -0.5 + 0.3j, 0.4, 1.0 + 0.01j, 1.0]


@pytest.mark.parametrize("potential, x, n_steps", [
    (_COS_V, 4.0, 64),
    (_COS_V, 50.0, 800),
    (_FREE_V, 200.0, 3200),
    (_COS_V, 4.0, 3 * _CHAIN_BLOCK + 5),  # crosses block boundaries, partial last block
])
def test_step_matrix_chain_matches_stage_rk4(potential, x, n_steps):
    v_fn, beta = potential
    (u, du), m = _schrodinger_sweep(v_fn, beta, x, _LAMS, n_steps)
    (u_ref, du_ref), m_ref = _stage_sweep(v_fn, beta, x, _LAMS, n_steps)
    assert _rel(u, u_ref) <= 1e-11
    assert _rel(du, du_ref) <= 1e-11
    assert _rel(m, m_ref) <= 1e-11


@pytest.mark.parametrize("lam", [2.0, 1.3 + 0.1j])
@pytest.mark.parametrize("potential, x, n_steps", [
    (_COS_V, 4.0, 64),
    (_COS_V, 50.0, 800),
    (_FREE_V, 200.0, 3200),
    (_COS_V, 4.0, _CHAIN_BLOCK + 1),
])
def test_step_matrix_chain_confluent_matches_stage_rk4(lam, potential, x, n_steps):
    # the chain [[M, 0], [dM/dlam, M]] that schrodinger_kernel runs on the diagonal
    v_fn, beta = potential
    state, m = _schrodinger_sweep(v_fn, beta, x, [lam, lam], n_steps, derivative=True)
    state_ref, m_ref = _stage_confluent(v_fn, beta, x, lam, n_steps)
    for row, row_ref in zip(state, state_ref):
        assert _rel(row, row_ref) <= 1e-11
    assert _rel(m[0], m_ref) <= 1e-11
    u, du, ud, dud = state[:, 0]
    u_r, du_r, ud_r, dud_r = state_ref
    assert _rel(du * ud - u * dud, du_r * ud_r - u_r * dud_r) <= 1e-11


def test_kernel_diag_nondecreasing_in_t():
    rng = np.random.default_rng(31)
    mats = []
    for _ in range(4):
        m = rng.normal(size=(2, 2))
        m = m @ m.T + 1e-3 * np.eye(2)
        mats.append(m / np.trace(m))
    h = Hamiltonian(rng.uniform(0.4, 1.2, 4), np.array(mats))
    for z in (0.7, 0.3 + 0.8j):
        vals = [kernel_kh(h, t, z, z).real for t in np.linspace(0.1, h.total_length, 12)]
        assert all(b >= a - 1e-12 * max(abs(b), 1.0) for a, b in zip(vals, vals[1:]))


def test_mixed_measure_weyl_loop():
    # atoms + AC piece through Stieltjes -> Jacobi Hamiltonian -> Weyl must
    # reproduce the (normalized) Cauchy transform of the measure
    from cdlab.measures import AcPiece, Measure

    mu = Measure(
        np.array([-0.5, 0.8]), np.array([0.4, 0.2]),
        pieces=(AcPiece(-1.0, 1.0, lambda x: np.full_like(x, 0.35)),),
    )
    total = mu.total_mass
    rec = stieltjes_coeffs(mu, 121)
    ham = jacobi_hamiltonian(rec, 120)
    for z in (1j, 0.5 + 0.7j):
        q, _ = weyl(ham, z, 120.0)
        m = cauchy_transform(mu, z) / total
        assert abs(q - m) <= 1e-6
