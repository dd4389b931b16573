import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import kickspec.linalg as linalg
from kickspec.errors import NumericalError
from kickspec.linalg import (
    eigvalsh_stack,
    expm_i_hermitian_stack,
    principal_args,
    unitary_eigvals_stack,
)
from kickspec.operators import OperatorParams, RationalAlpha, _reversal_gauge, operator_stack
from oracles import clock_shift, dft, unitary_eigvals

ROOT8 = 2.0 * np.sqrt(2.0)  # eigenvalues of [[2,2],[2,-2]]: roots of t^2 - 8


def random_hermitian(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return a + a.conj().T


def random_unitary(rng, n):
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(a)
    return q * (np.diag(r) / np.abs(np.diag(r)))[np.newaxis, :]


def set_distance(a, b):
    """max-min distance between two small point sets."""
    a = np.asarray(a).ravel()[:, None]
    b = np.asarray(b).ravel()[None, :]
    d = np.abs(a - b)
    return max(d.min(axis=1).max(), d.min(axis=0).max())


# -- eigvalsh_stack ------------------------------------------------------------


def test_eigh_identity():
    values = eigvalsh_stack(np.eye(3))
    assert np.allclose(values, [1.0, 1.0, 1.0], atol=1e-14)


def test_eigh_hand_2x2():
    values = eigvalsh_stack(np.array([[2.0, 2.0], [2.0, -2.0]]))
    assert np.allclose(values, [-ROOT8, ROOT8], atol=1e-12)


def test_eigh_already_diagonal_sorted():
    values = eigvalsh_stack(np.diag([np.cos(0.0), np.cos(np.pi)]))
    assert np.allclose(values, [-1.0, 1.0], atol=0)


# -- the general-solver reference ------------------------------------------------


def test_eigu_identity():
    values = unitary_eigvals(np.eye(2))
    assert np.allclose(values, [1.0, 1.0], atol=0)


def test_eigu_cyclic_shift_q3_is_cube_roots():
    c, _ = clock_shift(3)
    values = unitary_eigvals(c)
    expected = np.exp(2j * np.pi * np.array([0, 1, 2]) / 3)
    assert set_distance(values, expected) <= 1e-12


def test_eigu_rotation_2x2():
    values = unitary_eigvals(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert np.allclose(values, [-1j, 1j], atol=1e-12)


@pytest.mark.parametrize("seed,n", [(0, 5), (1, 8), (2, 13)])
def test_eigu_modulus_order_and_vectors(seed, n):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    values = unitary_eigvals(u)
    assert np.abs(np.abs(values) - 1.0).max() <= 1e-15
    args = principal_args(values)
    assert np.all(np.diff(args) >= 0)


@pytest.mark.parametrize("seed", [3, 4, 5])
def test_eigu_similarity_invariance(seed):
    rng = np.random.default_rng(seed)
    x = random_unitary(rng, 6)
    f = dft(6)
    d1 = unitary_eigvals(f @ x @ f.conj().T)
    d2 = unitary_eigvals(x)
    assert set_distance(d1, d2) <= 1e-9


# -- expm_i_hermitian_stack ------------------------------------------------------


def test_expm_zero_matrix_is_identity():
    assert np.abs(expm_i_hermitian_stack(np.zeros((3, 3)), 1.0) - np.eye(3)).max() <= 1e-14


def test_expm_diagonal_pi():
    out = expm_i_hermitian_stack(np.diag([1.0, -1.0]), np.pi)
    assert np.abs(out + np.eye(2)).max() <= 1e-12


def test_expm_hand_2x2_spectral_mapping():
    out = expm_i_hermitian_stack(np.array([[2.0, 2.0], [2.0, -2.0]]), 1.0)
    vals = unitary_eigvals(out)
    expected = np.exp(-1j * np.array([-ROOT8, ROOT8]))
    assert set_distance(vals, expected) <= 1e-12


@pytest.mark.parametrize("seed", [0, 1])
def test_expm_one_parameter_group_law(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 6)
    s1, s2 = rng.uniform(-2, 2, size=2)
    lhs = expm_i_hermitian_stack(a, s1 + s2)
    rhs = expm_i_hermitian_stack(a, s1) @ expm_i_hermitian_stack(a, s2)
    assert np.abs(lhs - rhs).max() <= 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_expm_exponential_contraction(seed):
    rng = np.random.default_rng(seed)
    a = random_hermitian(rng, 5)
    b = random_hermitian(rng, 5)
    lhs = np.linalg.norm(expm_i_hermitian_stack(a, 1.0) - expm_i_hermitian_stack(b, 1.0), 2)
    assert lhs <= np.linalg.norm(a - b, 2) + 1e-12


def test_import_does_not_load_scipy():
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    code = "import sys, kickspec, kickspec.cli; print('scipy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_public_names_resolve():
    # A star import fails on any name in __all__ that the module does not define.
    src = os.path.dirname(os.path.dirname(linalg.__file__))
    mods = ["kickspec"] + [f"kickspec.{m}" for m in
                           ("analysis", "cli", "errors", "linalg", "operators", "spectra")]
    code = "\n".join(f"from {m} import *" for m in mods)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_principal_args_wraps_minus_pi_to_pi():
    vals = np.array([complex(-1.0, -0.0), 1.0, 1j])
    args = principal_args(vals)
    assert args[0] == pytest.approx(np.pi)
    assert args[1] == 0.0
    assert args[2] == pytest.approx(np.pi / 2)


# -- unitary_eigvals_stack: Cayley route, guard and turned retries -------------


def eigvals_dev(values, stack):
    """Largest matched deviation of each row from np.linalg.eigvals of its matrix."""
    return max(set_distance(v, np.linalg.eigvals(u)) for v, u in zip(values, stack))


@pytest.fixture
def routed_rows(monkeypatch):
    """Record how many matrices each Cayley solve and each general solve receives.

    unitary_eigvals_stack's first Cayley solve takes the whole stack; a second
    one is the turned retry of the matrices the first flagged.  Neither ever
    hands a matrix to the general solver.
    """
    seen = {"cayley": [], "eigvals": []}

    def spy(route, real):
        def solve(stack, *gauge):
            seen[route].append(len(stack))
            return real(stack, *gauge)
        return solve

    monkeypatch.setattr(linalg, "_cayley_eigvals", spy("cayley", linalg._cayley_eigvals))
    monkeypatch.setattr(linalg, "_general_eigvals", spy("eigvals", linalg._general_eigvals))
    return seen


def rotate_to_pole(u, delta):
    """Each matrix of u times the phase that puts its first eigenvalue delta from -1."""
    phase = np.angle(np.linalg.eigvals(u)[..., 0])
    return u * np.exp(1j * (np.pi - delta - phase))[..., None, None]


def move_to_one(u, delta):
    """u times the rank-one unitary factor I + (c - 1) v v* that moves the
    eigenvalue of u farthest from -1, with unit eigenvector v, to exp(i delta)."""
    values, vectors = np.linalg.eig(u)
    j = np.argmax(np.abs(values + 1.0), axis=-1)[..., None]
    v = np.take_along_axis(vectors, j[..., None, :], -1)
    v /= np.linalg.norm(v, axis=-2, keepdims=True)
    c = np.exp(1j * (delta - np.angle(np.take_along_axis(values, j, -1))))
    return u + (c[..., None] - 1.0) * (u @ v) @ v.conj().swapaxes(-1, -2)


@st.composite
def kicked_matrix(draw):
    """A ukh or uordkr matrix, optionally turned to put an eigenvalue 0, 1e-8 or
    1e-3 from -1, and optionally with another eigenvalue moved as far from +1."""
    q = draw(st.integers(1, 21))
    p = draw(st.sampled_from([p for p in range(q) if math.gcd(p, q) == 1] or [0]))
    kind = draw(st.sampled_from(["ukh", "uordkr"]))
    kappa, lam = draw(st.floats(-4, 4)), draw(st.floats(-3, 3))
    x, theta = draw(st.floats(0, 1, exclude_max=True)), draw(st.floats(0, 1, exclude_max=True))
    params = OperatorParams(kind, kappa, lam, RationalAlpha(p, q), theta)
    stack = operator_stack(params, [x], [theta])
    pole = draw(st.sampled_from([None, 0.0, 1e-8, 1e-3]))
    if pole is not None:
        stack = rotate_to_pole(stack, pole)
    one = draw(st.sampled_from([None, 0.0, 1e-8, 1e-3]))
    if one is not None and q > 1:
        stack = move_to_one(stack, one)
    return stack


@given(stack=kicked_matrix())
@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_unitary_stack_matches_general_solver(stack, routed_rows):
    values = unitary_eigvals_stack(stack)
    assert np.abs(np.abs(values) - 1.0).max() <= 1e-15
    assert eigvals_dev(values, stack) <= 1e-12
    assert routed_rows["eigvals"] == []  # the fixture is shared by every example


def exact_pole_ukh():
    # q = 1: exp(-i pi/2) squared, the eigenvalue -1 up to the last bit of the
    # imaginary part, so I + U is nearly but not exactly singular.
    params = OperatorParams("ukh", np.pi / 4, 1.0, RationalAlpha(0, 1), 0.0)
    return operator_stack(params, [0.0], [0.0])


def near_pole_q233():
    params = OperatorParams("ukh", 1.0, 1.0, RationalAlpha(144, 233), "mother")
    return rotate_to_pole(operator_stack(params, [0.001], [0.0007]), 1e-8)


def both_poles():
    # Eigenphases 1e-3 from pi and 1e-3 from 0: -U has the first pole's problem.
    u = random_unitary(np.random.default_rng(11), 6)
    return (u * np.exp(1j * np.array([np.pi - 1e-3, 1e-3, 1.0, -1.0, 2.0, -2.0]))) @ u.conj().T


def one_sided():
    # Eigenphases on one half of the circle and 1e-8 from pi: the widest gap is
    # centred near pi / 2, and its mirror image -pi / 2 holds an eigenvalue.
    u = random_unitary(np.random.default_rng(12), 5)
    return (u * np.exp(1j * np.array([np.pi - 1e-8, -np.pi / 2, -1.0, -2.0, 0.0]))) @ u.conj().T


def degenerate_poles_ukh():
    # A corner node with eigenvalues -1, -1, +1, +1: the double pole puts the
    # first solve's phases of +1 at about +-1.6 rad, so their widest gap is
    # centred on +1, and the turn by it puts +1 on the pole.
    params = OperatorParams("ukh", 1.5 * np.pi, 0.5, RationalAlpha(1, 4), "mother")
    return operator_stack(params, [0.0], [0.0])


# Each pole matrix is retried, turned to put its widest eigenphase gap at -1,
# even the one with eigenphases near both -1 and +1; eigvals solves none.
# Where the first solve's phases misplace the gap (at exact-both-poles, -1
# makes I + U exactly singular and the turn by pi puts +1 there; a double
# pole spoils the other phases), the phases folded from U + U* place it.
@pytest.mark.parametrize("make,cayley", [
    (exact_pole_ukh, [1, 1]),
    (near_pole_q233, [1, 1]),
    (lambda: -np.eye(3, dtype=complex)[None], [1, 1]),  # I + U exactly singular
    (lambda: both_poles()[None], [1, 1]),
    (lambda: one_sided()[None], [1, 1]),
    (lambda: np.diag([-1.0, 1.0, -1j])[None], [1, 1, 1]),
    (degenerate_poles_ukh, [1, 1, 1]),
], ids=["exact-pole-ukh", "near-pole-q233", "minus-identity", "both-poles", "one-sided",
        "exact-both-poles", "degenerate-poles-ukh"])
def test_unitary_stack_pole_takes_the_fallback(make, cayley, routed_rows):
    stack = make()
    values = unitary_eigvals_stack(stack)
    assert routed_rows == {"cayley": cayley, "eigvals": []}
    assert eigvals_dev(values, stack) <= 1e-12


def test_unitary_stack_mixed_fallback_equals_per_matrix(routed_rows):
    params = OperatorParams("uordkr", 2.0, 1.5, RationalAlpha(8, 13), "mother")
    rng = np.random.default_rng(7)
    stack = operator_stack(params, rng.uniform(0, 1 / 13, 6), rng.uniform(0, 1 / 13, 6))
    stack[1] = rotate_to_pole(stack[1], 0.0)
    stack[4] = rotate_to_pole(stack[4], 1e-8)
    values = unitary_eigvals_stack(stack)
    assert routed_rows == {"cayley": [6, 2], "eigvals": []}
    for i, u in enumerate(stack):
        assert np.array_equal(values[i], unitary_eigvals_stack(u[None])[0])
    assert eigvals_dev(values, stack) <= 1e-12


@pytest.mark.parametrize("above", [True, False])
def test_the_turned_retry_needs_a_gap_of_2_pi_over_q(above, monkeypatch, routed_rows):
    # The cyclic shift's eigenphases are 2 pi / 13 apart, so turned to put the
    # centre of a gap at -1 its largest |w| is cot(pi / 26).  Turned first to
    # put an eigenvalue 1e-8 from -1, it is flagged and retried; below the
    # bound the folded phases' retry finds no wider gap, and it raises.
    c, _ = clock_shift(13)
    stack = c[None] * np.exp(1j * (np.pi - 1e-8))
    limit = 1.0 / np.tan(np.pi / 26)
    monkeypatch.setattr(linalg, "_CAYLEY_LIMIT", limit + (1e-6 if above else -1e-6))
    if above:
        assert eigvals_dev(unitary_eigvals_stack(stack), stack) <= 1e-12
    else:
        with pytest.raises(NumericalError, match="unitary eigenvalues off the circle"):
            unitary_eigvals_stack(stack)
    assert routed_rows == {"cayley": [1, 1] if above else [1, 1, 1], "eigvals": []}


@pytest.mark.parametrize("bad", [
    2.0 * np.eye(3),
    np.diag([1.0, 1.0 + 1e-6]),
])
def test_unitary_stack_rejects_non_unitary(bad):
    rng = np.random.default_rng(3)
    stack = np.stack([random_unitary(rng, bad.shape[0]), bad, random_unitary(rng, bad.shape[0])])
    with pytest.raises(NumericalError, match="unitary eigenvalues off the circle"):
        unitary_eigvals_stack(stack)


# -- the real route: a gauge G with conj(G) U G complex symmetric -------------------


def symmetric_unitary(rng, n, phases=None):
    """O diag(exp(i phases)) O^T with O real orthogonal: a complex symmetric unitary."""
    o, _ = np.linalg.qr(rng.normal(size=(n, n)))
    phases = rng.uniform(-np.pi, np.pi, n) if phases is None else np.asarray(phases)
    return (o * np.exp(1j * phases)) @ o.T


def gauged(w, rng):
    """(G w conj(G), G) for random phases G: the stack the gauge G takes back to w."""
    g = np.exp(1j * rng.uniform(-np.pi, np.pi, w.shape[:-1]))
    return g[..., :, None] * w * g.conj()[..., None, :], g


@pytest.fixture
def real_rows(monkeypatch):
    """Record the matrices of each eigvalsh call that the real route makes and of each complex one."""
    seen = {"real": [], "complex": []}
    real = linalg.eigvalsh_stack

    def spy(stack):
        seen["complex" if np.iscomplexobj(stack) else "real"].append(len(stack))
        return real(stack)

    monkeypatch.setattr(linalg, "eigvalsh_stack", spy)
    return seen


def exact_pole_ukh_gauged():
    params = OperatorParams("ukh", np.pi / 4, 1.0, RationalAlpha(0, 1), 0.0)
    return operator_stack(params, [0.0], [0.0]), _reversal_gauge(params, [0.0], 0)


def near_pole_q233_gauged():
    # theta = 0 is on the time-reversal line at any x.
    params = OperatorParams("ukh", 1.0, 1.0, RationalAlpha(144, 233), 0.0)
    stack = rotate_to_pole(operator_stack(params, [0.001], [0.0]), 1e-8)
    return stack, _reversal_gauge(params, [0.001], 0)


def both_poles_gauged():
    rng = np.random.default_rng(11)
    w = symmetric_unitary(rng, 6, [np.pi - 1e-3, 1e-3, 1.0, -1.0, 2.0, -2.0])
    return gauged(w[None], rng)


# The pole cases of the complex route, each with its gauge: the same retries, and
# every turned Cayley solve real.  At minus-identity and exact-both-poles, I + U
# is exactly singular, and the first solve has no matrix for eigvalsh; so is
# I + X at exact-pole-ukh, whose U is -1 up to the last bit of its imaginary
# part, and at exact-both-poles' first turn, by a phase pi that leaves -1 on the
# diagonal; the complex solve of exact-both-poles is of (U + U*)/2, for its
# folded phases.  At near-pole-q233 the first solve's real K, a pole 1e-8 away,
# passes its certificate and is flagged by |w| alone.
@pytest.mark.parametrize("make,cayley,real,complex_", [
    (exact_pole_ukh_gauged, [1, 1], [1], []),
    (near_pole_q233_gauged, [1, 1], [1, 1], []),
    (lambda: (-np.eye(3, dtype=complex)[None], np.ones((1, 3), complex)), [1, 1], [1], []),
    (both_poles_gauged, [1, 1], [1, 1], []),
    (lambda: (np.diag([-1.0, 1.0, -1j])[None], np.ones((1, 3), complex)), [1, 1, 1], [1], [1]),
], ids=["exact-pole-ukh", "near-pole-q233", "minus-identity", "both-poles", "exact-both-poles"])
def test_the_real_route_takes_the_same_fallbacks(make, cayley, real, complex_, routed_rows, real_rows):
    stack, gauge = make()
    values = unitary_eigvals_stack(stack, gauge)
    assert routed_rows == {"cayley": cayley, "eigvals": []}
    assert real_rows == {"real": real, "complex": complex_}
    assert eigvals_dev(values, stack) <= 1e-12


def test_the_real_route_matches_the_complex_route(real_rows):
    rng = np.random.default_rng(5)
    w = np.stack([symmetric_unitary(rng, 9) for _ in range(5)])
    stack, gauge = gauged(w, rng)
    values = unitary_eigvals_stack(stack, gauge)
    assert real_rows == {"real": [5], "complex": []}
    complex_values = unitary_eigvals_stack(stack)
    for a, b in zip(values, complex_values):
        assert set_distance(a, b) <= 1e-13
    assert eigvals_dev(values, stack) <= 1e-12


def test_a_gauge_that_leaves_k_complex_is_solved_complex(real_rows):
    # Row 1's gauge is off by a random phase per entry: its gauged K is not real.
    rng = np.random.default_rng(6)
    stack, gauge = gauged(np.stack([symmetric_unitary(rng, 7) for _ in range(3)]), rng)
    gauge[1] *= np.exp(1j * rng.uniform(-np.pi, np.pi, 7))
    values = unitary_eigvals_stack(stack, gauge)
    assert real_rows == {"real": [2], "complex": [1]}
    assert eigvals_dev(values, stack) <= 1e-12


@pytest.mark.parametrize("bad", [
    2.0 * np.eye(3),
    np.diag([1.0, 1.0 + 1e-6]),
])
def test_the_real_route_rejects_non_unitary(bad):
    # Both inputs are real diagonal, so symmetric under any diagonal gauge.
    rng = np.random.default_rng(3)
    n = bad.shape[0]
    stack, gauge = gauged(np.stack([symmetric_unitary(rng, n), bad, symmetric_unitary(rng, n)]), rng)
    with pytest.raises(NumericalError, match="unitary eigenvalues off the circle"):
        unitary_eigvals_stack(stack, gauge)


@pytest.mark.parametrize("name,solve,message", [
    ("eigvalsh", eigvalsh_stack, "Hermitian eigensolver failed"),
    ("eigh", lambda stack: expm_i_hermitian_stack(stack, 1.0), "Hermitian eigensolver failed"),
    ("eigvals", linalg._general_eigvals, "general eigensolver failed"),
])
def test_a_lapack_failure_is_a_numerical_error(name, solve, message, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("did not converge")

    monkeypatch.setattr(np.linalg, name, fail)
    with pytest.raises(NumericalError, match=f"{message}: did not converge"):
        solve(np.eye(2, dtype=complex)[None])


# -- the BLAS thread rule ------------------------------------------------------------------


def test_a_call_below_the_floor_runs_on_one_blas_thread(blas):
    _, get_threads = blas
    seen = []

    def solver(stack, *args):
        seen.append((stack.shape[-1], args, get_threads()))
        return "values"

    stack = np.zeros((3, 127, 127))
    assert linalg._one_thread_below(128, solver, stack, "gauge") == "values"
    assert seen == [(127, ("gauge",), 1)]
    assert get_threads() == 2


def test_the_callers_thread_count_is_back_after_a_numerical_error(blas):
    _, get_threads = blas

    def fail(stack):
        assert get_threads() == 1
        raise NumericalError("injected")

    with pytest.raises(NumericalError, match="injected"):
        linalg._one_thread_below(128, fail, np.zeros((1, 5, 5)))
    assert get_threads() == 2


def test_a_call_at_or_above_the_floor_leaves_the_thread_count(blas):
    _, get_threads = blas
    seen = []
    for n in (128, 129, 233):
        linalg._one_thread_below(128, lambda stack: seen.append(get_threads()),
                                 np.zeros((1, n, n)))
    assert seen == [2, 2, 2]
    assert get_threads() == 2


def test_nested_and_concurrent_calls_restore_the_count_once(blas):
    import threading

    _, get_threads = blas
    inner_done, outer_may_end = threading.Event(), threading.Event()
    seen = []

    def inner(stack):
        seen.append(("inner", get_threads()))
        return "inner"

    def outer(stack):
        seen.append(("outer", get_threads()))
        assert linalg._one_thread_below(8, inner, stack) == "inner"  # nested: still 1 after it
        seen.append(("nested", get_threads()))
        inner_done.set()
        assert outer_may_end.wait(10)
        return "outer"

    result = []
    worker = threading.Thread(target=lambda: result.append(
        linalg._one_thread_below(8, outer, np.zeros((1, 4, 4)))))
    worker.start()
    assert inner_done.wait(10)
    # A second caller enters and leaves while the first is still inside: the count stays 1.
    linalg._one_thread_below(8, inner, np.zeros((1, 4, 4)))
    seen.append(("concurrent", get_threads()))
    outer_may_end.set()
    worker.join(10)
    assert result == ["outer"]
    assert seen == [("outer", 1), ("inner", 1), ("nested", 1), ("inner", 1), ("concurrent", 1)]
    assert get_threads() == 2 and linalg._blas_depth == 0


def test_many_threads_entering_at_once_never_see_the_default_inside_nor_leave_one_after(blas):
    import threading
    import time

    _, get_threads = blas
    inside, errors = [], []

    def solver(stack):
        time.sleep(1e-4)  # let the other workers enter and leave meanwhile
        inside.append(get_threads())
        return stack

    def worker():
        try:
            for _ in range(50):
                linalg._one_thread_below(8, solver, np.zeros((1, 4, 4)))
        except Exception as exc:  # a worker's failure is read after the join
            errors.append(exc)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(30)
    finally:
        sys.setswitchinterval(switch)
    assert not any(w.is_alive() for w in workers) and errors == []
    assert len(inside) == 400 and set(inside) == {1}
    assert get_threads() == 2 and linalg._blas_depth == 0


def test_without_openblas_the_rule_runs_the_solver_as_is(monkeypatch):
    # Another BLAS, or none found: the lookup gives (), and every call is the solver's own.
    monkeypatch.setattr(linalg, "_blas", ())
    stack = np.zeros((2, 3, 3))
    assert linalg._one_thread_below(128, lambda s, g: (s, g), stack, 7) == (stack, 7)
    assert linalg._blas_depth == 0
