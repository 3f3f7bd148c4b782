"""Loss/gradient/Hessian oracles and the Newton solver."""

import math

import numpy as np
import pytest

import kvcachelab.regression as regression
from kvcachelab.errors import InvalidSpec, NonFinite
from kvcachelab.regression import (
    RegressionProblem,
    _exp_z,
    _fit_curvature,
    _softmax_parts,
    gradient,
    hessian,
    loss,
    newton_solve,
    random_problem,
)
from kvcachelab.submodular import SubmodularInstance


def _problem(n=5, d=3, seed=0, sparse_weight=1.0, w_scale=1.0, radius=0.8):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    a *= radius / np.linalg.norm(a, 2)
    b = rng.random(n)
    b *= 0.9 / b.sum()
    w = w_scale * rng.uniform(0.5, 1.5, n)
    return RegressionProblem(a=a, b=b, w=w, radius=radius, sparse_weight=sparse_weight)


def naive_terms(problem, x):
    """Direct, unstabilized reimplementation of the three loss terms."""
    u = np.exp(problem.a @ x)
    alpha = u.sum()
    f = u / alpha
    fit = 0.5 * np.sum((f - problem.b) ** 2)
    ridge = 0.5 * np.sum((np.diag(problem.w) @ problem.a @ x) ** 2)
    return fit, alpha, ridge


# The Hessian's three terms built one at a time: the term-by-term reference
# that `hessian`, which sums them in one curvature matrix, is checked against.

def hessian_fit(problem, x):
    f, _, _ = _softmax_parts(problem, x)
    h = problem.a.T @ _fit_curvature(f, problem.b) @ problem.a
    return 0.5 * (h + h.T)


def hessian_sparse(problem, x):
    f, log_alpha, _ = _softmax_parts(problem, x)
    return problem.a.T @ np.diag(_exp_z(problem, log_alpha, f)) @ problem.a


def hessian_ridge(problem):
    return problem.a.T @ np.diag(problem.w**2) @ problem.a


# --- loss ------------------------------------------------------------------------

def test_loss_at_zero():
    p = _problem(n=6, d=3, seed=2)
    out = loss(p, np.zeros(3))
    expected_fit = 0.5 * np.sum((np.full(6, 1.0 / 6.0) - p.b) ** 2)
    assert out.fit == pytest.approx(expected_fit, rel=1e-12)
    assert out.sparse == pytest.approx(6.0, rel=1e-12)
    assert out.ridge == 0.0
    assert out.total == pytest.approx(out.fit + out.sparse + out.ridge, rel=1e-12)


def test_loss_zero_fit_when_target_matches():
    p0 = _problem(n=5, d=3, seed=4)
    x = np.array([0.1, -0.2, 0.05])
    u = np.exp(p0.a @ x)
    b = u / u.sum()
    p = RegressionProblem(a=p0.a, b=b, w=p0.w, radius=p0.radius)
    assert loss(p, x).fit == pytest.approx(0.0, abs=1e-15)


def test_loss_matches_naive_reimplementation():
    rng = np.random.default_rng(8)
    for seed in range(20):
        p = _problem(n=5, d=3, seed=seed, sparse_weight=float(rng.uniform(0.0, 3.0)))
        x = rng.standard_normal(3) * 0.5
        fit, alpha, ridge = naive_terms(p, x)
        out = loss(p, x)
        assert out.fit == pytest.approx(fit, rel=1e-12)
        assert out.sparse == pytest.approx(alpha, rel=1e-12)
        assert out.ridge == pytest.approx(ridge, rel=1e-12)
        assert out.total == pytest.approx(fit + p.sparse_weight * alpha + ridge, rel=1e-12)


def test_loss_overflow_reports_nonfinite():
    p = _problem()
    with pytest.raises(NonFinite):
        loss(p, np.full(3, 1e5))
    with pytest.raises(NonFinite):
        gradient(p, np.full(3, 1e5))


def test_problem_validation():
    a = np.eye(3)
    with pytest.raises(InvalidSpec):
        RegressionProblem(a=a, b=np.array([0.5, 0.6, 0.2]), w=np.ones(3))  # ||b||_1 > 1
    with pytest.raises(InvalidSpec):
        RegressionProblem(a=a, b=np.array([-0.1, 0.2, 0.2]), w=np.ones(3))
    with pytest.raises(InvalidSpec):
        RegressionProblem(a=a, b=np.full(3, 0.2), w=np.zeros(3))
    with pytest.raises(InvalidSpec):
        RegressionProblem(a=a, b=np.full(3, 0.2), w=np.ones(3), radius=0.5)  # ||A|| = 1
    for shape in ((0, 0), (3, 0)):  # no rows or no columns: sigma_min(A) does not exist
        with pytest.raises(InvalidSpec):
            RegressionProblem(a=np.zeros(shape), b=np.full(shape[0], 0.2), w=np.ones(shape[0]))
    with pytest.raises(InvalidSpec):  # 2**63 bytes of A: more than numpy can index
        random_problem(n=2**59, d=2)


_EYE, _B, _W = np.eye(3), np.full(3, 0.2), np.ones(3)


# each lab entry point's rejection of bad input, one case per raise
@pytest.mark.parametrize("call, error, message", [
    (lambda: RegressionProblem(a=_EYE, b=_B[:2], w=_W), InvalidSpec, "length-n"),
    (lambda: RegressionProblem(a=_EYE, b=_B, w=_W[:2]), InvalidSpec, "length-n"),
    (lambda: RegressionProblem(a=np.diag([1.0, np.nan, 1.0]), b=_B, w=_W), InvalidSpec, "finite"),
    (lambda: RegressionProblem(a=_EYE, b=_B, w=np.array([1.0, np.inf, 1.0])), InvalidSpec, "finite"),
    (lambda: RegressionProblem(a=_EYE, b=_B, w=_W, pd_slack=0.0), InvalidSpec, "pd_slack"),
    (lambda: RegressionProblem(a=_EYE, b=_B, w=_W, sparse_weight=-1.0), InvalidSpec, "sparse_weight"),
    (lambda: loss(_problem(), np.zeros(2)), InvalidSpec, "shape"),
    (lambda: gradient(_problem(), np.zeros((3, 1))), InvalidSpec, "shape"),
    (lambda: loss(_problem(), np.array([0.0, np.nan, 0.0])), NonFinite, "non-finite"),
    (lambda: gradient(_problem(), np.array([0.0, np.inf, 0.0])), NonFinite, "non-finite"),
    (lambda: newton_solve(_problem(), x0=np.zeros(4)), InvalidSpec, "x0"),
    (lambda: random_problem(n=4, d=2, regime="medium"), InvalidSpec, "regime"),
    (lambda: SubmodularInstance(0, lambda s: 0.0), InvalidSpec, "non-empty"),
    (lambda: SubmodularInstance.modular([1.0, 2.0]).value({0}), InvalidSpec, "within"),
    (lambda: SubmodularInstance.modular([1.0, 2.0]).value({1, 3}), InvalidSpec, "within"),
    (lambda: SubmodularInstance.modular([1.0, -2.0]), InvalidSpec, "non-negative"),
    (lambda: SubmodularInstance.budget_additive([1.0, -2.0], cap=1.0), InvalidSpec, "non-negative"),
    (lambda: SubmodularInstance.budget_additive([1.0, 2.0], cap=-1.0), InvalidSpec, "non-negative"),
], ids=["b-length", "w-length", "nan-a", "inf-w", "pd-slack", "sparse-weight", "loss-x-shape",
        "gradient-x-shape", "loss-nan-x", "gradient-inf-x", "x0-shape", "regime", "empty-ground-set",
        "subset-below-1", "subset-above-n", "negative-weight", "negative-budget-weight", "negative-cap"])
def test_lab_rejects_bad_input(call, error, message):
    with pytest.raises(error, match=message):
        call()


# --- derivatives against finite differences ------------------------------------------

def _fd_gradient(p, x, h=1e-5):
    g = np.zeros_like(x)
    for j in range(len(x)):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (loss(p, x + e).total - loss(p, x - e).total) / (2 * h)
    return g


def _fd_hessian(p, x, h=1e-5):
    d = len(x)
    out = np.zeros((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        out[:, j] = (gradient(p, x + e) - gradient(p, x - e)) / (2 * h)
    return 0.5 * (out + out.T)


def test_zero_matrix_has_zero_gradient():
    p = RegressionProblem(
        a=np.zeros((4, 2)), b=np.full(4, 0.25), w=np.ones(4), radius=1.0
    )
    np.testing.assert_array_equal(gradient(p, np.array([0.3, -0.7])), np.zeros(2))


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    for trial in range(50):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 7))
        p = _problem(
            n=n, d=d, seed=trial,
            sparse_weight=float(rng.choice([0.0, 1.0, 2.5])),
            w_scale=float(rng.choice([0.7, 3.0])),
        )
        x = rng.standard_normal(d) * 0.4
        g = gradient(p, x)
        fd = _fd_gradient(p, x)
        assert np.linalg.norm(g - fd) <= 1e-5 * max(1.0, np.linalg.norm(g))


def test_hessian_matches_gradient_finite_differences():
    rng = np.random.default_rng(5)
    for trial in range(30):
        n = int(rng.integers(3, 13))
        d = int(rng.integers(2, 7))
        p = _problem(
            n=n, d=d, seed=100 + trial,
            sparse_weight=float(rng.choice([0.0, 1.0, 2.5])),
            w_scale=float(rng.choice([0.7, 3.0])),
        )
        x = rng.standard_normal(d) * 0.4
        h = hessian(p, x)
        fd = _fd_hessian(p, x)
        assert np.linalg.norm(h - fd) <= 1e-4 * max(1.0, np.linalg.norm(h))


def test_hessian_terms_sum_and_sparse_formula():
    p = _problem(n=6, d=4, seed=9, sparse_weight=1.0)
    x = np.array([0.2, -0.1, 0.4, 0.0])
    total = hessian_fit(p, x) + p.sparse_weight * hessian_sparse(p, x) + hessian_ridge(p)
    np.testing.assert_allclose(hessian(p, x), 0.5 * (total + total.T), atol=1e-12)
    u = np.exp(p.a @ x)
    np.testing.assert_allclose(hessian_sparse(p, x), p.a.T @ np.diag(u) @ p.a, rtol=1e-12)


def test_hessian_symmetry():
    p = _problem(n=8, d=5, seed=13)
    x = np.full(5, 0.1)
    h = hessian(p, x)
    assert np.abs(h - h.T).max() <= 1e-12


# --- positive definiteness -------------------------------------------------------------

@pytest.mark.parametrize("regime", ["strong", "weak"])
def test_pd_floor_under_weight_condition(regime):
    rng = np.random.default_rng(17)
    for seed in range(10):
        p = random_problem(n=8, d=4, seed=seed, regime=regime, pd_slack=1.0)
        assert (p.w**2 >= p.ridge_floor(strong=(regime == "strong")) - 1e-12).all()
        x = rng.standard_normal(4)
        x *= min(1.0, p.radius / np.linalg.norm(x))
        min_eig = float(np.linalg.eigvalsh(hessian(p, x))[0])
        assert min_eig >= p.pd_slack * (1.0 - 1e-6)


# --- Lipschitz envelope -----------------------------------------------------------------
#
# On the ball ||x|| <= R the Hessian is Lipschitz in the spectral norm with
# constant at most n^2 exp(40 R^2).

def _lipschitz_ratio(p, x, y):
    return np.linalg.norm(hessian(p, x) - hessian(p, y), 2) / np.linalg.norm(x - y)


def _lipschitz_envelope(p):
    return p.n**2 * np.exp(40.0 * p.radius**2)


def test_lipschitz_small_perturbation():
    p = random_problem(n=6, d=3, seed=2, regime="weak")
    x = np.full(3, 0.1)
    assert _lipschitz_ratio(p, x, x + 1e-6) < _lipschitz_envelope(p) / 1e3


def test_lipschitz_random_pairs_no_violation():
    rng = np.random.default_rng(23)
    for seed in range(100):
        p = random_problem(n=6, d=3, seed=seed, regime="weak")
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        for v in (x, y):
            v *= rng.uniform(0.1, 0.9) * p.radius / np.linalg.norm(v)
        if np.allclose(x, y):
            continue
        assert _lipschitz_ratio(p, x, y) <= _lipschitz_envelope(p)


def test_lipschitz_zero_matrix():
    p = RegressionProblem(a=np.zeros((3, 2)), b=np.full(3, 0.3), w=np.ones(3), radius=1.0)
    assert _lipschitz_ratio(p, np.array([0.1, 0.0]), np.array([0.0, 0.1])) == 0.0


# --- Newton solver ----------------------------------------------------------------------

def test_start_at_optimum_stops_immediately():
    p = random_problem(n=8, d=4, seed=1, regime="strong")
    first = newton_solve(p, tol=1e-12)
    again = newton_solve(p, x0=first.x, tol=1e-10)
    assert again.iterations <= 1


def test_solution_unique_across_starts():
    p = random_problem(n=8, d=4, seed=5, regime="strong")
    a = newton_solve(p, x0=np.zeros(4), tol=1e-12)
    b = newton_solve(p, x0=np.full(4, 0.2), tol=1e-12)
    assert np.linalg.norm(a.x - b.x) <= 1e-8
    assert a.states[-1].grad_norm <= 1e-12  # fixed point really is stationary


def test_convergence_within_budget_strong_regime():
    for seed in range(10):
        p = random_problem(n=9, d=4, seed=seed, regime="strong")
        r = newton_solve(p, tol=1e-10, max_iter=30)
        assert r.converged and r.iterations <= 30
        assert r.states[-1].min_eig >= p.pd_slack * (1 - 1e-6)
        norms = [s.grad_norm for s in r.states]
        assert (np.diff(norms) < 0).all()  # strictly decreasing


def test_quadratic_tail():
    # frozen instance that needs several steps: far start, wider radius
    p = random_problem(n=10, d=4, seed=0, regime="weak", radius=2.0)
    x0 = np.full(4, 0.7)
    x0 *= 0.95 * p.radius / np.linalg.norm(x0)
    r = newton_solve(p, x0=x0, tol=1e-10, max_iter=60)
    norms = [s.grad_norm for s in r.states if s.grad_norm > 0]
    assert r.iterations >= 4
    tail = norms[-4:]
    for gt, gnext in zip(tail, tail[1:]):
        if 1e-7 < gt < 0.1:  # above the float cancellation floor
            assert gnext <= gt**1.5  # at-least-quadratic contraction


@pytest.mark.parametrize("seed", range(3))
def test_newton_evaluates_gradient_and_hessian_once_per_iterate(monkeypatch, seed):
    calls = {"gradient": 0, "hessian": 0}
    for name in calls:
        oracle = getattr(regression, name)

        def counted(problem, x, oracle=oracle, name=name):
            calls[name] += 1
            return oracle(problem, x)

        monkeypatch.setattr(regression, name, counted)
    r = newton_solve(random_problem(n=10, d=4, seed=seed), tol=1e-10)
    assert r.converged and r.iterations >= 2
    assert calls == {"gradient": r.iterations + 1, "hessian": r.iterations + 1}


def test_rank_deficient_problem_takes_the_damped_solve(monkeypatch):
    # a zero last column makes A, and so every Hessian, singular
    full = random_problem(n=8, d=3, seed=1)
    p = RegressionProblem(a=np.insert(full.a, 3, 0.0, axis=1), b=full.b, w=full.w, radius=full.radius)
    assert p.sigma_min() == 0.0 and p.ridge_floor() == math.inf
    solve, singular = np.linalg.solve, []

    def spy(h, rhs):
        try:
            return solve(h, rhs)
        except np.linalg.LinAlgError:
            singular.append(h)
            raise

    monkeypatch.setattr(np.linalg, "solve", spy)
    r = newton_solve(p, tol=1e-10)
    assert r.converged and singular
    # the zero column's coordinate never moves; the rest is the full-rank optimum
    assert r.x[3] == 0.0
    np.testing.assert_allclose(r.x[:3], newton_solve(full, tol=1e-12).x, atol=1e-9)


@pytest.mark.parametrize("at", [0, 1, 3])
def test_a_zero_column_anywhere_gives_an_infinite_ridge_floor(at):
    # the SVD of A with a zero column at index 1 gives sigma_min 2.75e-17, not 0.0
    full = random_problem(n=8, d=3, seed=1)
    p = RegressionProblem(a=np.insert(full.a, at, 0.0, axis=1), b=full.b, w=full.w, radius=full.radius)
    assert p.ridge_floor() == p.ridge_floor(strong=False) == math.inf


def test_iteration_cap_returns_the_unconverged_trajectory():
    p = random_problem(n=8, d=4, seed=3, regime="strong")
    r = newton_solve(p, x0=np.full(4, 0.3), tol=1e-10, max_iter=0)
    assert not r.converged
    assert len(r.states) == 1 and r.iterations == 0
    assert np.array_equal(r.x, np.full(4, 0.3))


def test_sparsity_pressure_is_monotone():
    # stronger exponential-mass penalty never increases alpha at the optimum
    alphas = []
    for lam in (0.25, 1.0, 4.0):
        p = random_problem(n=8, d=4, seed=11, regime="weak", sparse_weight=lam)
        r = newton_solve(p, tol=1e-12)
        alphas.append(loss(p, r.x).sparse)
    assert alphas[0] >= alphas[1] - 1e-9
    assert alphas[1] >= alphas[2] - 1e-9
