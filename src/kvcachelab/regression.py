"""Penalized softmax regression with exact derivatives and a Newton solver.

The model fits a softmax distribution to a target: with u(x) = exp(Ax),
normalizer mass alpha(x) = <u(x), 1> and prediction f(x) = u(x)/alpha(x),
the objective is

    L(x) = 0.5 * ||f(x) - b||^2            (fit)
         + lambda * ||exp(Ax)||_1          (sparsity pressure: equals alpha)
         + 0.5 * ||diag(w) A x||^2         (weighted ridge)

The exponential-mass penalty pushes alpha down, i.e. toward peaked
predictions; its multiplier ``sparse_weight`` (lambda, default 1) exists so
that pressure is testable. The gradient and Hessian are assembled term by
term (fit, sparsity, ridge), and every evaluation stabilizes the softmax by
shifting logits with their maximum. The sparsity term itself is genuinely
exponential in scale: it is computed through log-sum-exp and an overflow
past float64 range raises ``NonFinite`` instead of returning inf.

The Hessian is positive definite once the ridge weights clear the
curvature the fit term can shed: with spectral bound ||A|| <= R,

    w_i^2 >= 20 + l / sigma_min(A)^2            keeps  H >= l * I
    w_i^2 >= 200 * exp(R^2) + l / sigma_min(A)^2 additionally pins the ridge
                                                  within 10% of the whole
                                                  curvature (the solver
                                                  precondition used here).

In that regime plain Newton steps on the exact Hessian converge
quadratically; a ridge-damped solve (H + 1e-8 * trace/d * I) is the
fallback when the linear solve reports a singular system.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidSpec, MaxIterationsExceeded, NonFinite

_LOG_MAX = math.log(np.finfo(np.float64).max)  # ~709.78


@dataclass(frozen=True)
class RegressionProblem:
    """Data (A, b, w) plus the PD bookkeeping constants.

    Requirements: b >= 0 with ||b||_1 <= 1, w > 0, l > 0, and the spectral
    norm of A within ``radius`` (R). ``sparse_weight`` scales the
    exponential-mass penalty.
    """

    a: np.ndarray
    b: np.ndarray
    w: np.ndarray
    pd_slack: float = 1.0
    radius: float | None = None
    sparse_weight: float = 1.0

    def __post_init__(self):
        a = np.asarray(self.a, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        w = np.asarray(self.w, dtype=np.float64)
        if a.ndim != 2 or a.size == 0:
            raise InvalidSpec("A must be a 2-D matrix with at least one row and one column")
        n, d = a.shape
        if b.shape != (n,) or w.shape != (n,):
            raise InvalidSpec("b and w must be length-n vectors")
        if not (np.isfinite(a).all() and np.isfinite(b).all() and np.isfinite(w).all()):
            raise InvalidSpec("problem data must be finite")
        if (b < 0).any() or b.sum() > 1.0 + 1e-12:
            raise InvalidSpec("need b >= 0 entrywise and ||b||_1 <= 1")
        if (w <= 0).any():
            raise InvalidSpec("weights w must be strictly positive")
        if self.pd_slack <= 0:
            raise InvalidSpec("pd_slack (l) must be > 0")
        if self.sparse_weight < 0:
            raise InvalidSpec("sparse_weight must be >= 0")
        spectral = float(np.linalg.norm(a, 2))
        radius = self.radius if self.radius is not None else spectral
        if spectral > radius + 1e-9:
            raise InvalidSpec(f"||A|| = {spectral:.4g} exceeds the stated radius {radius}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "radius", float(radius))

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @property
    def d(self) -> int:
        return self.a.shape[1]

    def sigma_min(self) -> float:
        return float(np.linalg.svd(self.a, compute_uv=False)[-1])

    def ridge_floor(self, strong: bool = True) -> float:
        """Per-entry w_i^2 needed for the PD guarantee (strong: solver regime)."""
        sigma = self.sigma_min()
        if sigma == 0.0:
            return math.inf
        lead = 200.0 * math.exp(self.radius**2) if strong else 20.0
        return lead + self.pd_slack / sigma**2

    def meets_pd_condition(self, strong: bool = True) -> bool:
        return bool((self.w**2 >= self.ridge_floor(strong) - 1e-12).all())


def _softmax_parts(problem: RegressionProblem, x: np.ndarray) -> tuple[np.ndarray, float, np.ndarray]:
    """(shifted exponentials are internal) -> f(x), log alpha(x), z = Ax."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (problem.d,):
        raise InvalidSpec(f"x must have shape ({problem.d},)")
    if not np.isfinite(x).all():
        raise NonFinite("x contains non-finite entries")
    z = problem.a @ x
    shift = float(z.max())
    expz = np.exp(z - shift)
    total = float(expz.sum())
    log_alpha = shift + math.log(total)
    return expz / total, log_alpha, z


@dataclass(frozen=True)
class LossBreakdown:
    fit: float
    sparse: float
    ridge: float
    total: float


def loss(problem: RegressionProblem, x: np.ndarray) -> LossBreakdown:
    """All three loss terms; ``total`` applies the sparse multiplier."""
    f, log_alpha, z = _softmax_parts(problem, x)
    if log_alpha > _LOG_MAX:
        raise NonFinite(f"alpha(x) overflows float64 (log alpha = {log_alpha:.3g})")
    fit = 0.5 * float(np.sum((f - problem.b) ** 2))
    sparse = math.exp(log_alpha)
    ridge = 0.5 * float(np.sum((problem.w * z) ** 2))
    return LossBreakdown(
        fit=fit,
        sparse=sparse,
        ridge=ridge,
        total=fit + problem.sparse_weight * sparse + ridge,
    )


def _exp_z(problem: RegressionProblem, log_alpha: float, f: np.ndarray) -> np.ndarray:
    """u(x) = alpha * f, guarded against float64 overflow."""
    if log_alpha > _LOG_MAX:
        raise NonFinite("exp(Ax) overflows float64")
    return math.exp(log_alpha) * f


def gradient(problem: RegressionProblem, x: np.ndarray) -> np.ndarray:
    """Exact gradient of the total loss.

    Fit term: the softmax Jacobian is diag(f) - f f^T, so the chain rule
    gives A^T (f o c - <c, f> f) with residual c = f - b.
    """
    f, log_alpha, z = _softmax_parts(problem, x)
    c = f - problem.b
    grad_fit = problem.a.T @ (f * c - np.dot(c, f) * f)
    grad_sparse = problem.a.T @ _exp_z(problem, log_alpha, f)
    grad_ridge = problem.a.T @ (problem.w**2 * z)
    return grad_fit + problem.sparse_weight * grad_sparse + grad_ridge


def _fit_curvature(f: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Curvature of the fit term in logit space.

    Gauss-Newton part M @ M with M = diag(f) - f f^T, plus the residual
    part sum_m c_m * (d^2 f_m / dz^2), written out in rank-one pieces.
    """
    c = f - b
    fc = f * c
    ff = f * f
    cf = float(np.dot(c, f))
    gauss = np.diag(ff) - np.outer(ff, f) - np.outer(f, ff) + float(np.dot(f, f)) * np.outer(f, f)
    residual = (
        np.diag(fc)
        - np.outer(fc, f)
        - np.outer(f, fc)
        + 2.0 * cf * np.outer(f, f)
        - cf * np.diag(f)
    )
    return gauss + residual


def hessian(problem: RegressionProblem, x: np.ndarray) -> np.ndarray:
    """Exact Hessian A^T (B_fit + lambda * diag(u) + diag(w^2)) A, symmetrized."""
    f, log_alpha, _ = _softmax_parts(problem, x)
    curvature = _fit_curvature(f, problem.b)
    curvature = curvature + problem.sparse_weight * np.diag(_exp_z(problem, log_alpha, f))
    curvature = curvature + np.diag(problem.w**2)
    h = problem.a.T @ curvature @ problem.a
    return 0.5 * (h + h.T)


@dataclass(frozen=True)
class LipschitzCheck:
    measured_ratio: float
    bound: float
    ok: bool


def check_hessian_lipschitz(problem: RegressionProblem, x: np.ndarray, y: np.ndarray) -> LipschitzCheck:
    """Spectral-norm Hessian variation against the n^2 exp(40 R^2) envelope."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    gap = float(np.linalg.norm(x - y))
    if gap == 0.0:
        raise InvalidSpec("x and y must differ")
    r = problem.radius
    for name, v in (("x", x), ("y", y)):
        if float(np.linalg.norm(v)) > r + 1e-9:
            raise InvalidSpec(f"{name} lies outside the radius ||.||_2 <= {r}")
    measured = float(np.linalg.norm(hessian(problem, x) - hessian(problem, y), 2)) / gap
    log_bound = 2.0 * math.log(problem.n) + 40.0 * r * r
    bound = math.inf if log_bound > _LOG_MAX else math.exp(log_bound)
    return LipschitzCheck(measured_ratio=measured, bound=bound, ok=measured <= bound)


@dataclass(frozen=True)
class SolverState:
    iteration: int
    x: np.ndarray
    grad_norm: float
    loss: float
    min_eig: float
    ridge_damped: bool = False


@dataclass(frozen=True)
class NewtonResult:
    states: tuple[SolverState, ...]
    converged: bool

    @property
    def x(self) -> np.ndarray:
        return self.states[-1].x

    @property
    def iterations(self) -> int:
        return len(self.states) - 1

    @property
    def grad_norms(self) -> np.ndarray:
        return np.array([s.grad_norm for s in self.states])


def _state(problem, x, g, h, iteration, damped=False) -> SolverState:
    return SolverState(
        iteration=iteration,
        x=x.copy(),
        grad_norm=float(np.linalg.norm(g)),
        loss=loss(problem, x).total,
        min_eig=float(np.linalg.eigvalsh(h)[0]),
        ridge_damped=damped,
    )


def newton_solve(
    problem: RegressionProblem,
    x0: np.ndarray | None = None,
    tol: float = 1e-10,
    max_iter: int = 30,
) -> NewtonResult:
    """Newton iteration on the exact Hessian until the gradient is tiny.

    Returns the full trajectory (state 0 is the starting point). Raises
    :class:`MaxIterationsExceeded` — with the partial trajectory attached —
    if ``max_iter`` steps do not reach ``tol``. A singular Hessian solve
    falls back to a ridge-damped system and flags the state.
    """
    x = np.zeros(problem.d) if x0 is None else np.asarray(x0, dtype=np.float64).copy()
    if x.shape != (problem.d,):
        raise InvalidSpec(f"x0 must have shape ({problem.d},)")
    g, h = gradient(problem, x), hessian(problem, x)
    states = [_state(problem, x, g, h, 0)]
    if states[0].grad_norm <= tol:
        return NewtonResult(states=tuple(states), converged=True)
    for it in range(1, max_iter + 1):
        damped = False
        try:
            step = np.linalg.solve(h, -g)
        except np.linalg.LinAlgError:
            lam = 1e-8 * float(np.trace(h)) / problem.d
            step = np.linalg.solve(h + lam * np.eye(problem.d), -g)
            damped = True
        x = x + step
        g, h = gradient(problem, x), hessian(problem, x)
        states.append(_state(problem, x, g, h, it, damped=damped))
        if states[-1].grad_norm <= tol:
            return NewtonResult(states=tuple(states), converged=True)
    raise MaxIterationsExceeded(
        f"gradient norm {states[-1].grad_norm:.3g} > tol {tol} after {max_iter} iterations",
        trajectory=NewtonResult(states=tuple(states), converged=False),
    )


def random_problem(
    n: int,
    d: int,
    seed: int = 0,
    radius: float = 0.8,
    pd_slack: float = 1.0,
    regime: str = "strong",
    sparse_weight: float = 1.0,
) -> RegressionProblem:
    """Random instance in the requested PD regime (n >= d keeps A full rank)."""
    if not 1 <= d <= n:
        raise InvalidSpec("need n >= d >= 1 so that sigma_min(A) > 0")
    if regime not in ("strong", "weak"):
        raise InvalidSpec("regime must be 'strong' or 'weak'")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, d))
    a *= radius / np.linalg.norm(a, 2)
    b = rng.random(n)
    b *= rng.uniform(0.3, 0.95) / b.sum()
    probe = RegressionProblem(a=a, b=b, w=np.ones(n), pd_slack=pd_slack, radius=radius)
    floor = probe.ridge_floor(strong=(regime == "strong"))
    w = np.sqrt(floor * rng.uniform(1.0, 1.3, size=n))
    return RegressionProblem(
        a=a, b=b, w=w, pd_slack=pd_slack, radius=radius, sparse_weight=sparse_weight
    )
