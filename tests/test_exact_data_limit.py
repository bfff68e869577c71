"""The exact-data theorem: with exact data, SGD converges to the solution of
F(x) = y nearest to x0 in the Bregman distance of the primal geometry.

For a linear underdetermined A and p = r_X (practice mode), the dual
iterates stay in J(x0) + range(A^T), so the limit x_dag is the solution
with J(x_dag) in that set: the minimiser of (1/r)||x||_r^r - <J(x0), x>
over {Ax = y}.  At r_X = 2 that is x0 + A^+(y - A x0); otherwise it solves
the dual problem min_lam f*(J(x0) + A^T lam) - <lam, y>, with f* the
conjugate (1/r*)||.||_{r*}^{r*}, and x_dag = J*(J(x0) + A^T lam) at its
minimiser lam.

For the nonlinear F(x) = (Ax)^2 (entrywise, the Schlieren structure) every
gradient still lies in range(A^T), and while sign(Ax_k) keeps the sign of
the data's branch the solution set is the affine set {Ax = Ax_dag}; the
limit is then the same dual point for the data A x_dag.
"""

import numpy as np
import pytest

from bsgd.forward import ForwardProblem
from bsgd.geometry import GridVector, _duality_map_raw
from bsgd.solver import SolverConfig, run_sgd


class LinearProblem(ForwardProblem):
    """F(x) = A x, split into row blocks."""

    def __init__(self, A, y, n_blocks):
        self.A = A
        self.rows = np.array_split(np.arange(A.shape[0]), n_blocks)
        super().__init__(self.rows, [GridVector(y[r]) for r in self.rows])

    @property
    def domain_shape(self):
        return (self.A.shape[1],)

    def block_forward(self, i, x):
        return self.A[self.rows[i]] @ x

    def block_residual_gradient(self, i, x, y_i, gy):
        A_i = self.A[self.rows[i]]
        resid = A_i @ x - y_i
        return resid, A_i.T @ _duality_map_raw(resid, gy.r, gy.p)


class SquaredLinearProblem(ForwardProblem):
    """F(x) = (A x)^2 entrywise, split into row blocks."""

    def __init__(self, A, x_truth, n_blocks):
        self.A = A
        self.rows = np.array_split(np.arange(A.shape[0]), n_blocks)
        super().__init__(self.rows, x_truth=GridVector(x_truth))

    @property
    def domain_shape(self):
        return (self.A.shape[1],)

    def block_forward(self, i, x):
        ax = self.A[self.rows[i]] @ x
        return ax * ax

    def block_residual_gradient(self, i, x, y_i, gy):
        A_i = self.A[self.rows[i]]
        ax = A_i @ x
        resid = ax * ax - y_i
        return resid, A_i.T @ (2.0 * ax * _duality_map_raw(resid, gy.r, gy.p))


def _signed_power(v, e):
    return np.sign(v) * np.abs(v) ** e


def _dual_newton(A, y, xi0, r_star):
    """The dual solution's primal point J*(xi0 + A^T lam) by Newton's method
    on the dual objective, whose gradient is A x(lam) - y and whose Hessian
    is A diag(w) A^T with w = (r* - 1)|xi|^(r* - 2); returns it with w."""
    lam = np.zeros(A.shape[0])
    for _ in range(50):
        xi = xi0 + A.T @ lam
        w = (r_star - 1.0) * np.abs(xi) ** (r_star - 2.0)
        step = np.linalg.solve((A * w) @ A.T,
                               A @ _signed_power(xi, r_star - 1.0) - y)
        lam -= step
        if not np.linalg.norm(step) > 1e-15 * np.linalg.norm(lam):
            break
    xi = xi0 + A.T @ lam
    return (_signed_power(xi, r_star - 1.0),
            (r_star - 1.0) * np.abs(xi) ** (r_star - 2.0))


def _reference_error(A, y, x_dag, w):
    """A bound on |x_dag - x_exact| from the reference's own accuracy.

    x_dag is the exact nearest solution for the data A x_dag, and to first
    order the nearest solution moves by diag(w) A^T (A diag(w) A^T)^-1 dy
    when the data move by dy; add one rounding of x_dag itself.
    """
    sensitivity = np.linalg.norm((w[:, None] * A.T)
                                 @ np.linalg.inv((A * w) @ A.T), 2)
    return (sensitivity * np.linalg.norm(A @ x_dag - y)
            + np.finfo(float).eps * np.linalg.norm(x_dag))


@pytest.mark.parametrize("r_x", [2.0, 1.5])
def test_exact_data_limit_is_the_nearest_solution(r_x):
    gen = np.random.default_rng(5)
    # scaled so that mu0 = 0.5 is a convergent step on each 4-row block
    A = gen.standard_normal((24, 60)) / np.sqrt(60)
    x_true = np.zeros(60)
    x_true[gen.choice(60, 6, replace=False)] = gen.standard_normal(6)
    x0 = gen.standard_normal(60)
    y = A @ x_true
    problem = LinearProblem(A, y, 6)

    cfg = SolverConfig.make("practice", r_X=r_x, r_Y=2.0, mu0=0.5,
                            max_epochs=500, record_every=None)
    run = run_sgd(problem, problem.y_exact, cfg, x0=x0)
    assert not run.diverged

    x_hilbert = x0 + np.linalg.pinv(A) @ (y - A @ x0)
    if r_x == 2.0:
        x_dag, w = x_hilbert, np.ones(60)
    else:
        r_star = r_x / (r_x - 1.0)
        x_dag, w = _dual_newton(A, y, _signed_power(x0, r_x - 1.0), r_star)
    # The reference's own error bound is 2.1e-14 at r_X = 2 and 6.2e-15 at
    # r_X = 1.5; the tolerance sits three orders of magnitude above it, and
    # 500 epochs of SGD land about 1.6e-14 from x_dag in both cases.
    tol = 1e3 * _reference_error(A, y, x_dag, w)
    assert tol < 1e-10
    assert np.linalg.norm(run.final_x.values - x_dag) <= tol
    # other solutions are far away: the sparse truth, and at r_X = 1.5 the
    # nearest solution in the Hilbert geometry
    assert np.linalg.norm(x_dag - x_true) > 1.0
    assert r_x == 2.0 or np.linalg.norm(x_dag - x_hilbert) > 1.0


@pytest.mark.parametrize("r_x, mu0", [(2.0, 0.05), (1.5, 0.02), (1.5, 0.05)])
def test_nonlinear_exact_data_limit_is_the_nearest_solution(r_x, mu0):
    gen = np.random.default_rng(5)
    A = gen.standard_normal((24, 60)) / np.sqrt(60)
    # data far from the kink of the square: |A x_true| lies in [1, 2], so
    # SGD from a nearby x0 keeps each sign; closer to 0 (min |A x_true| =
    # 0.05, mu0 = 0.1) a run left the branch or diverged
    target = gen.choice([-1.0, 1.0], 24) * gen.uniform(1.0, 2.0, 24)
    pinv = np.linalg.pinv(A)
    null_part = gen.standard_normal(60)
    x_true = pinv @ target + null_part - pinv @ (A @ null_part)
    x0 = x_true + 0.05 * gen.standard_normal(60)
    problem = SquaredLinearProblem(A, x_true, 6)

    cfg = SolverConfig.make("practice", r_X=r_x, r_Y=2.0, mu0=mu0,
                            max_epochs=2000, record_every=None)
    run = run_sgd(problem, problem.y_exact, cfg, x0=x0)
    assert not run.diverged
    x_final = run.final_x.values
    assert np.array_equal(np.sign(A @ x_final), np.sign(target))

    y = A @ x_true
    if r_x == 2.0:
        x_dag, w = x0 + pinv @ (y - A @ x0), np.ones(60)
    else:
        r_star = r_x / (r_x - 1.0)
        x_dag, w = _dual_newton(A, y, _signed_power(x0, r_x - 1.0), r_star)
    # The reference's own error bound is 7.0e-15 at r_X = 2 and 7.1e-15 at
    # r_X = 1.5, and 2,000 epochs land 2.9e-14 to 4.9e-14 from x_dag.
    tol = 1e3 * _reference_error(A, y, x_dag, w)
    assert tol < 1e-10
    assert np.linalg.norm(x_final - x_dag) <= tol
    # the truth is another solution on the same branch, 0.31-0.34 away
    assert np.linalg.norm(x_dag - x_true) > 0.1
