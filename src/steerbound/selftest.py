"""Analytic robustness-bound engine for the CHSH-type assemblage.

The certified statement is an affine lower bound on extractability,
Q >= (s*beta + t)/2, obtained from the operator inequalities

    K_{ax} >= s T_{ax} + t_{ax} I

where K_{ax} is the dual image of the reference conditional state under a
theta-dependent dephasing channel. This module builds the channel family,
verifies the inequalities by eigenvalue sweeps, recovers the optimal
coefficients s = (1+sqrt(2))/4 and t = (2-sqrt(2))/2 by grid search, and
evaluates the resulting lower bound, the interpolation upper bound, and
the non-triviality threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assemblage import Assemblage
from .fidelity import ExtractionChannel, fidelity_operator
from .matkernel import I2, PAULI_X, PAULI_Z, ValidationError, min_eigval, symmetrize
from .steering import BETA_CLASSICAL, BETA_QUANTUM, t_operators, BobObservables

S_OPTIMAL = (1 + math.sqrt(2)) / 4
T_OPTIMAL = (2 - math.sqrt(2)) / 2
TRIVIAL_CLASSICAL_FIDELITY = (2 + math.sqrt(2)) / 4
THRESHOLD_BETA = 8 - 4 * math.sqrt(2)


@dataclass(frozen=True)
class BoundCoefficients:
    s: float
    t0: float
    t1: float

    @property
    def t(self) -> float:
        return self.t0 + self.t1


def optimal_coefficients() -> BoundCoefficients:
    return BoundCoefficients(S_OPTIMAL, T_OPTIMAL / 2, T_OPTIMAL / 2)


def _check_theta(theta: float) -> None:
    if not 0 <= theta <= math.pi / 2 + 1e-12:
        raise ValidationError(f"theta = {theta} outside [0, pi/2]")


def _first_interval(theta: float) -> bool:
    # the boundary pi/4 belongs to the first (Gamma = Z) interval
    return theta <= math.pi / 4


def dephasing_channel(theta: float, c: float) -> ExtractionChannel:
    """Two-term dephasing channel (1+c)/2 rho + (1-c)/2 G rho G with
    G = Z on [0, pi/4] and G = X on (pi/4, pi/2]. c outside [-1, 1] is
    clamped and flagged rather than rejected.

    The Choi matrix of rho -> U rho U^dagger is |U>><<U| with
    |U>> = sum_i |i> (x) U|i>, the row-major flattening of U^T."""
    _check_theta(theta)
    clamped = not -1 <= c <= 1
    c = min(1.0, max(-1.0, c))
    gamma = PAULI_Z if _first_interval(theta) else PAULI_X
    choi = sum(
        w * np.outer(u.T.reshape(4), u.T.reshape(4).conj())
        for w, u in ((0.5 * (1 + c), I2), (0.5 * (1 - c), gamma))
    )
    return ExtractionChannel(choi, clamped=clamped)


def dephasing_coefficient(theta: float, s: float) -> float:
    """c(theta) = min{1, 4s sin(theta)} on the first interval and
    min{1, 4s cos(theta)} on the second."""
    _check_theta(theta)
    if _first_interval(theta):
        return min(1.0, 4 * s * math.sin(theta))
    return min(1.0, 4 * s * math.cos(theta))


def k_operators(theta: float, c: float) -> dict:
    """Dual images K_{ax} of the reference conditional states.

    By self-duality these are the channel applied to the reference states:
    on the first interval the Z-basis pair stays sharp and the X-basis pair
    is contracted by c; the second interval mirrors the roles.
    """
    _check_theta(theta)
    c = min(1.0, max(-1.0, c))
    if _first_interval(theta):
        kz, kx = 1.0, c
    else:
        kz, kx = c, 1.0
    return {
        (0, 0): (I2 + kz * PAULI_Z) / 2,
        (1, 0): (I2 - kz * PAULI_Z) / 2,
        (0, 1): (I2 + kx * PAULI_X) / 2,
        (1, 1): (I2 - kx * PAULI_X) / 2,
    }


def t_constraints(s: float, theta: float):
    """Largest shifts (t0, t1) keeping all four operator inequalities PSD
    at this theta, with the dephasing coefficient set by its closed rule.

    Returns (t0, t1); negative values are allowed, the minimum over theta
    governs the final bound.
    """
    _check_theta(theta)
    c = dephasing_coefficient(theta, s)
    sin, cos = math.sin(theta), math.cos(theta)
    if _first_interval(theta):
        t0 = min(1 - 2 * s * cos, 2 * s * cos)
        t1 = min((1 + c - 4 * s * sin) / 2, (1 - c + 4 * s * sin) / 2)
    else:
        t0 = min((1 + c - 4 * s * cos) / 2, (1 - c + 4 * s * cos) / 2)
        t1 = min(1 - 2 * s * sin, 2 * s * sin)
    return t0, t1


def inequality_margin(s: float, t0: float, t1: float, theta: float, c: float) -> float:
    """Smallest eigenvalue over the four operators K_{ax} - s T_{ax} - t_{ax} I.

    Nonnegative iff the operator inequality holds at this theta.
    """
    ks = k_operators(theta, c)
    ts = t_operators(BobObservables(theta)).t_ops
    shift = {0: t0, 1: t1}
    margin = math.inf
    for (a, x), k in ks.items():
        op = k - s * ts[(a, x)] - shift[x] * I2
        margin = min(margin, min_eigval(symmetrize(op)))
    return margin


def theta_grid(size: int) -> np.ndarray:
    """Uniform grid on [0, pi/2] with the interval boundary pi/4 pinned.

    The minimizing angles of t0 + t1 sit at 0 and pi/4; keeping pi/4 on the
    grid makes the bound plateau exact instead of grid-resolution noisy.
    """
    thetas = np.linspace(0, math.pi / 2, size)
    boundary = math.pi / 4
    if not np.any(np.isclose(thetas, boundary, rtol=0, atol=1e-15)):
        thetas = np.sort(np.append(thetas, boundary))
    return thetas


def _t_of_s(s: float, thetas: np.ndarray) -> float:
    """min over the theta grid of t0 + t1, vectorized, both intervals."""
    sin = np.sin(thetas)
    cos = np.cos(thetas)
    first = thetas <= math.pi / 4
    c = np.where(first, np.minimum(1.0, 4 * s * sin), np.minimum(1.0, 4 * s * cos))
    t0 = np.where(
        first,
        np.minimum(1 - 2 * s * cos, 2 * s * cos),
        np.minimum((1 + c - 4 * s * cos) / 2, (1 - c + 4 * s * cos) / 2),
    )
    t1 = np.where(
        first,
        np.minimum((1 + c - 4 * s * sin) / 2, (1 - c + 4 * s * sin) / 2),
        np.minimum(1 - 2 * s * sin, 2 * s * sin),
    )
    return float(np.min(t0 + t1))


def _t_split_at_argmin(s: float, thetas: np.ndarray):
    best = (math.inf, 0.0, 0.0)
    for theta in thetas:
        t0, t1 = t_constraints(s, float(theta))
        if t0 + t1 < best[0]:
            best = (t0 + t1, t0, t1)
    return best[1], best[2]


def coefficient_search(s_grid, theta_grid_size: int = 10_000) -> BoundCoefficients:
    """Recover the optimal (s, t) pair by grid search.

    For each s the bound intercept is t(s) = min_theta (t0 + t1). The bound
    value at maximal violation, (s*beta_Q + t(s))/2, plateaus at 1 for all
    s past the optimum, so the selected s is the smallest one attaining the
    plateau, refined by bisection between adjacent grid points.
    """
    s_values = sorted(float(s) for s in s_grid)
    if not s_values:
        raise ValidationError("s_grid must be nonempty")
    thetas = theta_grid(theta_grid_size)

    def bound_at_max(s: float) -> float:
        return (s * BETA_QUANTUM + _t_of_s(s, thetas)) / 2

    values = [bound_at_max(s) for s in s_values]
    best_value = max(values)
    idx = next(i for i, v in enumerate(values) if v >= best_value - 1e-10)
    s_star = s_values[idx]

    if idx > 0 and values[idx - 1] < best_value - 1e-10:
        lo, hi = s_values[idx - 1], s_star
        while hi - lo > 1e-12:
            mid = (lo + hi) / 2
            if bound_at_max(mid) >= best_value - 1e-10:
                hi = mid
            else:
                lo = mid
        s_star = hi

    t0, t1 = _t_split_at_argmin(s_star, thetas)
    return BoundCoefficients(s_star, t0, t1)


def analytic_bound(beta: float) -> float:
    """Certified lower bound on extractability:
    ((1+sqrt(2))/8) beta + (2-sqrt(2))/4."""
    return (1 + math.sqrt(2)) / 8 * beta + (2 - math.sqrt(2)) / 4


def bound_value(coeffs: BoundCoefficients, beta: float) -> float:
    return (coeffs.s * beta + coeffs.t) / 2


def upper_bound(
    beta: float,
    f_c: float = TRIVIAL_CLASSICAL_FIDELITY,
    beta_c: float = BETA_CLASSICAL,
    beta_q: float = BETA_QUANTUM,
) -> float:
    """Interpolation upper bound: f_c at the classical bound, 1 at the
    quantum bound, affine in between."""
    if not beta_q > beta_c:
        raise ValidationError("degenerate bounds: beta_c must be < beta_q")
    return f_c + (1 - f_c) * (beta - beta_c) / (beta_q - beta_c)


def threshold(
    coeffs: BoundCoefficients = None, f_c: float = TRIVIAL_CLASSICAL_FIDELITY
) -> float:
    """Violation above which the analytic bound beats the classical
    fidelity: solves (s*beta + t)/2 = f_c."""
    if coeffs is None:
        coeffs = optimal_coefficients()
    if coeffs.s <= 0:
        raise ValidationError("threshold undefined for s <= 0")
    return (2 * f_c - coeffs.t) / coeffs.s


def require_uniform_marginals(asm: Assemblage, tol: float = 1e-6) -> None:
    dev = asm.max_marginal_deviation()
    if dev > tol:
        raise ValidationError(
            f"analytic bound assumes p(a|x) = 1/2; deviation {dev:.3e} exceeds {tol}"
        )


def extractability_with_channel(asm: Assemblage, channel: ExtractionChannel) -> float:
    """Fidelity of the reference with the channel applied elementwise,
    tr(J W): a lower-bound witness for extractability at this fixed channel."""
    return float(np.vdot(channel.choi, fidelity_operator(asm)).real)


def certified_lower_bound(
    asm: Assemblage, theta: float, allow_nonuniform: bool = False
) -> float:
    """Analytic lower bound on extractability from the CHSH value at theta.

    Rejects assemblages with non-uniform outcome probabilities unless
    overridden, since the certified statement assumes p(a|x) = 1/2.
    """
    from .steering import chsh_functional

    if not allow_nonuniform:
        require_uniform_marginals(asm)
    beta = chsh_functional(asm, BobObservables(theta))
    return analytic_bound(beta)
