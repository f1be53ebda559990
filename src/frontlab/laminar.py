"""Planar traveling-wave reference: ignition reactions and the 1D front.

The front solves phi'' + c*phi' + f(phi) = 0 with phi(-inf) = 1,
phi(+inf) = 0, normalized so phi(0) = theta0.  Ahead of the ignition
point the profile is the exact exponential tail theta0*exp(-c*x), so the
shooting starts on that tail and integrates leftward, bisecting on c
with an overshoot/undershoot classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, ConfigurationError, NumericalError

STEP_LINEAR = "step_linear"
QUAD_IGNITION = "quad_ignition"
NARROW_COMPLIANT = "narrow_compliant"

_KINDS = (STEP_LINEAR, QUAD_IGNITION, NARROW_COMPLIANT)


@dataclass(frozen=True)
class ReactionModel:
    """Ignition nonlinearity: zero below theta0 and at full burn.

    step_linear jumps to amplitude*(1-T) above theta0 (non-Lipschitz at
    theta0, kept because its front speed has a closed form).
    quad_ignition is amplitude*(T-theta0)+*(1-T)/(1-theta0).
    narrow_compliant is amplitude*(T-theta0)+^2*(1-T)/(1-theta0); with
    amplitude = 1/lam^2 it stays below (T-theta0)+^2/lam^2, the
    narrow-strip smallness condition.
    """

    kind: str
    theta0: float
    amplitude: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown reaction kind {self.kind!r}")
        if not 0.0 < self.theta0 < 1.0:
            raise ConfigurationError("theta0 must lie in (0, 1)")
        if not 0.0 < self.amplitude < math.inf:  # NaN fails it
            raise ConfigurationError("amplitude must be finite and positive")

    @classmethod
    def narrow_for_width(cls, theta0: float, lam: float) -> "ReactionModel":
        return cls(NARROW_COMPLIANT, theta0, 1.0 / lam**2)

    def ignited(self, T) -> np.ndarray:
        """Branch indicator for the discontinuous kind.

        Values are quantized before the comparison so that round-off
        dust cannot tie-break nodes sitting exactly on the threshold
        (the front normalization pins one column there by construction).
        """
        return np.round(np.asarray(T, dtype=float), 12) > self.theta0

    def __call__(self, T):
        T = np.asarray(T, dtype=float)
        down = np.maximum(1.0 - T, 0.0)
        if self.kind == STEP_LINEAR:
            out = np.where(self.ignited(T), self.amplitude * down, 0.0)
        else:
            # amplitude*up[*up]*down/(1 - theta0), left to right, in place
            up = np.maximum(T - self.theta0, 0.0)
            out = up * self.amplitude
            if self.kind == NARROW_COMPLIANT:
                out *= up
            out *= down
            out /= 1.0 - self.theta0
        return out if out.shape else float(out)

    def rate(self, T: float) -> float:
        """self(T) for one float, bit for bit, without array overhead.

        The shooting right-hand sides evaluate f once per stage on a
        scalar.  np.round(T, 12) is rint(T * 1e12) / 1e12, and Python's
        round is also round-half-even.
        """
        down = max(1.0 - T, 0.0)
        if self.kind == STEP_LINEAR:
            scaled = T * 1e12
            if math.isfinite(scaled):
                scaled = float(round(scaled))
            return self.amplitude * down if scaled / 1e12 > self.theta0 else 0.0
        up = max(T - self.theta0, 0.0)
        if self.kind == QUAD_IGNITION:
            return self.amplitude * up * down / (1.0 - self.theta0)
        return self.amplitude * up * up * down / (1.0 - self.theta0)

    def derivative(self, T):
        """df/dT, with the semi-smooth convention f' = -amplitude*(T > theta0)
        for the discontinuous kind (exact on each branch)."""
        T = np.asarray(T, dtype=float)
        a, t0 = self.amplitude, self.theta0
        burning = (T > t0) & (T < 1.0)
        if self.kind == STEP_LINEAR:
            out = np.where(self.ignited(T), -a, 0.0)
        elif self.kind == QUAD_IGNITION:
            out = np.where(burning, a * (1.0 + t0 - 2.0 * T) / (1.0 - t0), 0.0)
        else:
            up = np.clip(T - t0, 0.0, None)
            out = np.where(
                burning,
                a * (2.0 * up * (1.0 - T) - up * up) / (1.0 - t0),
                0.0,
            )
        return out if out.shape else float(out)

    @property
    def M(self) -> float:
        """sup over (0, 1] of f(T)/T, the linear-growth constant."""
        a, t0 = self.amplitude, self.theta0
        if self.kind == STEP_LINEAR:
            return a * (1.0 - t0) / t0
        if self.kind == QUAD_IGNITION:
            return a * (1.0 - math.sqrt(t0)) / (1.0 + math.sqrt(t0))
        T = np.linspace(t0 + 1e-12, 1.0, 200001)
        return float(np.max(self(T) / T))

    @property
    def lipschitz(self) -> float:
        """Lipschitz constant on [0, 1]; inf for the discontinuous kind."""
        if self.kind == STEP_LINEAR:
            return math.inf
        if self.kind == QUAD_IGNITION:
            return self.amplitude
        T = np.linspace(0.0, 1.0, 200001)
        return float(np.max(np.abs(np.diff(self(T)) / np.diff(T))))

    @property
    def cfl_stiffness(self) -> float:
        """Effective reaction rate bound used by time-step control."""
        if self.kind == STEP_LINEAR:
            return self.amplitude / self.theta0
        return self.lipschitz


@dataclass
class LaminarProfile:
    """Converged planar front, normalized so phi(0) = theta0."""

    c0: float
    xs: np.ndarray
    phi: np.ndarray
    dphi: np.ndarray
    reaction: ReactionModel
    bracket_width: float = 0.0

    def residual_max(self, kink_exclusion: int = 3) -> float:
        """Max ODE residual on the samples, phi'' from a 5-point stencil.

        Nodes within kink_exclusion of the ignition point x = 0 are
        skipped: the stencil's accuracy assumes smoothness that ignition
        kinks do not provide.
        """
        h = self.xs[1] - self.xs[0]
        d = self.dphi
        phixx = (-d[4:] + 8.0 * d[3:-1] - 8.0 * d[1:-3] + d[:-4]) / (12.0 * h)
        xs = self.xs[2:-2]
        res = phixx + self.c0 * d[2:-2] + self.reaction(self.phi[2:-2])
        keep = np.abs(xs) > kink_exclusion * h
        return float(np.max(np.abs(res[keep])))


_OVERSHOOT, _UNDERSHOOT, _NEITHER = 1, -1, 0


def _classify_shot(
    reaction: ReactionModel, c: float, x_max: float = 2000.0, start_x: float = 0.0
) -> int:
    """Integrate leftward from the tail; who fails first decides the sign.

    Overshoot (phi exceeds 1) means c is too large; undershoot (phi'
    turns nonnegative below 1) means c is too small.  start_x shifts the
    launch point along the exact tail (the result must not depend on it).
    """
    from scipy.integrate import solve_ivp

    def rhs(x, y):
        return (y[1], -c * y[1] - reaction.rate(float(y[0])))

    def overshoot(x, y):
        return y[0] - (1.0 + 1e-10)

    def undershoot(x, y):
        return y[1]

    overshoot.terminal = True
    overshoot.direction = 1.0
    undershoot.terminal = True
    undershoot.direction = 1.0

    amp = reaction.theta0 * math.exp(-c * start_x)
    sol = solve_ivp(
        rhs,
        (start_x, -x_max),
        (amp, -c * amp),
        events=(overshoot, undershoot),
        rtol=1e-10,
        atol=1e-12,
    )
    if sol.t_events[0].size:
        return _OVERSHOOT
    if sol.t_events[1].size:
        return _UNDERSHOOT
    # Fell onto the connecting orbit within integrator resolution.
    return _OVERSHOOT if sol.y[0, -1] > 1.0 else _NEITHER


def laminar_speed(reaction: ReactionModel, tol: float = 1e-6) -> LaminarProfile:
    """Front speed and profile by tail shooting plus bisection on c."""
    if not 0.0 < tol <= 1e-2:
        raise ConfigurationError("tol must lie in (0, 1e-2]")
    probe = np.linspace(reaction.theta0, 1.0, 1001)[1:-1]
    if float(np.max(reaction(probe))) <= 0.0:
        raise NumericalError("reaction vanishes on (theta0, 1); no front exists")

    lo, hi = 1e-6, 10.0 + reaction.M
    side_lo = _classify_shot(reaction, lo)
    side_hi = _classify_shot(reaction, hi)
    if not (side_lo == _UNDERSHOOT and side_hi == _OVERSHOOT):
        raise BracketError(
            f"no undershoot/overshoot bracket in [{lo}, {hi}]",
            history=[(lo, side_lo), (hi, side_hi)],
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        side = _classify_shot(reaction, mid)
        if side == _OVERSHOOT:
            hi = mid
        else:
            lo = mid
    c0 = 0.5 * (lo + hi)
    return _build_profile(reaction, c0, hi - lo)


def _build_profile(reaction: ReactionModel, c0: float, bracket: float) -> LaminarProfile:
    """Reconstruct the connecting orbit from the burned end.

    Marching away from the ignition point toward phi = 1 is unstable in
    every parameterization (the wave is a saddle-saddle connection), so
    the profile is rebuilt by launching on the unstable manifold of the
    burned state, p = mu*(1 - phi), and integrating the phase-plane
    equation dp/dphi = c - f(phi)/p DOWN to the ignition value, which is
    the contracting direction.  s = -log(1 - phi) regularizes the
    burned endpoint; x is recovered alongside and shifted so phi(0) =
    theta0.
    """
    from scipy.integrate import solve_ivp

    theta0 = reaction.theta0
    fp1 = abs(float(reaction.derivative(1.0 - 1e-9)))
    mu = 0.5 * (-c0 + math.sqrt(c0 * c0 + 4.0 * fp1))

    eps0 = 1e-9
    s_burn = -math.log(eps0)
    s0 = -math.log(1.0 - theta0)

    def rhs(s, y):
        p = max(y[0], 1e-300)
        one_minus = math.exp(-s)
        return ((c0 - reaction.rate(1.0 - one_minus) / p) * one_minus, -one_minus / p)

    sol = solve_ivp(
        rhs,
        (s_burn, s0),
        (mu * eps0, 0.0),
        dense_output=True,
        rtol=1e-12,
        atol=1e-14,
    )
    s_grid = np.linspace(s_burn, s0, 4000)
    p_s, x_s = sol.sol(s_grid)
    x_s = x_s - x_s[-1]  # normalization: phi = theta0 sits at x = 0
    phi_s = 1.0 - np.exp(-s_grid)

    h = 0.01
    x_burn = float(x_s[0])
    # exact linearized tail below eps0, then saturated burned state
    x_stop = x_burn - math.log(eps0 / 1e-13) / mu
    n_left = int(math.ceil(-x_stop / h)) + 2
    xs_left = -h * np.arange(n_left, 0, -1)

    from scipy.interpolate import CubicSpline

    order = np.argsort(x_s)
    spline_phi = CubicSpline(x_s[order], phi_s[order])
    spline_p = CubicSpline(x_s[order], p_s[order])
    phi_left = np.empty(xs_left.shape)
    dphi_left = np.empty(xs_left.shape)
    numeric = xs_left >= x_burn
    phi_left[numeric] = spline_phi(xs_left[numeric])
    dphi_left[numeric] = -spline_p(xs_left[numeric])
    ext = ~numeric
    gap = eps0 * np.exp(mu * (xs_left[ext] - x_burn))
    phi_left[ext] = 1.0 - gap
    dphi_left[ext] = -mu * gap

    xs_right = h * np.arange(0, int(20.0 / h) + 1)
    tail = np.exp(-c0 * xs_right)
    xs = np.concatenate([xs_left, xs_right])
    phi = np.concatenate([phi_left, theta0 * tail])
    dphi = np.concatenate([dphi_left, -c0 * theta0 * tail])
    return LaminarProfile(c0, xs, np.clip(phi, 0.0, 1.0), dphi, reaction, bracket)


def profile_eval(p: LaminarProfile, x) -> np.ndarray | float:
    """Interpolated core for x <= 0, exact tail ahead, clamped-burned left."""
    x = np.asarray(x, dtype=float)
    out = np.interp(x, p.xs, p.phi, left=1.0, right=0.0)
    tail = x > 0.0
    if np.any(tail):
        out = np.where(tail, p.reaction.theta0 * np.exp(-p.c0 * x), out)
    return out if out.shape else float(out)
