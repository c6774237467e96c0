"""Explicit spectral models for the example parabolic systems.

Each model carries a closed-form spectrum (complex eigenvalues with
nondecreasing real parts), orthonormal eigenfunctions defined as products
of vectorized per-axis factors times constant vectors, and the metadata
that drives the large-time analysis:
the lowest-real-part index set J1, the first index p0 beyond it, and
the spectral gap Re(lambda_p0 - lambda_1).

Time weights are exposed in two forms: plain floats (`gamma_from_lambda`)
for the well-scaled regime and the mantissa/exponent pairs of `tau`
(`FactoredScalar`) that never overflow, used by the Gram form for stiff
modes; gamma_j(T) is tau(lambda_j, lambda_j, T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Real exponents above this are not reconstructed as plain floats
# (double overflow near 709; margin for products of two factors).
OVERFLOW_THETA = 600.0

MODEL_NAMES = ("dirichlet_1d", "dirichlet_rect_2d", "torus_1d", "coupled_rect_2d")


class ConfigurationError(ValueError):
    """Model parameters violate a documented precondition."""


@dataclass(frozen=True)
class DomainSpec:
    bounds: tuple[tuple[float, float], ...]  # per-axis (lo, hi)

    def __post_init__(self):
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ConfigurationError(f"degenerate axis bounds ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.bounds)

    @property
    def measure(self) -> float:
        out = 1.0
        for lo, hi in self.bounds:
            out *= hi - lo
        return out


@dataclass(eq=False)
class SpectralModel:
    """Spectrum + eigenfunctions of one named example system.

    Mode j is separable: phi_j(x) = prod_d f_jd(x_d) u_j. `factors(j)`
    (1-based mode index j) returns the per-axis factors (f_j1, ..., f_jdim),
    each a map of a 1D array of axis coordinates to values of its shape,
    and u_j = `u[j-1]` is a constant q-vector. Along each axis every
    mode's factor has one dtype; phi_j is float64 where the factors and u
    are real, complex otherwise.
    `axis_index[j-1]` is the largest per-axis frequency index of mode j:
    along an axis of length l, a product of two modes up to j oscillates
    with wavelength no shorter than l / axis_index[j-1].
    """

    name: str
    domain: DomainSpec
    eigenvalues: np.ndarray          # complex, nondecreasing real parts
    factors: Callable[[int], tuple[Callable[[np.ndarray], np.ndarray], ...]]
    u: np.ndarray                    # (n_max, q)
    axis_index: tuple[int, ...] = ()
    J1: tuple[int, ...] = field(init=False)
    p0: int = field(init=False)
    gap: float = field(init=False)

    def __post_init__(self):
        lams = np.asarray(self.eigenvalues, dtype=complex)
        re = lams.real
        if np.any(np.diff(re) < -1e-12):
            raise ConfigurationError("eigenvalue real parts must be nondecreasing")
        self.J1 = tuple(int(i) + 1 for i in np.flatnonzero(re <= re[0] + 1e-12))
        self.p0 = len(self.J1) + 1
        if self.p0 > len(lams):
            raise ConfigurationError("need N_max > #J1 so that p0 exists")
        self.gap = float(re[self.p0 - 1] - re[0])
        if self.gap <= 0:
            raise ConfigurationError("spectral gap must be positive")
        self.eigenvalues = lams
        self.u = np.asarray(self.u)
        if self.u.ndim != 2 or len(self.u) != len(lams):
            raise ConfigurationError("u must hold one constant vector per eigenvalue")

    @property
    def n_max(self) -> int:
        return len(self.eigenvalues)

    @property
    def q(self) -> int:
        return self.u.shape[1]

    def phi(self, j: int, x: np.ndarray) -> np.ndarray:
        """Values of eigenfunction j at points x, shape (npts, q)."""
        if not 1 <= j <= self.n_max:
            raise IndexError(f"mode index {j} outside 1..{self.n_max}")
        x = np.atleast_2d(np.asarray(x, dtype=float))
        f0, *rest = self.factors(j)
        v = f0(x[:, 0])
        for d, f in enumerate(rest, 1):
            v = v * f(x[:, d])
        return v[:, None] * self.u[j - 1]


def _dirichlet_1d(n_max: int) -> SpectralModel:
    dom = DomainSpec(((0.0, np.pi),))
    lams = np.array([j * j for j in range(1, n_max + 1)], dtype=complex)
    c = np.sqrt(2.0 / np.pi)

    def factors(j):
        return (lambda t: c * np.sin(j * t),)

    return SpectralModel("dirichlet_1d", dom, lams, factors, np.ones((n_max, 1)),
                         axis_index=tuple(range(1, n_max + 1)))


def _rect_pairs(n_max: int) -> list[tuple[int, int]]:
    """(m, n) candidates enough to cover the n_max lowest eigenvalues of the
    (0,1)^2 Dirichlet Laplacian, in m-major order."""
    kmax = int(np.ceil(np.sqrt(n_max))) + 2
    return [(m, n) for m in range(1, kmax + 1) for n in range(1, kmax + 1)]


def _rect_factors(m: int, n: int):
    """The per-axis factors of 2 sin(m pi x) sin(n pi y)."""
    return lambda t: 2.0 * np.sin(m * np.pi * t), lambda t: np.sin(n * np.pi * t)


def _dirichlet_rect_2d(n_max: int) -> SpectralModel:
    dom = DomainSpec(((0.0, 1.0), (0.0, 1.0)))
    pairs = _rect_pairs(n_max)
    pairs.sort(key=lambda mn: (mn[0] ** 2 + mn[1] ** 2, mn))  # lexicographic tie-break
    pairs = pairs[:n_max]
    lams = np.array([np.pi ** 2 * (m * m + n * n) for m, n in pairs], dtype=complex)

    def factors(j):
        return _rect_factors(*pairs[j - 1])

    return SpectralModel("dirichlet_rect_2d", dom, lams, factors, np.ones((n_max, 1)),
                         axis_index=tuple(max(mn) for mn in pairs))


def _torus_1d(n_max: int) -> SpectralModel:
    # constant mode excluded so lambda_1 = 1 with the cos/sin pair;
    # modes: (cos kx, sin kx)/sqrt(pi), lambda = k^2
    dom = DomainSpec(((0.0, 2.0 * np.pi),))
    ks = [(k, trig) for k in range(1, n_max // 2 + 2) for trig in ("cos", "sin")]
    ks = ks[:n_max]
    lams = np.array([k * k for k, _ in ks], dtype=complex)
    c = 1.0 / np.sqrt(np.pi)

    def factors(j):
        k, trig = ks[j - 1]
        f = np.cos if trig == "cos" else np.sin
        return (lambda t: c * f(k * t),)

    # cos(kx)^2 oscillates twice as fast as cos(kx)
    return SpectralModel("torus_1d", dom, lams, factors, np.ones((n_max, 1)),
                         axis_index=tuple(2 * k for k, _ in ks))


def check_coupling(mu, u) -> tuple[np.ndarray, np.ndarray]:
    """The coupled model's parameters as complex arrays, checked.

    mu: three complex coupling eigenvalues, Re mu_1 = Re mu_2 < Re mu_3,
    with Re mu_1 above -2 pi^2, the lowest eigenvalue of the (0,1)^2
    Dirichlet Laplacian. u: orthonormal triple in C^3. Each message starts
    with the name of the parameter it rejects.
    """
    mu = np.asarray(mu, dtype=complex)
    u = np.asarray(u, dtype=complex)
    if mu.shape != (3,):
        raise ConfigurationError("mu must hold 3 coupling eigenvalues")
    if u.shape != (3, 3):
        raise ConfigurationError("u must be a 3x3 eigenvector triple")
    if abs(mu[0].real - mu[1].real) > 1e-12 or not mu[1].real < mu[2].real - 1e-12:
        raise ConfigurationError(
            f"mu must have Re mu_1 = Re mu_2 < Re mu_3, got {mu.tolist()}")
    if mu[0].real <= -2.0 * np.pi ** 2:
        raise ConfigurationError(f"mu must have Re mu_1 > -2 pi^2, got {mu[0].real:.6g}")
    if np.max(np.abs(u @ u.conj().T - np.eye(3))) > 1e-12:
        raise ConfigurationError("u must be an orthonormal triple (its rows)")
    return mu, u


def _coupled_rect_2d(n_max: int, mu, u) -> SpectralModel:
    """Three coupled heat equations; spatial factor sin(pi x) sin(pi y).

    mu: three complex coupling eigenvalues, Re mu_1 = Re mu_2 < Re mu_3.
    u: orthonormal triple in C^3 (rows u[i] span the coupling eigenspaces).
    """
    mu, u = check_coupling(mu, u)
    dom = DomainSpec(((0.0, 1.0), (0.0, 1.0)))
    modes = [(m, n, i) for (m, n) in _rect_pairs(n_max) for i in range(3)]
    modes.sort(key=lambda t: (np.pi ** 2 * (t[0] ** 2 + t[1] ** 2) + mu[t[2]].real, t))
    modes = modes[:n_max]
    lams = np.array([np.pi ** 2 * (m * m + n * n) + mu[i] for m, n, i in modes])

    def factors(j):
        return _rect_factors(*modes[j - 1][:2])

    return SpectralModel("coupled_rect_2d", dom, lams, factors,
                         np.array([u[i] for _, _, i in modes]),
                         axis_index=tuple(max(m, n) for m, n, _ in modes))


def build_model(name: str, n_max: int, **params) -> SpectralModel:
    """Construct a named spectral model with n_max modes."""
    if n_max < 1:
        raise ConfigurationError("n_max must be >= 1")
    if name == "dirichlet_1d":
        return _dirichlet_1d(n_max)
    if name == "dirichlet_rect_2d":
        return _dirichlet_rect_2d(n_max)
    if name == "torus_1d":
        return _torus_1d(n_max)
    if name == "coupled_rect_2d":
        return _coupled_rect_2d(n_max, params["mu"], params["u"])
    raise ConfigurationError(f"unknown model {name!r}; choose from {MODEL_NAMES}")


@dataclass(frozen=True)
class FactoredScalar:
    """Scalar stored as mantissa * e^exponent; the mantissa stays bounded."""

    exponent: float
    mantissa: complex

    def value(self) -> complex:
        # deliberate overflow to inf if the exponent is out of range; a zero
        # imaginary part times inf is nan, without a warning either
        with np.errstate(over="ignore", invalid="ignore"):
            return self.mantissa * np.exp(self.exponent)

    def log_abs(self) -> float:
        m = abs(self.mantissa)
        return self.exponent + np.log(m) if m > 0 else -np.inf


def _stable_ratio(z: complex, t: float) -> complex:
    """(1 - exp(-z*t)) / z, series branch near z = 0."""
    zt = z * t
    if abs(zt) < 1e-8:
        return t * (1.0 - zt / 2.0 + zt * zt / 6.0)
    return (1.0 - np.exp(-zt)) / z


def gamma_from_lambda(lam: complex, T: float) -> float:
    """gamma(T) = (e^{2 Re(lam) T} - 1) / (2 Re lam), or T when Re lam = 0.

    Raises OverflowError once 2 Re(lam) T exceeds OVERFLOW_THETA; use
    the factored tau(lam, lam, T) for the stiff regime.
    """
    fac = tau(lam, lam, T)
    if fac.exponent > OVERFLOW_THETA:
        raise OverflowError(
            f"2*Re(lambda)*T = {fac.exponent:.3g} exceeds {OVERFLOW_THETA:.3g}; "
            "use tau(lam, lam, T)")
    return float(fac.value().real)


def tau(lam_i: complex, lam_j: complex, T: float) -> FactoredScalar:
    """Time kernel integral_0^T e^{(lam_i + conj(lam_j)) t} dt, factored.

    exponent = (Re lam_i + Re lam_j) T; the mantissa carries the bounded
    oscillatory part e^{i Im(lam_i - lam_j) T} (1 - e^{-sT})/s with
    s = lam_i + conj(lam_j), and equals T when s = 0.
    """
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"T must be finite and positive, got {T}")
    lam_i = complex(lam_i)
    lam_j = complex(lam_j)
    s = lam_i + lam_j.conjugate()
    expo = (lam_i.real + lam_j.real) * T
    if s == 0:
        return FactoredScalar(0.0, complex(T))
    phase = np.exp(1j * (lam_i.imag - lam_j.imag) * T)
    return FactoredScalar(expo, phase * _stable_ratio(s, T))
