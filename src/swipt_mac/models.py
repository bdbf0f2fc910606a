"""Energy-harvesting conversion models, decoding-cost families and the
shared channel/system parameter records.

Two-user power-splitting SWIPT receiver: a fraction rho of the received RF
power feeds an energy-harvesting (EH) rectifier, the remaining (1-rho) feeds
the information decoder.  The rectifier is either a saturating logistic
circuit or an ideal linear converter; the decoder draws a power phi(R) that
is non-decreasing in the decoded rate R.

Conventions used across the package:
  * all powers in watts,
  * all rates in bits per channel use with the 1/2*log2 prefactor,
  * channel *power* gains |h|^2 for the classical records, real non-negative
    *amplitude* gains for the cooperative record (its coherent cross term
    2*h1*h2*sqrt(Pu1*Pu2) needs amplitudes).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "UNBOUNDED",
    "ModelDomainError",
    "SaturationError",
    "NoInverseError",
    "EhModel",
    "LogisticEh",
    "LinearEh",
    "CostModel",
    "ExpCost",
    "LogCost",
    "LinCost",
    "ConstCost",
    "ClassicalParams",
    "CoopParams",
    "PowerAllocation",
    "RatePoint",
    "SolveReport",
]


class ModelDomainError(ValueError):
    """Input outside the physical domain of a model (e.g. negative power)."""


class SaturationError(ValueError):
    """Requested DC power at or above the rectifier's saturation ceiling."""


class NoInverseError(ValueError):
    """The model has no input producing the requested output."""


class _Unbounded:
    """Sentinel for a generalized cost inverse with no finite ceiling.

    Returned by the constant-cost family once the available power covers the
    decoding fee: every rate is then affordable and callers must cap by the
    mutual-information constraints.  Deliberately not a float so arithmetic
    with it fails loudly.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):  # pragma: no cover - cosmetic
        return "UNBOUNDED"


UNBOUNDED = _Unbounded()

_LOG2 = math.log(2.0)
_EXPM1_MAX = math.log(np.finfo(float).max)  # the largest x with a finite expm1(x)


def _expit_scalar(x: float, x_min=None) -> float:
    """Branch-stable scalar logistic, used for theta and the scalar eval path
    so that psi(0) == 0 holds bitwise (same function, same argument).
    x_min is _expit_array's bound, which one number does not need."""
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


# glibc's cexp rescales a real part above this, and loses libm's last bit
_CEXP_EXACT = 709.0


def _exp_or_inf(x: float) -> float:
    """libm's exp, overflowing to inf as C's does."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _expit_array(x, x_min: float):
    """Logistic 1/(1+exp(-x)) of a float array, with libm's exp bit for bit.

    numpy's float64 exp is a SIMD routine that differs from libm's exp in
    the last bit on some inputs, which moves the pinned CLI outputs.  Its
    complex128 exp calls the C library's cexp, and for a zero imaginary
    part cexp returns libm's exp(re) times 1, so the logistic is taken
    through complex exp.  Above re = 709 glibc rescales the argument, so
    elements with -x > 709 take math.exp one by one.  x_min is a lower
    bound of x: that scalar pass runs only when it lies below -709.
    """
    z = np.asarray(np.negative(x), dtype=complex)
    re = z.real
    if x_min < -_CEXP_EXACT:
        hot = re > _CEXP_EXACT
        big = re[hot]
        re[hot] = 0.0
        np.exp(z, out=z)
        re[hot] = [_exp_or_inf(v) for v in big]
    else:
        np.exp(z, out=z)
    re += 1.0
    return np.divide(1.0, re, out=re)


def _logit(x: float) -> float:
    """log(x/(1-x)) on [0, 1], evaluated as scipy's logit evaluates it:
    log1p(s) - log1p(-s) with s = 2(x - 1/2) on [0.3, 0.65], where the
    quotient loses precision, and the quotient elsewhere."""
    if 0.3 <= x <= 0.65:
        s = 2.0 * (x - 0.5)
        return math.log1p(s) - math.log1p(-s)
    if x == 0.0:
        return -math.inf
    if x == 1.0:
        return math.inf
    return math.log(x / (1.0 - x))


def _unwrap(out):
    """A 0-d result as a float, any other as the array."""
    return out if out.ndim else float(out)


def _check_array(x, what):
    x = np.asarray(x, dtype=float)
    if (x < 0).any():
        raise ModelDomainError(f"{what} must be >= 0")
    return x


def _check_finite(*values):
    """Reject NaN and infinite parameters at construction, before a solver
    can turn them into masked or meaningless results."""
    if not all(math.isfinite(v) for v in values):
        raise ModelDomainError(f"parameters must be finite numbers, got {values}")


# ---------------------------------------------------------------------------
# Model families: one formula each, evaluated with one of two function sets
# ---------------------------------------------------------------------------


class _Scalar:
    """Functions on one Python float: libm through math."""

    expm1, log1p, expit = math.expm1, math.log1p, _expit_scalar
    where = staticmethod(lambda cond, a, b: a if cond else b)
    unbounded = UNBOUNDED


class _Array:
    """Functions on a float ndarray: numpy's ufuncs."""

    expm1, log1p, expit, where = np.expm1, np.log1p, _expit_array, np.where
    unbounded = np.inf


class _Family:
    """A model family: its formula, written once as _f(x, xp) against a
    function set xp, and the evaluation every family shares.

    eval checks its input and evaluates a Python number with _Scalar, any
    other input as a float array with _Array.  kernel is the unchecked
    array evaluation, for callers whose input is a float ndarray that is
    non-negative by construction, and _scalar_kernel its twin on one such
    Python float.
    """

    _what = "input"  # the input's name in a domain error

    def __init_subclass__(cls, **kwargs):
        # each family holds eval and inverse in its own namespace, so that
        # they can be wrapped per family (the benchmark's tracer does)
        super().__init_subclass__(**kwargs)
        for name in ("eval", "inverse"):
            if name not in cls.__dict__:
                setattr(cls, name, getattr(cls, name))

    def _f(self, x, xp):
        raise NotImplementedError

    def eval(self, x):
        if isinstance(x, (float, int)):  # scalar fast path: solvers hammer this
            if x < 0:
                raise ModelDomainError(f"{self._what} must be >= 0")
            return self._f(float(x), _Scalar)
        return _unwrap(self._f(_check_array(x, self._what), _Array))

    def kernel(self, x):
        return self._f(x, _Array)

    def _scalar_kernel(self, x):
        return self._f(x, _Scalar)


# ---------------------------------------------------------------------------
# Energy-harvesting conversion models
# ---------------------------------------------------------------------------


class EhModel(_Family):
    """Base class for EH conversion functions psi: input RF power -> DC power.

    A family writes psi as _f(p, xp) and its inverse on p_dc > 0 as _g(p_dc).
    """

    _what = "EH input power"

    def inverse(self, p_dc):
        p_dc = float(p_dc)
        if p_dc < 0:
            raise ModelDomainError("DC power must be >= 0")
        return 0.0 if p_dc == 0.0 else self._g(p_dc)


@dataclass(frozen=True)
class LogisticEh(EhModel):
    """Saturating rectifier: a logistic curve normalised to psi(0)=0.

    psi(p) = (Psi(p) - p_max_dc*theta) / (1 - theta), with
    Psi(p) = p_max_dc / (1 + exp(-q1*(p - q2))) and theta = 1/(1+exp(q1*q2)).

    q1 [1/W] sets the slope, q2 [W] the inflection input, p_max_dc [W] the
    saturation output.  theta is the zero-input offset.  On the scalar
    path Psi(0)/p_max_dc and theta are the *same* expression
    _expit_scalar(-q1*q2), so eval(0.0) == 0 holds bitwise.  The array path
    computes the logistic with _expit_array, through numpy's complex exp,
    because that is the numpy exp that returns libm's values bit for bit
    (the float64 one does not, and the pinned CLI outputs depend on those
    bits).  Its 1/(1+exp(-x)) form can differ from theta in the last bits:
    eval(np.zeros(3)) may return about 1e-19 W, not 0.
    """

    q1: float
    q2: float
    p_max_dc: float
    theta: float = field(init=False)

    def __post_init__(self):
        _check_finite(self.q1, self.q2, self.p_max_dc)
        if not (self.q1 > 0 and self.q2 >= 0 and self.p_max_dc > 0):
            raise ModelDomainError(
                "logistic EH model needs q1>0, q2>=0, p_max_dc>0"
            )
        # branch-stable scalar logistic: no overflow however large q1*q2.
        object.__setattr__(self, "theta", _expit_scalar(-self.q1 * self.q2))

    def _f(self, p, xp):
        # on p >= 0 the logistic's argument is at least -q1*q2
        raw = xp.expit(self.q1 * (p - self.q2), -self.q1 * self.q2)
        return self.p_max_dc * (raw - self.theta) / (1.0 - self.theta)

    def _g(self, p_dc):
        if p_dc >= self.p_max_dc:
            raise SaturationError(
                f"DC power {p_dc} W is at/above the saturation "
                f"ceiling {self.p_max_dc} W"
            )
        # invert the normalisation, then the logistic
        raw = (p_dc * (1.0 - self.theta)) / self.p_max_dc + self.theta
        return self.q2 + _logit(raw) / self.q1

    @property
    def ceiling(self):
        """Least upper bound of psi (approached, never attained)."""
        return self.p_max_dc


@dataclass(frozen=True)
class LinearEh(EhModel):
    """Ideal converter psi(p) = eta*p (several rectifiers in parallel)."""

    eta: float

    def __post_init__(self):
        if not 0.0 <= self.eta <= 1.0:
            raise ModelDomainError("conversion efficiency eta must be in [0,1]")

    def _f(self, p, xp):
        return self.eta * p

    def _g(self, p_dc):
        if self.eta == 0.0:
            raise NoInverseError("eta=0 harvests nothing; no inverse for p_dc>0")
        return p_dc / self.eta

    @property
    def ceiling(self):
        return math.inf


# ---------------------------------------------------------------------------
# Decoding-cost families
# ---------------------------------------------------------------------------


class CostModel(_Family):
    """Base class for decoding-cost functions phi(R) [W], non-decreasing,
    phi(0)=0, with a generalized inverse sup{R>=0 : phi(R) <= p}.

    A family writes phi as _f(r, xp) and the inverse as _g(p, xp) on
    p >= 0, with xp.unbounded where no finite ceiling exists; inverse and
    rate_cap are both built from _g.
    """

    _what = "rate"

    def inverse(self, p):
        if p < 0:
            raise ModelDomainError("power must be >= 0")
        return self._g(float(p), _Scalar)

    def rate_cap(self, p_dc, cap):
        """min(inverse(p_dc), cap) with the UNBOUNDED sentinel resolved to
        cap, vectorized.

        `p_dc` is the power available for decoding, `cap` the
        mutual-information ceiling on the rate.  Broadcasting applies.
        Negative available power is treated as 0 (nothing affordable).
        """
        p_dc = np.asarray(p_dc, dtype=float)
        out = np.minimum(self._g(np.maximum(p_dc, 0.0), _Array), np.asarray(cap, dtype=float))
        return _unwrap(np.where(p_dc < 0, 0.0, out))


def _check_beta(beta):
    _check_finite(beta)
    if not beta > 0:
        raise ModelDomainError("beta must be > 0")


@dataclass(frozen=True)
class ExpCost(CostModel):
    """Convex family phi(R) = beta*(2^(2R) - 1)."""

    beta: float

    def __post_init__(self):
        _check_beta(self.beta)

    def _f(self, r, xp):
        return self.beta * xp.expm1(2.0 * _LOG2 * r)

    def _g(self, p, xp):
        return 0.5 * xp.log1p(p / self.beta) / _LOG2


@dataclass(frozen=True)
class LogCost(CostModel):
    """Concave family phi(R) = beta*log2(2R + 1)."""

    beta: float

    def __post_init__(self):
        _check_beta(self.beta)

    def _f(self, r, xp):
        return self.beta * xp.log1p(2.0 * r) / _LOG2

    def _g(self, p, xp):
        # past expm1's overflow the fee bounds no rate: inf, and no warning
        x = _LOG2 * p / self.beta
        big = x > _EXPM1_MAX
        return xp.where(big, math.inf, 0.5 * xp.expm1(xp.where(big, 0.0, x)))


@dataclass(frozen=True)
class LinCost(CostModel):
    """Linear family phi(R) = 2*beta*R (additive over decoded messages)."""

    beta: float

    def __post_init__(self):
        _check_beta(self.beta)

    def _f(self, r, xp):
        return 2.0 * self.beta * r

    def _g(self, p, xp):
        return 0.5 * p / self.beta


@dataclass(frozen=True)
class ConstCost(CostModel):
    """Indicator family phi(R) = phi0 for R > 0, phi(0) = 0.

    The generalized inverse is 0 below the fee and UNBOUNDED at/above it.
    """

    phi0: float

    def __post_init__(self):
        _check_finite(self.phi0)
        if self.phi0 < 0:
            raise ModelDomainError("phi0 must be >= 0")

    def _f(self, r, xp):
        return xp.where(r > 0, self.phi0, 0.0)

    def _g(self, p, xp):
        return xp.where(p < self.phi0, 0.0, xp.unbounded)


# ---------------------------------------------------------------------------
# Parameter and result records
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassicalParams:
    """Two transmitters -> one PS-SWIPT destination.

    h1_sq, h2_sq are channel *power* gains; p1, p2 transmit powers [W];
    n the antenna noise, n_p the processing noise added after the split [W].
    """

    h1_sq: float
    h2_sq: float
    p1: float
    p2: float
    n: float
    n_p: float
    eh: EhModel
    cost: CostModel
    # per-channel work the solvers share (balance roots, by fee); equality,
    # hashing, repr and dataclasses.replace ignore it, so a copy starts empty
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        _check_finite(self.h1_sq, self.h2_sq, self.p1, self.p2, self.n, self.n_p)
        if not (self.h1_sq > 0 and self.h2_sq > 0):
            raise ModelDomainError("channel power gains must be > 0")
        if min(self.p1, self.p2, self.n) < 0:
            raise ModelDomainError("powers must be >= 0")
        if not self.n_p > 0:
            raise ModelDomainError("processing noise n_p must be > 0")

    @property
    def a(self):
        """Total received power at the destination antenna [W]."""
        return self.h1_sq * self.p1 + self.h2_sq * self.p2 + self.n

    def swapped(self):
        """The same channel with the user labels exchanged."""
        return ClassicalParams(
            h1_sq=self.h2_sq,
            h2_sq=self.h1_sq,
            p1=self.p2,
            p2=self.p1,
            n=self.n,
            n_p=self.n_p,
            eh=self.eh,
            cost=self.cost,
        )


@dataclass(frozen=True)
class CoopParams:
    """Two cooperating users -> one PS-SWIPT destination.

    h1, h2 are real non-negative *amplitude* gains to the destination;
    h12/h21 the inter-user amplitudes; n1/n2 the user receiver noises;
    n/n_p destination antenna/processing noise; p_u*_budget the per-user
    source power budgets.  Each receiving node has its own decoding-cost
    model.
    """

    h1: float
    h2: float
    h12: float
    h21: float
    n1: float
    n2: float
    n: float
    n_p: float
    p_u1_budget: float
    p_u2_budget: float
    eh: EhModel
    cost_dest: CostModel
    cost_user1: CostModel
    cost_user2: CostModel
    # per-network work the solvers share (boundary traces, by scan), kept
    # out of equality, hashing, repr and copies as ClassicalParams' memo is
    _memo: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        _check_finite(
            self.h1, self.h2, self.h12, self.h21, self.n1, self.n2, self.n,
            self.n_p, self.p_u1_budget, self.p_u2_budget,
        )
        if min(self.h1, self.h2) < 0:
            raise ModelDomainError("destination amplitude gains must be >= 0")
        if not (self.h12 > 0 and self.h21 > 0 and self.n1 > 0 and self.n2 > 0):
            raise ModelDomainError("user-user links need h12,h21,n1,n2 > 0")
        if min(self.p_u1_budget, self.p_u2_budget, self.n) < 0:
            raise ModelDomainError("powers must be >= 0")
        if not self.n_p > 0:
            raise ModelDomainError("processing noise n_p must be > 0")

    @property
    def b(self):
        """SNR slope of the user1 -> user2 link [1/W]."""
        return self.h12 ** 2 / self.n2

    @property
    def c(self):
        """SNR slope of the user2 -> user1 link [1/W]."""
        return self.h21 ** 2 / self.n1

    def swapped(self):
        """The same network with the user labels exchanged."""
        return CoopParams(
            h1=self.h2,
            h2=self.h1,
            h12=self.h21,
            h21=self.h12,
            n1=self.n2,
            n2=self.n1,
            n=self.n,
            n_p=self.n_p,
            p_u1_budget=self.p_u2_budget,
            p_u2_budget=self.p_u1_budget,
            eh=self.eh,
            cost_dest=self.cost_dest,
            cost_user1=self.cost_user2,
            cost_user2=self.cost_user1,
        )


@dataclass(frozen=True)
class PowerAllocation:
    """Cooperative split: p12/p21 fresh-message powers, pu1/pu2 common."""

    p12: float
    p21: float
    pu1: float
    pu2: float

    def min_power(self):
        return min(self.p12, self.p21, self.pu1, self.pu2)


@dataclass(frozen=True)
class RatePoint:
    """An achievable rate pair and the PS factor that achieves it."""

    r1: float
    r2: float
    rho: float


@dataclass
class SolveReport:
    """Output of a 1-D sum-rate optimizer.

    residuals maps named equality/feasibility conditions to signed values;
    notes carries solver provenance (winning branch, grid size, ...).
    """

    rho_opt: float
    sum_rate: float
    residuals: dict
    bound: float | None = None
    notes: dict = field(default_factory=dict)
