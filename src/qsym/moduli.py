"""Control functions (moduli) for quasisymmetry checks.

A modulus eta is the gauge in the defining implication

    d(x, a) <= t d(x, b)   =>   rho(fx, fa) <= eta(t) rho(fx, fb).

Valid moduli fix 0 and are strictly increasing; parametric variants are
checked analytically, everything else on a 1024-point log-spaced probe
grid.  The empirical variant is the right-continuous step envelope
recovered from a concrete map and is allowed to be merely nondecreasing.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .errors import NoBracket, NotHomeomorphism, NotInvertible

#: validation grid for modulus monotonicity
MONOTONE_GRID = np.geomspace(1e-6, 1e6, 1024)

#: default grid for the involution identity eta(k) eta(1/k) = 1 (symmetric:
#: the reciprocal of every grid point is a grid point)
INVOLUTION_GRID = np.geomspace(1e-4, 1e4, 513)

#: one axis of the 2d grids used to probe submultiplicativity-type
#: conditions; deliberately includes arguments well above 1
SUBMULT_AXIS = np.geomspace(1e-3, 1e3, 48)

#: residual tolerance for numeric modulus inversion, relative to the target
INVERT_RESIDUAL_TOL = 1e-12

#: relative snap width when evaluating step moduli at realized ratios
STEP_SNAP = 1e-9


def _vectorized(fn: Callable, arity: int = 1) -> Callable:
    """``fn`` itself when it maps arrays elementwise, else its np.vectorize;
    a two-argument fn is probed at the reciprocal pairs (0.5, 2), (2, 0.5)."""
    probe = np.array([0.5, 2.0])
    try:
        out = np.asarray(fn(*(probe, probe[::-1])[:arity]), dtype=float)
        if out.shape == probe.shape:
            return fn
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


class Modulus:
    """Base class.  ``eval`` accepts scalars or arrays of t >= 0."""

    name = "abstract"

    def eval(self, t):
        raise NotImplementedError

    def __call__(self, t):
        return self.eval(t)

    def log_eval(self, t):
        """log eta(t) for t > 0; overridden where a stable form exists."""
        with np.errstate(divide="ignore"):
            return np.log(self.eval(t))

    def describe(self) -> str:
        return self.name


def _check_grid_monotone(m: Modulus, what: str = "modulus"):
    vals = np.asarray(m.eval(MONOTONE_GRID), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise NotHomeomorphism(f"{m.name}: non-finite value on the probe grid")
    if np.any(np.diff(vals) <= 0):
        k = int(np.argmax(np.diff(vals) <= 0))
        raise NotHomeomorphism(
            f"{m.name}: {what} not strictly increasing near t = {MONOTONE_GRID[k]:.4g}"
        )
    at0 = float(np.asarray(m.eval(0.0)))
    if abs(at0) > 1e-12:
        raise NotHomeomorphism(f"{m.name}: eta(0) = {at0:.3g}, expected 0")


class PowerModulus(Modulus):
    """eta(t) = t**alpha, alpha > 0; the snowflake control function."""

    def __init__(self, alpha: float):
        alpha = float(alpha)
        if alpha <= 0:
            raise ValueError(f"power modulus needs alpha > 0, got {alpha}")
        self.alpha = alpha
        self.name = f"power:{alpha:g}"

    def eval(self, t):
        return np.asarray(t, dtype=float) ** self.alpha

    def log_eval(self, t):
        with np.errstate(divide="ignore"):
            return self.alpha * np.log(np.asarray(t, dtype=float))


class LinearModulus(Modulus):
    """eta(t) = C t, C > 0."""

    def __init__(self, C: float):
        C = float(C)
        if C <= 0:
            raise ValueError(f"linear modulus needs C > 0, got {C}")
        self.C = C
        self.name = f"linear:{C:g}"

    def eval(self, t):
        return self.C * np.asarray(t, dtype=float)

    def log_eval(self, t):
        with np.errstate(divide="ignore"):
            return np.log(self.C) + np.log(np.asarray(t, dtype=float))


class BiLipschitzModulus(Modulus):
    """eta(t) = L**2 t: the control function of an L-bi-Lipschitz map."""

    def __init__(self, L: float):
        L = float(L)
        if L < 1:
            raise ValueError(f"bi-Lipschitz constant must be >= 1, got {L}")
        self.L = L
        self.name = f"bilip:{L:g}"

    def eval(self, t):
        return (self.L ** 2) * np.asarray(t, dtype=float)

    def log_eval(self, t):
        with np.errstate(divide="ignore"):
            return 2.0 * np.log(self.L) + np.log(np.asarray(t, dtype=float))


def _log_expm1(x):
    """log(exp(x) - 1), stable for both tiny and huge x > 0."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    big = x > 30.0
    out[big] = x[big]  # exp(x) - 1 ~ exp(x)
    with np.errstate(divide="ignore"):
        out[~big] = np.log(np.expm1(x[~big]))
    return out


class ExpRatioModulus(Modulus):
    """eta(t) = (e**t - 1) / (e**(1/t) - 1), continued by 0 at 0.

    Satisfies eta(t) eta(1/t) = 1 identically; use ``log_eval`` for large
    or tiny arguments, where the direct quotient over/underflows.
    """

    name = "expratio"

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        pos = t > 0
        with np.errstate(over="ignore"):
            num = np.expm1(t[pos])
            den = np.expm1(1.0 / t[pos])
        out[pos] = num / den
        return float(out[0]) if scalar else out

    def log_eval(self, t):
        t = np.asarray(t, dtype=float)
        return _log_expm1(t) - _log_expm1(1.0 / t)


class SandwichModulus(Modulus):
    """eta(t) = C K**2 phi1(t), built by ``eta_from_sandwich``."""

    def __init__(self, C: float, K: float, phi1: Callable, label: str = "phi1"):
        if C <= 0:
            raise ValueError("sandwich constant C must be positive")
        if K < 1:
            raise ValueError("sandwich constant K must be >= 1")
        self.C = float(C)
        self.K = float(K)
        self.phi1 = _vectorized(phi1)
        self.name = f"sandwich:C={C:g},K={K:g},{label}"
        _check_grid_monotone(self)

    def eval(self, t):
        return self.C * self.K ** 2 * np.asarray(self.phi1(t), dtype=float)


class CompositeModulus(Modulus):
    """Two-branch modulus built from a pair of partition generators.

    Below 1 the value is 1/2 + f1(t) - f1(1 - t); above 1 it is the
    reciprocal of the same expression in f2 at 1/t.  Both branches meet in
    eta(1) = 1 when the generators fix 0 and send 1 to 1/2.
    """

    def __init__(self, f1: Callable, f2: Callable, label: str = "k8"):
        self.f1 = _vectorized(f1)
        self.f2 = _vectorized(f2)
        self.name = label
        _check_grid_monotone(self)

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.empty_like(t)
        low = t <= 1.0
        tl = t[low]
        out[low] = 0.5 + np.asarray(self.f1(tl), dtype=float) - np.asarray(
            self.f1(1.0 - tl), dtype=float
        )
        th = 1.0 / t[~low]
        denom = 0.5 + np.asarray(self.f2(th), dtype=float) - np.asarray(
            self.f2(1.0 - th), dtype=float
        )
        out[~low] = 1.0 / denom
        return float(out[0]) if scalar else out


class InvolutiveModulus(Modulus):
    """eta(t) = exp(psi(t, 1/t)) for an antisymmetric kernel psi.

    The involution identity eta(k) eta(1/k) = 1 holds by construction.
    Build through ``eta_from_antisymmetric``, which also probes the
    antisymmetry.
    """

    def __init__(self, psi: Callable, label: str = "involutive"):
        self.psi = _vectorized(psi, arity=2)
        self.name = label
        g = self.log_eval(MONOTONE_GRID)
        if not np.all(np.isfinite(g)):
            raise NotHomeomorphism(f"{label}: kernel non-finite on the probe grid")
        if np.any(np.diff(g) <= 0):
            raise NotHomeomorphism(
                f"{label}: exp(psi(t, 1/t)) is not strictly increasing on the probe grid"
            )

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.zeros_like(t)
        pos = t > 0
        with np.errstate(over="ignore"):
            out[pos] = np.exp(np.asarray(self.psi(t[pos], 1.0 / t[pos]), dtype=float))
        return float(out[0]) if scalar else out

    def log_eval(self, t):
        t = np.asarray(t, dtype=float)
        return np.asarray(self.psi(t, 1.0 / t), dtype=float)


class CallableModulus(Modulus):
    """An arbitrary callable promoted to a modulus after grid validation."""

    def __init__(self, fn: Callable, label: str = "custom"):
        self._fn = _vectorized(fn)
        self.name = label
        _check_grid_monotone(self)

    def eval(self, t):
        return np.asarray(self._fn(t), dtype=float)


class EmpiricalModulus(Modulus):
    """Right-continuous step function through envelope points (t_i, H_i).

    Zero below the first point.  Evaluation snaps to a step within
    relative ``STEP_SNAP`` of its abscissa, so reciprocals and transformed
    copies of realized ratios land on the intended step despite float
    noise.
    """

    def __init__(self, ts, hs):
        ts = np.asarray(ts, dtype=float)
        hs = np.asarray(hs, dtype=float)
        if ts.ndim != 1 or ts.shape != hs.shape:
            raise ValueError("empirical modulus needs matching 1-d point arrays")
        if len(ts) == 0:
            raise ValueError("empirical modulus needs at least one point")
        if np.any(ts <= 0) or not np.all(np.isfinite(ts)):
            raise ValueError("step abscissae must be finite and positive")
        if np.any(np.diff(ts) <= 0):
            raise ValueError("step abscissae must be strictly increasing")
        if np.any(hs < 0) or not np.all(np.isfinite(hs)):
            raise ValueError("step values must be finite and nonnegative")
        if np.any(np.diff(hs) < 0):
            raise ValueError("step values must be nondecreasing")
        self.ts = ts.copy()
        self.hs = hs.copy()
        self.ts.setflags(write=False)
        self.hs.setflags(write=False)
        self.name = f"empirical[{len(ts)} steps]"

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        idx = np.searchsorted(self.ts, t * (1.0 + STEP_SNAP), side="right") - 1
        out = np.where(idx >= 0, self.hs[np.clip(idx, 0, None)], 0.0)
        return float(out[0]) if scalar else out


class NumericInverseModulus(Modulus):
    """eta'(t) = 1 / eta^{-1}(1/t), computed by bisection on demand."""

    def __init__(self, base: Modulus):
        self.base = base
        self.name = f"inverse({base.name})"
        # the base must be strictly increasing for inversion to make sense;
        # probe in log space so fast-growing moduli do not overflow the check
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            vals = np.asarray(base.log_eval(MONOTONE_GRID), dtype=float)
        if np.any(np.diff(vals) <= 0) or not np.all(np.isfinite(vals)):
            raise NotInvertible(f"{base.name}: not strictly increasing on the probe grid")

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        # one bisection over the distinct positive arguments
        u, where = np.unique(t, return_inverse=True)
        vals = np.zeros_like(u)
        pos = u > 0
        with np.errstate(divide="ignore"):
            vals[pos] = 1.0 / _bisect(self.base.eval, 1.0 / u[pos], self.base.name)
        out = vals[where].reshape(t.shape)
        return float(out) if t.ndim == 0 else out


def invert_modulus(eta: Modulus, y: float) -> float:
    """Solve eta(s) = y for s >= 0 by bracket doubling plus bisection.

    Residual tolerance ``1e-12 * y``, relative at every step.  Raises
    :class:`NoBracket` when doubling from 1 never reaches y, and
    :class:`NotInvertible` when the bisection stalls: the bracket cannot be
    split (its midpoint equals an end) or 400 steps pass.
    """
    return _bisect(eta.eval, y, eta.name)


def _bisect(fn: Callable, y, name: str):
    """Solve fn(s) = y for an increasing fn with fn(0) = 0 (see
    :func:`invert_modulus`); ``name`` labels the errors.

    ``y`` may be an array of targets.  Each runs the scalar steps, bracket
    doubling from 1 and then bisection on compact arrays of the open
    targets (lo, hi, y, shrunk by one mask), so fn sees one array per
    step and every value equals its own scalar bisection.  The error raised
    is the first failing target's.
    """
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    out = np.zeros_like(y)
    failed = {}  # target index -> (error class, message)
    for i in np.flatnonzero(y < 0).tolist():
        failed[i] = (
            NotInvertible, f"cannot invert {name} at negative value {float(y[i])}"
        )
    k = np.flatnonzero(y > 0)
    hi = np.ones(k.size)
    up = np.arange(k.size)
    for _ in range(65):
        if not up.size:
            break
        up = up[np.asarray(fn(hi[up]), dtype=float) < y[k[up]]]
        hi[up] *= 2.0
    for i in k[up].tolist():
        failed[i] = (NoBracket, f"{name} never reaches {y[i]:.6g} (bracket past 2^64)")
    k, hi = np.delete(k, up), np.delete(hi, up)
    yk = y[k]
    lo = np.zeros_like(yk)
    for step in range(400):
        if not k.size:
            break
        mid = 0.5 * (lo + hi)
        val = np.asarray(fn(mid), dtype=float)
        res = np.abs(val - yk)
        done = res <= INVERT_RESIDUAL_TOL * yk
        stop = ~done & ((mid == lo) | (mid == hi) | (step == 399))
        below = val < yk
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        keep = ~(done | stop)
        if keep.all():
            continue
        out[k[done]] = mid[done]
        for j in np.flatnonzero(stop).tolist():
            failed[int(k[j])] = (
                NotInvertible,
                f"{name}: bisection stalled at residual {res[j]:.3g} inverting "
                f"{yk[j]:.6g}",
            )
        k, yk, lo, hi = k[keep], yk[keep], lo[keep], hi[keep]
    if failed:
        error, message = failed[min(failed)]
        raise error(message)
    return float(out[0]) if scalar else out


def inverse_modulus(eta: Modulus) -> Modulus:
    """The control function of the inverse map: eta'(t) = 1 / eta^{-1}(1/t).

    Closed forms: power alpha -> power 1/alpha, linear C -> linear C,
    bi-Lipschitz L -> itself.  Step moduli are not invertible.
    """
    if isinstance(eta, PowerModulus):
        return PowerModulus(1.0 / eta.alpha)
    if isinstance(eta, BiLipschitzModulus):
        return BiLipschitzModulus(eta.L)
    if isinstance(eta, LinearModulus):
        return LinearModulus(eta.C)
    if isinstance(eta, EmpiricalModulus):
        raise NotInvertible("a step modulus has no strictly increasing inverse")
    return NumericInverseModulus(eta)


def parse_modulus(text: str) -> Modulus:
    """Parse the command-line modulus grammar.

    power:A | linear:C | bilip:L | expratio | k8:N1,N2 | empirical:FILE
    """
    text = text.strip()
    if text == "expratio":
        return ExpRatioModulus()
    head, sep, arg = text.partition(":")
    if not sep:
        raise ValueError(f"unknown modulus spec {text!r}")
    if head == "power":
        return PowerModulus(float(arg))
    if head == "linear":
        return LinearModulus(float(arg))
    if head == "bilip":
        return BiLipschitzModulus(float(arg))
    if head == "k8":
        from .betweenness import eta_from_generators, power_generator

        parts = arg.split(",")
        if len(parts) != 2:
            raise ValueError(f"k8 spec needs two exponents, got {text!r}")
        return eta_from_generators(
            power_generator(float(parts[0])),
            power_generator(float(parts[1])),
            label=text,
        )
    if head == "empirical":
        from .fileio import load_envelope_points

        ts, hs = load_envelope_points(arg)
        return EmpiricalModulus(ts, hs)
    raise ValueError(f"unknown modulus spec {text!r}")
