"""Rational-function machinery behind the kernel conversions.

Every kernel maps to the complete Bernstein image
``U(p) = p X + Y + sum_k Z_k p/(p + t_k)``, with PSD data (nonnegative
numbers for a scalar kernel; :func:`cbf_as_rational`, defined in
``kernels``, gives its arrays), and ``U(p)^-1`` is a Stieltjes function whose
pieces are the dual kernel's coefficients.  Both paths work on that
partial-fraction form and never multiply it out into monomial
coefficients, which lose digits on dense or wide spectra.  The scalar path
solves the secular equation ``U(-s) = 0`` by rational interpolation,
safeguarded by the brackets that the interlacing of its roots with the
rates sets, and reads the residues off ``1/U'(-s)``; the 6x6 path
linearizes the same data into a symmetric pencil, solves it as one
symmetric eigensolve, polishes the poles on ``U(-s)``, extracts residues
through a nullspace formula and certifies the poles by an inertia count.
Every matrix the 6x6 path decomposes (``X``, ``Y``, the ``Z_k`` and
``U(-s)``) is symmetric, so each stack of them takes one batched symmetric
eigensolve, whose eigenvalues also give their spectral norms; no step takes
an SVD.  Per pole that is one ``eigh`` of ``U(-s)`` per Newton pass of the
polish, whose last eigenpairs also give the nullspace; a residue's
spectrum comes from its small core ``B' U' B`` (:func:`_nullspace_residues`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .kernels import (
    NumericsError,
    TOL_PSD,
    cbf_as_rational,  # noqa: F401  (re-exported: the map lives in kernels)
    eig_norm,
    psd_clip,
    square_image,
)

ROOT_STEP_REL = 4 * np.finfo(float).eps   # a model step this small (relative) ends a bracket
ROOT_REL_WIDTH = 1e-14      # a bracket this narrow (relative) stops at its iterate
ROOT_LOG_RATIO = 4.0        # midpoints of wider brackets are geometric
ROOT_MAX_STEPS = 200        # evaluations after which a bracket counts as stalled
ROOT_NEAR_RATE = 1e-5       # roots nearer a rate than this times its gaps are
                            # solved about the rate (_about_rates)
TOL_CLUSTER = 1e-8          # relative gap for grouping refined repeated roots
TOL_POLISH = 1e-12          # a Newton step this small (relative) ends the polish
TOL_NULLSPACE = 1e-8        # |eigenvalues| below this (relative) span the nullspace
TOL_ZERO_POLE = 1e-9        # poles below this times the slowest rate count as at zero
TOL_ZERO_POLE_NO_MODES = 1e-12  # without modes, the same relative to Y on the
                                # range of X over |X| (zero_pole_floor)


# ---------------------------------------------------------------------------
# Scalar duals: the secular equation U(-s) = 0
# ---------------------------------------------------------------------------

def _secular_terms(X, Y, rates, weights, split, s):
    """``U(-s)`` at a vector of points, with the slopes of groups of terms.

    ``split`` is ``(m, n, K)``: row ``j`` holds ``Z_k t_k`` for the rates
    of group ``j`` at point ``i``, zeros elsewhere.  Returns
    ``(value, slopes)``: ``value`` in the unexpanded form
    ``-X s + Y + sum Z_k s/(s - t_k)`` (writing ``s/(s - t) = 1 + t/(s - t)``
    cancels at roots far below the fast rates), and the ``(m, n)`` sums
    ``sum_group Z_k t_k/(s - t_k)^2``.  Over groups that partition the
    rates, the slope of ``U(-s)`` in ``s`` is ``-(X + sum of the slopes)``.
    """
    sk = s[:, None]
    gap = sk - rates
    return (sk / gap) @ weights + (Y - X * s), (split / (gap * gap)).sum(-1)


def _secular_slope(X, rates, weights, s):
    """``U'(-s) = X + sum Z_k t_k/(t_k - s)^2`` at a vector of points."""
    return X + (rates * (1.0 / (rates - s[:, None])) ** 2) @ weights


def _rest_at_rates(X, Y, rates, weights, rows):
    """``G_k``, ``U(-t_k)`` without its own term, for the modes ``rows``.

    Near ``t_k``, ``U(-s) = G_k + Z_k s/(s - t_k) + O(s - t_k)`` with
    ``G_k = -X t_k + Y + sum_{j != k} Z_j t_k/(t_k - t_j)``, scalar or 6x6.
    """
    t = rates[rows, None]
    ratio = np.divide(t, t - rates, out=np.zeros((t.size, rates.size)),
                      where=t != rates)
    return Y - np.multiply.outer(t[:, 0], X) + np.tensordot(ratio, weights, 1)


def _rate_gaps(rates):
    """Distance from each sorted rate to its nearest other rate or to 0."""
    gaps = np.diff(rates, prepend=0.0)
    return np.minimum(gaps, np.append(gaps[1:], np.inf))


def _light_modes(X, Y, rates, weights):
    """The modes whose roots can lie within twice ``ROOT_NEAR_RATE`` of the
    gap at their rate (:func:`_about_rates`): a root that near needs
    ``Z_k`` below ``8 ROOT_NEAR_RATE (X t_k + Y + sum Z)``."""
    w = weights.tolist()
    bound = 8.0 * ROOT_NEAR_RATE * (Y + sum(w))
    if min(w, default=np.inf) > bound + 8.0 * ROOT_NEAR_RATE * X * max(
            rates.tolist(), default=0.0):
        return np.zeros(0, dtype=int)   # the usual case, in lists: cheaper
    return np.flatnonzero(weights <= 8.0 * ROOT_NEAR_RATE * X * rates + bound)


def _about_rates(X, Y, rates, weights, k, up, e, steps):
    """Roots ``t_k + e`` of ``U(-s)`` next to rates, and their masses.

    ``k`` indexes the rates and ``up`` picks the side of each root.  With
    ``d_j = t_k - t_j``, ``e U(-t_k - e)`` is exactly
    ``-H(e) e^2 + (G_k + Z_k) e + Z_k t_k``, where ``G_k`` is
    :func:`_rest_at_rates` and ``H(e) = X + sum_{j != k} Z_j t_j/(d_j (d_j +
    e))`` is positive, and it cancels nowhere next to ``t_k``, where the
    secular iteration can only resolve ``e`` to the rounding of ``s``.
    For ``H`` fixed the quadratic has one root on each side of ``t_k``;
    each of ``steps`` steps solves it with ``H`` at the last ``e``, and
    gains a factor ``ROOT_NEAR_RATE`` where ``|e|`` is that small against
    :func:`_rate_gaps`.  The masses ``1/U'(-s)`` sum positive terms in ``e``
    and the ``d_j + e``.  Returns ``(e, masses)``.
    """
    t, z = rates[k], weights[k]
    d = t[:, None] - rates
    d[np.arange(k.size), k] = np.inf   # leaves the own term out of each sum
    b = _rest_at_rates(X, Y, rates, weights, k) + z
    # (H = 0 leaves no root on one side: e is infinite there)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(steps):
            h = X + (rates / (d * (d + e[:, None]))) @ weights
            q = b + np.copysign(np.sqrt(b * b + 4.0 * h * z * t), b)
            e = np.where(up == (b > 0.0), 0.5 * q / h, -2.0 * z * t / q)
        slope = X + (rates / (d + e[:, None]) ** 2) @ weights
        return e, e / (slope * e + z * t / e)   # 1/(slope + Z_k t_k/e^2)


def _midpoint(lo, hi):
    """Bracket midpoints, geometric where ``hi > ROOT_LOG_RATIO * lo``."""
    return np.where(hi > ROOT_LOG_RATIO * lo, np.sqrt(lo) * np.sqrt(hi),
                    0.5 * (lo + hi))


def _arrowhead_roots(X, Y, rates, weights):
    """Eigenvalues of the ``d = 1`` symmetric pencil, ascending, or None
    where its data are not finite.

    With ``c = sqrt(t Z/X)`` and ``S = Y + sum Z``, the arrowhead
    ``[[S/X, c'], [c, diag(t)]]`` (``X > 0``) has the characteristic
    equation ``S/X - s - sum c_k^2/(t_k - s) = 0``, which is ``U(-s)/X``;
    for ``X = 0`` the same holds for ``diag(t) - c c'/S`` with
    ``c = sqrt(t Z)``.  So its eigenvalues are the roots of ``U(-s)``
    (with 0 for ``Y = 0``), each to ``eps`` times its norm.
    """
    total = Y + weights.sum()
    if X > 0.0:
        arrow = np.diag(np.concatenate([[total / X], rates]))
        arrow[1:, 0] = np.sqrt(rates * weights / X)   # eigvalsh reads below
    else:
        c = np.sqrt(rates * weights)
        arrow = np.diag(rates) - np.outer(c, c / total)
    if not np.isfinite(arrow).all():
        return None
    return np.linalg.eigvalsh(arrow)


def interlaced_roots(X, Y, rates, weights):
    """Positive roots ``s`` of ``U(-s) = -X s + Y + sum Z_k s/(s - t_k)``.

    ``rates`` must be sorted, positive and distinct, and the scalar data
    nonnegative with positive weights.  The roots interlace the rates: one
    in ``(a, b) = (0, t_1)`` when ``Y > 0``, one in every ``(t_i, t_{i+1})``,
    and one in ``(t_K, inf)`` when ``X > 0``.  On each bracket ``U(-s)``
    falls monotonically from above zero to minus infinity.  The search
    interval ``(lo, hi)`` starts as ``(a, b)``, except that the lowest
    starts at ``min(t_1, Y/(X + 2 sum Z_k/t_k))/2``, where ``U(-s)`` is
    still positive, and the highest ends at ``max(2 t_K, 2 (Y + 2 sum Z)/X)``,
    where it is negative.

    Each bracket starts from its root of the ``d = 1`` symmetric pencil
    (:func:`_arrowhead_roots`, one ``eigvalsh``) where ``hi`` of the top
    bracket is at most ``1/sqrt(eps)`` times ``lo`` of the lowest, so that
    the eigensolve's rounding stays within ``sqrt(eps)`` of every root; on
    wider spans, or where that start leaves ``(lo, hi)`` or the pencil is
    not finite, from the midpoint of ``(lo, hi)`` (geometric while it spans
    more than a factor of ``ROOT_LOG_RATIO``).  All brackets iterate at
    once, by the rational interpolation of R.-C. Li, *Solving secular
    equations stably and efficiently* (LAWN 89, 1993), the "middle way" of
    LAPACK ``dlaed4``.  At an iterate ``x`` the sign of ``U(-x)`` moves
    ``lo`` or ``hi`` to ``x``.  The terms with poles up to ``a`` are modelled as
    ``q1/(s - a)``, the rest as ``q2/(s - b)`` (as ``-X s`` in the top
    bracket), each matched in value and slope at ``x``
    (:func:`_secular_terms`), and the model's root in ``(a, b)`` is the
    next iterate if it lies inside ``(lo, hi)``, and the midpoint of
    ``(lo, hi)`` otherwise.  A bracket stops when its model step
    is at most ``ROOT_STEP_REL`` (4 ulps) of ``x``, its root being that
    step, or ``x`` if the step leaves ``(lo, hi)``; or when the step leaves
    a bracket narrowed to relative width ``ROOT_REL_WIDTH``, its root then
    being ``x``.  The iteration converges quadratically: from the pencil's
    starts, most brackets stop at the second evaluation of ``U(-s)``, and
    from midpoints after about five.  A NaN in ``U(-s)`` raises
    :class:`NumericsError` at once, and so does a bracket still open after
    ``ROOT_MAX_STEPS`` evaluations.  A bracket whose root lies within
    ``ROOT_NEAR_RATE`` of the gap at its end ``t_k`` by the first step of
    :func:`_about_rates`, for one of the :func:`_light_modes`, does not
    iterate: two more steps give its root, held inside the bracket.
    """
    count = rates.size
    first, last = (0 if Y > 0.0 else 1), count + (1 if X > 0.0 else 0)
    bounds = np.concatenate([[0.0], rates, [np.inf]])
    a, b = bounds[first:last], bounds[first + 1:last + 1]
    lo, hi = a.copy(), b.copy()
    if lo.size and X > 0.0:
        hi[-1] = max(2.0 * bounds[count], 2.0 * (Y + 2.0 * weights.sum()) / X)
    if lo.size and Y > 0.0:
        lo[0] = 0.5 * min(hi[0], Y / (X + 2.0 * (weights / rates).sum()))
    # the middle way's groups: the rates up to a, and the rest
    below = rates <= a[:, None]
    split = np.array([below, ~below]) * (rates * weights)

    x = _midpoint(lo, hi)
    # eigvalsh errs by eps times the arrowhead's norm, about hi[-1]: its
    # starts are taken where that is within sqrt(eps) of the slowest root
    if lo.size and hi[-1] * np.sqrt(np.finfo(float).eps) <= lo[0]:
        start = _arrowhead_roots(X, Y, rates, weights)
        if start is not None:
            start = start[-lo.size:]
            x = np.where((lo < start) & (start < hi), start, x)
    done = np.zeros(x.size, dtype=bool)
    k = _light_modes(X, Y, rates, weights)
    if k.size:   # one root each side of each light rate, to start from
        k, up = np.repeat(k, 2), np.tile([False, True], k.size)
        e = _about_rates(X, Y, rates, weights, k, up, np.zeros(k.size), 1)[0]
        near = ((np.abs(e) <= ROOT_NEAR_RATE * _rate_gaps(rates)[k])
                & (0 <= k - first + up) & (k - first + up < x.size))
        k, up, e = k[near], up[near], e[near]
        done[k - first + up] = True
    evaluations = 0
    # (both quotients of the model's root are formed, and the one not taken
    # may divide by zero)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while not done.all():
            if evaluations == ROOT_MAX_STEPS:
                raise NumericsError("root iteration stalled: a bracket is "
                                    "below floating-point resolution")
            evaluations += 1
            value, slopes = _secular_terms(X, Y, rates, weights, split, x)
            np.copyto(lo, x, where=value >= 0.0)
            np.copyto(hi, x, where=value <= 0.0)
            # With p = x - a and r = 1/(b - x) (0 in the top bracket), the
            # model times (s - a)(s - b) r is alpha eta^2 + 2 half eta - f p
            # in eta = s - x; its root in (a, b) is taken free of cancellation.
            p = x - a
            r = 1.0 / (b - x)
            lower, upper = slopes[0], slopes[1] + X
            fp = value * p
            alpha = (value - lower * p) * r + upper
            half = 0.5 * ((lower + upper) * p - value * (1.0 - p * r))
            root = np.sqrt(half * half + alpha * fp)
            eta = np.where(half > 0.0, fp / (half + root),
                           (root - half) / alpha)
            stop = np.abs(eta) <= ROOT_STEP_REL * x
            step = x + eta
            inside = (lo < step) & (step < hi)
            if not inside.all():
                if np.isnan(value).any():
                    raise NumericsError("U(-s) is NaN in a root bracket")
                stop |= hi - lo <= ROOT_REL_WIDTH * lo
                step = np.where(inside, step,
                                np.where(stop, x, _midpoint(lo, hi)))
            x = np.where(done, x, step)
            done |= stop
    if k.size:
        s = rates[k] + _about_rates(X, Y, rates, weights, k, up, e, 2)[0]
        inner = np.nextafter(rates[k], np.where(up, np.inf, 0.0))
        x[k - first + up] = np.where(up, np.maximum(s, inner),
                                     np.minimum(s, inner))
    return x


def stieltjes_partial_fractions(X, Y, rates, weights, roots):
    """``U(p)^-1 = constant + zero_mass/p + sum_i mass_i/(p + s_i)``.

    ``roots`` are the ``s_i`` from :func:`interlaced_roots`.  Everything is
    in closed form: the masses are ``1/U'(-s_i)``, the constant is
    ``1/U(inf) = 1/(Y + sum Z)`` when ``X = 0`` (else 0) and the zero mass
    is ``1/U'(0) = 1/(X + sum Z_k/t_k)`` when ``Y = 0`` (else 0).  Returns
    ``(constant, zero_mass, masses)``.  A root within twice
    ``ROOT_NEAR_RATE`` of the gap at a light rate (:func:`_light_modes`)
    has its mass from :func:`_about_rates`.  A non-finite or non-positive
    mass means the image data were degenerate and raises
    :class:`NumericsError`.
    """
    with np.errstate(over="ignore"):   # 1/U' a float from a tiny rate
        masses = 1.0 / _secular_slope(X, rates, weights, roots)
    light = _light_modes(X, Y, rates, weights)
    if light.size:
        at, j = np.nonzero(np.abs(roots[:, None] - rates[light]) <= 2.0
                           * ROOT_NEAR_RATE * _rate_gaps(rates)[light])
        k, e = light[j], roots[at] - rates[light[j]]
        masses[at] = _about_rates(X, Y, rates, weights, k, e > 0.0, e, 2)[1]
    constant = 0.0 if X > 0.0 else 1.0 / (Y + weights.sum())
    zero_mass = 0.0 if Y > 0.0 else 1.0 / (X + np.sum(weights / rates))
    bad = ~(np.isfinite(masses) & (masses > 0.0))
    if bad.any():
        raise NumericsError(f"mass {masses[bad][0]:.3e} at pole "
                            f"{roots[bad][0]:.6g} is not finite and positive")
    return float(constant), float(zero_mass), masses


# ---------------------------------------------------------------------------
# 6x6 images and their structured linearization
# ---------------------------------------------------------------------------
#
# Both conversion directions reduce to the same problem.  For a relaxation
# kernel, U(p) = p*Rtilde(p) = p N + B + sum G_k p/(p+r_k); for a creep
# kernel, U(p) = p^2*Ctilde(p) = p A + D + sum H_j p/(p+s_j).  In either
# case U(p)^-1 is a matrix Stieltjes function
#
#     U(p)^-1 = constant + zero_mass/p + sum_k W_k/(p + rho_k)
#
# whose pieces are exactly the dual kernel's coefficients.  The poles are
# found from a symmetric linear pencil assembled from low-rank factors of
# the mode weights; everything is evaluated in the original rational form,
# never through expanded monomial coefficients, so wide rate spreads stay
# well conditioned.


@dataclass(frozen=True, eq=False)
class CbfImage:
    """``U(p) = p X + Y + sum_k Z_k p/(p + t_k)`` with PSD 6x6 data.

    The modes are stacked: ``rates`` is ``(K,)`` and ``weights`` is
    ``(K, 6, 6)``.  Computed once at construction, from one batched
    ``eigh`` of ``[X, Y, Z_1..Z_K]`` kept as ``spectra``: ``norms``, the
    spectral norms of the data (the largest ``|eigenvalue|`` of each), and
    the split of ``X``: ``dirac_eigs`` above ``TOL_PSD`` times its norm,
    their eigenvectors ``dirac_range``, and ``dirac_null`` spanning the
    rest.  The factors a conversion needs are computed on first use, the
    weight factors from the same eigenpairs.
    ``U``, ``U'`` and :meth:`magnitude` are array expressions over the
    modes; they take a scalar or a vector of points, and a vector of ``n``
    points gives an ``(n, 6, 6)`` stack (``(n,)`` for the magnitude).
    """

    dirac: np.ndarray
    constant: np.ndarray
    rates: np.ndarray
    weights: np.ndarray
    spectra: tuple = field(init=False, repr=False)
    norms: np.ndarray = field(init=False)
    dirac_eigs: np.ndarray = field(init=False)
    dirac_range: np.ndarray = field(init=False)
    dirac_null: np.ndarray = field(init=False)

    def __post_init__(self):
        stack = np.concatenate([[self.dirac, self.constant], self.weights])
        w, v = np.linalg.eigh(stack)
        norms = eig_norm(w)
        above = w[0] > TOL_PSD * norms[0]
        for name, value in [("spectra", (w, v)), ("norms", norms),
                            ("dirac_eigs", w[0, above]),
                            ("dirac_range", v[0][:, above]),
                            ("dirac_null", v[0][:, ~above])]:
            object.__setattr__(self, name, value)

    @cached_property
    def weight_factors(self):
        """``(F, ranks)``: ``Z_k = F_k F_k'``, the ``F_k`` side by side in
        ``F``, from the eigenpairs above ``1e-14`` times the largest."""
        w, v = (part[2:] for part in self.spectra)
        keep = w > 1e-14 * np.maximum(w[:, -1:], 1e-300)
        factors = v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
        return (factors.transpose(1, 0, 2).reshape(6, -1)[:, keep.ravel()],
                keep.sum(axis=1))

    @cached_property
    def null_factor(self):
        """``G = L^-1 Q0'``, ``L L' = Q0'(Y + sum Z)Q0`` (``Q0 = dirac_null``,
        (*) makes it definite): ``G'G`` is ``U(p)^-1`` at ``p -> inf``."""
        q0 = self.dirac_null
        block = q0.T @ (self.constant + self.weights.sum(axis=0)) @ q0
        return np.linalg.solve(np.linalg.cholesky(block), q0.T)

    def _mode_sum(self, factors):
        """``sum_k factors[..., k] Z_k``."""
        flat = factors @ self.weights.reshape(len(self.rates), 36)
        return flat.reshape(factors.shape[:-1] + (6, 6))

    def __call__(self, p):
        p = np.asarray(p)
        pk = p[..., None]
        return (p[..., None, None] * self.dirac + self.constant
                + self._mode_sum(pk / (pk + self.rates)))

    def derivative(self, p):
        pk = np.asarray(p)[..., None]
        return self.dirac + self._mode_sum(self.rates / (pk + self.rates) ** 2)

    def magnitude(self, s):
        """Size of the terms entering ``U(-s)``; reference for 'numerically zero'."""
        s = np.asarray(s, dtype=float)
        sk = s[..., None]
        gap = np.abs(self.rates - sk)
        ratio = np.abs(sk) / np.where(gap > 0.0, gap, sk)   # 1 on a rate
        out = self.norms[0] * s + self.norms[1] + ratio @ self.norms[2:]
        return np.maximum(out, 1e-300)

    def on_rate(self, s):
        """Whether each point of ``s`` is a rate, where ``U(-s)`` is not
        defined."""
        return (np.asarray(s)[..., None] == self.rates).any(-1)

    @cached_property
    def rate_bound(self):
        """Mask of the modes whose poles the pencil cannot separate from
        their rates.  Where ``|Z_k| max(sig, t_k eta) <= TOL_CLUSTER sig^2``,
        with ``sig`` the least ``|eigenvalue|`` of ``G_k``
        (:func:`_rest_at_rates`) and ``eta`` the norm of ``U'(-t_k)`` without
        its own term, they lie within ``t_k |Z_k|/sig``, ``TOL_CLUSTER``
        times ``t_k``, of ``t_k``, and the other poles of ``U^-1`` no nearer
        than ``sig/eta``, that many times farther.  Together they carry the
        residue ``t_k G_k^-1 Z_k G_k^-1`` to first order in ``Z_k``.  Only
        modes that small against :meth:`magnitude` (a bound on ``|G_k|``)
        are tested."""
        lone = self.norms[2:] <= TOL_CLUSTER * self.magnitude(self.rates)
        rows = np.flatnonzero(lone)
        if rows.size:
            t = self.rates[rows, None]
            gap = np.where(t == self.rates, np.inf, t - self.rates)
            sig = np.abs(np.linalg.eigvalsh(_rest_at_rates(
                self.dirac, self.constant, self.rates, self.weights,
                rows))).min(-1)
            eta = np.linalg.eigvalsh(self.dirac + np.tensordot(
                self.rates / gap ** 2, self.weights, 1))[:, -1]
            lone[rows] = (self.norms[2 + rows] * np.maximum(sig, t[:, 0] * eta)
                          <= TOL_CLUSTER * sig * sig)
        return lone

    @cached_property
    def zero_pole_floor(self):
        """Poles up to here count as at zero, in the pencil and the zero mass:
        ``TOL_ZERO_POLE`` times the slowest rate, or, without modes,
        ``TOL_ZERO_POLE_NO_MODES`` times ``|Q1' Y Q1|/|X|`` (``Q1`` is
        ``dirac_range``; 0 when ``X = 0``, where ``U = Y`` has no pole),
        the scale at which the pencil's matrix rounds.  Either way the
        floor has the units of a rate."""
        if self.rates.size:
            return TOL_ZERO_POLE * self.rates.min()
        q1 = self.dirac_range
        if not q1.shape[1]:
            return 0.0
        return (TOL_ZERO_POLE_NO_MODES
                * eig_norm(np.linalg.eigvalsh(q1.T @ self.constant @ q1))
                / self.norms[0])


def cbf_image(kernel):
    """The image ``U`` of a 6x6 kernel, with its weights as ``(K, 6, 6)``."""
    return CbfImage(*square_image(kernel))


def image_pencil_roots(image):
    """Pole locations of ``U(p)^-1`` with nullspace bases of ``U(-s)``.

    Writing ``Z_k = L_k L_k^T`` and ``w_k = sqrt(t_k) L_k^T v / (p + t_k)``
    turns ``U(p) v = 0`` into the symmetric linear pencil

        [Y + sum Z,  -sqrt(t) L] [v]       [-X   ] [v]
        [-sqrt(t) L^T,   t I   ] [w]  = p  [   -I] [w]

    whose entries stay at the scale of the data; the factors ``L_k`` of
    all modes are :attr:`CbfImage.weight_factors`.  With ``v = Q1 a + Q0 b``
    (the split of ``X`` in :class:`CbfImage`, ``Lambda1`` its eigenvalues
    on ``Q1``), the ``b`` rows carry no ``p``.  Their block
    ``Q0' (Y + sum Z) Q0`` is positive definite under condition (*), and
    its Schur complement (by :attr:`CbfImage.null_factor`) leaves the
    definite pencil ``S y = -p D y`` over ``(a, w)`` with
    ``D = diag(Lambda1, I)``.  The poles ``s = -p`` are the real
    eigenvalues of ``D^-1/2 S D^-1/2``; those up to
    :attr:`CbfImage.zero_pole_floor` are splinters of the zero eigenvalue
    of a singular ``Y`` and are dropped.  All candidates are polished
    together (see :func:`_refine_roots`), then each cluster is confirmed
    against ``U(-s)`` itself, with the nullspace test of :func:`_near_null`:
    on the polish's last ``eigh`` at its first member where every member
    converged, which is almost every cluster, and on one batched ``eigh``
    at the means of the others (:func:`_image_nullspace`).  A cluster where
    ``U(-s)`` stays regular is a pencil artifact, not a pole of the
    inverse, and is dropped, and so is one whose mean is a rate, where
    ``U(-s)`` is not defined (the pole-count certificate of
    :func:`decompose_inverse` tells whether it was a pole).  Genuine
    poles may lie arbitrarily close to the source rates when a mode weight
    is nearly singular, so no distance-to-rate filtering is applied.  The
    modes of :attr:`CbfImage.rate_bound` stay out of the pencil (their
    poles are their rates) and in every test of ``U(-s)``.
    """
    lone = image.rate_bound
    source = image if not lone.any() else CbfImage(
        image.dirac, image.constant, image.rates[~lone], image.weights[~lone])
    factor, ranks = source.weight_factors
    block_rates = np.repeat(source.rates, ranks)
    block = factor * np.sqrt(block_rates)

    # The pencil matrix on (a, w): ``rows`` are its v rows, whose Q1 and Q0
    # parts are its a and b rows; the null factor eliminates the b rows.
    q1 = image.dirac_range
    base = image.constant + source.weights.sum(axis=0)
    rows = np.hstack([base @ q1, -block])
    reduced = np.block([[q1.T @ rows], [-block.T @ q1, np.diag(block_rates)]])
    coupling = source.null_factor @ rows
    reduced -= coupling.T @ coupling
    root = 1.0 / np.sqrt(np.append(image.dirac_eigs, np.ones(block_rates.size)))
    eigvals = np.linalg.eigvalsh(root[:, None] * reduced * root)
    candidates = eigvals[eigvals > image.zero_pole_floor]

    # Polish every candidate before clustering: splinters of a multiple
    # eigenvalue then collapse onto the same refined value, while genuinely
    # distinct poles that happen to lie close stay apart.
    polish = _refine_roots(image, candidates)
    order = np.argsort(polish.roots)
    candidates = polish.roots[order]
    if not candidates.size:
        return []
    starts = np.flatnonzero(np.concatenate(
        [[True], np.diff(candidates) > TOL_CLUSTER * candidates[1:]]))
    sizes = np.diff(np.append(starts, candidates.size))
    means = np.add.reduceat(candidates, starts) / sizes

    # U(-s) is not defined on a rate: a cluster whose mean is one is left
    # out, and the pole-count certificate tells if it was a pole
    settled = np.logical_and.reduceat(polish.converged[order], starts)
    keep = ~image.on_rate(means)
    means, first, settled = means[keep], order[starts[keep]], settled[keep]

    # a cluster whose members all converged takes its nullspace from the
    # polish's last eigh at its first member; the others take one eigh at
    # their means
    w, v = polish.spectra
    bases = _near_null(image, polish.at[first], (w[first], v[first]))
    redo = np.flatnonzero(~settled)
    if redo.size:
        for i, basis in zip(redo, _image_nullspace(image, means[redo])):
            bases[i] = basis

    # an empty nullspace marks a regular point of U: a spurious pencil
    # eigenvalue, not a pole
    return [(float(s), basis) for s, basis in zip(means, bases)
            if basis.shape[1]]


class Polish(NamedTuple):
    """What :func:`_refine_roots` returns, one entry per candidate."""

    roots: np.ndarray       # the polished points s
    at: np.ndarray          # where the last eigh of U(-s) was taken
    spectra: tuple          # that eigh, (w, v) as (n, 6) and (n, 6, 6)
    converged: np.ndarray   # the last step was at most TOL_POLISH times s


def _refine_roots(image, s):
    """Newton-polish det-roots via the smallest eigenpair, all at once.

    ``g(s) = lambda(s) = v' U(-s) v`` with ``(lambda, v)`` the eigenpair of
    the symmetric ``U(-s)`` of least ``|lambda|`` vanishes at the root; its
    derivative is ``-v' U'(-s) v``.  (These are the smallest singular value
    and its vectors, up to the sign of ``lambda``, which cancels in the
    step.)  This converges quadratically even on semisimple multiple
    eigenvalues, where plain Newton on the determinant stalls.  Each
    iteration is one batched ``eigh`` of the ``(n, 6, 6)`` stack of
    ``U(-s_i)``; a candidate stops after three steps, at a zero slope,
    before a step longer than a tenth of itself, or after a step of at most
    ``TOL_POLISH`` times itself, which counts as converged.  ``U(-s)`` is
    never evaluated on a rate, where it is not defined: a candidate there
    stays as it is, unconverged, and a step onto a rate is not taken.
    Returns a :class:`Polish` that keeps each candidate's last eigenpairs,
    from which :func:`image_pencil_roots` reads the nullspaces of the
    converged ones.
    """
    s = np.array(s, dtype=float)
    at = s.copy()
    w, v = np.zeros((s.size, 6)), np.zeros((s.size, 6, 6))
    converged = np.zeros(s.size, dtype=bool)
    active = np.flatnonzero(~image.on_rate(s))
    for _ in range(3):
        if not active.size:
            break
        x = -s[active]
        u_mat = image(x)
        eigs, vectors = np.linalg.eigh(u_mat)
        w[active], v[active], at[active] = eigs, vectors, s[active]
        least = np.argmin(np.abs(eigs), axis=1)
        right = np.take_along_axis(vectors, least[:, None, None], axis=2)
        left = np.swapaxes(right, 1, 2)
        value = (left @ u_mat @ right)[:, 0, 0]
        slope = -(left @ image.derivative(x) @ right)[:, 0, 0]
        moving = slope != 0.0
        step = np.zeros_like(value)
        step[moving] = value[moving] / slope[moving]
        size = np.abs(step)
        moved = s[active] - step
        moving &= (size <= 0.1 * s[active]) & ~image.on_rate(moved)
        done = size <= TOL_POLISH * s[active]
        converged[active] = done
        s[active[moving]] = moved[moving]
        active = active[moving & ~done]
    return Polish(s, at, (w, v), converged)


def _near_null(image, s, spectra):
    """The eigenvectors of ``U(-s_i)`` whose ``|eigenvalue|`` is at most
    ``TOL_NULLSPACE`` times :meth:`CbfImage.magnitude`, one basis per
    point, from the stack's ``eigh`` ``spectra``."""
    w, v = spectra
    null = np.abs(w) <= TOL_NULLSPACE * image.magnitude(s)[:, None]
    return [vectors[:, keep] for vectors, keep in zip(v, null)]


def _image_nullspace(image, s):
    """Orthonormal near-nullspaces of ``U(-s_i)``, one basis per point.

    One batched ``eigh`` covers every point, and :func:`_near_null` keeps
    the basis.  An empty basis means ``-s_i`` is a regular point and the
    eigenvalue cluster there is a pencil artifact.  A nullspace thinner than the cluster but nonempty is
    accepted: the surplus members are artifacts that happened to polish
    onto a genuine root, and the nullspace dimension is authoritative
    (``U'`` is positive semidefinite on the negative axis, so true poles
    are always semisimple).
    """
    s = np.asarray(s, dtype=float)
    return _near_null(image, s, np.linalg.eigh(image(-s)))


@dataclass(frozen=True, eq=False)
class MatrixStieltjesParts:
    """``U(p)^-1 = constant + zero_mass/p + sum W/(p + rho)``."""

    constant: np.ndarray
    zero_mass: np.ndarray
    modes: tuple
    min_weight_eig: float   # least residue eigenvalue (a 1/mu of a core)
                            # below zero, relative to the decomposition
                            # scale; 0 when none is negative


def _nullspace_residues(bases, slopes):
    """Residues of ``U^-1`` from the nullspace bases ``B`` of its poles,
    with their spectra.

    Each is ``B (B' U' B)^-1 B'``; ``slopes`` stacks ``U'`` at the poles.
    With ``mu, Q = eigh(B' U' B)`` (the core, width x width and ``1 x 1``
    for most poles) it is ``(BQ) diag(1/mu) (BQ)'``, and ``BQ`` has
    orthonormal columns, so its eigenvalues are the ``1/mu`` and zeros.
    Bases of equal width share one batched ``eigh``.  Returns the residues
    with the negative ``1/mu`` left out (``diag(1/mu)+``), and the least
    eigenvalue (at most 0 below full width) and the spectral norm of each
    before that.
    """
    count = len(bases)
    out, low, norms = np.zeros((count, 6, 6)), np.zeros(count), np.zeros(count)
    widths = np.array([b.shape[1] for b in bases], dtype=int)
    for width in np.unique(widths):
        index = np.flatnonzero(widths == width)
        b = np.array([bases[i] for i in index])
        mu, q = np.linalg.eigh(np.swapaxes(b, 1, 2) @ slopes[index] @ b)
        inverse = 1.0 / mu
        bq = b @ q
        out[index] = (bq * np.maximum(inverse, 0.0)[:, None, :]
                      ) @ np.swapaxes(bq, 1, 2)
        low[index] = np.minimum(inverse.min(axis=1, initial=np.inf),
                                0.0 if width < 6 else np.inf)
        norms[index] = np.abs(inverse).max(axis=1, initial=0.0)
    return out, low, norms


def _least_weight_eig(low, scale):
    """``min_weight_eig`` from the least eigenvalue of each residue: the
    most negative relative to ``scale``, 0 when none is negative.  A
    residue indefinite beyond ``1e-6`` of ``scale`` is an error."""
    bad = np.flatnonzero(low < -1e-6 * scale)
    if bad.size:
        raise NumericsError(
            f"residue matrix indefinite beyond tolerance "
            f"(eigmin {low[bad[0]]:.3e}, scale {scale:.3e})")
    return float(np.min(low, initial=0.0)) / scale


def _certify_pole_count(image, poles, widths, zero_width):
    """Raise unless ``zero_width`` plus the ``widths`` of the sorted
    ``poles`` below ``s`` equal ``N(s) = #neg eig U(-s) + sum_{t_k < s}
    rank Z_k``, the inertia count of the poles in ``[0, s)`` (spectrum
    slicing; Parlett, *The Symmetric Eigenvalue Problem*, ch. 3), at the
    midpoints ``sqrt(t_i t_{i+1})`` and as ``s -> inf``, where it is
    ``rank X + sum rank Z_k``.  The ranks are the pencil's decisions."""
    ranks = image.weight_factors[1]
    ends = np.append(np.sqrt(image.rates[:-1] * image.rates[1:]), np.inf)
    negative = np.sum(np.linalg.eigvalsh(image(-ends[:-1])) < 0.0, axis=1)
    expected = np.append(negative + np.cumsum(ranks)[:-1],
                         image.dirac_eigs.size + ranks.sum())
    found = zero_width + np.append(0, np.cumsum(widths, dtype=int))[
        np.searchsorted(poles, ends)]
    for end, want, got in zip(ends, expected, found):
        if want != got:
            raise NumericsError(f"pole count on [0, {end:.6g}): {want} by "
                                f"inertia, {got} found")


def decompose_inverse(image):
    """Stieltjes decomposition of ``U(p)^-1``.

    The pole-at-zero mass comes from the nullspace of ``U(0) = Y``; mode
    weights from the nullspace residue formula, with ``U'`` at every pole
    evaluated as one stack, after :func:`_certify_pole_count` has passed;
    the constant is ``G'G`` (:attr:`CbfImage.null_factor`), PSD and in the
    nullspace of ``X`` by construction, with norm ``|G|^2``.  The zero mass
    and the residues share :func:`_nullspace_residues`, whose small cores
    give their spectra: their norms set the decomposition scale, a residue
    indefinite beyond ``1e-6`` of it raises, and the rest of the negative
    part, rounding, is left out.  Every pole keeps its residue: each is a
    pole of ``U^-1`` however light.  The poles of a mode of
    :attr:`CbfImage.rate_bound` are one, on its rate, with the residue of
    :func:`_rest_at_rates`, PSD-clipped through its own ``eigh``.
    """
    eigs = image_pencil_roots(image)

    # A direction with Y-eigenvalue eps carries a pole at s ~ eps / v'U'(0)v.
    # Classify it as a pole at zero exactly when that implied location falls
    # under the floor below which the pencil discards zero splinters, so no
    # pole is ever counted both here and as a finite mode.
    w, v = (part[1] for part in image.spectra)   # the eigenpairs of Y
    slope = image.derivative(0.0)
    null_y = v[:, w <= image.zero_pole_floor * np.sum(v * (slope @ v), 0)]

    # the pencil's poles, then those of the rate-bound modes, on their rates
    lone = np.flatnonzero(image.rate_bound)
    bases = [basis for _, basis in eigs]
    poles = np.array([s for s, _ in eigs] + image.rates[lone].tolist())
    widths = np.append([b.shape[1] for b in bases],
                       image.weight_factors[1][lone]).astype(int)
    order = np.argsort(poles, kind="stable")
    _certify_pole_count(image, poles[order], widths[order], null_y.shape[1])
    raw, low, norms = _nullspace_residues(
        [null_y] + bases,
        np.concatenate([[slope], image.derivative(-poles[:len(bases)])]))
    zero_mass, raw = raw[0], raw[1:]
    if lone.size:
        inverse = np.linalg.inv(_rest_at_rates(
            image.dirac, image.constant, image.rates, image.weights, lone))
        lumped = image.rates[lone, None, None] * (
            inverse @ image.weights[lone] @ inverse)
        spectrum = np.linalg.eigh(lumped)
        lumped, lumped_low = psd_clip(lumped, spectrum)
        raw, poles = np.concatenate([raw, lumped])[order], poles[order]
        low = np.append(low, lumped_low)
        norms = np.append(norms, eig_norm(spectrum[0]))

    factor = image.null_factor
    constant = factor.T @ factor
    if factor.size:   # |G'G| = |G|^2, the top eigenvalue of G G'
        norms = np.append(norms, np.linalg.eigvalsh(factor @ factor.T)[-1])
    worst = _least_weight_eig(low, float(norms.max()))
    return MatrixStieltjesParts(constant, zero_mass,
                                tuple(zip(poles.tolist(), raw)), worst)
