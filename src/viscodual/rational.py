"""Rational-function machinery behind the kernel conversions.

Every kernel maps to the complete Bernstein image
``U(p) = p X + Y + sum_k Z_k p/(p + t_k)``, with PSD data (nonnegative
numbers for a scalar kernel; :func:`cbf_as_rational`, defined in
``kernels``, gives its arrays), and ``U(p)^-1`` is a Stieltjes function whose
pieces are the dual kernel's coefficients.  Both paths work on that
partial-fraction form and never multiply it out into monomial
coefficients, which lose digits on dense or wide spectra.  The scalar path
bisects the secular equation ``U(-s) = 0`` on the brackets set by the
interlacing of its roots with the rates and reads the residues off
``1/U'(-s)``; the 6x6 path linearizes the same data into a symmetric
pencil, solves it as one symmetric eigenproblem and extracts residues
through a nullspace formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    NumericsError,
    TOL_PSD,
    cbf_as_rational,  # noqa: F401  (re-exported: the map lives in kernels)
    matrix_norm,
    psd_clip,
    square_image,
)

BISECT_REL_WIDTH = 1e-14    # relative bracket width before the Newton polish
BISECT_LOG_RATIO = 4.0      # brackets wider than this ratio bisect in log space
BISECT_MAX_STEPS = 200      # halvings after which a bracket counts as stalled
TOL_CLUSTER = 1e-8          # relative gap for grouping refined repeated roots
TOL_NULLSPACE = 1e-8        # singular values below this (relative) span the nullspace
TOL_CANCEL = 1e-13          # residue norms below this (relative) are numerical dust;
                            # genuine residues can span many orders of magnitude
TOL_CROSSCHECK = 1e-5       # relative mismatch allowed between the two A-evaluations
TOL_ZERO_POLE = 1e-9        # poles below this times the fastest rate count as at zero


# ---------------------------------------------------------------------------
# Scalar duals: the secular equation U(-s) = 0
# ---------------------------------------------------------------------------

def _secular(X, Y, rates, weights, s):
    """``U(-s)`` at a vector of points."""
    sk = s[:, None]
    return -X * s + Y + (sk / (sk - rates)) @ weights


def _secular_slope(X, rates, weights, s):
    """``U'(-s) = X + sum Z_k t_k/(t_k - s)^2`` at a vector of points."""
    return X + (rates * (1.0 / (rates - s[:, None])) ** 2) @ weights


def interlaced_roots(X, Y, rates, weights):
    """Positive roots ``s`` of ``U(-s) = -X s + Y + sum Z_k s/(s - t_k)``.

    ``rates`` must be sorted, positive and distinct, and the scalar data
    nonnegative with positive weights.  The roots interlace the rates: one
    in ``(0, t_1)`` when ``Y > 0``, one in every ``(t_i, t_{i+1})``, and one
    above ``t_K`` when ``X > 0``.  On each bracket ``U(-s)`` falls
    monotonically from above zero to minus infinity, so the sign at the
    midpoint alone decides which half holds the root; no endpoint is
    evaluated.  The lowest bracket starts at
    ``min(t_1, Y/(X + 2 sum Z_k/t_k))/2``, where ``U(-s)`` is still
    positive, and the highest ends at ``max(2 t_K, 2 (Y + 2 sum Z)/X)``,
    where it is negative.  Every bracket is bisected at once, in log space
    while it spans more than a factor of ``BISECT_LOG_RATIO``, to relative
    width ``BISECT_REL_WIDTH``; each root then takes one Newton step, kept
    only if it stays inside its bracket.  A NaN in ``U(-s)`` stalls its
    bracket, and a bracket still open after ``BISECT_MAX_STEPS`` halvings
    raises :class:`NumericsError`.
    """
    count = rates.size
    top = rates[-1] if count else 0.0
    lo = np.concatenate([[0.0], rates])
    hi = np.append(rates, max(2.0 * top, 2.0 * (Y + 2.0 * weights.sum()) / X)
                   if X > 0.0 else np.inf)
    keep = np.ones(count + 1, dtype=bool)
    keep[0] = Y > 0.0
    keep[-1] &= X > 0.0
    lo, hi = lo[keep], hi[keep]
    if keep[0]:
        lo[0] = 0.5 * min(hi[0], Y / (X + 2.0 * np.sum(weights / rates)))

    for _ in range(BISECT_MAX_STEPS):
        active = hi - lo > BISECT_REL_WIDTH * lo
        if not active.any():
            break
        wide = hi > BISECT_LOG_RATIO * lo
        mid = np.where(wide, np.sqrt(lo) * np.sqrt(hi), 0.5 * (lo + hi))
        value = _secular(X, Y, rates, weights, mid)
        # an exact zero closes the bracket on both sides; a NaN stalls it
        lo = np.where(active & (value >= 0.0), mid, lo)
        hi = np.where(active & (value <= 0.0), mid, hi)
    else:
        raise NumericsError("root bisection stalled: U(-s) is NaN or the "
                            "bracket is below floating-point resolution")

    roots = 0.5 * (lo + hi)
    polished = roots + (_secular(X, Y, rates, weights, roots)
                        / _secular_slope(X, rates, weights, roots))
    return np.where((lo < polished) & (polished < hi), polished, roots)


def stieltjes_partial_fractions(X, Y, rates, weights, roots):
    """``U(p)^-1 = constant + zero_mass/p + sum_i mass_i/(p + s_i)``.

    ``roots`` are the ``s_i`` from :func:`interlaced_roots`.  Everything is
    in closed form: the masses are ``1/U'(-s_i)``, the constant is
    ``1/U(inf) = 1/(Y + sum Z)`` when ``X = 0`` (else 0) and the zero mass
    is ``1/U'(0) = 1/(X + sum Z_k/t_k)`` when ``Y = 0`` (else 0).  Returns
    ``(constant, zero_mass, masses)``.  A non-finite or non-positive mass
    means the image data were degenerate and raises :class:`NumericsError`.
    """
    masses = 1.0 / _secular_slope(X, rates, weights, roots)
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
    ``(K, 6, 6)``.  Computed once at construction: ``norms``, the spectral
    norms of ``X``, ``Y`` and every ``Z_k`` (one batched call), and the
    split of ``X``: ``dirac_eigs`` above ``TOL_PSD`` times its norm, their
    eigenvectors ``dirac_range``, and ``dirac_null`` spanning the rest.
    ``U``, ``U'`` and :meth:`magnitude` are array expressions over the
    modes; they take a scalar or a vector of points, and a vector of ``n``
    points gives an ``(n, 6, 6)`` stack (``(n,)`` for the magnitude).
    """

    dirac: np.ndarray
    constant: np.ndarray
    rates: np.ndarray
    weights: np.ndarray
    norms: np.ndarray = field(init=False)
    dirac_eigs: np.ndarray = field(init=False)
    dirac_range: np.ndarray = field(init=False)
    dirac_null: np.ndarray = field(init=False)

    def __post_init__(self):
        stack = np.concatenate([[self.dirac, self.constant], self.weights])
        object.__setattr__(self, "norms",
                           np.linalg.norm(stack, 2, axis=(1, 2)))
        w, v = np.linalg.eigh(self.dirac)
        above = w > TOL_PSD * self.norms[0]
        object.__setattr__(self, "dirac_eigs", w[above])
        object.__setattr__(self, "dirac_range", v[:, above])
        object.__setattr__(self, "dirac_null", v[:, ~above])

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

    @property
    def zero_pole_floor(self):
        """Poles up to here count as at zero, in the pencil and the zero mass."""
        return TOL_ZERO_POLE * (self.rates.max() if self.rates.size else 1.0)


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
    all modes come from one batched eigendecomposition of the weight
    stack.  With ``v = Q1 a + Q0 b`` (the split of ``X`` in
    :class:`CbfImage`, ``Lambda1`` its eigenvalues on ``Q1``), the ``b``
    rows carry no ``p``.  Their block ``Q0' (Y + sum Z) Q0`` is positive
    definite under condition (*), and its Schur complement leaves the
    definite pencil ``S y = -p D y`` over ``(a, w)`` with
    ``D = diag(Lambda1, I)``.  The poles ``s = -p`` are the real
    eigenvalues of ``D^-1/2 S D^-1/2``; those up to
    :attr:`CbfImage.zero_pole_floor` are splinters of the zero eigenvalue
    of a singular ``Y`` and are dropped.  All candidates are polished
    together (see :func:`_refine_roots`), then each cluster is confirmed
    against ``U(-s)`` itself: a cluster where ``U(-s)`` stays regular is a
    pencil artifact, not a pole of the inverse, and is dropped.  Genuine
    poles may lie arbitrarily close to the source rates when a mode weight
    is nearly singular, so no distance-to-rate filtering is applied.
    """
    # Z_k = L_k L_k^T with L_k the eigenvectors of Z_k above its rank floor,
    # scaled by the root of their eigenvalue.
    w, v = np.linalg.eigh(image.weights)
    keep = w > 1e-14 * np.maximum(w[:, -1:], 1e-300)
    factors = v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
    blocks = np.sqrt(image.rates)[:, None, None] * factors
    block = blocks.transpose(1, 0, 2).reshape(6, -1)[:, keep.ravel()]
    block_rates = np.repeat(image.rates, keep.sum(axis=1))

    # The pencil matrix on (a, w): ``rows`` are its v rows, whose Q1 and Q0
    # parts are its a and b rows; a Cholesky factor eliminates the b rows.
    q1, q0 = image.dirac_range, image.dirac_null
    base = image.constant + image.weights.sum(axis=0)
    rows = np.hstack([base @ q1, -block])
    reduced = np.block([[q1.T @ rows], [-block.T @ q1, np.diag(block_rates)]])
    coupling = np.linalg.solve(np.linalg.cholesky(q0.T @ base @ q0),
                               q0.T @ rows)
    reduced -= coupling.T @ coupling
    root = 1.0 / np.sqrt(np.append(image.dirac_eigs, np.ones(block_rates.size)))
    eigvals = np.linalg.eigvalsh(root[:, None] * reduced * root)
    candidates = eigvals[eigvals > image.zero_pole_floor]

    # Polish every candidate before clustering: splinters of a multiple
    # eigenvalue then collapse onto the same refined value, while genuinely
    # distinct poles that happen to lie close stay apart.
    candidates = np.sort(_refine_roots(image, candidates))
    if not candidates.size:
        return []
    starts = np.flatnonzero(np.concatenate(
        [[True], np.diff(candidates) > TOL_CLUSTER * candidates[1:]]))
    sizes = np.diff(np.append(starts, candidates.size))
    means = np.add.reduceat(candidates, starts) / sizes

    # an empty nullspace marks a regular point of U: a spurious pencil
    # eigenvalue, not a pole
    return [(float(s), basis) for s, basis
            in zip(means, _image_nullspace(image, means)) if basis.shape[1]]


def _refine_roots(image, s):
    """Newton-polish det-roots via the smallest singular pair, all at once.

    ``g(s) = u' U(-s) v`` with ``u, v`` the minimal singular vectors of
    ``U(-s)`` vanishes at the root; its derivative is ``-u' U'(-s) v``.
    This converges quadratically even on semisimple multiple eigenvalues,
    where plain Newton on the determinant stalls.  Each iteration is one
    batched SVD of the ``(n, 6, 6)`` stack of ``U(-s_i)``; a candidate stops
    after three steps, at a zero slope, or before a step longer than a
    tenth of itself.
    """
    s = np.array(s, dtype=float)
    active = np.arange(s.size)
    for _ in range(3):
        if not active.size:
            break
        x = -s[active]
        u_mat = image(x)
        u, _, vt = np.linalg.svd(u_mat)
        left, right = u[:, None, :, -1], vt[:, -1, :, None]
        value = (left @ u_mat @ right)[:, 0, 0]
        slope = -(left @ image.derivative(x) @ right)[:, 0, 0]
        moving = slope != 0.0
        step = np.zeros_like(value)
        step[moving] = value[moving] / slope[moving]
        moving &= np.abs(step) <= 0.1 * s[active]
        s[active[moving]] -= step[moving]
        active = active[moving]
    return s


def _image_nullspace(image, s):
    """Orthonormal near-nullspaces of ``U(-s_i)``, one basis per point.

    One batched SVD covers every point.  An empty basis means ``-s_i`` is a
    regular point and the eigenvalue cluster there is a pencil artifact.  A
    nullspace thinner than the cluster but nonempty is accepted: the surplus
    members are artifacts that happened to polish onto a genuine root, and
    the nullspace dimension is authoritative (``U'`` is positive
    semidefinite on the negative axis, so true poles are always semisimple).
    """
    s = np.asarray(s, dtype=float)
    _, sv, vt = np.linalg.svd(image(-s))
    cutoff = TOL_NULLSPACE * image.magnitude(s)
    dimensions = np.sum(sv <= cutoff[:, None], axis=1)
    return [v[6 - d:].T for v, d in zip(vt, dimensions)]


@dataclass(frozen=True, eq=False)
class MatrixStieltjesParts:
    """``U(p)^-1 = constant + zero_mass/p + sum W/(p + rho)``."""

    constant: np.ndarray
    zero_mass: np.ndarray
    modes: tuple
    min_weight_eig: float   # most negative residue eigenvalue before
                            # clipping, relative to the decomposition scale


def _nullspace_residues(bases, slopes):
    """Residues of ``U^-1`` from the nullspace bases ``B`` of its poles.

    Each is ``B (B' U' B)^-1 B'``.  ``slopes`` stacks ``U'`` at the roots;
    bases of equal width share one batched solve.
    """
    out = np.zeros((len(bases), 6, 6))
    widths = np.array([b.shape[1] for b in bases], dtype=int)
    for width in np.unique(widths):
        index = np.flatnonzero(widths == width)
        b = np.array([bases[i] for i in index])
        bt = np.swapaxes(b, 1, 2)
        core = b @ np.linalg.solve(bt @ slopes[index] @ b, bt)
        out[index] = 0.5 * (core + np.swapaxes(core, 1, 2))
    return out


def _clip_residues(stack, scale):
    """PSD-clip a stack of residues; indefinite beyond tolerance is an error.

    Returns the clipped stack and its most negative eigenvalue before
    clipping relative to ``scale`` (0 when none is negative).
    """
    clipped, low = psd_clip(stack)
    low = np.atleast_1d(low)
    bad = np.flatnonzero(low < -1e-6 * scale)
    if bad.size:
        raise NumericsError(
            f"residue matrix indefinite beyond tolerance "
            f"(eigmin {low[bad[0]]:.3e}, scale {scale:.3e})")
    return clipped, float(np.min(low, initial=0.0)) / scale


def decompose_inverse(image):
    """Stieltjes decomposition of ``U(p)^-1``.

    The pole-at-zero mass comes from the nullspace of ``U(0) = Y``; mode
    weights from the nullspace residue formula, with ``U'`` at every pole
    evaluated as one stack; the constant either exactly zero (when the
    Dirac block is positive definite, so ``U^-1`` decays) or by evaluating
    ``U^-1`` beyond the largest pole and subtracting the recovered parts,
    cross-validated at a second point.  The residue norms (one batched call)
    set the decomposition scale and the cancellation test, and the kept
    residues are clipped as one stack.
    """
    eigs = image_pencil_roots(image)

    # A direction with Y-eigenvalue eps carries a pole at s ~ eps / v'U'(0)v.
    # Classify it as a pole at zero exactly when that implied location falls
    # under the floor below which the pencil discards zero splinters, so no
    # pole is ever counted both here and as a finite mode.
    w, v = np.linalg.eigh(image.constant)
    slope = image.derivative(0.0)
    null_y = v[:, w <= image.zero_pole_floor * np.sum(v * (slope @ v), 0)]
    [zero_mass] = _nullspace_residues([null_y], slope[None])

    poles = np.array([s for s, _ in eigs], dtype=float)
    raw = _nullspace_residues([basis for _, basis in eigs],
                              image.derivative(-poles))

    p_star = 1.0 + 2.0 * (poles.max() if poles.size else 1.0)
    probe = np.linalg.inv(image(p_star))
    norms = np.linalg.norm(np.concatenate([[probe, zero_mass], raw]), 2,
                           axis=(1, 2))
    scale = float(norms.max())
    kept = norms[2:] > TOL_CANCEL * scale
    clipped, worst = _clip_residues(
        np.concatenate([[zero_mass], raw[kept]]), scale)
    zero_mass = clipped[0]
    modes = tuple(zip(poles[kept].tolist(), clipped[1:]))

    # U^-1 decays along the range of X, so the constant lives in the
    # nullspace of X (none when X is positive definite).  Projecting the
    # subtracted constant onto it removes the rounding left in the range of
    # X, which the short-time identity X C(0) = 0 would magnify.
    null_x = image.dirac_null
    if null_x.shape[1] == 0:
        constant = np.zeros((6, 6))
    else:
        core = null_x.T @ _constant_by_subtraction(
            image, zero_mass, modes, p_star, probe, scale) @ null_x
        constant, low = _clip_residues(
            null_x @ (0.5 * (core + core.T)) @ null_x.T, scale)
        worst = min(worst, low)
    return MatrixStieltjesParts(constant, zero_mass, modes, worst)


def _constant_by_subtraction(image, zero_mass, modes, p_star, probe, scale):
    rates = np.array([s for s, _ in modes])
    weights = np.array([w for _, w in modes]).reshape(-1, 36)

    def tail(p, value):
        return (value - zero_mass / p
                - ((1.0 / (p + rates)) @ weights).reshape(6, 6))

    constant = tail(p_star, probe)
    p_check = 2.7 * p_star + 0.3
    check = tail(p_check, np.linalg.inv(image(p_check)))
    mismatch = matrix_norm(constant - check)
    if mismatch > TOL_CROSSCHECK * max(scale, matrix_norm(constant)):
        raise NumericsError(
            f"constant-term cross-validation mismatch {mismatch:.3e}; "
            "pole extraction is inconsistent")
    return 0.5 * (constant + check)
