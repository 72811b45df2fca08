"""Rational-function machinery behind the kernel conversions.

``p * ftilde(p)`` of a Prony relaxation kernel is a rational complete
Bernstein function; its reciprocal is a rational Stieltjes function whose
poles interlace the kernel rates.  The scalar path expands exact
numerator/denominator polynomials and finds the interlaced real roots by
bracketed bisection; the 6x6 path never expands polynomials but linearizes
the partial-fraction data into a structured generalized eigenproblem and
extracts residues through a nullspace formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.polynomial as npoly
import scipy.linalg

from .kernels import (
    NumericsError,
    TOL_PSD,
    matrix_norm,
    psd_clip,
)

BISECT_REL_WIDTH = 1e-14    # relative bracket width before the Newton polish
TOL_RESIDUE = 1e-12         # negative residues within this (relative) are clipped
TOL_IMAG = 1e-6             # accepted relative imaginary part of pencil eigenvalues
TOL_CLUSTER = 1e-8          # relative gap for grouping refined repeated roots
TOL_NULLSPACE = 1e-8        # singular values below this (relative) span the nullspace
TOL_CANCEL = 1e-13          # residue norms below this (relative) are numerical dust;
                            # genuine residues can span many orders of magnitude
TOL_CROSSCHECK = 1e-5       # relative mismatch allowed between the two A-evaluations


class BracketError(NumericsError):
    """A guaranteed sign-change bracket failed; input is numerically degenerate."""


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RealPolynomial:
    """Dense real polynomial, coefficients ascending by degree."""

    coeffs: tuple

    @classmethod
    def make(cls, coeffs):
        c = [float(x) for x in coeffs]
        while len(c) > 1 and c[-1] == 0.0:
            c.pop()
        return cls(tuple(c))

    @property
    def degree(self):
        return len(self.coeffs) - 1

    @property
    def leading(self):
        return self.coeffs[-1]

    def __call__(self, x):
        return npoly.polyval(x, self.coeffs)

    def derivative(self):
        return RealPolynomial.make(npoly.polyder(self.coeffs))

    def __mul__(self, other):
        if isinstance(other, RealPolynomial):
            return RealPolynomial.make(npoly.polymul(self.coeffs, other.coeffs))
        return RealPolynomial.make(np.asarray(self.coeffs) * float(other))

    __rmul__ = __mul__

    def __add__(self, other):
        return RealPolynomial.make(npoly.polyadd(self.coeffs, other.coeffs))


def product_of_monomials(rates):
    """``prod_k (p + r_k)`` as a RealPolynomial."""
    out = RealPolynomial.make([1.0])
    for r in rates:
        out = out * RealPolynomial.make([r, 1.0])
    return out


@dataclass(frozen=True)
class RationalStieltjes:
    """``a + b/p + sum mass/(p + pole)`` with nonnegative data."""

    constant: float
    pole_at_zero_mass: float
    modes: tuple

    def __call__(self, p):
        return (self.constant + self.pole_at_zero_mass / p
                + sum(m / (p + s) for s, m in self.modes))


# ---------------------------------------------------------------------------
# Scalar numerators and denominators
# ---------------------------------------------------------------------------

def cbf_as_rational(kernel):
    """Numerator and denominator of ``p * ftilde(p)`` for a relaxation kernel.

    ``D(p) = prod(p + r_k)`` and
    ``N(p) = (beta*p + a) D(p) + sum_k m_k p D(p)/(p + r_k)``, expanded.
    """
    rates = [r for r, _ in kernel.modes]
    den = product_of_monomials(rates)
    num = RealPolynomial.make(
        [kernel.equilibrium, kernel.newtonian]) * den
    p = RealPolynomial.make([0.0, 1.0])
    for i, (_, weight) in enumerate(kernel.modes):
        others = product_of_monomials(rates[:i] + rates[i + 1:])
        num = num + weight * (p * others)
    return num, den


def stieltjes_as_rational(kernel):
    """Numerator of ``p * htilde(p)`` for a creep kernel, plus the pole product.

    Returns ``(M, E)`` with ``p * htilde(p) = M(p) / (p * E(p))`` where
    ``E(p) = prod(p + s_j)``.  ``M(p) = a p E + b E + sum_j nu_j p E/(p+s_j)``.
    """
    rates = [r for r, _ in kernel.modes]
    pole_product = product_of_monomials(rates)
    num = RealPolynomial.make(
        [kernel.fluidity, kernel.instantaneous]) * pole_product
    p = RealPolynomial.make([0.0, 1.0])
    for i, (_, mass) in enumerate(kernel.modes):
        others = product_of_monomials(rates[:i] + rates[i + 1:])
        num = num + mass * (p * others)
    return num, pole_product


# ---------------------------------------------------------------------------
# Interlaced root finding
# ---------------------------------------------------------------------------

def _bisect(f, lo, hi, flo, fhi):
    """Bisection to relative width BISECT_REL_WIDTH, then one Newton step."""
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if hi - lo <= BISECT_REL_WIDTH * mid:
            break
        fm = f(mid)
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi, fhi = mid, fm
    return 0.5 * (lo + hi)


def interlaced_roots(numerator, poles, has_dirac, has_equilibrium,
                     derivative=None):
    """Positive roots ``s`` of ``numerator(-s) = 0``, bracketed by interlacing.

    ``poles`` are the (sorted, positive) rates of the source kernel.  The
    Stieltjes structure places exactly one root strictly between consecutive
    rates, one below the smallest rate when the numerator does not vanish at
    zero (``has_equilibrium``), and one above the largest rate when the
    numerator carries the extra Dirac degree (``has_dirac``).  Each root is
    refined by bisection and polished with one Newton step.
    """
    poles = sorted(float(r) for r in poles)
    if derivative is None:
        derivative = numerator.derivative()

    def q(s):
        return numerator(-s)

    intervals = [(0.0, poles[0])] if poles else []
    intervals += list(zip(poles, poles[1:]))
    if has_dirac:
        # Cauchy bound on the root magnitudes of the numerator.
        bound = 1.0 + max(abs(c) for c in numerator.coeffs) / abs(
            numerator.leading)
        start = poles[-1] if poles else 0.0
        if bound <= start:
            bound = 2.0 * start + 1.0
        intervals.append((start, bound))
    if intervals and not has_equilibrium:
        intervals = intervals[1:]

    roots = []
    for lo, hi in intervals:
        flo, fhi = q(lo), q(hi)
        grow = 0
        while flo * fhi > 0.0 and has_dirac and hi > (poles[-1] if poles else 0.0) \
                and grow < 60 and (lo, hi) == intervals[-1]:
            # The Cauchy bound can undershoot for extreme coefficients.
            hi *= 2.0
            fhi = q(hi)
            grow += 1
        if flo == 0.0 or fhi == 0.0 or flo * fhi > 0.0:
            raise BracketError(
                f"no sign change in root bracket ({lo:.6g}, {hi:.6g}); "
                "rates may be numerically coincident")
        root = _bisect(q, lo, hi, flo, fhi)
        slope = -derivative(-root)
        if slope != 0.0:
            polished = root - q(root) / slope
            if lo < polished < hi:
                root = polished
        roots.append(root)
    return roots


# ---------------------------------------------------------------------------
# Scalar residues
# ---------------------------------------------------------------------------

def stieltjes_partial_fractions(numerator, denominator, roots):
    """Decompose ``denominator/numerator`` into Stieltjes canonical form.

    ``roots`` must be the positive-negated zeros of the numerator.  Returns
    the constant (value at infinity), the mass of the pole at zero (nonzero
    only when the numerator vanishes at zero) and one (pole, mass) pair per
    root.  Residues that come out negative beyond ``TOL_RESIDUE`` signal an
    upstream root error.
    """
    dnum = numerator.derivative()
    if numerator.degree > denominator.degree:
        constant = 0.0
    else:
        constant = denominator.leading / numerator.leading
    if numerator.coeffs[0] == 0.0:
        zero_mass = denominator(0.0) / dnum(0.0)
    else:
        zero_mass = 0.0
    masses = [denominator(-s) / dnum(-s) for s in roots]

    scale = abs(constant) + abs(zero_mass) + sum(abs(m) for m in masses)
    tol = TOL_RESIDUE * scale
    for value, what in [(constant, "constant"), (zero_mass, "pole-at-zero mass")]:
        if value < -tol:
            raise NumericsError(f"negative {what} {value:.3e} in decomposition")
    modes = []
    for s, m in zip(roots, masses):
        if m < -tol:
            raise NumericsError(
                f"negative residue {m:.3e} at pole {s:.6g}; root refinement failed")
        if m > 0.0:
            modes.append((s, m))
    modes.sort(key=lambda e: e[0])
    return RationalStieltjes(max(constant, 0.0), max(zero_mass, 0.0),
                             tuple(modes))



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
# found from a structured linear pencil assembled from low-rank factors of
# the mode weights; everything is evaluated in the original rational form,
# never through expanded monomial coefficients, so wide rate spreads stay
# well conditioned.


@dataclass(frozen=True, eq=False)
class CbfImage:
    """``U(p) = p X + Y + sum_k Z_k p/(p + t_k)`` with PSD 6x6 data.

    The modes are stacked: ``rates`` is ``(K,)`` and ``weights`` is
    ``(K, 6, 6)``.  ``norms`` holds the spectral norms of ``X``, ``Y`` and
    every ``Z_k``, computed once at construction in one batched call.
    ``U``, ``U'`` and :meth:`magnitude` are array expressions over the
    modes; they take a scalar or a vector of points, and a vector of ``n``
    points gives an ``(n, 6, 6)`` stack (``(n,)`` for the magnitude).
    """

    dirac: np.ndarray
    constant: np.ndarray
    rates: np.ndarray
    weights: np.ndarray
    norms: np.ndarray = field(init=False)

    def __post_init__(self):
        stack = np.concatenate([[self.dirac, self.constant], self.weights])
        object.__setattr__(self, "norms",
                           np.linalg.norm(stack, 2, axis=(1, 2)))

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
    def rate_scale(self):
        return float(self.rates.max()) if self.rates.size else 1.0


def cbf_image(kernel):
    """The image ``U`` whose inverse holds the dual kernel's coefficients."""
    # local import keeps the module dependency one-way at load time
    from .kernels import CREEP_KINDS, RELAXATION_KINDS
    if isinstance(kernel, RELAXATION_KINDS):
        dirac, constant = kernel.newtonian, kernel.equilibrium
    elif isinstance(kernel, CREEP_KINDS):
        dirac, constant = kernel.instantaneous, kernel.fluidity
    else:
        raise TypeError(f"not a kernel: {type(kernel).__name__}")
    return CbfImage(np.asarray(dirac, dtype=float),
                    np.asarray(constant, dtype=float),
                    np.array([r for r, _ in kernel.modes], dtype=float),
                    np.array([w for _, w in kernel.modes],
                             dtype=float).reshape(-1, 6, 6))


def image_pencil_roots(image):
    """Pole locations of ``U(p)^-1`` with nullspace bases of ``U(-s)``.

    Writing ``Z_k = L_k L_k^T`` and ``w_k = sqrt(t_k) L_k^T v / (p + t_k)``
    turns ``U(p) v = 0`` into the symmetric linear pencil

        [Y + sum Z,  -sqrt(t) L] [v]       [-X   ] [v]
        [-sqrt(t) L^T,   t I   ] [w]  = p  [   -I] [w]

    whose entries stay at the scale of the data.  The factors ``L_k`` of
    all modes come from one batched eigendecomposition of the weight
    stack.  Finite eigenvalues with negative real part are the candidate
    poles; splinters of the semisimple zero eigenvalue (present when ``Y``
    is singular) are removed.  All candidates are polished together (see
    :func:`_refine_roots`), then each cluster is confirmed against
    ``U(-s)`` itself: a cluster where ``U(-s)`` stays regular is a pencil
    artifact, not a pole of the inverse, and is dropped.  Genuine poles may
    lie arbitrarily close to the source rates when a mode weight is nearly
    singular, so no distance-to-rate filtering is applied.
    """
    # Z_k = L_k L_k^T with L_k the eigenvectors of Z_k above its rank floor,
    # scaled by the root of their eigenvalue.
    w, v = np.linalg.eigh(image.weights)
    keep = w > 1e-14 * np.maximum(w[:, -1:], 1e-300)
    factors = v * np.sqrt(np.where(keep, w, 0.0))[:, None, :]
    blocks = np.sqrt(image.rates)[:, None, None] * factors
    block = blocks.transpose(1, 0, 2).reshape(6, -1)[:, keep.ravel()]
    block_rates = np.repeat(image.rates, keep.sum(axis=1))
    dim = 6 + block_rates.size
    mm = np.zeros((dim, dim))
    ww = np.zeros((dim, dim))
    mm[:6, :6] = image.constant + image.weights.sum(axis=0)
    mm[:6, 6:] = -block
    mm[6:, :6] = -block.T
    mm[6:, 6:] = np.diag(block_rates)
    ww[:6, :6] = -image.dirac
    ww[6:, 6:] = -np.eye(dim - 6)

    rate_scale = image.rate_scale
    eigvals = scipy.linalg.eigvals(mm, ww)
    eigvals = eigvals[np.isfinite(eigvals)]
    eigvals = eigvals[np.abs(eigvals) <= 1e12 * rate_scale]
    eigvals = eigvals[eigvals.real < 0.0]
    complex_ = np.abs(eigvals.imag) > TOL_IMAG * np.maximum(
        np.abs(eigvals), rate_scale)
    if np.any(complex_):
        raise NumericsError(f"pencil eigenvalue {eigvals[complex_][0]:.6g} "
                            "is not real within tolerance")
    candidates = -eigvals.real
    # splinters of the zero eigenvalue (singular Y)
    candidates = candidates[candidates > 1e-9 * rate_scale]

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


def decompose_inverse(image, eigs=None):
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
    if eigs is None:
        eigs = image_pencil_roots(image)

    # A direction with Y-eigenvalue eps carries a pole at s ~ eps / v'U'(0)v.
    # Classify it as a pole at zero exactly when that implied location falls
    # under the same threshold used to discard zero splinters in the pencil,
    # so no pole is ever counted both here and as a finite mode.
    delta = 1e-9 * image.rate_scale
    w, v = np.linalg.eigh(image.constant) if image.norms[1] > 0.0 else (
        np.zeros(6), np.eye(6))
    slope = image.derivative(0.0)
    null_y = v[:, w <= delta * np.sum(v * (slope @ v), axis=0)]
    [zero_mass] = _nullspace_residues([null_y], slope[None])

    poles = np.array([s for s, _ in eigs], dtype=float)
    raw = _nullspace_residues([basis for _, basis in eigs],
                              image.derivative(-poles))

    def evaluate(p):
        return np.linalg.inv(image(p))

    p_star = 1.0 + 2.0 * (poles.max() if poles.size else 1.0)
    probe = evaluate(p_star)
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
    w, v = np.linalg.eigh(image.dirac)
    null_x = v[:, w <= TOL_PSD * image.norms[0]]
    if null_x.shape[1] == 0:
        constant = np.zeros((6, 6))
    else:
        core = null_x.T @ _constant_by_subtraction(
            evaluate, zero_mass, modes, p_star, probe, scale) @ null_x
        constant, low = _clip_residues(
            null_x @ (0.5 * (core + core.T)) @ null_x.T, scale)
        worst = min(worst, low)
    return MatrixStieltjesParts(constant, zero_mass, modes, worst)


def _constant_by_subtraction(evaluate, zero_mass, modes, p_star, probe, scale):
    rates = np.array([s for s, _ in modes])
    weights = np.array([w for _, w in modes]).reshape(-1, 36)

    def tail(p, value):
        return (value - zero_mass / p
                - ((1.0 / (p + rates)) @ weights).reshape(6, 6))

    constant = tail(p_star, probe)
    p_check = 2.7 * p_star + 0.3
    check = tail(p_check, evaluate(p_check))
    mismatch = matrix_norm(constant - check)
    if mismatch > TOL_CROSSCHECK * max(scale, matrix_norm(constant)):
        raise NumericsError(
            f"constant-term cross-validation mismatch {mismatch:.3e}; "
            "pole extraction is inconsistent")
    return 0.5 * (constant + check)
