"""Conversions between relaxation and creep kernels.

The conversions are computed exactly in coefficient space.  Every kernel
has the complete Bernstein image ``U(p) = p X + Y + sum Z_k p/(p + t_k)``
(see :func:`viscodual.kernels.cbf_as_rational`); its reciprocal is a
Stieltjes function with interlaced negative poles, and its constant, its
mass at zero and its poles with their residues are the dual kernel's
coefficients.  Both directions are therefore the same problem.  No
numerical Laplace inversion is involved.
"""

from __future__ import annotations

from .kernels import (
    InvalidKernel,
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    cbf_as_rational,
)
from .rational import (
    cbf_image,
    decompose_inverse,
    interlaced_roots,
    stieltjes_partial_fractions,
)


def _dualize_scalar(kernel, dual_kind):
    """Scalar dual: ``U(p)^-1 = constant + zero_mass/p + sum m/(p + s)``."""
    image = cbf_as_rational(kernel)
    roots = interlaced_roots(*image)
    constant, zero_mass, masses = stieltjes_partial_fractions(*image, roots)
    return dual_kind.make(constant, zero_mass,
                          list(zip(roots.tolist(), masses.tolist())))


def dualize_relaxation_to_creep(kernel):
    """Creep kernel ``h`` with ``(f * h')(t) + ... = t``, i.e. duality in Laplace form.

    ``1/[p ftilde(p)] = p htilde(p)``: the reciprocal of the rational
    complete Bernstein image decomposes into the Stieltjes canonical form
    whose pieces are exactly the creep coefficients.
    """
    return _dualize_scalar(kernel, ScalarCreep)


def dualize_creep_to_relaxation(kernel):
    """Relaxation kernel dual to a creep kernel: ``1/[p htilde(p)] = p ftilde(p)``."""
    return _dualize_scalar(kernel, ScalarRelaxation)


def _dualize_matrix(kernel, dual_kind):
    """6x6 dual from the Stieltjes decomposition of ``U(p)^-1``.

    Requires ``X + Y + sum Z_k`` positive definite: condition (*) on
    relaxation data, (**) on creep data.  In the discrete class this is
    equivalent to no direction having an identically vanishing kernel
    projection, that is, to every direction having a constitutive response
    at some time scale.
    """
    if not kernel.satisfies_positivity():
        raise InvalidKernel(
            "condition (*) fails: N + B + sum G_k is not positive definite"
            if kernel.relaxation else
            "condition (**) fails: A + D + sum H_j is not positive definite")
    parts = decompose_inverse(cbf_image(kernel))
    return dual_kind.make(parts.constant, parts.zero_mass, parts.modes)


def dualize_matrix_relaxation_to_creep(kernel):
    """6x6 analogue: ``p Rtilde(p) = p^-1 Ctilde(p)^-1``."""
    return _dualize_matrix(kernel, MatrixCreep)


def dualize_matrix_creep_to_relaxation(kernel):
    """Mirror 6x6 conversion, creep to relaxation."""
    return _dualize_matrix(kernel, MatrixRelaxation)


_CONVERSIONS = {
    ScalarRelaxation: dualize_relaxation_to_creep,
    ScalarCreep: dualize_creep_to_relaxation,
    MatrixRelaxation: dualize_matrix_relaxation_to_creep,
    MatrixCreep: dualize_matrix_creep_to_relaxation,
}


def dualize(kernel):
    """Dispatch to the conversion matching the kernel type."""
    convert = _CONVERSIONS.get(type(kernel))
    if convert is None:
        raise TypeError(f"not a kernel: {type(kernel).__name__}")
    return convert(kernel)
