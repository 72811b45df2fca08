"""Conversions between relaxation and creep kernels.

The conversions are computed exactly in coefficient space.  Every kernel
has the complete Bernstein image ``U(p) = p X + Y + sum Z_k p/(p + t_k)``
(see :func:`viscodual.kernels.cbf_as_rational`); its reciprocal is a
Stieltjes function with interlaced negative poles, and its constant, its
mass at zero and its poles with their residues are the dual kernel's
coefficients.  Both directions are therefore the same problem, solved by
one function, :func:`dualize`, for scalars and 6x6 kernels alike.  No
numerical Laplace inversion is involved.
"""

from __future__ import annotations

import math

from .kernels import (
    InvalidKernel,
    MatrixCreep,
    MatrixRelaxation,
    ScalarCreep,
    ScalarRelaxation,
    cbf_as_rational,
    max_rate,
)
from .rational import (
    cbf_image,
    decompose_inverse,
    interlaced_roots,
    stieltjes_partial_fractions,
)

_DUAL_KINDS = {
    ScalarRelaxation: ScalarCreep,
    ScalarCreep: ScalarRelaxation,
    MatrixRelaxation: MatrixCreep,
    MatrixCreep: MatrixRelaxation,
}


def dualize(kernel):
    """The dual of a kernel, from the decomposition
    ``U(p)^-1 = constant + zero_mass/p + sum_i W_i/(p + s_i)``.

    A relaxation kernel has the creep kernel ``h`` with
    ``1/[p ftilde(p)] = p htilde(p)`` as its dual, and a creep kernel the
    relaxation kernel with ``1/[p htilde(p)] = p ftilde(p)``.

    A scalar kernel takes the roots of the secular equation and the
    closed-form parts (:func:`interlaced_roots`,
    :func:`stieltjes_partial_fractions`) of its image divided by the
    smallest power of two above ``X r_max + Y + sum Z_k``.  Every step of the root iteration
    is homogeneous in that unit, so the division is exact and the data
    never square to overflow or underflow however large or small the
    weights.

    A 6x6 kernel requires condition (*) on relaxation data, (**) on creep
    data: every direction has a constitutive response at some time scale.
    Its image (:func:`cbf_image`, built once) decides it free of the time
    unit (:attr:`CbfImage.definite`), and :func:`decompose_inverse` of that
    image gives the parts.
    """
    dual_kind = _DUAL_KINDS.get(type(kernel))
    if dual_kind is None:
        raise TypeError(f"not a kernel: {type(kernel).__name__}")
    if dual_kind in (MatrixRelaxation, MatrixCreep):
        image = cbf_image(kernel)
        if not image.definite:
            raise InvalidKernel(
                "condition (*) fails: N + B + sum G_k is not positive definite"
                if kernel.relaxation else "condition (**) fails: "
                "A + D + sum H_j is not positive definite")
        parts = decompose_inverse(image)
        return dual_kind.make(parts.constant, parts.zero_mass, parts.modes)
    X, Y, rates, weights = cbf_as_rational(kernel)
    x, y = float(X), float(Y)
    unit = math.ldexp(1.0, -math.frexp(
        x * max_rate(kernel) + y + sum(weights.tolist()))[1])
    image = x * unit, y * unit, rates, weights * unit
    roots = interlaced_roots(*image)
    constant, zero_mass, masses = stieltjes_partial_fractions(*image, roots)
    return dual_kind.make(constant * unit, zero_mass * unit,
                          list(zip(roots.tolist(), (masses * unit).tolist())))
