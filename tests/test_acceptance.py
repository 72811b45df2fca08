"""End-to-end acceptance checks with pinned tolerances.

Each test records a single PASS/FAIL line; the conftest terminal-summary
hook prints them after the run, outside pytest's capture.
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from viscodual import (
    ScalarCreep,
    ScalarRelaxation,
    check_limit_identities,
    convolution_value,
    duality_residual,
    dualize,
    eval_creep,
    eval_relaxation,
    laplace_times_p,
    parse_material,
    sample_to_csv,
    serialize_material,
)
from viscodual.kernels import matrix_norm, max_rate
from viscodual.rational import cbf_image, decompose_inverse, cbf_as_rational, \
    interlaced_roots

from kernel_corpus import (
    image_numerator,
    kernel_distance,
    random_matrix_creep,
    random_matrix_relaxation,
    random_scalar_creep,
    random_scalar_relaxation,
)


RESULT_LINES = []


def report(label, worst, tolerance):
    passed = worst <= tolerance
    status = "PASS" if passed else "FAIL"
    RESULT_LINES.append(
        f"{status} {label}: worst {worst:.3e} (tolerance {tolerance:.1e})")
    assert passed, f"{label}: {worst:.3e} > {tolerance:.1e}"


def test_criterion_1_closed_form_pairs():
    tol = 1e-12
    worst = 0.0

    # exponential relaxation <-> linear creep
    c = dualize(ScalarRelaxation.make(modes=[(1.0, 1.0)]))
    worst = max(worst, abs(c.instantaneous - 1.0), abs(c.fluidity - 1.0),
                float(len(c.modes)))

    # standard solid: 1 + exp(-t) <-> 1 - 0.5 exp(-0.5 t)
    c = dualize(ScalarRelaxation.make(equilibrium=1.0, modes=[(1.0, 1.0)]))
    worst = max(worst, abs(c.instantaneous - 0.5), abs(c.fluidity),
                abs(c.modes[0][0] - 0.5), abs(c.modes[0][1] - 0.25))

    # pure dirac <-> linear creep
    c = dualize(ScalarRelaxation.make(newtonian=1.0))
    worst = max(worst, abs(c.instantaneous), abs(c.fluidity - 1.0),
                float(len(c.modes)))

    # two-mode fluid: exp(-t) + exp(-3t)
    c = dualize(ScalarRelaxation.make(modes=[(1.0, 1.0), (3.0, 1.0)]))
    worst = max(worst, abs(c.instantaneous - 0.5), abs(c.fluidity - 0.75),
                abs(c.modes[0][0] - 2.0), abs(c.modes[0][1] - 0.25),
                float(len(c.modes) - 1))

    report("criterion-1 closed-form pairs", worst, tol)


def test_criterion_2_scalar_round_trips():
    rng = np.random.default_rng(101)
    worst = 0.0
    for i in range(500):
        maker = random_scalar_relaxation if i % 2 else random_scalar_creep
        k = maker(rng)
        worst = max(worst, kernel_distance(k, dualize(dualize(k))))
    report("criterion-2 scalar round trips (500 kernels)", worst, 1e-8)


def test_criterion_3_convolution_identity():
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        r = random_scalar_relaxation(rng)
        worst = max(worst, duality_residual(r, dualize(r)))
    report("criterion-3 time-domain convolution identity", worst, 1e-9)


def test_criterion_4_laplace_product():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(100):
        r = random_scalar_relaxation(rng)
        c = dualize(r)
        for p in max_rate(r) * np.geomspace(1e-2, 1e2, 20):
            product = laplace_times_p(r, p) * laplace_times_p(c, p)
            worst = max(worst, abs(product - 1.0))
    report("criterion-4 laplace reciprocal product", worst, 1e-9)


def test_criterion_5_matrix_kernels():
    rng = np.random.default_rng(104)
    started = time.time()
    worst_rt = worst_conv = 0.0
    worst_eig = 0.0
    for i in range(100):
        maker = random_matrix_relaxation if i % 2 else random_matrix_creep
        k = maker(rng, n_max=4)
        parts = decompose_inverse(cbf_image(k))
        worst_eig = max(worst_eig, -parts.min_weight_eig)
        dual = dualize(k)
        worst_rt = max(worst_rt, kernel_distance(k, dualize(dual)))
        pair = (k, dual) if i % 2 else (dual, k)
        worst_conv = max(worst_conv, duality_residual(*pair))
    elapsed = time.time() - started
    report("criterion-5a matrix round trips (100 kernels)", worst_rt, 1e-6)
    report("criterion-5b matrix convolution identity", worst_conv, 1e-7)
    report("criterion-5c residue eigenvalue floor before clipping",
           worst_eig, 1e-10)
    report("criterion-5d wall time seconds", elapsed, 60.0)


def test_criterion_6_limit_identities():
    rng = np.random.default_rng(105)
    worst = 0.0
    for i in range(50):
        r = random_scalar_relaxation(rng) if i % 2 \
            else random_matrix_relaxation(rng)
        rep = check_limit_identities(r, dualize(r), tol=1e-8)
        for e in rep.entries:
            worst = max(worst, e.residual / e.tolerance * 1e-8)
    report("criterion-6 limit identity clauses", worst, 1e-8)


def test_criterion_7_root_law_against_companion_oracle():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(200):
        k = random_scalar_relaxation(rng)
        roots = sorted(interlaced_roots(*cbf_as_rational(k)))
        expected = len(k.modes) - (1 if k.equilibrium == 0 else 0) \
            + (1 if k.newtonian > 0 else 0)
        if len(roots) != expected:
            worst = max(worst, 1.0)
            continue
        oracle = np.roots(image_numerator(k)[::-1])
        oracle = sorted(-z.real for z in oracle
                        if z.real < 0 and abs(z.imag) < 1e-9 * abs(z))
        if len(oracle) != len(roots):
            worst = max(worst, 1.0)
            continue
        for a, b in zip(roots, oracle):
            worst = max(worst, abs(a - b) / max(abs(b), 1e-300))
    report("criterion-7 root count and location vs companion oracle",
           worst, 1e-9)


def test_criterion_8_quadrature_oracle():
    rng = np.random.default_rng(107)
    worst = 0.0
    for _ in range(5):
        r = random_scalar_relaxation(rng)
        c = random_scalar_creep(rng)
        for t in max(max_rate(r), max_rate(c)) ** -1 * np.array(
                [0.1, 1.0, 5.0]):
            closed = convolution_value(r, c, t)
            numeric, _ = quad(
                lambda u: eval_relaxation(r, u) * eval_creep(c, t - u),
                0.0, t, limit=200)
            numeric += r.newtonian * eval_creep(c, t)
            worst = max(worst, abs(closed - numeric) / max(abs(numeric),
                                                           1e-300))
    report("criterion-8 closed-form convolution vs quadrature", worst, 1e-6)


def test_criterion_9_io_determinism():
    rng = np.random.default_rng(108)
    makers = [random_scalar_relaxation, random_scalar_creep,
              random_matrix_relaxation, random_matrix_creep]
    worst = 0.0
    for maker in makers:
        for _ in range(5):
            k = maker(rng)
            text = serialize_material(k)
            if serialize_material(parse_material(text)) != text:
                worst = 1.0
            if serialize_material(k) != text:
                worst = 1.0
    k = ScalarRelaxation.make(equilibrium=1.0 / 3.0, modes=[(np.pi, np.e)])
    if sample_to_csv(k, 0.0, 2.0, 9) != sample_to_csv(k, 0.0, 2.0, 9):
        worst = 1.0
    report("criterion-9 serialization byte stability", worst, 0.0)
