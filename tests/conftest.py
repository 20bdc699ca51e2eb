import math
import warnings

import numpy as np
import pytest

# A failing hypothesis test makes its pytest plugin import this module,
# which pulls in libcst, whose import warns about mypy_extensions.TypedDict;
# under the suite's error::DeprecationWarning filter that warning would end
# the whole session, so the module is imported here with only it ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from pgakit import BODY, MomentumState, algebra, pga2d, pga3d, sandwich
from pgakit.metric import biv_coeffs, biv_mv


@pytest.fixture(scope="session")
def plane_alg():
    return pga2d()


@pytest.fixture(scope="session")
def space_alg():
    return pga3d()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_mv(alg, rng, grade=None):
    coeffs = rng.normal(size=alg.n_blades)
    if grade is not None:
        mask = alg.grades == grade
        coeffs = np.where(mask, coeffs, 0.0)
    from pgakit import Multivector
    return Multivector(alg, coeffs)


# The 8x8 multiplication table of the degenerate planar algebra; the
# golden reference for every sign convention in the kernel.
PLANAR_TABLE = {
    "1":  ["1", "e0", "e1", "e2", "E0", "E1", "E2", "I"],
    "e0": ["e0", "0", "E2", "-E1", "I", "0", "0", "0"],
    "e1": ["e1", "-E2", "1", "E0", "e2", "I", "-e0", "E1"],
    "e2": ["e2", "E1", "-E0", "1", "-e1", "e0", "I", "E2"],
    "E0": ["E0", "I", "-e2", "e1", "-1", "-E2", "E1", "-e0"],
    "E1": ["E1", "0", "I", "-e0", "E2", "0", "0", "0"],
    "E2": ["E2", "0", "e0", "I", "-E1", "0", "0", "0"],
    "I":  ["I", "0", "E1", "E2", "-e0", "0", "0", "0"],
}


@pytest.fixture(params=[(2, 0, 1), (3, 0, 1), (4, 0, 0), (3, 1, 0), (2, 0, 0), (5, 0, 1)],
                ids=lambda sig: "%d,%d,%d" % sig)
def oracle_alg(request):
    """The algebras the product kernel is checked on against dense einsum."""
    return algebra(*request.param)


# magnitudes that a float-by-float reading must treat as numpy does
AWKWARD = (math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -2.5e-310,
           1e308, -1e308)


def awkward_coeffs(rng, n, dust=1e-9):
    """``n`` seeded coefficients at scales 1e-5..1e5, about half of them
    zero; some replaced by an ``AWKWARD`` value or by dust just below, at or
    just above ``dust`` times the largest."""
    c = rng.normal(size=n) * 10.0 ** rng.uniform(-5, 5, size=n)
    c[rng.random(n) < 0.5] = 0.0
    top = np.abs(c).max()
    for i in rng.choice(n, size=rng.integers(0, 3), replace=False):
        c[i] = rng.choice([*AWKWARD, top * dust * (1 - 1e-3), top * dust,
                           -top * dust * (1 + 1e-3)])
    return c


def count_einsum(monkeypatch):
    """Count the calls to ``np.einsum`` from here on."""
    calls = []
    real = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)
    monkeypatch.setattr(np, "einsum", counted)
    return calls


def assert_rel_close(got, want, rel=1e-12):
    scale = max(np.abs(got).max(), np.abs(want).max())
    assert np.abs(got - want).max() <= rel * scale


def newton_normalize(g):
    """``g (g ~g)^(-1/2)`` from Multivector products only: three Newton
    steps ``w <- w (3 - z w w) / 2`` for the inverse square root of
    ``z = g ~g``, started at the scalar part.  An oracle for the closed
    form ``normalize_rotor``, which it never calls."""
    z = g * ~g
    w = g.algebra.scalar(1.0 / math.sqrt(z.scalar_part))
    for _ in range(3):
        w = w * (3.0 - z * w * w) * 0.5
    return g * w


def _split(x):
    """Veltkamp's split of floats into halves whose products are exact."""
    c = 134217729.0 * x                   # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def exact_residual(a, w, b):
    """``b - a @ w`` rounded once: every product of a split half is exact,
    and ``math.fsum`` adds each row's products exactly."""
    (ah, al), (wh, wl) = _split(a), _split(w)
    products = np.hstack([ah * wh, ah * wl, al * wh, al * wl])
    return np.array([math.fsum([bi, *(-row)]) for bi, row in zip(b, products)])


def reference_rk4(inertia, g, pi, dt, steps, force=None):
    """RK4 of the motion equations on Multivectors, from ``t = 0``: an
    oracle for ``dynamics.integrate``, which it never calls.  ``g`` is
    the rotor and ``pi`` the body momentum as a bivector; ``force(t)``
    is the space-frame force bivector acting at time t, moved to the
    body frame per stage by the sandwich ``~g F g``.  Each stage solves
    ``A Omega = Pi`` by ``InertiaTensor.inverse_apply`` and one step of
    iterative refinement against the assembled ``operator``, whose
    residual is exact before its one rounding, so that off the origin a
    solve's rounding does not carry into the run.  The momentum's
    increments are added with Kahan's compensation: off the origin its
    moment coordinates are large, and the low bits an add drops at every
    step would otherwise grow into the run's largest error (2.4e-10 of
    scale at offset 10 against a 40-digit RK4, 2.4e-12 with it).  The
    rotor is renormalized by ``newton_normalize`` after each step.
    Returns the ``steps + 1`` states ``(t, g, pi)``."""
    alg = g.algebra

    def solve(p):
        w = inertia.inverse_apply(MomentumState(p, BODY)).coeffs
        fix = inertia.inverse_apply(MomentumState(
            exact_residual(inertia.operator, w, p), BODY)).coeffs
        return biv_mv(alg, w + fix)

    def rhs(t, g, pi):
        om = solve(biv_coeffs(pi))
        dpi = 2.0 * pi.commutator(om)
        if force is not None:
            dpi = dpi + sandwich(~g, force(t))
        return g * om, dpi

    t, h = 0.0, dt
    states = [(t, g, pi)]
    lost = alg.zero()
    for _ in range(steps):
        k1g, k1p = rhs(t, g, pi)
        k2g, k2p = rhs(t + h / 2, g + h / 2 * k1g, pi + h / 2 * k1p)
        k3g, k3p = rhs(t + h / 2, g + h / 2 * k2g, pi + h / 2 * k2p)
        k4g, k4p = rhs(t + h, g + h * k3g, pi + h * k3p)
        g = newton_normalize(g + h / 6 * (k1g + 2 * k2g + 2 * k3g + k4g))
        step = h / 6 * (k1p + 2 * k2p + 2 * k3p + k4p) + lost
        new = pi + step
        lost, pi = step - (new - pi), new
        t += h
        states.append((t, g, pi))
    return states
