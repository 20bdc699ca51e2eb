import math

import numpy as np
import pytest

from pgakit import algebra, pga2d, pga3d


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
