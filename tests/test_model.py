import json

import numpy as np
import pytest

from paretorecords import (
    Comonotone,
    Dirichlet,
    ExperimentConfig,
    ExponentialScaleMixture,
    IidExponential,
    InvalidParameterError,
    MarginalDirichlet,
    Mixture,
    UnsupportedSpecError,
    make_rng,
    sample_observations,
    survival,
    validate,
)
from paretorecords.model import FAMILIES, spec_from_json


class TestSpecValidation:
    def test_valid_specs(self):
        for spec in (
            IidExponential(1),
            MarginalDirichlet(2, 1.0),
            ExponentialScaleMixture(3, 0.5),
            Dirichlet((1.0, 1.0, 2.0)),
            Comonotone(4),
            Mixture(0.3, MarginalDirichlet(2, 1.0), Dirichlet((1.0, 1.0))),
        ):
            validate(spec)  # no error

    @pytest.mark.parametrize(
        "build",
        [
            lambda: IidExponential(0),
            lambda: MarginalDirichlet(1, 1.0),  # construction needs d >= 2
            lambda: MarginalDirichlet(2, 0.0),  # a > 0 strictly
            lambda: MarginalDirichlet(2, -1.0),
            lambda: MarginalDirichlet(2, float("nan")),
            lambda: ExponentialScaleMixture(3, 0.0),
            lambda: ExponentialScaleMixture(1, 1.0),
            lambda: Dirichlet(()),
            lambda: Dirichlet((1.0,)),
            lambda: Dirichlet((1.0, 0.0)),
            lambda: Dirichlet((1.0, -2.0)),
            lambda: Comonotone(0),
            lambda: Mixture(-1e-9, IidExponential(2), IidExponential(2)),
            lambda: Mixture(1.0 + 1e-9, IidExponential(2), IidExponential(2)),
            lambda: Mixture(0.5, IidExponential(2), IidExponential(3)),  # d mismatch
            lambda: Mixture(0.5, IidExponential(2), "nope"),
        ],
    )
    def test_invalid_specs(self, build):
        with pytest.raises(InvalidParameterError):
            build()

    def test_boundary_values_accepted(self):
        Mixture(0.0, IidExponential(2), IidExponential(2))
        Mixture(1.0, IidExponential(2), IidExponential(2))
        MarginalDirichlet(2, 1e-12)

    def test_mixture_depth_cap(self):
        spec = IidExponential(2)
        for _ in range(4):
            spec = Mixture(0.5, spec, IidExponential(2))
        with pytest.raises(InvalidParameterError):
            Mixture(0.5, spec, IidExponential(2))

    def test_dim_property(self):
        assert IidExponential(3).dim == 3
        assert Dirichlet((1.0, 2.0, 3.0)).dim == 3
        assert Mixture(0.5, IidExponential(2), Comonotone(2)).dim == 2

    def test_experiment_config(self):
        cfg = ExperimentConfig(IidExponential(2), n=5, reps=10, seed=1, workers=2)
        assert cfg.n == 5
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(IidExponential(2), n=0, reps=10)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(IidExponential(2), n=1, reps=0)
        with pytest.raises(InvalidParameterError):
            ExperimentConfig(IidExponential(2), n=1, reps=1, seed=-1)
        with pytest.raises(InvalidParameterError, match="seed must be an unsigned 64-bit integer"):
            ExperimentConfig(IidExponential(2), n=5, reps=10, seed=True)
        assert ExperimentConfig(IidExponential(2), n=5, reps=10, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1


# Each family's batch rebuilt by hand from the draw order documented on its
# ``sample`` method.


def _iid_exp(rng, m, d):
    return rng.exponential(size=(m, d))


def _marginal_dirichlet(rng, m, d, a):
    e = rng.exponential(size=(m, d))
    g = rng.gamma(a, size=(m, 1))
    return e / (e.sum(axis=1, keepdims=True) + g)


def _scale_mixture(rng, m, d, a):
    e = rng.exponential(size=(m, d))
    g = rng.gamma(a, size=(m, 1))
    return e / g


def _dirichlet(rng, m, b):
    # Gamma(b) = Gamma(b+1) * U^(1/b), in logs: the Gamma(b+1) block, then the uniform block.
    b = np.array(b)
    log_g = np.log(rng.gamma(b + 1.0, size=(m, b.size))) + np.log1p(-rng.random((m, b.size))) / b
    g = np.exp(log_g - log_g.max(axis=1, keepdims=True))
    return g / g.sum(axis=1, keepdims=True)


def _comonotone(rng, m, d):
    return np.repeat(rng.exponential(size=(m, 1)), d, axis=1)


def _nested_mixture(rng, m):
    # Mixture(0.2, Mixture(0.5, Dirichlet((1, 1)), MarginalDirichlet(2, 1)), Dirichlet((1, 1))):
    # selectors, then the first sub-batch (itself selectors, then its two
    # sub-batches), then the second sub-batch.
    outer = rng.random(m) < 0.2
    inner_m = int((~outer).sum())
    inner = rng.random(inner_m) < 0.5
    first = np.empty((inner_m, 2))
    first[~inner] = _dirichlet(rng, int((~inner).sum()), (1.0, 1.0))
    first[inner] = _marginal_dirichlet(rng, int(inner.sum()), 2, 1.0)
    out = np.empty((m, 2))
    out[~outer] = first
    out[outer] = _dirichlet(rng, int(outer.sum()), (1.0, 1.0))
    return out


NESTED = Mixture(
    0.2, Mixture(0.5, Dirichlet((1.0, 1.0)), MarginalDirichlet(2, 1.0)), Dirichlet((1.0, 1.0))
)

FAMILY_CASES = [
    (IidExponential(3), '{"family": "iid-exp", "d": 3}', lambda rng, m: _iid_exp(rng, m, 3), 0.0),
    (
        MarginalDirichlet(3, 1.5),
        '{"family": "dir", "d": 3, "a": 1.5}',
        lambda rng, m: _marginal_dirichlet(rng, m, 3, 1.5),
        0.0,
    ),
    (
        ExponentialScaleMixture(2, 0.5),
        '{"family": "pa", "d": 2, "a": 0.5}',
        lambda rng, m: _scale_mixture(rng, m, 2, 0.5),
        0.0,
    ),
    (
        Dirichlet((0.5, 1.0, 2.0)),
        '{"family": "dirichlet", "b": [0.5, 1.0, 2.0]}',
        lambda rng, m: _dirichlet(rng, m, (0.5, 1.0, 2.0)),
        1.0,
    ),
    (Comonotone(2), '{"family": "comonotone", "d": 2}', lambda rng, m: _comonotone(rng, m, 2), 0.0),
    (
        NESTED,
        '{"family": "mixture", "q": 0.2, "first": {"family": "mixture", "q": 0.5, '
        '"first": {"family": "dirichlet", "b": [1.0, 1.0]}, "second": {"family": "dir", "d": 2, "a": 1.0}}, '
        '"second": {"family": "dirichlet", "b": [1.0, 1.0]}}',
        _nested_mixture,
        # the inner mixture puts 0.5 on the antichain, the outer adds 0.2 of a pure one
        0.8 * 0.5 + 0.2,
    ),
]


@pytest.mark.parametrize(
    "spec, text, by_hand, limit", FAMILY_CASES, ids=[case[0].family for case in FAMILY_CASES]
)
def test_family_contract(spec, text, by_hand, limit):
    assert sorted(FAMILIES) == sorted(case[0].family for case in FAMILY_CASES)
    assert spec_from_json(spec.to_json()) == spec
    assert json.dumps(spec.to_json()) == text
    assert spec_from_json(text) == spec
    batch = sample_observations(spec, 64, make_rng(3, 0))
    assert np.array_equal(batch, by_hand(make_rng(3, 0), 64))
    assert spec.limit == pytest.approx(limit)
    if isinstance(spec, (Dirichlet, Mixture)):
        with pytest.raises(UnsupportedSpecError):
            survival(spec, np.zeros(spec.dim))
    else:
        assert survival(spec, np.zeros(spec.dim)) == 1.0
