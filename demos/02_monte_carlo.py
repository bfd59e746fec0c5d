"""Monte Carlo estimation of record probabilities, cross-checked against the
closed forms.

Two estimators are available: the plain indicator (did observation n set a
record?) and a survival-weighted version that averages (1 - S(X))^(n-1),
trading the Bernoulli noise for the smooth integrand and cutting the
standard error. Replicates are chunked over counter-based streams, so the
results are bit-identical for any worker count.
"""

from paretorecords import (
    Dirichlet,
    ExperimentConfig,
    ExponentialScaleMixture,
    IidExponential,
    MarginalDirichlet,
    estimate_record_prob,
    estimate_record_prob_survival,
    pn_independent,
    pn_marginal_dirichlet,
    pn_scale_mixture,
)

REPS = 200_000
SEED = 7

print(f"Indicator estimator, {REPS:,} replicates, seed {SEED}\n")
print("  spec                          n   exact      estimate   gap/sigma")
cases = [
    (IidExponential(2), 2, pn_independent(2, 2)),
    (IidExponential(3), 5, pn_independent(5, 3)),
    (MarginalDirichlet(2, 1.0), 5, pn_marginal_dirichlet(5, 2, 1.0)),
    (ExponentialScaleMixture(2, 1.0), 5, pn_scale_mixture(5, 2, 1.0)),
    (Dirichlet((1.0, 1.0, 1.0)), 5, 1.0),
]
for spec, n, exact in cases:
    est = estimate_record_prob(ExperimentConfig(spec, n, REPS, SEED))
    gap = (est.point - exact) / est.std_error if est.std_error else 0.0
    name = f"{type(spec).__name__:<28}"
    print(f"  {name}  {n}   {exact:.6f}   {est.point:.6f}   {gap:+.2f}")
print("\n(The full-Dirichlet stream is an antichain: every observation is a")
print(" record, so the estimate is exactly 1 with zero standard error.)\n")

print("Survival-weighted estimator removes the indicator noise:")
spec = MarginalDirichlet(2, 1.0)
config = ExperimentConfig(spec, 5, REPS, SEED)
ind = estimate_record_prob(config)
smooth = estimate_record_prob_survival(config)
print(f"  indicator:  {ind.point:.6f} +- {ind.std_error:.6f}")
print(f"  survival:   {smooth.point:.6f} +- {smooth.std_error:.6f}")
print(f"  variance ratio: {(smooth.std_error / ind.std_error) ** 2:.3f}\n")

print("Determinism: same seed, different worker counts, identical numbers")
for workers in (1, 4):
    est = estimate_record_prob(ExperimentConfig(spec, 5, REPS, SEED, workers=workers))
    print(f"  workers={workers}:  {est.point!r}")
