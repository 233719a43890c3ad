"""repro.analysis — adaptive yield and reliability analysis.

The statistical layer on top of the Monte-Carlo engines.  Where
:mod:`repro.experiments` reproduces the paper's *point estimates*, this
package answers the inverse and uncertainty questions around them:

* :mod:`repro.analysis.confidence` — Wilson/Jeffreys binomial
  confidence intervals for every counted success rate
  (:func:`yield_estimate`, also reachable as
  ``MonteCarloResult.yield_estimate()``);
* :mod:`repro.analysis.adaptive` — :func:`run_adaptive_monte_carlo`,
  which grows an experiment in deterministic batches until the CI
  half-width reaches a tolerance instead of burning a fixed budget
  (also reachable as ``Design.yield_analysis()`` and
  ``Scenario(tolerance=...)``), and :func:`analysis_scenario`, which
  spells one analysis point as the mapping scenario that runs it;
* :mod:`repro.analysis.yield_curves` — :class:`YieldCurve` /
  :class:`YieldSurface` sweeps over defect rate x array size
  (redundancy), with interpolated threshold solving
  (``defect_rate_at_yield(0.99)``);
* :mod:`repro.analysis.spares` — :func:`optimize_spares`, the
  minimum-area spare-allocation search for a target yield.

Every analysis point is a :class:`~repro.api.scenarios.Scenario` run by
:mod:`repro.api.runner`: a curve is a suite with one scenario per rate,
a spare search runs one scenario per candidate allocation.  So the
points are cached in the scenario layer's artifact store under their
content hashes, shared with ``repro run`` and the service, and
:meth:`AdaptiveResult.from_row` turns a stored row back into the
sampler's result.

Everything is exposed on the CLI as ``python -m repro analyze
yield|curve|spares``; ``docs/statistics.md`` documents the statistical
choices and guarantees.
"""

from repro.analysis.adaptive import (
    AdaptiveResult,
    analysis_scenario,
    run_adaptive_monte_carlo,
)
from repro.analysis.confidence import (
    CI_METHODS,
    BinomialInterval,
    fixed_sample_budget,
    jeffreys_interval,
    wilson_interval,
    yield_estimate,
)
from repro.analysis.spares import (
    SpareCandidate,
    SpareSearchResult,
    optimize_spares,
)
from repro.analysis.yield_curves import (
    YieldCurve,
    YieldPoint,
    YieldSurface,
    compute_yield_curve,
    compute_yield_surface,
)

__all__ = [
    "AdaptiveResult",
    "BinomialInterval",
    "CI_METHODS",
    "SpareCandidate",
    "SpareSearchResult",
    "YieldCurve",
    "YieldPoint",
    "YieldSurface",
    "analysis_scenario",
    "compute_yield_curve",
    "compute_yield_surface",
    "fixed_sample_budget",
    "jeffreys_interval",
    "optimize_spares",
    "run_adaptive_monte_carlo",
    "wilson_interval",
    "yield_estimate",
]
