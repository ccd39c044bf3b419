"""Simulation laboratory for personalized ad bidding with carryover
exposure effects and delayed Poisson conversions.

Submodules:

- `model`: exposure-state machine, conversion/auction models, closed forms.
- `environment`: simulator, instance generator, episode logs and CSV I/O.
- `estimation`: regularized online estimators with confidence widths.
- `planning`: episode planners, all by backward induction over exposure states.
- `agent`: optimistic learner and fixed baselines.
- `harness`: experiment runner, regret curves, replay, snapshots.
- `cli`: command-line entry points.
"""

__version__ = "0.1.0"
