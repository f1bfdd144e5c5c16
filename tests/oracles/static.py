"""Static tuning as its own controller, and its production form.

Production runs a static configuration as the RRL under a tuning model
with no scenarios whose ``default`` is that configuration
(:func:`static_tuning_model`, :func:`static_rrl`): the phase region's
enter applies it.  The :class:`StaticController` here applies it at the
first region enter through the same PCPs and pins its thread count,
with no tuning model and no compile: the recursive engine
(:func:`tests.oracles.engine.recursive_run`) runs its hooks, so every
static equivalence test checks the RRL form against it.
"""

from __future__ import annotations

from repro.execution.simulator import OperatingPoint
from repro.readex.pcp import CpuFreqPlugin, UncoreFreqPlugin
from repro.readex.rrl import RRL
from repro.readex.tuning_model import TuningModel


class StaticController:
    """Applies one configuration at run start (``x86_adapt`` before the
    job launches), then keeps its thread count for every region."""

    def __init__(self, configuration: OperatingPoint):
        self.configuration = configuration
        self._applied = False
        self._cpu_freq = CpuFreqPlugin()
        self._uncore_freq = UncoreFreqPlugin()

    def on_region_enter(self, region, iteration: int, node) -> int:
        if not self._applied:
            self._cpu_freq.apply(node, self.configuration.core_freq_ghz)
            self._uncore_freq.apply(node, self.configuration.uncore_freq_ghz)
            self._applied = True
        return self.configuration.threads

    def on_region_exit(self, region, iteration: int, node) -> None:
        return None


def static_tuning_model(app, configuration: OperatingPoint) -> TuningModel:
    """The tuning model of a static run of ``app``: no scenarios,
    ``configuration`` as the default.  A new object per call, so the
    schedule cache of an RRL over it starts empty."""
    return TuningModel(
        app.name,
        phase_region=app.phase.name,
        scenarios=(),
        default=configuration,
    )


def static_rrl(app, configuration: OperatingPoint) -> RRL:
    """The production form of a static run of ``app``: the RRL under a
    new :func:`static_tuning_model`."""
    return RRL(static_tuning_model(app, configuration))
