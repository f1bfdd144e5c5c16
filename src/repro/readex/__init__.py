"""READEX components: design-time detection and run-time tuning.

* :mod:`repro.readex.dyn_detect` — ``readex-dyn-detect``: significant
  region identification (>100 ms mean execution time, Section III-A);
* :mod:`repro.readex.config_file` — the READEX configuration file the
  tuning plugin consumes;
* :mod:`repro.readex.scenario` / :mod:`repro.readex.tuning_model` — the
  System-Scenario tuning model (TMM) produced by PTF;
* :mod:`repro.readex.pcp` — Score-P Parameter Control Plugins
  (``cpu_freq``, ``uncore_freq``, ``OpenMPTP``);
* :mod:`repro.readex.rrl` — the READEX Runtime Library performing
  Runtime Application Tuning against the TMM.
"""

from repro.readex.dyn_detect import SignificantRegion, readex_dyn_detect
from repro.readex.config_file import ReadexConfig
from repro.readex.scenario import Scenario, classify_scenarios
from repro.readex.tuning_model import TuningModel
from repro.readex.pcp import CpuFreqPlugin, OpenMPTPlugin, UncoreFreqPlugin
from repro.readex.rrl import RRL, RRLStatistics

__all__ = [
    "SignificantRegion",
    "readex_dyn_detect",
    "ReadexConfig",
    "Scenario",
    "classify_scenarios",
    "TuningModel",
    "CpuFreqPlugin",
    "UncoreFreqPlugin",
    "OpenMPTPlugin",
    "RRL",
    "RRLStatistics",
]
