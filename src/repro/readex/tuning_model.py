"""The tuning model (TMM) — PTF's output, the RRL's input.

Contains the scenarios (best configuration per region group) plus the
default configuration applied outside significant regions.  Serialised
as JSON; the RRL locates it through the ``SCOREP_RRL_TMM_PATH``
environment variable, which :meth:`TuningModel.load_from_env` honours.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro import config
from repro.errors import TuningModelError
from repro.execution.simulator import OperatingPoint
from repro.readex.scenario import Scenario, classify_scenarios

#: Environment variable the RRL reads the TMM path from (Section V-D).
TMM_PATH_ENV = "SCOREP_RRL_TMM_PATH"


@dataclass
class TuningModel:
    """Best-found configurations for one application."""

    app_name: str
    phase_region: str
    scenarios: tuple[Scenario, ...]
    default: OperatingPoint = field(
        default_factory=lambda: OperatingPoint(
            core_freq_ghz=config.DEFAULT_CORE_FREQ_GHZ,
            uncore_freq_ghz=config.DEFAULT_UNCORE_FREQ_GHZ,
            threads=config.DEFAULT_OPENMP_THREADS,
        )
    )

    def __post_init__(self):
        self._by_region: dict[str, Scenario] = {}
        for scenario in self.scenarios:
            for region in scenario.regions:
                if region in self._by_region:
                    raise TuningModelError(
                        f"region {region!r} mapped to multiple scenarios"
                    )
                self._by_region[region] = scenario

    @classmethod
    def from_best_configs(
        cls,
        app_name: str,
        phase_region: str,
        best_configs: dict[str, OperatingPoint],
        *,
        default: OperatingPoint | None = None,
    ) -> "TuningModel":
        """Build the TMM by classifying regions into scenarios."""
        kwargs = {} if default is None else {"default": default}
        return cls(
            app_name=app_name,
            phase_region=phase_region,
            scenarios=classify_scenarios(best_configs),
            **kwargs,
        )

    # ------------------------------------------------------------------
    def scenario_for(self, region_name: str) -> Scenario | None:
        """Scenario lookup (the RRL's per-region-enter query)."""
        return self._by_region.get(region_name)

    def configuration_for(self, region_name: str) -> OperatingPoint | None:
        scenario = self.scenario_for(region_name)
        return scenario.configuration if scenario else None

    @property
    def tuned_regions(self) -> tuple[str, ...]:
        return tuple(sorted(self._by_region))

    # -- serialisation ----------------------------------------------------
    def to_json(self) -> str:
        return json.dumps(
            {
                "application": self.app_name,
                "phase_region": self.phase_region,
                "default": _encode_point(self.default),
                "scenarios": [
                    {
                        "id": s.scenario_id,
                        "configuration": _encode_point(s.configuration),
                        "regions": list(s.regions),
                    }
                    for s in self.scenarios
                ],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "TuningModel":
        try:
            data = json.loads(text)
            scenarios = tuple(
                Scenario(
                    scenario_id=s["id"],
                    configuration=_decode_point(s["configuration"]),
                    regions=tuple(s["regions"]),
                )
                for s in data["scenarios"]
            )
            return cls(
                app_name=data["application"],
                phase_region=data["phase_region"],
                scenarios=scenarios,
                default=_decode_point(data["default"]),
            )
        # ValueError covers JSONDecodeError; RecursionError is a deeply
        # nested document.
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise TuningModelError(f"malformed tuning model: {exc}") from None

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json(), encoding="utf-8")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "TuningModel":
        return cls.from_json(Path(path).read_text(encoding="utf-8"))

    @classmethod
    def load_from_env(cls) -> "TuningModel":
        """Load the TMM referenced by ``SCOREP_RRL_TMM_PATH``."""
        path = os.environ.get(TMM_PATH_ENV)
        if not path:
            raise TuningModelError(f"{TMM_PATH_ENV} is not set")
        return cls.load(path)


def _encode_point(p: OperatingPoint) -> dict:
    return {
        "core_freq_ghz": p.core_freq_ghz,
        "uncore_freq_ghz": p.uncore_freq_ghz,
        "threads": p.threads,
    }


def _decode_point(d: dict) -> OperatingPoint:
    return OperatingPoint(
        core_freq_ghz=d["core_freq_ghz"],
        uncore_freq_ghz=d["uncore_freq_ghz"],
        threads=d["threads"],
    )
