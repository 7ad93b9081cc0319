"""Strict JSON configuration documents.

A config carries up to four sections: ``system`` (or ``agents`` for a
network), ``privacy``, ``simulation``, and ``calibration``. Matrices are
objects with explicit ``rows``/``cols`` and row-major nested ``entries`` so
shape errors surface at parse time. Unknown keys are rejected everywhere.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

import numpy as np

from .calibration import APOSTERIORI, APRIORI, CALIBRATORS
from .errors import ConfigError, ValidationError
from .linalg import SystemModel, _as_int, _as_real, _as_size
from .network import AgentSpec
from .privacy import PrivacyConfig


@dataclass(frozen=True)
class PrivacySpec:
    """Raw privacy section; ``sigma`` is an optional scalar or per-channel list."""

    epsilon: float
    delta: float
    adjacency_B: float
    sigma: float | tuple[float, ...] | None = None


@dataclass(frozen=True)
class SimulationSpec:
    horizon_T: int
    trials: int
    seed: int


@dataclass(frozen=True)
class CalibrationSpec:
    kind: str
    B_l: float
    B_u: float


@dataclass(frozen=True, eq=False)
class AgentConfig:
    id: str
    system: SystemModel
    privacy: PrivacySpec


@dataclass(frozen=True, eq=False)
class Config:
    system: SystemModel | None = None
    agents: tuple[AgentConfig, ...] | None = None
    privacy: PrivacySpec | None = None
    simulation: SimulationSpec | None = None
    calibration: CalibrationSpec | None = None


def _require_mapping(obj, context: str) -> dict:
    if not isinstance(obj, dict):
        raise ConfigError(f"{context} must be a JSON object, got {type(obj).__name__}")
    return obj


def _check_keys(mapping: dict, required: set[str], optional: set[str], context: str) -> None:
    keys = set(mapping)
    unknown = keys - required - optional
    if unknown:
        raise ConfigError(f"{context}: unknown key(s) {sorted(unknown)}")
    missing = required - keys
    if missing:
        raise ConfigError(f"{context}: missing required key(s) {sorted(missing)}")


def _number(value, context: str) -> float:
    number = _as_real(value, context)
    if not abs(value) <= sys.float_info.max:  # NaN, +-Infinity, or an int past the largest float
        raise ConfigError(f"{context} must be finite, got {value!r}")
    return number


def parse_matrix(obj, context: str) -> np.ndarray:
    obj = _require_mapping(obj, context)
    _check_keys(obj, {"rows", "cols", "entries"}, set(), context)
    rows = _as_size(obj["rows"], f"{context}.rows")
    cols = _as_size(obj["cols"], f"{context}.cols")
    entries = obj["entries"]
    if not isinstance(entries, list) or len(entries) != rows:
        raise ConfigError(f"{context}.entries must be a list of {rows} rows")
    data = []
    for i, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != cols:
            raise ConfigError(f"{context}.entries[{i}] must be a list of {cols} numbers")
        data.append([_number(v, f"{context}.entries[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(data)


def parse_vector(obj, context: str) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{context} must be a nonempty list of numbers")
    return np.array([_number(v, f"{context}[{i}]") for i, v in enumerate(obj)])


def _parse_system(obj, context: str) -> SystemModel:
    obj = _require_mapping(obj, context)
    _check_keys(obj, {"H", "C", "W", "x0_hat"}, set(), context)
    matrices = {name: parse_matrix(obj[name], f"{context}.{name}") for name in ("H", "C", "W")}
    x0_hat = parse_vector(obj["x0_hat"], f"{context}.x0_hat")
    try:
        return SystemModel(**matrices, x0_hat=x0_hat)
    except Exception as exc:
        raise ConfigError(f"{context}: {exc}")


def _parse_privacy(obj, context: str) -> PrivacySpec:
    obj = _require_mapping(obj, context)
    _check_keys(obj, {"epsilon", "delta", "adjacency_B"}, {"sigma"}, context)
    sigma = None
    if "sigma" in obj:
        raw = obj["sigma"]
        if isinstance(raw, list):
            sigma = tuple(float(v) for v in parse_vector(raw, f"{context}.sigma"))
        else:
            sigma = _number(raw, f"{context}.sigma")
    return PrivacySpec(
        epsilon=_number(obj["epsilon"], f"{context}.epsilon"),
        delta=_number(obj["delta"], f"{context}.delta"),
        adjacency_B=_number(obj["adjacency_B"], f"{context}.adjacency_B"),
        sigma=sigma,
    )


def _parse_simulation(obj, context: str) -> SimulationSpec:
    obj = _require_mapping(obj, context)
    _check_keys(obj, {"horizon_T", "trials", "seed"}, set(), context)
    # the seed is taken mod 2**64
    return SimulationSpec(
        horizon_T=_as_size(obj["horizon_T"], f"{context}.horizon_T"),
        trials=_as_size(obj["trials"], f"{context}.trials"),
        seed=_as_int(obj["seed"], f"{context}.seed"),
    )


def _parse_calibration(obj, context: str) -> CalibrationSpec:
    obj = _require_mapping(obj, context)
    _check_keys(obj, {"kind", "B_l", "B_u"}, set(), context)
    kind = obj["kind"]
    if kind not in tuple(CALIBRATORS):  # a tuple, since JSON may give an unhashable list
        raise ConfigError(f"{context}.kind must be '{APRIORI}' or '{APOSTERIORI}', got {kind!r}")
    return CalibrationSpec(
        kind=kind,
        B_l=_number(obj["B_l"], f"{context}.B_l"),
        B_u=_number(obj["B_u"], f"{context}.B_u"),
    )


def _parse_agents(obj, context: str) -> tuple[AgentConfig, ...]:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(f"{context} must be a nonempty list of agents")
    agents = []
    for i, raw in enumerate(obj):
        raw = _require_mapping(raw, f"{context}[{i}]")
        _check_keys(raw, {"id", "system", "privacy"}, set(), f"{context}[{i}]")
        agent_id = raw["id"]
        if not isinstance(agent_id, str) or not agent_id:
            raise ConfigError(f"{context}[{i}].id must be a nonempty string")
        label = f"{context}[{i}] (agent {agent_id!r})"
        agents.append(
            AgentConfig(
                id=agent_id,
                system=_parse_system(raw["system"], f"{label}.system"),
                privacy=_parse_privacy(raw["privacy"], f"{label}.privacy"),
            )
        )
    return tuple(agents)


def loads_config(text: str) -> Config:
    """Parse a config document from a JSON string."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply") from None
    doc = _require_mapping(doc, "config")
    _check_keys(doc, set(), {"system", "agents", "privacy", "simulation", "calibration"}, "config")
    if "system" in doc and "agents" in doc:
        raise ConfigError("config: 'system' and 'agents' are mutually exclusive")
    if "privacy" in doc and "agents" in doc:
        raise ConfigError("config: with 'agents', privacy is per agent; drop the top-level section")
    try:
        return Config(
            system=_parse_system(doc["system"], "system") if "system" in doc else None,
            agents=_parse_agents(doc["agents"], "agents") if "agents" in doc else None,
            privacy=_parse_privacy(doc["privacy"], "privacy") if "privacy" in doc else None,
            simulation=_parse_simulation(doc["simulation"], "simulation") if "simulation" in doc else None,
            calibration=_parse_calibration(doc["calibration"], "calibration") if "calibration" in doc else None,
        )
    except ValidationError as exc:  # linalg's number and integer rules name the field
        raise ConfigError(str(exc)) from None


def load_config(path) -> Config:
    """Parse a config document from a file path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return loads_config(text)


def build_privacy(system: SystemModel, spec: PrivacySpec) -> PrivacyConfig:
    """Full privacy configuration for ``system`` from a raw section."""
    return PrivacyConfig.for_system(
        system, epsilon=spec.epsilon, delta=spec.delta,
        adjacency_B=spec.adjacency_B, sigma=spec.sigma,
    )


def build_agents(configs: tuple[AgentConfig, ...]) -> list[AgentSpec]:
    """Turn parsed agent sections into full agent specs, naming offenders."""
    agents = []
    for cfg in configs:
        try:
            agents.append(AgentSpec(id=cfg.id, system=cfg.system, privacy=build_privacy(cfg.system, cfg.privacy)))
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"agent {cfg.id!r}: {exc}")
    return agents
