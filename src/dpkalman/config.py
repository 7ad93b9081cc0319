"""Strict JSON configuration documents.

A config carries up to four sections: ``system`` (or ``agents`` for a
network), ``privacy``, ``simulation``, and ``calibration``. Matrices are
objects with explicit ``rows``/``cols`` and row-major nested ``entries`` so
shape errors surface at parse time. Unknown keys are rejected everywhere, and
so is a key repeated within one object.
"""

from __future__ import annotations

import json
import math
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
    if not math.isfinite(number):  # NaN or +-Infinity; _as_real rejects an int past float range
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


def _section(obj, context: str, build, rules: dict, optional: frozenset = frozenset()):
    # build(**fields) of a JSON object with the keys of rules, those in
    # optional allowed to be missing; each present field is parsed by its
    # rule under "context.field", in the order of rules, and a record that
    # build rejects is reported under context
    obj = _require_mapping(obj, context)
    _check_keys(obj, set(rules) - optional, optional, context)
    fields = {name: rule(obj[name], f"{context}.{name}") for name, rule in rules.items() if name in obj}
    try:
        return build(**fields)
    except Exception as exc:
        raise ConfigError(f"{context}: {exc}")


def _sigma(raw, context: str) -> float | tuple[float, ...]:
    if isinstance(raw, list):
        return tuple(float(v) for v in parse_vector(raw, context))
    return _number(raw, context)


def _kind(kind, context: str) -> str:
    if kind not in tuple(CALIBRATORS):  # a tuple, since JSON may give an unhashable list
        raise ConfigError(f"{context} must be '{APRIORI}' or '{APOSTERIORI}', got {kind!r}")
    return kind


def _parse_system(obj, context: str) -> SystemModel:
    return _section(obj, context, SystemModel,
                    {"H": parse_matrix, "C": parse_matrix, "W": parse_matrix, "x0_hat": parse_vector})


def _parse_privacy(obj, context: str) -> PrivacySpec:
    return _section(obj, context, PrivacySpec,
                    {"sigma": _sigma, "epsilon": _number, "delta": _number, "adjacency_B": _number},
                    optional=frozenset({"sigma"}))


def _parse_simulation(obj, context: str) -> SimulationSpec:
    # the seed is taken mod 2**64
    return _section(obj, context, SimulationSpec, {"horizon_T": _as_size, "trials": _as_size, "seed": _as_int})


def _parse_calibration(obj, context: str) -> CalibrationSpec:
    return _section(obj, context, CalibrationSpec, {"kind": _kind, "B_l": _number, "B_u": _number})


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


def _unique_keys(pairs: list) -> dict:
    # json's object_pairs_hook: a key repeated within one object is an error,
    # not a silent last-one-wins
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ConfigError(f"invalid config: key {key!r} repeated in one object")
        obj[key] = value
    return obj


def loads_config(text: str) -> Config:
    """Parse a config document from a JSON string."""
    try:
        doc = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")
    except RecursionError:
        raise ConfigError("invalid JSON: nested too deeply") from None
    doc = _require_mapping(doc, "config")
    sections = {"system": _parse_system, "agents": _parse_agents, "privacy": _parse_privacy,
                "simulation": _parse_simulation, "calibration": _parse_calibration}
    _check_keys(doc, set(), set(sections), "config")
    if "system" in doc and "agents" in doc:
        raise ConfigError("config: 'system' and 'agents' are mutually exclusive")
    if "privacy" in doc and "agents" in doc:
        raise ConfigError("config: with 'agents', privacy is per agent; drop the top-level section")
    try:
        return Config(**{name: parse(doc[name], name) for name, parse in sections.items() if name in doc})
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
        except Exception as exc:
            raise ConfigError(f"agent {cfg.id!r}: {exc}")
    return agents
