"""Multi-agent composition into one block-diagonal network system.

Agents are dynamically decoupled: the network H, C, and W are the diagonal
stacks of the per-agent matrices, states are concatenated in agent order, and
each agent keeps its own privacy parameters, which is how heterogeneous
per-channel noise scales arise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyNetworkError, ValidationError
from .filtering import FilterSolution
from .linalg import SystemModel, _as_instance, block_diag
from .privacy import PrivacyConfig, paired_scales


@dataclass(frozen=True, eq=False)
class AgentSpec:
    """One agent: an identifier, its system, and privacy whose scales are compliant for it."""

    id: str
    system: SystemModel
    privacy: PrivacyConfig

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("agent id must be a nonempty string")
        paired_scales(_as_instance(self.system, SystemModel, "agent system"),
                      _as_instance(self.privacy, PrivacyConfig, "agent privacy"))


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Composed network of ``agents``; the stacked ``system`` and state ``offsets`` derive from them."""

    agents: tuple[AgentSpec, ...]
    system: SystemModel = field(init=False)
    offsets: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self):
        try:
            agents = tuple(_as_instance(a, AgentSpec, "agent") for a in self.agents)
        except TypeError:
            raise ValidationError(f"agents must be a sequence, got {type(self.agents).__name__}") from None
        if not agents:
            raise EmptyNetworkError("cannot compose an empty agent list")
        ids = [a.id for a in agents]
        if len(set(ids)) != len(ids):
            raise ValidationError(f"agent ids must be unique, got {ids}")
        ends = np.cumsum([a.system.n for a in agents]).tolist()
        system = SystemModel(*(block_diag([getattr(a.system, m) for a in agents]) for m in "HCW"),
                             x0_hat=np.concatenate([a.system.x0_hat for a in agents]))
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "offsets", tuple(zip([0, *ends[:-1]], ends)))

    @property
    def sigma(self) -> np.ndarray:
        """Concatenated per-channel noise scales across agents."""
        return np.concatenate([a.privacy.sigma for a in self.agents])


def compose(agents: Sequence[AgentSpec]) -> NetworkModel:
    """Stack agents in order into one block-diagonal system: ``NetworkModel(agents)``."""
    return NetworkModel(agents)


def per_agent_slices(network: NetworkModel, sol: FilterSolution) -> dict[str, tuple[float, float]]:
    """Traces of each agent's diagonal block of the solved covariances.

    Returns {agent id: (prediction trace, estimation trace)}.
    """
    n = _as_instance(network, NetworkModel, "network").system.n
    if _as_instance(sol, FilterSolution, "sol").riccati.sigma.shape != (n, n):
        raise DimensionMismatchError(
            f"solution covariance is {sol.riccati.sigma.shape}, network state dimension is {n}"
        )
    out = {}
    for agent, (a, b) in zip(network.agents, network.offsets):
        out[agent.id] = (
            float(np.trace(sol.riccati.sigma[a:b, a:b])),
            float(np.trace(sol.riccati.sigma_bar[a:b, a:b])),
        )
    return out
