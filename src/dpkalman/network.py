"""Multi-agent composition into one block-diagonal network system.

Agents are dynamically decoupled: the network H, C, and W are the diagonal
stacks of the per-agent matrices, states are concatenated in agent order, and
each agent keeps its own privacy parameters, which is how heterogeneous
per-channel noise scales arise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, EmptyNetworkError, ValidationError
from .filtering import FilterSolution
from .linalg import SystemModel, _as_instance, block_diag
from .privacy import PrivacyConfig


@dataclass(frozen=True, eq=False)
class AgentSpec:
    """One agent: an identifier, its system, and its privacy configuration."""

    id: str
    system: SystemModel
    privacy: PrivacyConfig

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValidationError("agent id must be a nonempty string")
        _as_instance(self.system, SystemModel, "agent system")
        if _as_instance(self.privacy, PrivacyConfig, "agent privacy").sigma.shape[0] != self.system.q:
            raise DimensionMismatchError(
                f"agent {self.id!r}: privacy has {self.privacy.sigma.shape[0]} noise scales, "
                f"system has {self.system.q} channels"
            )


@dataclass(frozen=True, eq=False)
class NetworkModel:
    """Composed network with per-agent index ranges into the stacked state."""

    agents: tuple[AgentSpec, ...]
    system: SystemModel
    offsets: tuple[tuple[int, int], ...]

    @property
    def sigma(self) -> np.ndarray:
        """Concatenated per-channel noise scales across agents."""
        return np.concatenate([a.privacy.sigma for a in self.agents])


def compose(agents: Sequence[AgentSpec]) -> NetworkModel:
    """Stack agents in order into one block-diagonal system."""
    try:
        agents = tuple(_as_instance(a, AgentSpec, "agent") for a in agents)
    except TypeError:
        raise ValidationError(f"agents must be a sequence, got {type(agents).__name__}") from None
    if not agents:
        raise EmptyNetworkError("cannot compose an empty agent list")
    ids = [a.id for a in agents]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"agent ids must be unique, got {ids}")
    H = block_diag([a.system.H for a in agents])
    C = block_diag([a.system.C for a in agents])
    W = block_diag([a.system.W for a in agents])
    x0 = np.concatenate([a.system.x0_hat for a in agents])
    offsets = []
    start = 0
    for a in agents:
        offsets.append((start, start + a.system.n))
        start += a.system.n
    system = SystemModel(H=H, C=C, W=W, x0_hat=x0)
    return NetworkModel(agents=agents, system=system, offsets=tuple(offsets))


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
