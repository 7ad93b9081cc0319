import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dpkalman import (
    AgentSpec,
    PrivacyConfig,
    SystemModel,
    ValidationError,
    aposteriori_trace_bounds,
    apriori_trace_bounds,
    compose,
    per_agent_slices,
    solve_dare,
    solve_filter,
)
from dpkalman.errors import DimensionMismatchError, EmptyNetworkError
from dpkalman.network import NetworkModel
from dpkalman.linalg import block_diag
from helpers import any_scalar, case_study_system, random_diagonal_system

LN3 = math.log(3.0)


def agent(agent_id, system, epsilon=1.0, delta=0.01, adjacency_B=1.0):
    privacy = PrivacyConfig.for_system(system, epsilon=epsilon, delta=delta, adjacency_B=adjacency_B)
    return AgentSpec(id=agent_id, system=system, privacy=privacy)


def scalar_agent(agent_id, h, w=1.0, **kw):
    system = SystemModel(H=[[h]], C=[[1.0]], W=[[w]], x0_hat=[0.0])
    return agent(agent_id, system, **kw)


def random_agent(rng, agent_id):
    system, _ = random_diagonal_system(rng, n_max=2)
    return agent(agent_id, system,
                 epsilon=float(rng.uniform(0.5, 2.0)),
                 delta=float(rng.uniform(1e-3, 1e-1)),
                 adjacency_B=float(rng.uniform(0.5, 2.0)))


class TestCompose:
    def test_single_agent_identity(self):
        a = agent("solo", case_study_system(), epsilon=LN3, delta=0.001)
        network = compose([a])
        np.testing.assert_array_equal(network.system.H, a.system.H)
        np.testing.assert_array_equal(network.system.C, a.system.C)
        np.testing.assert_array_equal(network.system.W, a.system.W)
        assert network.offsets == ((0, 2),)
        np.testing.assert_array_equal(network.sigma, a.privacy.sigma)

    def test_two_scalar_agents(self):
        network = compose([scalar_agent("a", 1.0), scalar_agent("b", 0.5)])
        np.testing.assert_array_equal(network.system.H, np.diag([1.0, 0.5]))
        assert network.system.n == 2

    def test_mixed_dimensions_and_offsets(self):
        network = compose([agent("plane", case_study_system(), epsilon=LN3, delta=0.001),
                           scalar_agent("dot", 0.5)])
        assert network.system.n == 3 and network.system.q == 3
        assert network.offsets == ((0, 2), (2, 3))
        assert network.sigma.shape == (3,)
        # heterogeneous privacy gives heterogeneous noise scales
        assert network.sigma[0] != network.sigma[2]

    def test_empty_rejected(self):
        with pytest.raises(EmptyNetworkError):
            compose([])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValidationError):
            compose([scalar_agent("twin", 1.0), scalar_agent("twin", 0.5)])


class TestNetworkModel:
    def test_takes_its_agents_only(self):
        # the stacked system and the offsets are derived, never passed in
        agents = (agent("plane", case_study_system(), epsilon=LN3, delta=0.001), scalar_agent("dot", 0.5))
        assert [f.name for f in dataclasses.fields(NetworkModel) if f.init] == ["agents"]
        with pytest.raises(TypeError):
            NetworkModel(agents, system=case_study_system(), offsets=((0, 2), (2, 3)))
        network = NetworkModel(list(agents))
        assert network.agents == agents
        assert network.offsets == ((0, 2), (2, 3))
        for name in ("H", "C", "W"):
            np.testing.assert_array_equal(getattr(network.system, name),
                                          block_diag([getattr(a.system, name) for a in agents]))
        np.testing.assert_array_equal(network.system.x0_hat, np.zeros(3))


class TestAgentSpec:
    def test_rejects_the_wrong_number_of_noise_scales(self):
        # a one-channel privacy on the two-channel case study
        with pytest.raises(DimensionMismatchError, match="sigma must have length 2, got 1"):
            AgentSpec(id="a", system=case_study_system(), privacy=scalar_agent("b", 0.5).privacy)

    @pytest.mark.parametrize("agent_id", ["", 7, None])
    def test_rejects_an_id_that_is_not_a_nonempty_string(self, agent_id):
        dot = scalar_agent("b", 0.5)
        with pytest.raises(ValidationError, match="agent id must be a nonempty string"):
            AgentSpec(id=agent_id, system=dot.system, privacy=dot.privacy)


class TestPerAgentSlices:
    def test_single_agent_slice_is_total(self):
        network = compose([agent("solo", case_study_system(), epsilon=LN3, delta=0.001)])
        sol = solve_filter(network.system, network.sigma)
        slices = per_agent_slices(network, sol)
        tr_prior, tr_post = slices["solo"]
        assert tr_prior == pytest.approx(float(np.trace(sol.riccati.sigma)))
        assert tr_post == pytest.approx(float(np.trace(sol.riccati.sigma_bar)))

    def test_independent_agents_match_standalone_solves(self):
        agents = [agent("plane", case_study_system(), epsilon=LN3, delta=0.001),
                  scalar_agent("dot", 0.5)]
        network = compose(agents)
        sol = solve_filter(network.system, network.sigma)
        slices = per_agent_slices(network, sol)
        for a in agents:
            own = solve_dare(a.system, np.diag(a.privacy.sigma**2))
            tr_prior, tr_post = slices[a.id]
            assert tr_prior == pytest.approx(float(np.trace(own.sigma)), abs=1e-9 * max(1.0, tr_prior))
            assert tr_post == pytest.approx(float(np.trace(own.sigma_bar)), abs=1e-9 * max(1.0, tr_post))

    def test_slices_sum_to_total(self):
        rng = np.random.default_rng(31)
        network = compose([random_agent(rng, f"agent{i}") for i in range(3)])
        sol = solve_filter(network.system, network.sigma)
        slices = per_agent_slices(network, sol)
        total_prior = sum(v[0] for v in slices.values())
        assert total_prior == pytest.approx(float(np.trace(sol.riccati.sigma)), rel=1e-12)

    def test_dimension_mismatch_rejected(self):
        network = compose([scalar_agent("a", 1.0), scalar_agent("b", 0.5)])
        tiny = compose([scalar_agent("c", 0.5)])
        sol = solve_filter(tiny.system, tiny.sigma)
        with pytest.raises(DimensionMismatchError):
            per_agent_slices(network, sol)


class TestDecomposition:
    @pytest.mark.parametrize("seed,count", [(51, 2), (52, 3), (53, 4)])
    def test_block_solve_equals_per_agent_solves(self, seed, count):
        rng = np.random.default_rng(seed)
        agents = [random_agent(rng, f"agent{i}") for i in range(count)]
        network = compose(agents)
        whole = solve_dare(network.system, np.diag(network.sigma**2))
        parts = [solve_dare(a.system, np.diag(a.privacy.sigma**2)) for a in agents]
        assembled = block_diag([p.sigma for p in parts])
        rel = np.linalg.norm(whole.sigma - assembled) / np.linalg.norm(assembled)
        assert rel <= 1e-9
        assembled_bar = block_diag([p.sigma_bar for p in parts])
        rel_bar = np.linalg.norm(whole.sigma_bar - assembled_bar) / np.linalg.norm(assembled_bar)
        assert rel_bar <= 1e-9

    def test_permutation_moves_blocks_consistently(self):
        rng = np.random.default_rng(61)
        agents = [random_agent(rng, f"agent{i}") for i in range(3)]
        fwd = compose(agents)
        rev = compose(list(reversed(agents)))
        sol_fwd = solve_filter(fwd.system, fwd.sigma)
        sol_rev = solve_filter(rev.system, rev.sigma)
        slices_fwd = per_agent_slices(fwd, sol_fwd)
        slices_rev = per_agent_slices(rev, sol_rev)
        for a in agents:
            assert slices_fwd[a.id][0] == pytest.approx(slices_rev[a.id][0], rel=1e-9)
            assert slices_fwd[a.id][1] == pytest.approx(slices_rev[a.id][1], rel=1e-9)
        assert rev.offsets[0] == (0, agents[2].system.n)

    @pytest.mark.parametrize("seed", [71, 72])
    def test_network_level_bounds_still_contain(self, seed):
        rng = np.random.default_rng(seed)
        agents = [random_agent(rng, f"agent{i}") for i in range(int(rng.integers(2, 5)))]
        network = compose(agents)
        sigma = network.sigma
        ric = solve_dare(network.system, np.diag(sigma**2))
        rep1 = apriori_trace_bounds(network.system, sigma)
        assert rep1.lower - 1e-8 <= np.trace(ric.sigma) <= rep1.upper + 1e-8
        rep2 = aposteriori_trace_bounds(network.system, sigma)
        assert rep2.lower - 1e-8 <= np.trace(ric.sigma_bar) <= rep2.upper + 1e-8


class TestMalformedInputs:
    # every outcome is a result or a ValidationError, never an
    # AttributeError or TypeError from a value of the wrong type
    SCALAR = scalar_agent("a", 0.5)
    NETWORK = compose([SCALAR])
    SOLUTION = solve_filter(NETWORK.system, NETWORK.sigma)
    ANY = st.one_of(any_scalar(), st.just(SCALAR), st.just(NETWORK), st.just(SOLUTION),
                    st.just(SCALAR.system), st.just(SCALAR.privacy))

    @given(agents=st.one_of(ANY, st.lists(ANY, max_size=3)))
    @settings(max_examples=60, deadline=None)
    def test_compose(self, agents):
        try:
            assert isinstance(compose(agents), NetworkModel)
        except ValidationError:
            pass

    @given(agent_id=st.one_of(st.text(max_size=2), ANY), system=ANY, privacy=ANY)
    @settings(max_examples=60, deadline=None)
    def test_agent_spec(self, agent_id, system, privacy):
        try:
            AgentSpec(id=agent_id, system=system, privacy=privacy)
        except ValidationError:
            pass

    @given(network=ANY, sol=ANY)
    @settings(max_examples=60, deadline=None)
    def test_per_agent_slices(self, network, sol):
        try:
            assert set(per_agent_slices(network, sol)) == {"a"}
        except ValidationError:
            pass
