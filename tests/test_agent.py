"""Agent: exploration schedule, optimistic planning inputs, update routing,
baselines, and snapshots."""

import json
import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bidlab.agent import (
    BaselinePolicy,
    SIGMA_FLOOR,
    act,
    agent_from_dict,
    agent_to_dict,
    baseline_act,
    default_n_underbar,
    exploration_plan,
    exploration_window,
    make_agent,
    optimistic_params,
    update,
)
from bidlab.environment import (
    BENCHMARK_RECIPE,
    RandomSource,
    generate_instance,
    run_episode,
    sample_context,
)
from bidlab.estimation import optimistic_mean
from bidlab.model import NEVER_BEFORE, ONLY_ONE, Bounds, lose_index, win_index
import bidlab
from bidlab.planning import best_outcome_plan, default_bid_grid, params_from_true

BOUNDS = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=3, dim=2)
GRID = default_bid_grid(BOUNDS)

# theta rows by name
NATURAL_DEMAND, FIRST_EXPOSURE = lose_index(NEVER_BEFORE), lose_index(ONLY_ONE)


def small_agent(**kw):
    kw.setdefault("n_underbar", 4)
    kw.setdefault("width_scale", 0.0)
    kw.setdefault("Gamma_override", 100_000.0)
    return make_agent(BOUNDS, T=200, **kw)


# --- exploration schedule ----------------------------------------------------

def test_exploration_plan_blocks():
    assert exploration_plan(1, 600, 3) == (True, False, False)
    assert exploration_plan(600, 600, 3) == (True, False, False)
    assert exploration_plan(601, 600, 3) == (True, True, False)
    assert exploration_plan(700, 600, 3) == (True, True, False)
    assert exploration_plan(1201, 600, 3) == (True, False, True)
    assert exploration_plan(1801, 600, 3) == (False, False, False)
    assert exploration_plan(2400, 600, 3) == (False, False, False)
    with pytest.raises(ValueError):
        exploration_plan(2401, 600, 3)
    with pytest.raises(ValueError):
        exploration_plan(0, 600, 3)


def test_exploration_window_matches_benchmark():
    assert exploration_window(600, 3) == 2400


def test_default_n_underbar():
    assert default_n_underbar(BOUNDS, 20000) == 52
    unit = Bounds(b=1.0, B_x=1.0, B_theta=1.0, B_d=1.0, B_A=1.0, H=3, dim=2)
    assert default_n_underbar(unit, 1000) == 95


def test_phase_boundary():
    agent = small_agent()
    agent.t = exploration_window(4, 3)
    assert agent.exploring
    agent.t += 1
    assert not agent.exploring


def test_exploration_never_consults_estimators():
    agent = small_agent()
    agent.theta_bank = None  # would crash any planner access
    agent.delay_bank = None
    agent.auction_bank = None
    d = act(agent, np.array([1.0, 1.0]), GRID)
    assert d.exploring and d.mode == "forced"
    assert d.plan == (True, False, False)


def test_act_bid_mode_auction_realizes_plan_with_cap_bids():
    agent = small_agent(bid_mode="auction")
    d = act(agent, np.array([1.0, 1.0]), GRID)
    assert d.mode == "auction"
    assert d.policy(1, None, None) == BOUNDS.B_A
    assert d.policy(2, None, None) == 0.0


# --- optimistic planning inputs ----------------------------------------------

def test_zero_information_params_are_floored():
    agent = small_agent()
    agent.t = 1000  # exploitation with no data
    params = optimistic_params(agent, np.array([1.0, 1.0]))
    assert params.mu == [BOUNDS.b] * 4
    assert params.delay == [1.0, BOUNDS.B_d, BOUNDS.B_d]  # pure optimism, no data
    assert np.array_equal(params.auction.beta, np.zeros((3, 2)))
    assert np.all(params.auction.sigma == SIGMA_FLOOR)
    d = act(agent, np.array([1.0, 1.0]), GRID)
    assert d.plan is not None and len(d.plan) == 3


def inject_truth(agent, m, a):
    for i, est in enumerate(agent.theta_bank):
        est.theta_hat = m.theta[i].copy()
    for lag, est in agent.delay_bank.items():
        est.numerator = float(m.delay[lag])
        est.denominator = 1.0
        est.N = 1
    for h, est in agent.auction_bank.items():
        est.gram = np.eye(2) * 1e8
        est.moment = est.gram @ a.beta[h - 1]
        est.count = 1000
        est.residual_sq_sum = a.sigma[h - 1] ** 2 * est.count


def test_exact_parameters_reproduce_oracle_plan():
    for seed in range(8):
        m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(seed))
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(seed).stream("c"))
        agent = small_agent()
        agent.t = 1000
        inject_truth(agent, m, a)
        d = act(agent, x, GRID)
        want_plan, _ = best_outcome_plan(params_from_true(x, m, a, BOUNDS.B_A))
        assert d.plan == want_plan


def test_optimism_orders_means_and_delays():
    agent = make_agent(BOUNDS, T=200, n_underbar=4, width_scale=1.0)
    rng = RandomSource(17)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    for t in range(1, 13):
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream(t, "ctx"))
        d = act(agent, x, GRID)
        log = run_episode(d.policy, x, m, a, rng, d.mode, t=t, bounds=BOUNDS)
        update(agent, log)
    x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream("probe"))
    params = optimistic_params(agent, x)
    for i, est in enumerate(agent.theta_bank):
        assert params.mu[i] >= est.mean(x) - 1e-12
    for lag, est in agent.delay_bank.items():
        if est.estimate is not None:
            # optimistic delay is the estimate plus a positive radius,
            # clamped into [0, B_d]
            assert params.delay[lag] >= min(est.estimate, BOUNDS.B_d) - 1e-12


def test_dp_planner_mode_returns_bid_policy():
    agent = small_agent(planner_mode="dp")
    agent.t = 1000
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(3))
    inject_truth(agent, m, a)
    x = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(3).stream("c"))
    d = act(agent, x, GRID)
    assert d.mode == "auction" and d.plan is None
    from bidlab.model import INITIAL_STATE
    bid = d.policy(1, INITIAL_STATE, x)
    assert 0.0 <= bid <= BOUNDS.B_A


# --- updates -----------------------------------------------------------------

def run_exploration(agent, seed=5):
    rng = RandomSource(seed)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    window = exploration_window(agent.n_underbar, BOUNDS.H)
    for t in range(1, window + 1):
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream(t, "ctx"))
        d = act(agent, x, GRID)
        log = run_episode(d.policy, x, m, a, rng, d.mode, t=t, bounds=BOUNDS)
        update(agent, log)
    return m, a


def test_update_rejects_out_of_order():
    agent = small_agent()
    rng = RandomSource(8)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    x = np.array([1.0, 1.0])
    log = run_episode(lambda h, s, x: False, x, m, a, rng, "forced", t=5,
                      bounds=BOUNDS)
    with pytest.raises(ValueError):
        update(agent, log)
    assert agent.t == 1
    # the same customers fed in order are accepted one after another
    for t in (1, 2):
        log = run_episode(lambda h, s, x: False, x, m, a, rng, "forced", t=t,
                          bounds=BOUNDS)
        update(agent, log)
        assert agent.t == t + 1
    with pytest.raises(ValueError):
        update(agent, log)


# A won round filed as a natural-demand sample must be rejected by update,
# also when asserts are stripped.
MISROUTED_UPDATE = """
import sys
import numpy as np
from bidlab import agent as agent_mod
from bidlab.environment import BENCHMARK_RECIPE, RandomSource, generate_instance, run_episode
from bidlab.estimation import SplitDatasets
from bidlab.model import Bounds

if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
bounds = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=3, dim=2)
rng = RandomSource(11)
m, a = generate_instance(BENCHMARK_RECIPE, bounds, rng)
log = run_episode(lambda h, s, x: h == 1, np.array([1.0, 1.0]), m, a, rng,
                  "forced", t=1, bounds=bounds)
# round 1 is won, but filed under theta row 0 (natural demand)
agent_mod.split_episode = lambda log: SplitDatasets(
    w=[[log.records[0]], [], [], []], d={}
)
agent = agent_mod.make_agent(bounds, T=200, n_underbar=4)
try:
    agent_mod.update(agent, log)
except ValueError as exc:
    print(exc)
    sys.exit(0)
sys.exit("update accepted a misrouted round")
"""


def test_update_rejects_misrouted_rounds_under_optimize():
    src = str(Path(bidlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", MISROUTED_UPDATE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert "customer 1, round 1 is not a clean sample of theta row 0" in proc.stdout


def test_all_lose_episode_routes_to_natural_demand_only():
    agent = small_agent()
    rng = RandomSource(9)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    x = np.array([1.0, 1.0])
    log = run_episode(lambda h, s, x: False, x, m, a, rng, "forced", t=1,
                      bounds=BOUNDS)
    update(agent, log)
    assert agent.theta_bank[NATURAL_DEMAND].update_count == 3
    assert agent.theta_bank[FIRST_EXPOSURE].update_count == 0
    assert all(est.N == 0 for est in agent.delay_bank.values())
    assert all(est.count == 1 for est in agent.auction_bank.values())
    assert agent.t == 2


def test_replay_doubles_counts():
    agent = small_agent()
    rng = RandomSource(10)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    x = np.array([1.0, 1.0])

    def replay(t):
        # the same forced outcomes for customers 1 and 2; only the noise
        # differs, so every count doubles
        log = run_episode(lambda h, s, x: h == 1, x, m, a, rng, "forced", t=t,
                          bounds=BOUNDS)
        update(agent, log)

    replay(1)
    first = {
        "theta": [e.update_count for e in agent.theta_bank],
        "delay": {lag: e.N for lag, e in agent.delay_bank.items()},
        "auction": {h: e.count for h, e in agent.auction_bank.items()},
    }
    assert sum(first["theta"]) == 1 and sum(first["delay"].values()) == 2
    replay(2)
    for i, e in enumerate(agent.theta_bank):
        assert e.update_count == 2 * first["theta"][i]
    for lag, e in agent.delay_bank.items():
        assert e.N == 2 * first["delay"][lag]
    for h, e in agent.auction_bank.items():
        assert e.count == 2 * first["auction"][h]


def test_exploration_feeds_every_estimator():
    agent = small_agent()
    run_exploration(agent)
    n = agent.n_underbar
    assert agent.theta_bank[NATURAL_DEMAND].update_count == 3 * n
    assert agent.theta_bank[FIRST_EXPOSURE].update_count == 3 * n
    assert agent.theta_bank[win_index(1)].update_count == n
    assert agent.theta_bank[win_index(2)].update_count == n
    assert agent.delay_bank[1].N == 3 * n
    assert agent.delay_bank[2].N == n
    for est in agent.auction_bank.values():
        assert est.count == 4 * n
    assert not agent.exploring


def test_underfed_exploration_raises():
    # a schedule too short to cover every block trips the boundary check
    agent = small_agent()
    rng = RandomSource(11)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    window = exploration_window(agent.n_underbar, BOUNDS.H)
    for t in range(1, window + 1):
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream(t, "ctx"))
        # feed all-lose episodes regardless of the schedule: delay buckets
        # starve and the boundary assertion fires on the final update
        log = run_episode(lambda h, s, x: False, x, m, a, rng, "forced", t=t,
                          bounds=BOUNDS)
        if t == window:
            with pytest.raises(RuntimeError):
                update(agent, log)
        else:
            update(agent, log)


def test_estimates_approach_truth_after_learning():
    # long exploration with width_scale 0: the point estimates should land
    # near the truth (smoke-level consistency, tight checks live in the
    # estimation tests)
    agent = make_agent(BOUNDS, T=2000, n_underbar=120, width_scale=0.0,
                       Gamma_override=100_000.0)
    m, a = run_exploration(agent, seed=21)
    probe = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(21).stream("p"))
    for i, est in enumerate(agent.theta_bank):
        got = est.mean(probe)
        want = float(m.theta[i] @ probe)
        assert got == pytest.approx(want, rel=0.25, abs=0.5)
    for lag, est in agent.delay_bank.items():
        assert est.estimate == pytest.approx(m.delay[lag], abs=0.3)
    for h, est in agent.auction_bank.items():
        assert np.linalg.norm(est.beta_hat - a.beta[h - 1]) <= 0.5


# --- baselines ---------------------------------------------------------------

def test_fixed_baselines():
    assert baseline_act(BaselinePolicy("aggressive", 3), None) == (True,) * 3
    assert baseline_act(BaselinePolicy("passive", 3), None) == (False,) * 3
    with pytest.raises(ValueError):
        BaselinePolicy("greedy", 3)


def test_random_baseline_uniformity():
    rng = np.random.default_rng(123)
    policy = BaselinePolicy("random", 3)
    counts = np.zeros(8)
    n = 100_000
    for _ in range(n):
        plan = baseline_act(policy, rng)
        k = sum(1 << i for i, w in enumerate(plan) if w)
        counts[k] += 1
    expected = n / 8
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    # chi-square critical value, 7 degrees of freedom, significance 0.01
    assert chi2 <= 18.4753


# --- snapshots ---------------------------------------------------------------

def test_agent_snapshot_round_trip():
    agent = small_agent()
    run_exploration(agent, seed=31)
    blob = json.dumps(agent_to_dict(agent))
    back = agent_from_dict(json.loads(blob))
    assert back.t == agent.t
    assert back.n_underbar == agent.n_underbar
    assert back.cfg == agent.cfg
    for i in range(4):
        assert np.array_equal(back.theta_bank[i].V, agent.theta_bank[i].V)
        assert np.array_equal(
            back.theta_bank[i].theta_hat, agent.theta_bank[i].theta_hat
        )
    for lag in (1, 2):
        assert back.delay_bank[lag].to_dict() == agent.delay_bank[lag].to_dict()
    for h in (1, 2, 3):
        assert np.array_equal(
            back.auction_bank[h].gram, agent.auction_bank[h].gram
        )
        assert back.auction_bank[h].residual_sq_sum == (
            agent.auction_bank[h].residual_sq_sum
        )

    # bit-equal arrays back, and the same JSON again, at every horizon
    for H in range(1, 7):
        bounds = replace(BOUNDS, H=H)
        agent = make_agent(bounds, T=100, n_underbar=2, width_scale=1.0)
        rng = RandomSource(40 + H)
        m, a = generate_instance(BENCHMARK_RECIPE, bounds, rng)
        # the whole exploration window and a few optimistic customers
        for t in range(1, exploration_window(2, H) + 4):
            x = sample_context(BENCHMARK_RECIPE, bounds, rng.stream(t, "ctx"))
            d = act(agent, x, default_bid_grid(bounds))
            log = run_episode(d.policy, x, m, a, rng, d.mode, t=t, bounds=bounds)
            update(agent, log)
        d = agent_to_dict(agent)
        lags = [f"LAG{k}" for k in range(1, H)]
        assert list(d["theta"]) == ["NATURAL_DEMAND", "FIRST_EXPOSURE", *lags]
        assert list(d["delay"]) == lags
        blob = json.dumps(d, sort_keys=True)
        back = agent_from_dict(json.loads(blob))
        assert json.dumps(agent_to_dict(back), sort_keys=True) == blob
        assert len(back.theta_bank) == H + 1
        assert list(back.delay_bank) == list(range(1, H))
        for got, want in zip(_estimator_arrays(back), _estimator_arrays(agent)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _estimator_arrays(agent):
    return [v for e in agent.theta_bank for v in (e.V, e.theta_hat)] + [
        v for e in agent.auction_bank.values() for v in (e.gram, e.moment)
    ]


def test_optimistic_params_project_auction_estimates():
    # estimates outside the bounds are projected before planning: each beta
    # row onto the B_beta ball, the noise scale into [SIGMA_FLOOR, sigma_max]
    agent = small_agent()
    agent.t = 1000
    inside = np.array([0.3, -0.4])
    for h, est in agent.auction_bank.items():
        est.moment = est.gram @ (inside if h == 1 else np.array([30.0, 40.0]))
        est.count = 10
        est.residual_sq_sum = 10 * (2.0 if h == 2 else 100.0) ** 2
    params = optimistic_params(agent, np.array([1.0, 1.0]))
    assert params.auction.beta[0].tobytes() == agent.auction_bank[1].beta_hat.tobytes()
    for row in params.auction.beta[1:]:
        assert np.linalg.norm(row) == pytest.approx(BOUNDS.B_beta)
        assert np.allclose(row / np.linalg.norm(row), [0.6, 0.8])
    assert params.auction.sigma.tolist() == [
        BOUNDS.sigma_max, 2.0, BOUNDS.sigma_max,
    ]
