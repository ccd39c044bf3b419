"""Agent: exploration schedule, optimistic planning inputs, update routing,
baselines, and snapshots."""

import itertools
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
    SIGMA_FLOOR,
    act,
    agent_from_dict,
    agent_to_dict,
    baseline_bids,
    default_n_underbar,
    draft_plans,
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
from bidlab.estimation import delay_estimate, optimistic_mean, solve_small, split_episode
from bidlab.model import (
    NEVER_BEFORE,
    ONLY_ONE,
    Bounds,
    lognormal_mean,
    lose_index,
    state_table,
    win_index,
)
import bidlab
from bidlab.harness import benchmark_config
from bidlab.planning import (
    best_outcome_plan,
    dp_policy,
    forced_bids,
    params_from_true,
)
from enumeration import baseline_plan, concat, draw_hobs, trial_log

BOUNDS = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=3, dim=2)

# theta rows by name
NATURAL_DEMAND, FIRST_EXPOSURE = lose_index(NEVER_BEFORE), lose_index(ONLY_ONE)
LOSE_ALL, WIN_FIRST = forced_bids((False,) * 3), forced_bids((True, False, False))


def play(bids, x, m, a, rng, t):
    """Customer t's episode on its own HOB draws."""
    return run_episode(bids, x, m, a, rng, t=t, noise_label="policy",
                       hobs=draw_hobs(x, a, rng, t))


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
    for name in ("theta", "V", "numerator", "denominator", "N", "gram", "moment", "rss",
                 "count"):
        setattr(agent, name, None)  # would crash any planner access
    bids = act(agent, np.array([1.0, 1.0]))
    assert agent.exploring
    assert bids == forced_bids((True, False, False))


# --- optimistic planning inputs ----------------------------------------------

def test_zero_information_params_are_floored():
    agent = small_agent()
    agent.t = 1000  # exploitation with no data
    params = optimistic_params(agent, np.array([1.0, 1.0]))
    assert params.mu == [BOUNDS.b] * 4
    assert params.delay == [1.0, BOUNDS.B_d, BOUNDS.B_d]  # pure optimism, no data
    assert params.log_hob == [0.0] * 3  # zero beta estimates
    assert params.sigma == [SIGMA_FLOOR] * 3
    assert params.hob == [lognormal_mean(0.0, SIGMA_FLOOR)] * 3
    bids = act(agent, np.array([1.0, 1.0]))
    assert bids == forced_bids(best_outcome_plan(params)[0])  # outcome mode forces its plan


def inject_truth(agent, m, a):
    agent.theta[:] = m.theta
    agent.numerator[:] = m.delay[1:]
    agent.denominator[:] = 1.0
    agent.N[:] = 1
    agent.gram[:] = np.eye(2) * 1e8
    for j, beta in enumerate(a.beta):
        agent.moment[j] = agent.gram[j] @ beta
    agent.count[:] = 1000
    agent.rss[:] = a.sigma ** 2 * agent.count


def test_exact_parameters_reproduce_oracle_plan():
    for seed in range(8):
        m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(seed))
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(seed).stream("c"))
        agent = small_agent()
        agent.t = 1000
        inject_truth(agent, m, a)
        want_plan, _ = best_outcome_plan(params_from_true(x, m, a))
        assert act(agent, x) == forced_bids(want_plan)


def test_optimism_orders_means_and_delays():
    agent = make_agent(BOUNDS, T=200, n_underbar=4, width_scale=1.0)
    rng = RandomSource(17)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    for t in range(1, 13):
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream(t, "ctx"))
        log = play(act(agent, x), x, m, a, rng, t)
        update(agent, log)
    x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream("probe"))
    params = optimistic_params(agent, x)
    for i, theta in enumerate(agent.theta):
        assert params.mu[i] >= float(x.dot(theta)) - 1e-12
    for lag, (num, den) in enumerate(zip(agent.numerator, agent.denominator), 1):
        estimate = delay_estimate(num, den)
        if estimate is not None:
            # optimistic delay is the estimate plus a positive radius,
            # clamped into [0, B_d]
            assert params.delay[lag] >= min(estimate, BOUNDS.B_d) - 1e-12


def test_dp_planner_mode_returns_bid_policy():
    agent = small_agent(planner_mode="dp")
    agent.t = 1000
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(3))
    inject_truth(agent, m, a)
    x = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(3).stream("c"))
    bids = act(agent, x)
    assert len(bids) == len(state_table(BOUNDS.H).states)
    assert all(0.0 <= bid <= BOUNDS.B_A for bid in bids)
    # the exact bids by state id, as the planner gives them on the learner's
    # optimistic inputs
    want, _ = dp_policy(optimistic_params(agent, x), BOUNDS.B_A)
    assert bids == want


def test_dp_learner_caps_its_bids_at_B_A():
    # under a cap far below the value of a first win, that state bids the cap
    bounds = replace(BOUNDS, B_A=0.05)
    agent = make_agent(bounds, T=200, n_underbar=4, width_scale=0.0,
                       Gamma_override=100_000.0, planner_mode="dp")
    agent.t = 1000
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, RandomSource(3))
    inject_truth(agent, m, a)
    x = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(3).stream("c"))
    bids = act(agent, x)
    assert bids[0] == bounds.B_A  # id 0: round 1, initial state
    assert all(0.0 <= bid <= bounds.B_A for bid in bids)
    assert bids == dp_policy(optimistic_params(agent, x), bounds.B_A)[0]


@pytest.mark.parametrize("width_scale", [0.0, 0.01])
@pytest.mark.parametrize("mode", ["outcome", "dp"])
def test_drafted_rows_are_the_rows_act_plans(mode, width_scale):
    # past exploration, the rows draft_plans gives a block of contexts on the
    # learner's estimates are, bit for bit, those act plans for each alone:
    # the forced bids of the best plan, or the exact bids in dp mode
    agent = small_agent(planner_mode=mode, width_scale=width_scale)
    run_exploration(agent)
    rng = RandomSource(9)
    X = np.array([sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream(k, "ctx"))
                  for k in range(17)])
    rows = draft_plans(agent, X)
    assert rows.shape == (17, len(state_table(BOUNDS.H).states))
    assert [row.tolist() for row in rows] == [list(act(agent, x)) for x in X]


# --- updates -----------------------------------------------------------------

def run_exploration(agent, seed=5):
    rng = RandomSource(seed)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    window = exploration_window(agent.n_underbar, BOUNDS.H)
    for t in range(1, window + 1):
        x = sample_context(BENCHMARK_RECIPE, BOUNDS, rng.stream(t, "ctx"))
        log = play(act(agent, x), x, m, a, rng, t)
        update(agent, log)
    return m, a


def test_update_rejects_out_of_order():
    agent = small_agent()
    rng = RandomSource(8)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    x = np.array([1.0, 1.0])
    log = play(LOSE_ALL, x, m, a, rng, 5)
    with pytest.raises(ValueError):
        update(agent, log)
    assert agent.t == 1
    # the same customers fed in order are accepted one after another
    for t in (1, 2):
        log = play(LOSE_ALL, x, m, a, rng, t)
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
from bidlab.environment import (
    BENCHMARK_RECIPE, RandomSource, draw_hobs, generate_instance, run_episode,
)
from bidlab.model import Bounds
from bidlab.planning import batch_params

if not sys.flags.optimize:
    sys.exit("expected to run under python -O")
bounds = Bounds(b=0.1, B_x=5.0, B_theta=10.0, B_d=5.0, B_A=50.0, H=3, dim=2)
rng = RandomSource(11)
m, a = generate_instance(BENCHMARK_RECIPE, bounds, rng)
from bidlab.planning import forced_bids
x = np.array([1.0, 1.0])
log = run_episode(forced_bids((True, False, False)), x, m, a, rng, t=1,
                  noise_label="policy", hobs=draw_hobs(batch_params(x[None], m, a), rng, 0)[0])
# round 1 is won, but filed under theta row 0 (natural demand)
real = agent_mod.split_episode


def misfile(episodes):
    bucket = real(episodes)
    bucket[0, 0] = 0
    return bucket


agent_mod.split_episode = misfile
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
    log = play(LOSE_ALL, x, m, a, rng, 1)
    update(agent, log)
    assert agent.update_count[NATURAL_DEMAND] == 3
    assert agent.update_count[FIRST_EXPOSURE] == 0
    assert all(N == 0 for N in agent.N)
    assert all(count == 1 for count in agent.count)
    assert agent.t == 2


def test_replay_doubles_counts():
    agent = small_agent()
    rng = RandomSource(10)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    x = np.array([1.0, 1.0])

    def replay(t):
        # the same forced outcomes for customers 1 and 2; only the noise
        # differs, so every count doubles
        log = play(WIN_FIRST, x, m, a, rng, t)
        update(agent, log)

    replay(1)
    first = {
        "theta": agent.update_count.tolist(),
        "delay": agent.N.tolist(),
        "auction": agent.count.tolist(),
    }
    assert sum(first["theta"]) == 1 and sum(first["delay"]) == 2
    replay(2)
    for i, count in enumerate(agent.update_count):
        assert count == 2 * first["theta"][i]
    for k, N in enumerate(agent.N):
        assert N == 2 * first["delay"][k]
    for j, count in enumerate(agent.count):
        assert count == 2 * first["auction"][j]


def test_exploration_feeds_every_estimator():
    agent = small_agent()
    run_exploration(agent)
    n = agent.n_underbar
    assert agent.update_count[NATURAL_DEMAND] == 3 * n
    assert agent.update_count[FIRST_EXPOSURE] == 3 * n
    assert agent.update_count[win_index(1)] == n
    assert agent.update_count[win_index(2)] == n
    assert agent.N[1 - 1] == 3 * n
    assert agent.N[2 - 1] == n
    for count in agent.count:
        assert count == 4 * n
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
        log = play(LOSE_ALL, x, m, a, rng, t)
        if t == window:
            with pytest.raises(RuntimeError):
                update(agent, log)
        else:
            update(agent, log)


def test_underfed_exploration_raises_inside_a_run_across_the_window():
    # the check runs at the window's last customer, also when one run of
    # updates spans the window
    agent = small_agent()
    rng = RandomSource(11)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    window = exploration_window(agent.n_underbar, BOUNDS.H)
    logs = [
        play(LOSE_ALL, np.array([1.0, 1.0]), m, a, rng, t)
        for t in range(1, window + 3)
    ]
    with pytest.raises(RuntimeError, match=rf"^customer {window}: exploration underfed"):
        update(agent, concat(logs))
    assert agent.t == window + 1


def test_estimates_approach_truth_after_learning():
    # long exploration with width_scale 0: the point estimates should land
    # near the truth (smoke-level consistency, tight checks live in the
    # estimation tests)
    agent = make_agent(BOUNDS, T=2000, n_underbar=120, width_scale=0.0,
                       Gamma_override=100_000.0)
    m, a = run_exploration(agent, seed=21)
    probe = sample_context(BENCHMARK_RECIPE, BOUNDS, RandomSource(21).stream("p"))
    for i, theta in enumerate(agent.theta):
        got = float(probe.dot(theta))
        want = float(m.theta[i] @ probe)
        assert got == pytest.approx(want, rel=0.25, abs=0.5)
    for lag, (num, den) in enumerate(zip(agent.numerator, agent.denominator), 1):
        assert delay_estimate(num, den) == pytest.approx(m.delay[lag], abs=0.3)
    for h, (gram, moment) in enumerate(zip(agent.gram, agent.moment), 1):
        assert np.linalg.norm(solve_small(gram, moment) - a.beta[h - 1]) <= 0.5


# --- baselines ---------------------------------------------------------------

def test_fixed_baselines():
    # each baseline's row is the forced bids of the reference's plan, the
    # random one's drawn as the reference draws it
    for H in range(1, 7):
        assert baseline_bids("aggressive", H, None) == forced_bids((True,) * H)
        assert baseline_bids("passive", H, None) == forced_bids((False,) * H)
        got, want = np.random.default_rng(H), np.random.default_rng(H)
        for _ in range(50):
            assert (baseline_bids("random", H, got)
                    == forced_bids(baseline_plan("random", H, want)))
    with pytest.raises(KeyError):
        baseline_bids("greedy", 3, None)
    with pytest.raises(ValueError, match="unknown policy 'greedy'"):
        benchmark_config(policies=("learner", "greedy"))


def test_random_baseline_uniformity():
    rng = np.random.default_rng(123)
    plans = {forced_bids(p): p for p in itertools.product((False, True), repeat=3)}
    counts = np.zeros(8)
    n = 100_000
    for _ in range(n):
        plan = plans[baseline_bids("random", 3, rng)]
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
        assert np.array_equal(back.V[i], agent.V[i])
        assert np.array_equal(back.theta[i], agent.theta[i])
    for lag in (1, 2):
        for name in ("numerator", "denominator", "N"):
            assert getattr(back, name)[lag - 1] == getattr(agent, name)[lag - 1]
    for h in (1, 2, 3):
        assert np.array_equal(back.gram[h - 1], agent.gram[h - 1])
        assert back.rss[h - 1] == agent.rss[h - 1]

    # bit-equal arrays back, and the same JSON again, at every horizon; at
    # H = 11 the sorted keys ("1", "10", "11", "2", ...) are not in
    # position order
    for H in (*range(1, 7), 11):
        bounds = replace(BOUNDS, H=H)
        agent = make_agent(bounds, T=100, n_underbar=2, width_scale=1.0)
        rng = RandomSource(40 + H)
        m, a = generate_instance(BENCHMARK_RECIPE, bounds, rng)
        # the whole exploration window and a few optimistic customers
        for t in range(1, exploration_window(2, H) + 4):
            x = sample_context(BENCHMARK_RECIPE, bounds, rng.stream(t, "ctx"))
            log = play(act(agent, x), x, m, a, rng, t)
            update(agent, log)
        d = agent_to_dict(agent)
        lags = [f"LAG{k}" for k in range(1, H)]
        assert list(d["theta"]) == ["NATURAL_DEMAND", "FIRST_EXPOSURE", *lags]
        assert list(d["delay"]) == lags
        blob = json.dumps(d, sort_keys=True)
        back = agent_from_dict(json.loads(blob))
        assert json.dumps(agent_to_dict(back), sort_keys=True) == blob
        assert len(back.theta) == H + 1
        assert len(back.N) == H - 1
        for got, want in zip(_estimator_arrays(back), _estimator_arrays(agent)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_agent_snapshot_holds_one_gamma_and_no_copies():
    # the gamma the optimistic means use, checked against gamma_raw and
    # width_scale; no constant bid mode, and no entry repeats its key or a
    # bound
    agent = make_agent(BOUNDS, T=200, n_underbar=4, width_scale=0.25)
    d = agent_to_dict(agent)
    assert "bid_mode" not in d
    assert [set(e) for e in d["theta"].values()] == [{"V", "theta_hat", "update_count"}] * 4
    assert [set(e) for e in d["delay"].values()] == [{"numerator", "denominator", "N"}] * 2
    assert ([set(e) for e in d["auction"].values()]
            == [{"gram", "moment", "residual_sq_sum", "count"}] * 3)
    assert d["cfg"]["gamma"] == 0.25 * d["gamma_raw"] == agent.cfg.gamma
    assert d["gamma_raw"] == agent.cfg.gamma_raw
    assert agent_from_dict(json.loads(json.dumps(d))).cfg == agent.cfg
    stale = json.loads(json.dumps(d))
    stale["cfg"]["gamma"] = d["gamma_raw"]  # width_scale not applied
    with pytest.raises(ValueError, match=r"^cfg\.gamma must be width_scale \* gamma_raw"):
        agent_from_dict(stale)


@pytest.mark.parametrize("damage, match", [
    (lambda d: d["auction"].pop("2"), r"^snapshot auction: key '2' is missing"),
    (lambda d: d["auction"].update({"4": d["auction"]["3"]}),
     r"^snapshot auction: key '4' is not a position of the bounds"),
    (lambda d: d["auction"]["2"].update(gram=[1.0, 2.0]),
     r"^snapshot auction\['2'\]: gram must be an array of shape \(2, 2\), got \[1\.0, 2\.0\]"),
    (lambda d: d["theta"]["LAG1"].update(V=[[1.0]]),
     r"^snapshot theta\['LAG1'\]: V must be an array of shape \(2, 2\), got \[\[1\.0\]\]"),
    (lambda d: d["delay"]["LAG2"].update(N=2.5),
     r"^snapshot delay\['LAG2'\]: N must be of type int, got 2\.5"),
    (lambda d: d["delay"]["LAG1"].update(numerator="1.5"),
     r"^snapshot delay\['LAG1'\]: numerator must be of type float, got '1\.5'"),
    (lambda d: d.update(planner_mode="grid"),
     r"^planner_mode must be 'outcome' or 'dp', got 'grid'"),
])
def test_malformed_snapshots_are_rejected_when_loaded(damage, match):
    # each of these loaded before and failed, or played wrongly, later on
    agent = small_agent()
    run_exploration(agent, seed=31)
    d = json.loads(json.dumps(agent_to_dict(agent)))
    damage(d)
    with pytest.raises(ValueError, match=match):
        agent_from_dict(d)


def _estimator_arrays(agent):
    return [getattr(agent, name) for name in (
        "theta", "V", "update_count", "numerator", "denominator", "N",
        "gram", "moment", "rss", "count")]


def test_optimistic_params_project_auction_estimates():
    # estimates outside the bounds are projected before planning: each beta
    # row onto the B_beta ball, the noise scale into [SIGMA_FLOOR, sigma_max]
    agent = small_agent()
    agent.t = 1000
    inside = np.array([0.3, -0.4])
    for h in (1, 2, 3):
        agent.moment[h - 1] = agent.gram[h - 1] @ (inside if h == 1 else np.array([30.0, 40.0]))
        agent.count[h - 1] = 10
        agent.rss[h - 1] = 10 * (2.0 if h == 2 else 100.0) ** 2
    # at a unit context the HOB log-mean of round h is one coordinate of the
    # planned beta row, so the two contexts read the rows back coordinatewise
    p0 = optimistic_params(agent, np.array([1.0, 0.0]))
    p1 = optimistic_params(agent, np.array([0.0, 1.0]))
    rows = np.array([p0.log_hob, p1.log_hob]).T
    # the row inside the ball keeps the bits of the ridge estimate
    assert rows[0].tobytes() == solve_small(agent.gram[0], agent.moment[0]).tobytes()
    # the projected rows point along (0.6, 0.8) with norm B_beta
    for row in rows[1:]:
        assert np.linalg.norm(row) == pytest.approx(BOUNDS.B_beta)
        assert row.tolist() == pytest.approx([0.6 * BOUNDS.B_beta, 0.8 * BOUNDS.B_beta])
    for params in (p0, p1):
        assert params.sigma == [BOUNDS.sigma_max, 2.0, BOUNDS.sigma_max]
        assert params.hob == [
            lognormal_mean(v, sd) for v, sd in zip(params.log_hob, params.sigma)
        ]


# --- runs of episodes --------------------------------------------------------

# Learner-only trials covering H 1-5 and dim 1-3, plus one that truncates
# and projects the effect estimates.  No exploration window is a multiple of
# 7, so runs of 7 cut across the boundary (runs of 2 do where it is odd).
RUN_CONFIGS = {
    "h1_dim1": {"T": 60, "H": 1, "dim": 1, "n_underbar": 9},
    "h2_dim3": {"T": 80, "H": 2, "dim": 3, "n_underbar": 11},
    "h3_dim2": {"T": 120, "H": 3, "dim": 2, "n_underbar": 13},
    "h4_dim1": {"T": 120, "H": 4, "dim": 1, "n_underbar": 9},
    "h5_dim2": {"T": 130, "H": 5, "dim": 2, "n_underbar": 15},
    "h5_dim3": {"T": 150, "H": 5, "dim": 3, "n_underbar": 11},
    "trunc_proj": {"T": 200, "n_underbar": 12, "Gamma_trunc": 2.0,
                   "bounds": {"B_theta": 2.0}},
}


def _learner_run(name, out_dir):
    """A fresh learner for config `name`, and the episodes that trial 0 of
    it logged under `out_dir`."""
    from bidlab.harness import config_from_dict, run_trial

    cfg = config_from_dict({**RUN_CONFIGS[name], "trials": 1,
                            "policies": ["learner"], "emit_logs": True})
    run_trial(cfg, 0, out_dir)
    episodes = trial_log(out_dir, cfg)

    def fresh():
        return make_agent(cfg.bounds, cfg.T, delta=cfg.delta,
                          width_scale=cfg.width_scale, n_underbar=cfg.n_underbar,
                          Gamma_override=cfg.Gamma_trunc)

    return fresh, episodes


def _snapshot(agent):
    return json.dumps(agent_to_dict(agent), sort_keys=True)


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_runs_of_episodes_equal_one_sample_at_a_time(name, tmp_path):
    # after every run the snapshot is byte for byte the one the per-sample
    # reference reaches at the same customer
    from enumeration import per_sample_update

    fresh, episodes = _learner_run(name, tmp_path)
    reference = fresh()
    want = [_snapshot(reference)]
    for k in range(len(episodes)):
        per_sample_update(reference, episodes[k:k + 1])
        want.append(_snapshot(reference))
    window = exploration_window(reference.n_underbar, reference.bounds.H)
    for size in (1, 2, 7, 256, len(episodes)):
        agent = fresh()
        starts = range(0, len(episodes), size)
        for start in starts:
            update(agent, episodes[start:start + size])
            assert _snapshot(agent) == want[min(start + size, len(episodes))]
        if size in (7, len(episodes)):
            assert any(s < window < s + size for s in starts)


def test_truncation_and_projection_run_in_the_trunc_proj_config(monkeypatch, tmp_path):
    # the config above reaches both branches of the online Newton step
    import bidlab.estimation as estimation_module

    projected = []
    real = estimation_module.project_v_ball

    def counting(theta_star, V, radius):
        projected.append(float(np.linalg.norm(theta_star)) > radius)
        return real(theta_star, V, radius)

    monkeypatch.setattr(estimation_module, "project_v_ball", counting)
    fresh, episodes = _learner_run("trunc_proj", tmp_path)
    gamma, metric, truncated = fresh().cfg.Gamma_trunc, {}, 0
    H = episodes.won.shape[1]
    buckets = split_episode(episodes).tolist()
    for x, row, ys in zip(episodes.x, buckets, episodes.conversions.tolist()):
        for i, y in zip(row, ys):
            if i <= H:  # a W round: the truncation test of the reference's step
                metric[i] = metric.get(i, np.eye(len(x))) + 0.5 * np.outer(x, x)
                norm = math.sqrt(float(x @ np.linalg.solve(metric[i], x)))
                truncated += norm * y > gamma
    assert truncated > 0 and any(projected)


def test_update_of_an_empty_run_changes_nothing():
    agent = small_agent()
    rng = RandomSource(8)
    m, a = generate_instance(BENCHMARK_RECIPE, BOUNDS, rng)
    empty = play(LOSE_ALL, np.array([1.0, 1.0]), m, a, rng, 1)[:0]
    before = _snapshot(agent)
    assert update(agent, empty) is agent and _snapshot(agent) == before


def test_schedule_decisions_may_run_ahead_of_updates():
    # an exploration decision reads the schedule at its own customer, however
    # far behind the updates are; a planned one needs them all consumed
    agent = small_agent()
    window = exploration_window(agent.n_underbar, BOUNDS.H)
    x = np.array([1.0, 1.0])
    for t in range(1, window + 1):
        assert act(agent, x, t) == forced_bids(exploration_plan(
            t, agent.n_underbar, BOUNDS.H
        ))
    assert agent.t == 1
    with pytest.raises(ValueError, match=rf"^customer {window + 1}: "):
        act(agent, x, window + 1)
