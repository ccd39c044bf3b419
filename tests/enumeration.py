"""References that only tests use, independent of the backward induction
behind the planners: every one of the 2^H target outcome sequences scored
by `outcome_value`, a scalar loop over the bid grid scored by
`auction_round_value`, the exact continuous-bid optimum, the oracle value
in either planner mode, two identities of the HOB payment, an
outcome-mode trial played one customer and one policy at a time, and the
learner's update consuming one customer and one sample at a time."""

import itertools
import math

import numpy as np

from bidlab.agent import (
    BaselinePolicy,
    act,
    baseline_act,
    exploration_window,
    make_agent,
    update,
)
from bidlab.estimation import project_v_ball, split_episode
from bidlab.environment import (
    RandomSource,
    draw_hobs,
    generate_instance,
    run_episode,
    sample_context,
)
from bidlab.model import (
    INITIAL_STATE,
    delay_index,
    expected_payment,
    lose_index,
    next_state,
    reachable_states,
    NEVER,
    win_index,
    win_probability,
)
from bidlab.planning import (
    auction_round_value,
    batch_params,
    best_outcome_plan,
    best_outcome_values,
    default_bid_grid,
    dp_policy,
    outcome_value,
    params_from_true,
)


def enumerated_best_plan(params):
    """The lexicographically smallest maximizer of `outcome_value` over all
    2^H plans (lose before win), with its value."""
    best_plan, best = None, -float("inf")
    for plan in itertools.product((False, True), repeat=params.H):
        v = outcome_value(plan, params)
        if v > best:
            best_plan, best = plan, v
    return best_plan, best


def scalar_backward_induction(params, choose):
    """Bids and values keyed by (round, state): `choose(h, s, v_win,
    v_lose)` picks the bid at each reachable state from the last round
    back, one state at a time."""
    H = params.H
    bids, values = {}, {}
    layers = reachable_states(H)
    for h in range(H, 0, -1):
        for s in layers[h - 1]:
            v_win = values[(h + 1, next_state(s, True))] if h < H else 0.0
            v_lose = values[(h + 1, next_state(s, False))] if h < H else 0.0
            bids[(h, s)], values[(h, s)] = choose(h, s, v_win, v_lose)
    return bids, values


def scalar_grid_policy(params, grid):
    """Auction-mode grid planning one (state, bid) pair at a time: the bids
    and values `dp_policy` must return, keyed by (round, state).  The
    strict `>` keeps the first of equal maxima, so ties go to the lower
    bid."""

    def choose(h, s, v_win, v_lose):
        best_bid, best = None, -float("inf")
        for a in grid:
            q = auction_round_value(params, h, s, float(a), v_win, v_lose)
            if q > best:
                best_bid, best = float(a), q
        return best_bid, best

    return scalar_backward_induction(params, choose)


def closed_form_bid(s, params, v_win, v_lose):
    """Truthful second-price bid with continuation values: the marginal
    value of winning this round, clamped to [0, B_A]."""
    mu_win = params.mu[win_index(s.s1)]
    mu_lose = params.delay[delay_index(s.s1)] * params.mu[lose_index(s.s2)]
    return min(max(mu_win - mu_lose + v_win - v_lose, 0.0), params.B_A)


def closed_form_value(params):
    """Value of the exact continuous-bid maximizer at every state: the
    optimal auction-mode episode value."""

    def choose(h, s, v_win, v_lose):
        a = closed_form_bid(s, params, v_win, v_lose)
        return a, auction_round_value(params, h, s, a, v_win, v_lose)

    _, values = scalar_backward_induction(params, choose)
    return values[(1, INITIAL_STATE)]


def oracle_value(x, m, a, mode="outcome", bounds=None):
    """Best achievable expected episode value under the true parameters:
    over target outcome sequences, or by the grid planner on the default
    257-point grid (which needs bounds)."""
    if mode == "outcome":
        return best_outcome_plan(params_from_true(x, m, a))[1]
    if mode == "dp":
        if bounds is None:
            raise ValueError("dp mode needs bounds for the bid grid")
        params = params_from_true(x, m, a, B_A=bounds.B_A)
        return dp_policy(params, default_bid_grid(bounds)).value
    raise ValueError(f"unknown oracle mode {mode!r}")


def cdf_integral(h, bid, x, a):
    """Exact integral of the HOB CDF from 0 to `bid`:
    bid * F(bid) - E[HOB * 1{HOB <= bid}]."""
    if bid <= 0:
        return 0.0
    return bid * win_probability(h, bid, x, a) - expected_payment(h, bid, x, a)


def expected_payment_given_win(h, bid, x, a):
    """Expected second-price payment E[HOB | HOB <= bid], equal to
    bid - (1/F(bid)) * integral_0^bid F."""
    F = win_probability(h, bid, x, a)
    if F == 0.0:
        raise ValueError("payment undefined at zero win probability")
    return expected_payment(h, bid, x, a) / F


def per_customer_realized(config, trial, instance=None):
    """Realized cumulative regret of every policy of an outcome-mode
    config, each customer's episode run through `run_episode` once per
    policy in config order, every stream built by SeedSequence; the
    instance is the trial's own unless given."""
    rng = RandomSource(config.seed).scoped(trial)
    m, a = instance or generate_instance(config.instance, config.bounds, rng)
    xs = [sample_context(config.instance, config.bounds, rng.stream(t, "ctx"))
          for t in range(1, config.T + 1)]
    opt = best_outcome_values(batch_params(np.array(xs), m, a))
    agent = None
    if "learner" in config.policies:
        agent = make_agent(
            config.bounds, config.T, delta=config.delta,
            width_scale=config.width_scale, n_underbar=config.n_underbar,
            Gamma_override=config.Gamma_trunc, planner_mode=config.mode,
        )
    grid = default_bid_grid(config.bounds, config.bid_grid_points)
    rewards = {name: [] for name in config.policies}
    for t, x in enumerate(xs, start=1):
        hobs = draw_hobs(x, a, rng, t)
        for name in config.policies:
            if name == "learner":
                decision = act(agent, x, grid)
                policy, mode = decision.policy, decision.mode
            else:
                plan = baseline_act(
                    BaselinePolicy(name, config.H),
                    rng.stream(t, "plan", name) if name == "random" else None,
                )
                policy, mode = (lambda h, s, xx, plan=plan: plan[h - 1]), "forced"
            log = run_episode(policy, x, m, a, rng, mode, t=t, noise_label=name,
                              bounds=config.bounds, hobs=hobs)
            rewards[name].append(log.realized_reward)
            if name == "learner":
                update(agent, [log])
    return {name: np.cumsum(opt - np.array(r)) for name, r in rewards.items()}


# --- the learner's update, one customer and one sample at a time -------------


def per_sample_ridge(est, x, log_hob):
    """One regression sample; the residual is scored against the estimate
    available before the sample arrives (progressive first stage)."""
    if not math.isfinite(log_hob):
        raise ValueError("log HOB must be finite")
    x = np.asarray(x, dtype=float)
    resid = log_hob - float(x @ est.beta_hat)
    est.residual_sq_sum += resid * resid
    est.gram = est.gram + np.outer(x, x)
    est.moment = est.moment + x * log_hob
    est.count += 1
    return est


def per_sample_crtm(est, x, y, cfg):
    """One truncated-mean online Newton step.

    The design matrix gains half the outer product first; the truncation
    test uses the updated metric.
    """
    x = np.asarray(x, dtype=float)
    est.V = est.V + 0.5 * np.outer(x, x)
    x_norm = math.sqrt(float(x @ np.linalg.solve(est.V, x)))
    y_trunc = float(y) if x_norm * abs(float(y)) <= cfg.Gamma_trunc else 0.0
    grad = (float(x @ est.theta_hat) - y_trunc) * x
    theta_star = est.theta_hat - np.linalg.solve(est.V, grad)
    est.theta_hat = project_v_ball(theta_star, est.V, est.B_theta)
    est.update_count += 1
    return est


def per_sample_tsmle(est, rounds, x, theta_bank, b):
    """Consume one customer's lost rounds at this lag, base rates from the
    effect estimates current for this customer (`theta_bank`, by theta
    row), each floored at b."""
    for r in rounds:
        if r.won or r.state.s1 != est.index:
            raise ValueError(f"round {r} does not belong to lag {est.index}")
        theta_hat = theta_bank[lose_index(r.state.s2)]
        est.denominator += max(b, float(theta_hat @ x))
        est.numerator += float(r.conversions)
        est.N += 1
    return est


def per_sample_update(agent, log):
    """Consume one episode: auction regression on every round, then the
    split-bucket effect updates by theta row and the delay updates by lag."""
    if log.t != agent.t:
        raise ValueError(f"expected customer {agent.t}, got log for {log.t}")
    x = log.x
    for r in log.records:
        per_sample_ridge(agent.auction_bank[r.h], x, math.log(r.hob))
    split = split_episode(log)
    for i, rounds in enumerate(split.w):
        for r in rounds:
            home = win_index(r.state.s1) if r.won else lose_index(r.state.s2)
            if home != i or not (r.won or r.state.s1 == NEVER):
                raise ValueError(
                    f"customer {r.t}, round {r.h} is not a clean sample of "
                    f"theta row {i}"
                )
            per_sample_crtm(agent.theta_bank[i], x, float(r.conversions), agent.cfg)
    theta_snapshot = [est.theta_hat for est in agent.theta_bank]
    for lag in sorted(split.d):
        per_sample_tsmle(
            agent.delay_bank[lag], split.d[lag], x, theta_snapshot, agent.bounds.b
        )
    agent.t += 1
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    if agent.bid_mode == "forced" and agent.t == boundary + 1:
        for lag, est in agent.delay_bank.items():
            if est.N < agent.n_underbar:
                raise RuntimeError(
                    f"exploration underfed the lag-{lag} delay estimator: "
                    f"{est.N} < {agent.n_underbar}"
                )
    return agent
