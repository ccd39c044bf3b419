"""References that only tests use, independent of the backward induction
behind the planners: every one of the 2^H target outcome sequences scored
by `outcome_value`, a scalar round value `auction_round_value` on the
model's closed forms (on one `Customer`: its context and auction model)
with a scalar loop over a bid grid and a fixed bid rule's value built on
it, the exact continuous-bid optimum, the oracle value in either planner
mode, two identities of the HOB payment, the fixed baselines' target
outcomes, an outcome-mode trial played one customer and one policy at a
time, and the learner's update consuming one customer and one sample at a
time."""

import itertools
import math
from typing import NamedTuple

import numpy as np

from bidlab.agent import (
    act,
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
    AuctionModel,
    delay_index,
    expected_payment,
    hob_mean,
    lose_index,
    next_state,
    reachable_states,
    NEVER,
    state_table,
    win_index,
    win_probability,
)
from bidlab.planning import (
    OutcomeParams,
    batch_params,
    best_outcome_plan,
    best_outcome_values,
    dp_policy,
    forced_bids,
    outcome_value,
    params_from_true,
)


class Customer(NamedTuple):
    """One customer as the scalar references read it: the conversion mean
    of each theta row and the delay factors (by position, as in
    `TrueModel`), the context, the auction model and the bid cap."""

    mu: list
    delay: list
    x: np.ndarray
    auction: AuctionModel
    B_A: float = math.inf

    @property
    def H(self):
        return len(self.auction.sigma)

    @property
    def op(self):
        """The planners' input for this customer, from the model's scalar
        closed forms."""
        a, x, rounds = self.auction, self.x, range(1, self.H + 1)
        return OutcomeParams(
            mu=list(self.mu), delay=list(self.delay),
            hob=[hob_mean(h, x, a) for h in rounds],
            log_hob=[a.log_mean(h, x) for h in rounds], sigma=a.sigma.tolist(),
        )


def true_customer(x, m, a, B_A=math.inf):
    """The oracle's view of one customer: one dot per theta row."""
    return Customer([float(row @ x) for row in m.theta], m.delay.tolist(), x, a, B_A)


def auction_round_value(c, h, s, bid, v_win, v_lose):
    """Expected round reward at `bid` (conversions minus the second-price
    payment, whose closed form needs no division by a vanishing win
    probability) plus the win-probability mixture of the successor values,
    scored with the model's scalar closed forms."""
    mu_win = c.mu[win_index(s.s1)]
    mu_lose = c.delay[delay_index(s.s1)] * c.mu[lose_index(s.s2)]
    F = win_probability(h, bid, c.x, c.auction)
    pay = expected_payment(h, bid, c.x, c.auction)
    return mu_lose * (1.0 - F) + mu_win * F - pay + F * v_win + (1.0 - F) * v_lose


def scalar_policy_value(c, bids):
    """Expected episode value of bidding `bids[i]` in the state of id i of
    `state_table(H)` for one customer, one state at a time."""
    ids = state_table(c.H).ids

    def choose(h, s, v_win, v_lose):
        bid = float(bids[ids[(h, s)]])
        return bid, auction_round_value(c, h, s, bid, v_win, v_lose)

    return scalar_backward_induction(c.H, choose)[1][(1, INITIAL_STATE)]


def enumerated_best_plan(op):
    """The lexicographically smallest maximizer of `outcome_value` over all
    2^H plans (lose before win), with its value."""
    best_plan, best = None, -float("inf")
    for plan in itertools.product((False, True), repeat=len(op.hob)):
        v = outcome_value(plan, op)
        if v > best:
            best_plan, best = plan, v
    return best_plan, best


def scalar_backward_induction(H, choose):
    """Bids and values keyed by (round, state): `choose(h, s, v_win,
    v_lose)` picks the bid at each reachable state from the last round
    back, one state at a time."""
    bids, values = {}, {}
    layers = reachable_states(H)
    for h in range(H, 0, -1):
        for s in layers[h - 1]:
            v_win = values[(h + 1, next_state(s, True))] if h < H else 0.0
            v_lose = values[(h + 1, next_state(s, False))] if h < H else 0.0
            bids[(h, s)], values[(h, s)] = choose(h, s, v_win, v_lose)
    return bids, values


def scalar_grid_policy(c, grid):
    """Auction-mode planning on a bid grid, one (state, bid) pair at a time:
    the bids and values by state id of the best grid bid at every state,
    which the exact planner (`dp_policy`) must dominate.  The strict `>`
    keeps the first of equal maxima, so ties go to the lower bid."""

    def choose(h, s, v_win, v_lose):
        best_bid, best = None, -float("inf")
        for a in grid:
            q = auction_round_value(c, h, s, float(a), v_win, v_lose)
            if q > best:
                best_bid, best = float(a), q
        return best_bid, best

    bids, values = scalar_backward_induction(c.H, choose)
    keys = state_table(c.H).ids
    return [bids[key] for key in keys], [values[key] for key in keys]


def closed_form_bid(s, c, v_win, v_lose):
    """Truthful second-price bid with continuation values: the marginal
    value of winning this round, clamped to [0, B_A]."""
    mu_win = c.mu[win_index(s.s1)]
    mu_lose = c.delay[delay_index(s.s1)] * c.mu[lose_index(s.s2)]
    return min(max(mu_win - mu_lose + v_win - v_lose, 0.0), c.B_A)


def closed_form_value(c):
    """Value of the exact continuous-bid maximizer at every state: the
    optimal auction-mode episode value."""

    def choose(h, s, v_win, v_lose):
        a = closed_form_bid(s, c, v_win, v_lose)
        return a, auction_round_value(c, h, s, a, v_win, v_lose)

    _, values = scalar_backward_induction(c.H, choose)
    return values[(1, INITIAL_STATE)]


def oracle_value(x, m, a, mode="outcome", bounds=None):
    """Best achievable expected episode value under the true parameters:
    over target outcome sequences, or by the exact auction planner under
    the bid cap of `bounds`."""
    if mode == "outcome":
        return best_outcome_plan(params_from_true(x, m, a))[1]
    if mode == "dp":
        if bounds is None:
            raise ValueError("dp mode needs bounds for the bid cap")
        _, values = dp_policy(params_from_true(x, m, a), bounds.B_A)
        return values[0]
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


def baseline_plan(name, H, gen):
    """A fixed baseline's target outcomes for one customer: all won
    (aggressive), all lost (passive), or (random) round h won when bit h - 1
    of one uniform draw below 2**H from `gen` is set."""
    if name == "aggressive":
        return (True,) * H
    if name == "passive":
        return (False,) * H
    k = int(gen.integers(2**H))
    return tuple(bool(k >> (h - 1) & 1) for h in range(1, H + 1))


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
    rewards = {name: [] for name in config.policies}
    for t, x in enumerate(xs, start=1):
        hobs = draw_hobs(x, a, rng, t)
        for name in config.policies:
            if name == "learner":
                bids = act(agent, x)
            else:
                bids = forced_bids(baseline_plan(
                    name, config.H,
                    rng.stream(t, "plan", name) if name == "random" else None,
                ))
            episode = run_episode(bids, x, m, a, rng, t=t, noise_label=name, hobs=hobs)
            rewards[name].append(episode.realized_reward[0])
            if name == "learner":
                update(agent, episode)
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
    """Consume one customer's lost rounds at this lag, each a (state, won,
    conversions) triple, base rates from the effect estimates current for
    this customer (`theta_bank`, by theta row), each floored at b."""
    for state, won, y in rounds:
        if won or state.s1 != est.index:
            raise ValueError(f"round {(state, won, y)} does not belong to lag {est.index}")
        theta_hat = theta_bank[lose_index(state.s2)]
        est.denominator += max(b, float(theta_hat @ x))
        est.numerator += float(y)
        est.N += 1
    return est


def per_sample_update(agent, episode):
    """Consume one customer's episode (a record of one customer): auction
    regression on every round, then the split-bucket effect updates by theta
    row and the delay updates by lag, one round at a time."""
    (t,), x, H = episode.t.tolist(), episode.x[0], episode.won.shape[1]
    if t != agent.t:
        raise ValueError(f"expected customer {agent.t}, got log for {t}")
    for h, hob in enumerate(episode.hob[0].tolist(), start=1):
        per_sample_ridge(agent.auction_bank[h], x, math.log(hob))
    states = [state_table(H).states[i] for i in episode.ids[0, :H].tolist()]
    rounds = list(zip(range(1, H + 1), states, episode.won[0].tolist(),
                      episode.conversions[0].tolist(),
                      split_episode(episode)[0].tolist()))
    for i in range(H + 1):
        for h, state, won, y, bucket in rounds:
            if bucket != i:
                continue
            home = win_index(state.s1) if won else lose_index(state.s2)
            if home != i or not (won or state.s1 == NEVER):
                raise ValueError(
                    f"customer {t}, round {h} is not a clean sample of "
                    f"theta row {i}"
                )
            per_sample_crtm(agent.theta_bank[i], x, float(y), agent.cfg)
    theta_snapshot = [est.theta_hat for est in agent.theta_bank]
    for lag in range(1, H):  # bucket H + lag
        per_sample_tsmle(
            agent.delay_bank[lag],
            [(state, won, y) for _, state, won, y, bucket in rounds if bucket == H + lag],
            x, theta_snapshot, agent.bounds.b,
        )
    agent.t += 1
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    if agent.t == boundary + 1:
        for lag, est in agent.delay_bank.items():
            if est.N < agent.n_underbar:
                raise RuntimeError(
                    f"exploration underfed the lag-{lag} delay estimator: "
                    f"{est.N} < {agent.n_underbar}"
                )
    return agent
