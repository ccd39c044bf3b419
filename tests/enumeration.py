"""References that only tests use, independent of the backward induction
behind the planners: every one of the 2^H target outcome sequences scored
by `outcome_value`, a scalar round value `auction_round_value` on the
model's closed forms (on one `Customer`: its context and auction model)
with a scalar loop over a bid grid and a fixed bid rule's value built on
it, the exact continuous-bid optimum, the oracle value in either planner
mode, two identities of the HOB payment, the fixed baselines' target
outcomes, each customer's HOBs drawn one round at a time, an outcome-mode
trial played one customer and one policy at a time, the learner's segment
with its exploit customers played one at a time, the learner's update
consuming one customer and one sample at a time, episode records joined
(`concat`) and a trial's written log read back as one (`trial_log`), the
episode and context CSV readers converting one row at a time with Python's
int() and float(), and the episode, context and curve writers writing
through `csv.writer`."""

import csv
import itertools
import math
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from bidlab.agent import (
    act,
    exploration_window,
    make_agent,
    update,
)
from bidlab.estimation import project_v_ball, split_episode
from bidlab.environment import (
    Episodes,
    RandomSource,
    generate_instance,
    run_episode,
    sample_context,
)
from bidlab.logrows import (
    EPISODE_COLUMNS as _EPISODE_COLUMNS,
    parse_state as _parse_state,
    state_tokens as _state_tokens,
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


def sample_hob(h, x, a, rng):
    """One lognormal HOB draw for round h."""
    return math.exp(a.log_mean(h, x) + a.log_sd(h) * rng.standard_normal())


def draw_hobs(x, a, rng, t):
    """Customer t's H highest other bids, round h from the h-th draw of its
    (t, "hob") stream, one draw at a time."""
    gen = rng.stream(t, "hob")
    return [sample_hob(h, x, a, gen) for h in range(1, a.beta.shape[0] + 1)]


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


def per_sample_ridge(agent, x, log_hobs):
    """One customer's regression samples, log_hobs[j] at round position j
    (from 0).  Each round's residual is scored against the estimate
    available before the customer arrives (progressive first stage); the
    design, which every round shares, then gains the context once."""
    if not all(map(math.isfinite, log_hobs)):
        raise ValueError("log HOB must be finite")
    x = np.asarray(x, dtype=float)
    for j, log_hob in enumerate(log_hobs):
        resid = log_hob - float(x @ np.linalg.solve(agent.gram, agent.moment[j]))
        agent.rss[j] += resid * resid
        agent.moment[j] = agent.moment[j] + x * log_hob
    agent.gram[:] = agent.gram + np.outer(x, x)
    return agent


def per_sample_crtm(agent, i, x, y):
    """One truncated-mean online Newton step of theta row i.

    The design matrix gains half the outer product first; the truncation
    test and the step both use the gain g = V^{-1} x of the updated metric.
    """
    x = np.asarray(x, dtype=float)
    V = agent.V[i] = agent.V[i] + 0.5 * np.outer(x, x)
    g = np.linalg.solve(V, x)
    x_norm = math.sqrt(float(x @ g))
    y_trunc = float(y) if x_norm * abs(float(y)) <= agent.cfg.Gamma_trunc else 0.0
    theta_star = agent.theta[i] - (float(x @ agent.theta[i]) - y_trunc) * g
    agent.theta[i] = project_v_ball(theta_star, V, agent.bounds.B_theta)
    agent.update_count[i] += 1
    return agent


def per_sample_tsmle(agent, lag, rounds, x, thetas):
    """Consume one customer's lost rounds at this lag, each a (state, won,
    conversions) triple, base rates from the effect estimates current for
    this customer (`thetas`, by theta row), each floored at the rate floor."""
    for state, won, y in rounds:
        if won or state.s1 != lag:
            raise ValueError(f"round {(state, won, y)} does not belong to lag {lag}")
        agent.denominator[lag - 1] += max(agent.bounds.b, float(thetas[lose_index(state.s2)] @ x))
        agent.numerator[lag - 1] += float(y)
        agent.N[lag - 1] += 1
    return agent


def per_sample_update(agent, episode):
    """Consume one customer's episode (a record of one customer): auction
    regression on every round, then the split-bucket effect updates by theta
    row and the delay updates by lag, one round at a time."""
    (t,), x, H = episode.t.tolist(), episode.x[0], episode.won.shape[1]
    if t != agent.t:
        raise ValueError(f"expected customer {agent.t}, got log for {t}")
    per_sample_ridge(agent, x, [math.log(hob) for hob in episode.hob[0].tolist()])
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
            per_sample_crtm(agent, i, x, float(y))
    theta_snapshot = agent.theta.copy()
    for lag in range(1, H):  # bucket H + lag
        per_sample_tsmle(
            agent, lag,
            [(state, won, y) for _, state, won, y, bucket in rounds if bucket == H + lag],
            x, theta_snapshot,
        )
    agent.t += 1
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    if agent.t == boundary + 1:
        for lag, N in enumerate(agent.N.tolist(), 1):
            if N < agent.n_underbar:
                raise RuntimeError(
                    f"exploration underfed the lag-{lag} delay estimator: "
                    f"{N} < {agent.n_underbar}"
                )
    return agent


# --- the learner's segment, its exploit customers one at a time ----------------


def learn_one_at_a_time(play, start, X, hobs, batch, rng):
    """`harness._TrialPlay.learn` as it was before the exploit customers
    played in drafted blocks: the window's customers at once, then each
    exploit customer's `act`, `run_episode` and `update` in turn.  Patched
    over `_TrialPlay.learn`, it makes the reference trial."""
    from bidlab.harness import LEARNER_POLICY, _play_bids, _provenance

    trial, agent, (n, H) = play.trial, play.agent, hobs.shape
    explore, bids = min(max(play.window - start, 0), n), []
    for t, x in zip(range(start + 1, start + explore + 1), X):
        with _provenance(trial, t):
            bids.append(act(agent, x, t))
    played = Episodes(np.arange(start + 1, start + n + 1), X, np.empty((n, H + 1), np.intp),
                      np.empty((n, H)), hobs, np.empty((n, H), bool),
                      np.empty((n, H), np.int64))
    if explore:
        with _provenance(trial):
            played[:explore] = _play_bids(np.array(bids, dtype=float), X[:explore],
                                          hobs[:explore], batch.rows(0, explore), rng,
                                          LEARNER_POLICY, start)
            update(agent, played[:explore])
    for i, t in enumerate(range(start + explore + 1, start + n + 1), explore):
        with _provenance(trial, t):
            bids.append(act(agent, X[i], t))
            played[i:i + 1] = ep = run_episode(bids[-1], X[i], play.m, play.a, rng, t=t,
                                               noise_label=LEARNER_POLICY, hobs=hobs[i])
        with _provenance(trial):
            update(agent, ep)
    return bids, played


# --- episode records, and a trial's written log as one ------------------------


def concat(blocks):
    """The customers of the `Episodes` records `blocks` (at least one), in
    order, in one record."""
    return Episodes(*(np.concatenate([getattr(b, name) for b in blocks])
                      for name in Episodes.__slots__))


def trial_log(out_dir, config, trial=0):
    """The learner's episodes, contexts included, that a run of `config`
    with `emit_logs` wrote under `out_dir` for `trial`, in one record, read
    by the row-by-row readers below."""
    out = Path(out_dir)
    contexts = read_context_rows(out / f"contexts_trial{trial}.csv", config.dim)
    return concat([ep for _, ep in read_episode_csv(
        out / f"episodes_trial{trial}.csv", contexts, config.H, config.T)])


# The episode and context readers as they were before numpy's text reader
# read blocks of lines: one csv row at a time, each field by Python's int()
# or float().  Tests give them and the package's readers the same files.


def read_episode_csv(
    path, contexts: Iterable[tuple[int, int, np.ndarray]], H: int, block: int
) -> Iterator[tuple[int, Episodes]]:
    """Parse an episode CSV back into (trial, episodes) blocks of at most
    `block` customers of one trial.  `contexts` yields (trial, t, x) in the
    log's customer order (`read_context_rows`); each customer takes the
    next one, which must be its own, so a block is read with its contexts
    only.  Every row must be a second-price round: won exactly when bid >=
    HOB (a bid may be inf), paying the HOB when won and 0.0 when lost.
    Violations raise ValueError with the offending line number, an
    episode's own with the line it starts at: its context, its length of
    H rounds (before any state table, which grows with it, is built), and
    its state chain and round labels, checked with its block's as arrays
    against `StateTable.successors`."""
    contexts, done = iter(contexts), []  # done: the block's episodes

    def finish(trial: int, t: int, start: int, rounds: list) -> None:
        x = next(contexts, None)  # a damaged contexts file raises its own line
        try:
            if x is None or x[:2] != (trial, t):
                raise ValueError(f"no context recorded for trial {trial}, t {t}" + (
                    "" if x is None else f": the next context is of trial {x[0]}, t {x[1]}"))
            if len(rounds) != H:
                raise ValueError(f"expected {H} rounds, got {len(rounds)}")
        except ValueError as exc:
            raise ValueError(f"line {start}: {exc}") from None
        done.append((start, t, x[2], rounds))

    def flush() -> Episodes:
        starts, ts, xs, rounds = zip(*done)
        done.clear()
        n, table = len(ts), state_table(H)
        label, s1, s2, bid, hob, won, ys = (np.array(column).reshape(n, H)
                                            for column in zip(*itertools.chain(*rounds)))
        ids = np.zeros((n, H + 1), dtype=np.intp)
        for h in range(H):
            ids[:, h + 1] = table.successors[ids[:, h], won[:, h].view(np.uint8)]
        chained = (table.s1[ids[:, :H]] == s1) & (table.s2[ids[:, :H]] == s2)
        bad = ~chained | (label != np.arange(1, H + 1))
        for c, k in np.argwhere(bad)[:1].tolist():
            if chained[c, k]:
                message = f"round {k + 1} is mislabelled as round {label[c, k]}"
            elif k == 0:
                message = "episodes must start from the initial state"
            else:
                message = (f"state chain broken at round {k}: expected the state "
                           f"{table.states[ids[c, k]]}")
            raise ValueError(f"line {starts[c]}: {message}")
        return Episodes(np.array(ts), np.array(xs, dtype=float), ids, bid, hob, won, ys)

    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header != _EPISODE_COLUMNS:
            raise ValueError(f"line 1: expected header {_EPISODE_COLUMNS}")
        key, start, rounds = None, 2, []  # the episode read: (trial, t), first line, rows
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(_EPISODE_COLUMNS):
                raise ValueError(f"line {lineno}: expected {len(_EPISODE_COLUMNS)} fields")
            try:
                row_trial, row_t, h = int(row[0]), int(row[1]), int(row[2])
                if not (0 < row_t < 2**63 and 0 < h < 2**63):
                    raise ValueError(f"t and h must be positive 64-bit integers, got {row[1:3]}")
                state = _parse_state(row[3], row[4])
                bid, hob, pay, y = float(row[5]), float(row[6]), float(row[8]), int(row[9])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            won = row[7] == "1"
            if not (0 <= bid and 0 < hob < math.inf and 0 <= y < 2**63
                    and (won or row[7] == "0")
                    and won == (bid >= hob) and pay == (hob if won else 0.0)):
                raise ValueError(f"line {lineno}: need bid >= 0, finite HOB > 0, won 0 or"
                                 f" 1, conversions in [0, 2**63), and a second-price round"
                                 f" (won when bid >= HOB, paying the HOB, else 0): {row[5:]}")
            if (row_trial, row_t) != key:
                if rounds:
                    finish(*key, start, rounds)
                    if len(done) == block or row_trial != key[0]:
                        yield key[0], flush()
                key, start, rounds = (row_trial, row_t), lineno, []
            rounds.append((h, state.s1, state.s2, bid, hob, won, y))
        if rounds:
            finish(*key, start, rounds)
            yield key[0], flush()


def read_context_rows(path, dim: int) -> Iterator[tuple[int, int, np.ndarray]]:
    """Parse a context CSV row by row into (trial, t, x), x finite of `dim`
    entries; a bad row raises ValueError naming its line."""
    with open(path, newline="") as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if header is None or header[:2] != ["trial", "t"]:
            raise ValueError("line 1: expected header trial,t,x0,...")
        for lineno, row in enumerate(reader, start=2):
            try:
                if len(row) != len(header):
                    raise ValueError(f"expected {len(header)} fields")
                if len(row) != dim + 2:
                    raise ValueError(f"expected {dim} x-columns, got {len(row) - 2}")
                trial, t, x = int(row[0]), int(row[1]), [float(v) for v in row[2:]]
                if not all(map(math.isfinite, x)):
                    raise ValueError(f"contexts must be finite, got {row[2:]}")
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
            yield trial, t, np.array(x)


# The episode, context and curve writers as they were before their lines
# were joined: one csv.writer row at a time.  Tests compare the bytes.


def csv_write_episode_csv(path, blocks, append=False):
    with open(path, "a" if append else "w", newline="") as f:
        w = csv.writer(f)
        if not append:
            w.writerow(_EPISODE_COLUMNS)
        for trial, ep in blocks:
            tokens = [_state_tokens(s) for s in state_table(ep.bid.shape[1]).states]
            for t, *rounds in zip(ep.t.tolist(), ep.ids.tolist(), ep.bid.tolist(),
                                  ep.hob.tolist(), ep.won.tolist(),
                                  ep.payment.tolist(), ep.conversions.tolist()):
                w.writerows(
                    [trial, t, h, *tokens[i], repr(bid), repr(hob), int(won), repr(pay), y]
                    for h, (i, bid, hob, won, pay, y) in enumerate(zip(*rounds), start=1)
                )


def csv_write_context_csv(path, rows, append=False):
    rows = list(rows)
    with open(path, "a" if append else "w", newline="") as f:
        w = csv.writer(f)
        if not append:
            dim = len(rows[0][2]) if rows else 0
            w.writerow(["trial", "t"] + [f"x{i}" for i in range(dim)])
        for trial, t, x in rows:
            w.writerow([trial, t] + [repr(float(v)) for v in x])


def csv_write_curves_csv(path, result):
    cfg = result.config
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "t", "policy", "cum_regret", "cum_regret_expected"])
        for tr in result.trials:
            for name in cfg.policies:
                writer.writerows(
                    [tr.trial, t, name, repr(r), repr(e)]
                    for t, r, e in zip(range(1, cfg.T + 1), tr.realized[name].tolist(),
                                       tr.expected[name].tolist())
                )
