"""The learning agent: a forced-exposure exploration schedule followed by
optimistic planning against estimated parameters, plus the three fixed
baseline policies used in the benchmark.

The learner plans one customer at a time on the planners' one input,
`OutcomeParams` built from its estimates (`optimistic_params`).  Every
policy plays a customer as a row of bids by state id, which the simulator
bids at the auction: the forced bids of a target outcome per round
(`forced_bids`: the exploration schedule, outcome mode and the baselines),
or, in dp mode past exploration, the exact second-price bid.  A block of
exploit customers can also be planned at once, in arrays with the same
operations element by element: drafted on the estimates as they stand
(`draft_plans`), played, then checked on each customer's played path
against the row it would have planned one at a time (`check_drafts`).
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .environment import Episodes, delay_token, theta_token
from .estimation import (
    ConfidenceConfig,
    _rowdot,
    crtm_update,
    delay_estimate,
    delay_radius,
    optimistic_mean,
    ridge_update,
    sigma_estimate,
    solve_small,
    solve_stacked,
    split_episode,
    theta_gamma,
    truncation_threshold,
    tsmle_update,
)
from .model import (
    NEVER,
    Bounds,
    cap_norm,
    lognormal_mean,
    lose_index,
    state_table,
    win_index,
)
from .planning import (
    OutcomeParams,
    OutcomePlan,
    best_outcome_plan,
    best_outcome_plans,
    dp_policy,
    forced_bids,
    forced_rows,
)

__all__ = [
    "AgentState",
    "SIGMA_FLOOR",
    "make_agent",
    "default_n_underbar",
    "exploration_plan",
    "exploration_window",
    "optimistic_params",
    "act",
    "update",
    "Estimates",
    "draft_plans",
    "exploit_plans",
    "check_drafts",
    "baseline_bids",
    "agent_to_dict",
    "agent_from_dict",
]

SIGMA_FLOOR = 1e-3


def default_n_underbar(bounds: Bounds, T: int) -> int:
    """Theory-derived exploration block size."""
    return math.ceil(
        32.0 * math.log(bounds.H * T)
        / (math.e * bounds.B_d * bounds.B_x * bounds.B_theta * bounds.b**2)
    )


def exploration_window(n_underbar: int, H: int) -> int:
    """Last customer index of the exploration phase."""
    return (H + 1) * n_underbar


def exploration_plan(t: int, n_underbar: int, H: int) -> OutcomePlan:
    """Block schedule: block l targets wins at rounds {1, l+1}; the final
    block is all-lose, giving clean natural-demand samples."""
    if not 1 <= t <= exploration_window(n_underbar, H):
        raise ValueError(f"customer {t} is outside the exploration window")
    l = min(max((t - 1) // n_underbar, 0), H)
    if l == H:
        return (False,) * H
    return tuple(h in (1, l + 1) for h in range(1, H + 1))


@dataclass
class AgentState:
    """All mutable learning state for one trial.  The estimates are arrays
    by position: theta row i's effect estimate `theta[i]`, its metric `V[i]`
    and its sample count `update_count[i]`; lag k's ratio terms
    `numerator[k - 1]` and `denominator[k - 1]` and its round count
    `N[k - 1]`; the ridge design `gram` that all H rounds share, round h's
    moment `moment[h - 1]` and residual sum `rss[h - 1]`, each of t - 1
    samples.  An update writes them in place."""

    bounds: Bounds
    T: int
    cfg: ConfidenceConfig
    n_underbar: int
    planner_mode: str  # "outcome" | "dp"
    theta: np.ndarray  # (H+1, d)
    V: np.ndarray  # (H+1, d, d)
    update_count: np.ndarray  # (H+1,)
    numerator: np.ndarray  # (H-1,)
    denominator: np.ndarray  # (H-1,)
    N: np.ndarray  # (H-1,)
    gram: np.ndarray  # (d, d)
    moment: np.ndarray  # (H, d)
    rss: np.ndarray  # (H,)
    t: int = 1

    @property
    def exploring(self) -> bool:
        return self.t <= exploration_window(self.n_underbar, self.bounds.H)


def make_agent(
    bounds: Bounds,
    T: int,
    delta: float = 0.01,
    width_scale: float = 1.0,
    n_underbar: int | None = None,
    Gamma_override: float | None = None,
    planner_mode: str = "outcome",
) -> AgentState:
    if planner_mode not in ("outcome", "dp"):
        raise ValueError(f"unknown planner mode {planner_mode!r}")
    cfg = ConfidenceConfig(
        delta=delta,
        gamma_raw=theta_gamma(bounds, T, delta),
        Gamma_trunc=(
            Gamma_override
            if Gamma_override is not None
            else truncation_threshold(bounds, T, delta)
        ),
        width_scale=width_scale,
    )
    H, eye = bounds.H, np.eye(bounds.dim)
    return AgentState(
        bounds=bounds,
        T=T,
        cfg=cfg,
        n_underbar=(
            n_underbar if n_underbar is not None else default_n_underbar(bounds, T)
        ),
        planner_mode=planner_mode,
        theta=np.zeros((H + 1, bounds.dim)),
        V=np.tile(eye, (H + 1, 1, 1)),
        update_count=np.zeros(H + 1, dtype=np.int64),
        numerator=np.zeros(H - 1),
        denominator=np.zeros(H - 1),
        N=np.zeros(H - 1, dtype=np.int64),
        gram=eye,
        moment=np.zeros((H, bounds.dim)),
        rss=np.zeros(H),
    )


def optimistic_params(agent: AgentState, x: np.ndarray) -> OutcomeParams:
    """Planner inputs at the top of the confidence region: upper conversion
    means, upper delays (full optimism before any delay data), and the HOB
    means of the estimated auction model projected onto the bounds (each
    beta row onto the B_beta ball, the noise scale into [SIGMA_FLOOR,
    sigma_max]), which keeps them finite."""
    b = agent.bounds
    mu = [optimistic_mean(theta, V, x, agent.cfg.gamma, b=b.b)
          for theta, V in zip(agent.theta, agent.V)]
    delay = [1.0, *map(functools.partial(_upper_delay, agent), agent.numerator.tolist(),
                       agent.denominator.tolist(), agent.N.tolist())]
    beta = [cap_norm(solve_small(agent.gram, moment), b.B_beta) for moment in agent.moment]
    sigma = [min(max(sigma_estimate(rss, agent.t - 1) or 0.0, SIGMA_FLOOR), b.sigma_max)
             for rss in agent.rss.tolist()]
    log_hob = [float(row @ x) for row in beta]
    return OutcomeParams(
        mu=mu, delay=delay, hob=[lognormal_mean(v, sd) for v, sd in zip(log_hob, sigma)],
        log_hob=log_hob, sigma=sigma,
    )


def _upper_delay(agent: AgentState, numerator: float, denominator: float, N: int) -> float:
    """A lag's planned delay factor from its ratio terms: its estimate plus
    the confidence radius after N rounds, clipped to [0, B_d], or B_d
    before any data."""
    b, d_hat = agent.bounds, delay_estimate(numerator, denominator)
    if d_hat is None:
        return b.B_d
    radius = delay_radius(N, agent.cfg.gamma_raw, b, b.H, agent.T, agent.cfg.delta,
                          width_scale=agent.cfg.width_scale)
    return min(max(d_hat + radius, 0.0), b.B_d)


def act(agent: AgentState, x: np.ndarray, t: int | None = None) -> Sequence[float]:
    """Customer t's bids by state id (by default agent.t's): the forced
    bids of scheduled exposures during exploration, which read no estimate
    and so may run ahead of the updates, planned optimism afterwards."""
    t, H = agent.t if t is None else t, agent.bounds.H
    if t <= exploration_window(agent.n_underbar, H):
        return forced_bids(exploration_plan(t, agent.n_underbar, H))
    if t != agent.t:
        raise ValueError(f"customer {t}: the learner expects customer {agent.t}")
    params = optimistic_params(agent, x)
    if agent.planner_mode == "outcome":
        return forced_bids(best_outcome_plan(params)[0])
    return dp_policy(params, agent.bounds.B_A)[0]


def exploit_plans(agent: AgentState, seen: Estimates, X: np.ndarray) -> np.ndarray:
    """The rows of bids by state id, (n, states), of the customers of
    contexts X (n, d), each planned on its estimates in `seen`: bit for bit
    the row `act` makes on them.  Every step is `optimistic_params` in
    arrays, with the same operations element by element; the HOB means and
    the delay factors take the scalar closed forms per element, since
    `np.exp` and `** 2` are not the scalar ones bit for bit.  A width that
    the scalar square root would reject raises ValueError, as does a value
    of winning that is not finite (with `dp_policy`'s batch message)."""
    b, cfg = agent.bounds, agent.cfg
    n = len(X)
    width = 0.0  # what the product gives: V is positive definite
    if cfg.gamma:
        q = _rowdot(X, solve_stacked(seen.V, X[:, :, None])[..., 0])
        if (q < 0.0).any():
            raise ValueError("math domain error")
        width = math.sqrt(cfg.gamma) * np.sqrt(q)
    mu = np.maximum(_rowdot(X, seen.theta) + width, b.b)
    delay, upper = np.ones((b.H, n)), functools.cache(functools.partial(_upper_delay, agent))
    for lag in range(1, b.H):  # one set of ratio terms at a time, in Python scalars
        delay[lag] = np.fromiter(map(upper,
                                     seen.numerator[lag - 1].tolist(),
                                     seen.denominator[lag - 1].tolist(),
                                     seen.N[lag - 1].tolist()), float)
    beta = seen.beta * (b.B_beta / np.maximum(np.sqrt(_rowdot(seen.beta, seen.beta)),
                                              b.B_beta))[..., None]  # cap_norm's
    log_hob = _rowdot(X, beta)
    sigma = np.broadcast_to(
        np.minimum(np.maximum(np.sqrt(seen.rss / seen.count), SIGMA_FLOOR), b.sigma_max),
        log_hob.shape)
    hob = np.fromiter(map(lognormal_mean, map(float, log_hob.flat), map(float, sigma.flat)),
                      float, log_hob.size).reshape(log_hob.shape)
    params = OutcomeParams(mu=mu, delay=delay, hob=hob, log_hob=log_hob, sigma=sigma)
    if agent.planner_mode == "outcome":
        return forced_rows(best_outcome_plans(params))
    return np.array(dp_policy(params, b.B_A)[0]).T


def draft_plans(agent: AgentState, X: np.ndarray) -> np.ndarray:
    """`exploit_plans` of customers X all planned on the learner's current
    estimates: the row `act` makes for the first of them, and a draft of
    the others' rows that `check_drafts` checks."""
    return exploit_plans(agent, Estimates(
        **{name: getattr(agent, name)[:, None] for name in _HELD},
        count=np.array([[agent.t - 1]]),  # these two as update's pre-sample estimates
        beta=solve_stacked(agent.gram, agent.moment[:, None, :, None])[..., 0],
    ), X)


def check_drafts(agent: AgentState, episodes: Episodes, drafts: np.ndarray) -> int:
    """Consume a played run of exploit customers whose rows of bids were
    drafted (`drafts`, (n, states)), and return k, the customers before the
    first whose own row, the one `act` makes on the estimates after the
    customers before it, walks another path on its HOBs.  An episode
    depends on its bids only through its path, so the first k are the
    one-at-a-time loop's but for the bids, which are rewritten in their
    rows of `drafts` and their `bid` column.  The learner's state becomes
    that after the first k, as an update makes it: the updated copy when
    all n hold, else the first k updated again from the state before the
    run.  Episodes from k on are dropped."""
    ahead = replace(agent, **{key: value.copy() for key, value in vars(agent).items()
                              if isinstance(value, np.ndarray)})  # an update writes them
    seen = _consume(ahead, episodes, seen=True)
    exact = exploit_plans(agent, seen, episodes.x)
    n, H = episodes.won.shape
    rows, ids = np.arange(n)[:, None], episodes.ids[:, :H]
    walked = ((exact[rows, ids] >= episodes.hob) == episodes.won).all(axis=1)
    k = n if walked.all() else int(walked.argmin())
    drafts[:k] = exact[:k]
    episodes.bid[:k] = exact[rows[:k], ids[:k]]
    if k == n:
        vars(agent).update(vars(ahead))
    else:
        del seen, exact  # not held while the k are updated again
        update(agent, episodes[:k])
    return k


@functools.cache
def _home_buckets(H: int) -> np.ndarray:
    """Provenance: the one bucket a round may be in, by state id and outcome
    (lost, won), from the state's own lags.  W rounds are only wins at the
    matching theta row or never-exposed losses feeding natural demand; D
    rounds (H + lag) are the later losses."""
    return np.array([[lose_index(s.s2) if s.s1 == NEVER else H + s.s1, win_index(s.s1)]
                     for s in state_table(H).states])


def update(agent: AgentState, episodes: Episodes) -> AgentState:
    """Consume a run of consecutive episodes (one customer is a run of one),
    bit for bit as one at a time: per round position a ridge sample per
    customer, per theta row its W rounds in customer-major, round-minor
    order, per lag its delay rounds, each base rate from its row's estimate
    after the round's own customer.  Every error raised here names the
    customer."""
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    cut = boundary + 1 - agent.t
    if 0 < cut < len(episodes):  # the underfed check runs at the boundary
        update(agent, episodes[:cut])
        return update(agent, episodes[cut:])
    _consume(agent, episodes)
    return agent


class Estimates(NamedTuple):
    """The learner's arrays as each of n customers planned on them, along
    axis 1 (of length 1 when all plan on the same): each `AgentState`
    array of the name that its plan reads and the ridge sample count
    `count` (1, n), t - 1, before the customer's own episode, and each
    round position's ridge estimate `beta` (H, n, d), for the ridge sums."""

    theta: np.ndarray
    V: np.ndarray
    numerator: np.ndarray
    denominator: np.ndarray
    N: np.ndarray
    rss: np.ndarray
    count: np.ndarray
    beta: np.ndarray


_HELD = Estimates._fields[:-2]  # the learner's own arrays, each by its name


def _consume(agent: AgentState, episodes: Episodes, seen: bool = False) -> Estimates | None:
    """`update` of a run that does not cross the window's edge; with `seen`,
    also the learner's arrays as each customer of the run planned on them,
    before its own episode, taken from the update's running terms."""
    n, H = episodes.won.shape
    if not n:
        return None
    boundary = exploration_window(agent.n_underbar, agent.bounds.H)
    t0, ts, hobs = agent.t, episodes.t.tolist(), episodes.hob.ravel().tolist()
    if ts != list(range(t0, t0 + n)):
        k = next(k for k, t in enumerate(ts) if t != t0 + k)
        raise ValueError(f"customer {ts[k]}: expected customer {t0 + k}")
    if not all(0.0 < v < math.inf for v in hobs):
        j = next(j for j, v in enumerate(hobs) if not 0.0 < v < math.inf)
        raise ValueError(f"customer {ts[j // H]}, round {j % H + 1}: log HOB must "
                         f"be finite, got the HOB {hobs[j]!r}")
    bucket = split_episode(episodes)  # theta row i (W), or H + lag (D)
    ids = episodes.ids[:, :H]
    misfiled = bucket != _home_buckets(H)[ids, episodes.won.view(np.uint8)]
    if misfiled.any():
        k, h = np.argwhere(misfiled)[0].tolist()
        i = int(bucket[k, h])
        kind = f"a clean sample of theta row {i}" if i <= H else f"a delay sample of lag {i - H}"
        raise ValueError(f"customer {ts[k]}, round {h + 1} is not {kind}")
    log_hobs = np.array(list(map(math.log, hobs))).reshape(n, H)  # the regression's targets
    del hobs  # not held while the run is consumed
    Ns = agent.N.tolist()  # from before the run
    grams, moments, rss, betas = ridge_update(agent.gram, agent.moment, agent.rss,
                                              episodes.x, log_hobs)
    agent.gram[:], agent.moment[:], agent.rss[:] = grams[-1], moments[-1], rss[-1]
    # the rounds by bucket; a stable sort keeps each customer-major, round-minor
    order = np.argsort(bucket, axis=None, kind="stable")
    sizes = np.bincount(bucket.ravel(), minlength=2 * H)
    ends = [0, *sizes.cumsum().tolist()]
    customer = order // H
    X, ys, ks = episodes.x[customer], episodes.conversions.ravel()[order], customer.tolist()
    paths, metrics = [], []  # by theta row: its estimates and metrics from before the run
    for i in range(H + 1):
        a, b = ends[i], ends[i + 1]
        if b > a:
            path, metric = crtm_update(agent.theta[i], agent.V[i], X[a:b], ys[a:b],
                                       agent.cfg, agent.bounds.B_theta)
            agent.theta[i], agent.V[i] = path[-1], metric[-1]
        else:
            path, metric = agent.theta[i][None], agent.V[i][None]
        paths.append(path)
        metrics.append(metric)
    base = lose_index(state_table(H).s2[ids]).ravel()[order].tolist()  # a loss's row
    ratios = []  # by lag: its numerators and denominators from before the run
    for lag, num, den in zip(range(1, H), agent.numerator.tolist(), agent.denominator.tolist()):
        a, b = ends[H + lag], ends[H + lag + 1]
        ratios.append(([num], [den]))
        if b > a:  # each base rate from its row's estimate after the round's customer
            thetas = [paths[i][bisect.bisect_right(ks, k, ends[i], ends[i + 1]) - ends[i]]
                      for k, i in zip(ks[a:b], base[a:b])]
            nums, dens = tsmle_update(lag, num, den, bucket.ravel()[order[a:b]] - H, ys[a:b],
                                      X[a:b], thetas, agent.bounds.b)
            ratios[-1] = nums, dens
            agent.numerator[lag - 1], agent.denominator[lag - 1] = nums[-1], dens[-1]
    agent.update_count += sizes[:H + 1]
    agent.N += sizes[H + 1:]
    agent.t += n
    if agent.t == boundary + 1:
        for lag, N in enumerate(agent.N.tolist(), 1):
            if N < agent.n_underbar:
                raise RuntimeError(
                    f"customer {boundary}: exploration underfed the lag-{lag} "
                    f"delay estimator: {N} < {agent.n_underbar}"
                )
    if not seen:
        return None
    del X, ys, ks, base, order, bucket  # not held while the running terms are gathered
    # each bucket's running terms as they stood before each customer's own rounds
    before = [np.searchsorted(customer[a:b], np.arange(n)) for a, b in zip(ends, ends[1:])]
    rows, lags = before[:H + 1], before[H + 1:]
    theta, V = _gather(paths, rows), _gather(metrics, rows)
    del paths, metrics
    return Estimates(
        theta=theta, V=V,
        numerator=np.array([np.asarray(num)[k] for (num, _), k in zip(ratios, lags)]
                           ).reshape(H - 1, n),
        denominator=np.array([np.asarray(den)[k] for (_, den), k in zip(ratios, lags)]
                             ).reshape(H - 1, n),
        N=np.array([N + k for N, k in zip(Ns, lags)]).reshape(H - 1, n),
        rss=rss[:-1].T, count=t0 - 1 + np.arange(n)[None],
        beta=betas.transpose(1, 0, 2),
    )


def _gather(paths: list[np.ndarray], picks: list[np.ndarray]) -> np.ndarray:
    """np.stack([path[k] for path, k in zip(paths, picks)]), written row by
    row into the one array it returns."""
    out = np.empty((len(paths), len(picks[0]), *paths[0].shape[1:]))
    for row, path, k in zip(out, paths, picks):
        row[...] = path[k]
    return out


# --- baselines ---------------------------------------------------------------

def baseline_bids(
    kind: str, H: int, rng: np.random.Generator | None
) -> tuple[float, ...]:
    """One customer's bids by state id under a fixed baseline, the forced
    bids of its target outcomes: win every round ("aggressive"), lose every
    round ("passive"), or ("random") round h won when bit h - 1 of a draw
    k < 2**H from `rng` is set."""
    if kind == "random":
        k = int(rng.integers(2**H))
        return forced_bids(tuple(bool((k >> (h - 1)) & 1) for h in range(1, H + 1)))
    return forced_bids(({"aggressive": True, "passive": False}[kind],) * H)


# --- snapshots ---------------------------------------------------------------

def agent_to_dict(agent: AgentState) -> dict:
    """The learner as a JSON-ready mapping, each estimate filed under the
    token of its theta row, its lag or its round."""
    b, count = agent.bounds, agent.t - 1  # every round's ridge sample count
    theta, V, gram = agent.theta.tolist(), agent.V.tolist(), agent.gram.tolist()
    return {
        "bounds": {
            "b": b.b, "B_x": b.B_x, "B_theta": b.B_theta, "B_d": b.B_d,
            "B_A": b.B_A, "H": b.H, "dim": b.dim, "B_beta": b.B_beta,
            "sigma_max": b.sigma_max,
        },
        "T": agent.T,
        "cfg": {
            "delta": agent.cfg.delta,
            "gamma": agent.cfg.gamma,
            "Gamma_trunc": agent.cfg.Gamma_trunc,
            "width_scale": agent.cfg.width_scale,
        },
        "gamma_raw": agent.cfg.gamma_raw,
        "n_underbar": agent.n_underbar,
        "planner_mode": agent.planner_mode,
        "t": agent.t,
        "theta": {
            theta_token(i): {"V": V[i], "theta_hat": theta[i], "update_count": count}
            for i, count in enumerate(agent.update_count.tolist())
        },
        "delay": {
            delay_token(k): {"numerator": num, "denominator": den, "N": N}
            for k, num, den, N in zip(range(1, b.H), agent.numerator.tolist(),
                                      agent.denominator.tolist(), agent.N.tolist())
        },
        "auction": {
            str(h): {"gram": gram, "moment": moment, "residual_sq_sum": rss, "count": count}
            for h, (moment, rss) in enumerate(zip(agent.moment.tolist(), agent.rss.tolist()), 1)
        },
    }


def agent_from_dict(d: dict) -> AgentState:
    """The learner `agent_to_dict` wrote.  A section whose keys are not
    exactly the positions of the bounds, an array of the wrong shape, a
    count not the int t - 1, a gram not round 1's, an estimate not a number
    and an unknown planner mode raise ValueError naming section and key."""
    b, c = Bounds(**d["bounds"]), d["cfg"]
    cfg = ConfidenceConfig(delta=c["delta"], gamma_raw=float(d["gamma_raw"]),
                           Gamma_trunc=c["Gamma_trunc"], width_scale=c["width_scale"])
    if c["gamma"] != cfg.gamma:
        raise ValueError(f"cfg.gamma must be width_scale * gamma_raw = {cfg.gamma!r}, "
                         f"got {c['gamma']!r}")
    if d["planner_mode"] not in ("outcome", "dp"):
        raise ValueError(f"planner_mode must be 'outcome' or 'dp', got {d['planner_mode']!r}")
    H, dim = b.H, b.dim
    theta = _entries(d, "theta", [theta_token(i) for i in range(H + 1)])
    delay = _entries(d, "delay", [delay_token(k) for k in range(1, H)])
    auction = _entries(d, "auction", [str(h) for h in range(1, H + 1)])

    def arrays(entries, field: str, shape: tuple) -> np.ndarray:
        return np.array([_array(where, e[field], field, shape) for where, e in entries])

    def scalars(entries, field: str, kind: type) -> np.ndarray:
        for where, e in entries:
            if type(e[field]) not in (kind, int):  # an estimate may be a whole int
                raise ValueError(f"snapshot {where}: {field} must be of type "
                                 f"{kind.__name__}, got {e[field]!r}")
        return np.array([e[field] for _, e in entries],
                        dtype=np.int64 if kind is int else float)

    grams, t = arrays(auction, "gram", (dim, dim)), int(d["t"])
    for (where, e), gram, count in zip(auction, grams, scalars(auction, "count", int).tolist()):
        if count != t - 1:  # every round has t - 1 samples of the one shared design
            raise ValueError(f"snapshot {where}: count must be t - 1 = {t - 1}, got {count!r}")
        if gram.tobytes() != grams[0].tobytes():
            raise ValueError(f"snapshot {where}: gram must equal round 1's, got {e['gram']!r}")
    return AgentState(
        bounds=b,
        T=int(d["T"]),
        cfg=cfg,
        n_underbar=int(d["n_underbar"]),
        planner_mode=d["planner_mode"],
        theta=arrays(theta, "theta_hat", (dim,)),
        V=arrays(theta, "V", (dim, dim)),
        update_count=scalars(theta, "update_count", int),
        numerator=scalars(delay, "numerator", float),
        denominator=scalars(delay, "denominator", float),
        N=scalars(delay, "N", int),
        gram=grams[0].copy(),  # not a view holding every round's copy
        moment=arrays(auction, "moment", (dim,)),
        rss=scalars(auction, "residual_sq_sum", float),
        t=t,
    )


def _entries(d: dict, section: str, keys: list[str]) -> list[tuple[str, dict]]:
    """A snapshot section's entries in the order of `keys`, each with its
    name for messages, after checking that its keys are exactly `keys`."""
    got = d[section]
    missing = [key for key in keys if key not in got]
    for key in missing or [key for key in got if key not in keys]:
        problem = "is missing" if missing else "is not a position of the bounds"
        raise ValueError(f"snapshot {section}: key {key!r} {problem}; "
                         f"the keys must be {keys}")
    return [(f"{section}[{key!r}]", got[key]) for key in keys]


def _array(where: str, value, field: str, shape: tuple) -> np.ndarray:
    """A snapshot entry's array field, which must have `shape`."""
    try:
        array = np.array(value, dtype=float)
    except (TypeError, ValueError):  # a ragged list, or not numbers
        array = None
    if array is None or array.shape != shape:
        raise ValueError(f"snapshot {where}: {field} must be an array of shape {shape}, "
                         f"got {value!r}")
    return array
