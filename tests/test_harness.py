"""Benchmark harness: config handling, trial execution, aggregation,
persistence, curve fitting, offline replay, and the CLI."""

from __future__ import annotations

import json
import math
import multiprocessing
import os
import re
import sys
import time
import tracemalloc
from collections import Counter
from concurrent.futures import Future
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from bidlab.agent import (
    agent_to_dict,
    exploration_plan,
    exploration_window,
    make_agent,
    update,
)
from bidlab.cli import main
from bidlab.environment import (
    POISSON_RATE_MAX,
    Z_MAX,
    Episodes,
    InstanceRecipe,
    RandomSource,
    generate_instance,
    read_context_csv,
    run_episode,
    sample_context,
    write_context_csv,
    write_episode_csv,
)
from bidlab.harness import (
    DEFAULT_CHECKPOINTS,
    ExperimentConfig,
    config_from_dict,
    config_to_dict,
    fit_regret_order,
    load_config,
    benchmark_config,
    render_summary,
    replay_estimation,
    run_experiment,
    run_trial,
    scaled_checkpoints,
    write_outputs,
)
from bidlab.model import INITIAL_STATE, Bounds, state_table
from bidlab.planning import (
    batch_params,
    best_outcome_plan,
    forced_bids,
    outcome_value,
    params_from_true,
)
from enumeration import (
    concat,
    draw_hobs,
    learn_one_at_a_time,
    per_customer_realized,
    trial_log,
)
from reference_table import REFERENCE_CHECKPOINTS, REFERENCE_MEANS, REFERENCE_ORDERS


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        T=400,
        trials=2,
        seed=5,
        n_underbar=30,
        checkpoints=(100, 250, 400),
        emit_logs=True,
    )
    base.update(overrides)
    return benchmark_config(**base)


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """The small config run with an output directory: its result, and the
    directory of its outputs and its trials' logs, which tests only read."""
    out = tmp_path_factory.mktemp("small")
    return run_experiment(small_config(), out), out


@pytest.fixture(scope="module")
def small_result(small_run):
    return small_run[0]


@pytest.fixture(scope="module")
def small_dir(small_run):
    return small_run[1]


# --- configuration ---------------------------------------------------------


def test_defaults_are_the_benchmark_preset():
    cfg = ExperimentConfig()
    assert cfg.dim == 2
    assert cfg.H == 3
    assert cfg.T == 20000
    assert cfg.trials == 20
    assert cfg.n_underbar == 600
    assert cfg.width_scale == 0.0
    assert cfg.Gamma_trunc == 100000.0
    assert cfg.mode == "outcome"
    assert cfg.checkpoints == DEFAULT_CHECKPOINTS
    assert cfg.policies == ("learner", "aggressive", "random", "passive")
    b = cfg.bounds
    assert (b.b, b.B_x, b.B_theta, b.B_d, b.B_A) == (0.1, 5.0, 10.0, 5.0, 50.0)
    assert (b.H, b.dim) == (3, 2)


def test_empty_mapping_builds_the_preset():
    assert config_from_dict({}) == ExperimentConfig()


def test_unknown_keys_are_rejected():
    with pytest.raises(ValueError, match="unknown config keys.*banana"):
        config_from_dict({"banana": 1})
    with pytest.raises(ValueError, match="unknown bounds keys"):
        config_from_dict({"bounds": {"B_q": 1.0}})
    with pytest.raises(ValueError, match="unknown instance keys"):
        config_from_dict({"instance": {"theta_scales": 2.0}})


def test_checkpoints_rescale_with_t():
    assert scaled_checkpoints(20000) == DEFAULT_CHECKPOINTS
    assert scaled_checkpoints(2000) == (50, 500, 1000, 1500, 2000)
    assert scaled_checkpoints(3) == (1, 2, 3)
    cfg = config_from_dict({"T": 2000})
    assert cfg.checkpoints == (50, 500, 1000, 1500, 2000)
    cfg = config_from_dict({"T": 2000, "checkpoints": [10, 2000]})
    assert cfg.checkpoints == (10, 2000)


def test_config_validation():
    with pytest.raises(ValueError, match="trials"):
        benchmark_config(trials=0)
    with pytest.raises(ValueError, match="planner mode"):
        benchmark_config(mode="tabular")
    with pytest.raises(ValueError, match="unknown policy"):
        benchmark_config(policies=("learner", "greedy"))
    with pytest.raises(ValueError, match="duplicate"):
        benchmark_config(policies=("learner", "learner"))
    with pytest.raises(ValueError, match="strictly increasing"):
        benchmark_config(checkpoints=(500, 500))
    with pytest.raises(ValueError, match=r"\[1, T\]"):
        benchmark_config(checkpoints=(500, 30000))
    with pytest.raises(ValueError, match="agree"):
        benchmark_config(bounds=Bounds(b=0.1, B_x=5, B_theta=10, B_d=5, B_A=50, H=4, dim=2))
    with pytest.raises(ValueError, match="seed"):
        benchmark_config(seed=-1)


@pytest.mark.parametrize(
    "raw, key",
    [
        ({"T": 1.5}, "T"),
        ({"T": None}, "T"),
        ({"trials": 1.0}, "trials"),
        ({"workers": 1.5}, "workers"),
        ({"mode": "dp", "bid_grid_points": 4.5}, "bid_grid_points"),
        ({"seed": 1.5}, "seed"),
        ({"seed": True}, "seed"),
        ({"H": None}, "H"),
        ({"H": 3.0}, "H"),
        ({"dim": "2"}, "dim"),
        ({"n_underbar": 2.5}, "n_underbar"),
        ({"n_underbar": False}, "n_underbar"),
        ({"bounds": 5}, "bounds"),
        ({"bounds": {"b": None}}, "bounds.b"),
        ({"instance": [1]}, "instance"),
        ({"instance": {"theta_scale": "big"}}, "instance.theta_scale"),
        ({"policies": 5}, "policies"),
        ({"policies": "learner"}, "policies"),
        ({"checkpoints": 5}, "checkpoints"),
        ({"checkpoints": [1.5]}, "checkpoints"),
        ({"delta": None}, "delta"),
        ({"emit_logs": "no"}, "emit_logs"),
        ({"emit_logs": 1}, "emit_logs"),
        ({"instance": {"strict": "no"}}, "instance.strict"),
    ],
)
def test_config_rejects_values_of_the_wrong_type(raw, key):
    # rejected at load time, naming the key, before any trial runs
    with pytest.raises(ValueError, match=rf"^{re.escape(key)}\b"):
        config_from_dict(raw)


@pytest.mark.parametrize("raw, key", [
    ({"width_scale": math.nan}, "width_scale"),
    ({"Gamma_trunc": math.inf}, "Gamma_trunc"),
    ({"bounds": {"B_A": 10**400}}, "bounds.B_A"),
    ({"instance": {"theta_scale": -math.inf}}, "instance.theta_scale"),
])
def test_config_rejects_nonfinite_numbers(raw, key):
    with pytest.raises(ValueError, match=rf"^{re.escape(key)} must be a finite number"):
        config_from_dict(raw)


def test_config_rejects_overflowing_scales_and_horizons():
    # sigma_max**2 overflowed inside the bounds check; a T past 2**32 - 1
    # customers has no stream seeds, and one past 1e304 overflowed the
    # checkpoint rescaling
    with pytest.raises(ValueError, match=r"B_beta \* B_x \+ sigma_max"):
        config_from_dict({"bounds": {"sigma_max": 1e200}})
    for T in (2**32, 10**400):
        with pytest.raises(ValueError, match=r"^T must lie in \[1, 2\*\*32\)"):
            config_from_dict({"T": T})
    assert config_from_dict({"T": 2**32 - 1, "checkpoints": [1]}).T == 2**32 - 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                               max_size=3),
    max_leaves=6,
)
_PLAUSIBLE = st.one_of(
    st.integers(-2, 70), st.floats(-1.0, 70.0), st.sampled_from(
        ["outcome", "dp", "learner", None, True, [], [1, 5], ["learner", "passive"]]
    ),
)


def _section(keys):
    return st.dictionaries(st.sampled_from(sorted(keys) + ["bogus"]),
                           _PLAUSIBLE | _JSON, max_size=3)


@settings(max_examples=300, deadline=None)
@given(raw=st.dictionaries(
    st.sampled_from(sorted(f.name for f in fields(ExperimentConfig)) + ["bogus"]),
    _PLAUSIBLE | _JSON, max_size=6,
).flatmap(lambda raw: st.fixed_dictionaries(
    {}, optional={"bounds": _section(Bounds.__dataclass_fields__) | _JSON,
                  "instance": _section(InstanceRecipe.__dataclass_fields__) | _JSON},
).map(lambda sections: {**raw, **sections})))
def test_fuzzed_config_loads_or_raises_a_value_error(raw):
    # any JSON object is a config, which round-trips, or a ValueError
    try:
        cfg = config_from_dict(raw)
    except ValueError:
        return
    assert config_from_dict(config_to_dict(cfg)) == cfg


def test_config_accepts_the_optional_nones():
    cfg = config_from_dict({"n_underbar": None, "Gamma_trunc": None, "T": 10})
    assert cfg.n_underbar is None and cfg.Gamma_trunc is None


def test_cli_run_rejects_a_wrong_typed_config(tmp_path, capsys):
    (tmp_path / "cfg.json").write_text(json.dumps({"T": 1.5}))
    code = main(["run", "--config", str(tmp_path / "cfg.json"), "--trials", "1",
                 "--seed", "0", "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "T must be an integer" in err
    assert not (tmp_path / "out").exists()


def test_config_round_trips_through_dict_and_file(tmp_path):
    cfg = small_config(mode="dp", width_scale=0.5)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    assert load_config(path) == cfg


def test_config_file_must_hold_an_object(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="JSON object"):
        load_config(path)


# --- curve fitting -----------------------------------------------------------


def test_fit_linear_curve_has_order_one():
    assert fit_regret_order([10.0, 100.0, 1000.0], [10, 100, 1000]) == pytest.approx(
        1.0, abs=1e-12
    )


def test_fit_sqrt_curve_has_order_half():
    t = [100, 1000, 10000]
    assert fit_regret_order([math.sqrt(v) for v in t], t) == pytest.approx(
        0.5, abs=1e-12
    )


def test_fit_reference_table_rows():
    for name, means in REFERENCE_MEANS.items():
        got = fit_regret_order(means, REFERENCE_CHECKPOINTS)
        assert got == pytest.approx(REFERENCE_ORDERS[name], abs=1e-12)


def test_fit_is_undefined_on_nonpositive_means():
    assert fit_regret_order([10.0, -1.0, 100.0], [1, 2, 3]) is None
    assert fit_regret_order([0.0, 1.0], [1, 2]) is None


def test_fit_validation():
    with pytest.raises(ValueError, match="equal length"):
        fit_regret_order([1.0, 2.0], [1, 2, 3])
    with pytest.raises(ValueError, match="at least two"):
        fit_regret_order([1.0], [1])
    with pytest.raises(ValueError, match="strictly increasing"):
        fit_regret_order([1.0, 2.0], [5, 5])
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"^means must be finite"):
            fit_regret_order([1.0, bad], [1, 2])


# --- trials ------------------------------------------------------------------


def test_run_trial_is_deterministic_and_trials_differ():
    cfg = small_config(trials=1, emit_logs=False)
    a = run_trial(cfg, 0)
    b = run_trial(cfg, 0)
    c = run_trial(cfg, 1)
    for name in cfg.policies:
        assert np.array_equal(a.realized[name], b.realized[name])
        assert np.array_equal(a.expected[name], b.expected[name])
    assert a.instance == b.instance
    assert a.instance != c.instance
    assert not np.array_equal(a.realized["learner"], c.realized["learner"])


def test_policy_curves_do_not_depend_on_which_policies_run():
    cfg_all = small_config(trials=1, emit_logs=False)
    cfg_two = replace(cfg_all, policies=("random", "passive"))
    full = run_trial(cfg_all, 0)
    part = run_trial(cfg_two, 0)
    for name in ("random", "passive"):
        assert np.array_equal(full.realized[name], part.realized[name])
        assert np.array_equal(full.expected[name], part.expected[name])


def test_expected_regret_matches_direct_computation():
    cfg = small_config(trials=1, T=40, n_underbar=5, checkpoints=(40,),
                       policies=("passive",), emit_logs=False)
    tr = run_trial(cfg, 0)
    rng = RandomSource(cfg.seed).scoped(0)
    m, a = generate_instance(cfg.instance, cfg.bounds, rng)
    want = []
    for t in range(1, cfg.T + 1):
        x = sample_context(cfg.instance, cfg.bounds, rng.stream(t, "ctx"))
        params = params_from_true(x, m, a)
        opt = best_outcome_plan(params)[1]
        want.append(opt - outcome_value((False,) * cfg.H, params))
    assert np.allclose(tr.expected["passive"], np.cumsum(want), atol=1e-12)


def test_bid_grid_points_leaves_a_dp_trial_unchanged(tmp_path):
    # no planner reads the grid size: the learner bids its exact bids, each
    # within [0, B_A], whatever the config names
    cfg = small_config(trials=1, T=30, n_underbar=5, mode="dp", checkpoints=(30,),
                       policies=("learner",))
    reference = run_trial(cfg, 0)
    tr = run_trial(replace(cfg, bid_grid_points=8), 0, tmp_path)
    assert tr.realized["learner"].tolist() == reference.realized["learner"].tolist()
    assert tr.expected["learner"].tolist() == reference.expected["learner"].tolist()
    window = exploration_window(cfg.n_underbar, cfg.H)
    logged = trial_log(tmp_path, cfg)
    bids = logged.bid[logged.t > window].ravel().tolist()
    assert len(bids) == (cfg.T - window) * cfg.H
    assert all(0.0 <= bid <= cfg.bounds.B_A for bid in bids)


def test_a_non_finite_value_of_winning_names_trial_customer_round_and_state(
    monkeypatch,
):
    # a NaN first-exposure mean in the learner's optimistic view fails its
    # first planned customer, before any bid is played: the drafted block
    # fails with the batch's message, which is not raised, and the customer
    # then plays alone and raises its own
    import bidlab.agent as agent_module

    real = agent_module.dp_policy

    def nan_first_exposure(params, B_A):
        mu = params.mu.copy() if isinstance(params.mu, np.ndarray) else list(params.mu)
        mu[1] = math.nan  # in a batch, every customer's
        return real(params._replace(mu=mu), B_A)

    monkeypatch.setattr(agent_module, "dp_policy", nan_first_exposure)
    cfg = small_config(trials=1, T=30, n_underbar=5, mode="dp", checkpoints=(30,),
                       policies=("learner",), emit_logs=False)
    window = exploration_window(cfg.n_underbar, cfg.H)
    i = state_table(cfg.H).ids[(cfg.H, INITIAL_STATE)]
    with pytest.raises(RuntimeError) as err:
        run_trial(cfg, 0)
    assert str(err.value) == (f"trial 0, customer {window + 1}: round {cfg.H}, "
                              f"state id {i}: the value of winning is nan")


def test_long_horizon_config_runs_to_the_end():
    # past the old 2^H enumeration cap of H <= 20
    cfg = config_from_dict(
        {"H": 21, "T": 2, "trials": 1, "n_underbar": 1, "bid_grid_points": 2}
    )
    result = run_experiment(cfg)
    for name in cfg.policies:
        curve = result.trials[0].expected[name]
        assert curve.shape == (2,) and np.all(curve >= -1e-9)


def test_single_checkpoint_config_runs_to_the_end(tmp_path):
    # T=1 scales the checkpoint grid to one point: no order can be fitted
    cfg = config_from_dict({"T": 1, "trials": 1, "n_underbar": 1})
    assert cfg.checkpoints == (1,)
    result = run_experiment(cfg, tmp_path)
    summary = (tmp_path / "summary.txt").read_text()
    for name in cfg.policies:
        s = result.summaries[name]
        assert s.mean_curve_order is None and s.expected_mean_curve_order is None
        assert s.per_trial_orders == (None,)
        assert f"  {name:<10} realized=undefined expected=undefined" in summary
    # the one-customer batch scores each fixed plan as the scalar planner does
    trial = result.trials[0]
    rng = RandomSource(cfg.seed).scoped(0)
    m, a = generate_instance(cfg.instance, cfg.bounds, rng)
    x = sample_context(cfg.instance, cfg.bounds, rng.stream(1, "ctx"))
    params = params_from_true(x, m, a)
    opt = best_outcome_plan(params)[1]
    for name, plan in (("aggressive", (True,) * 3), ("passive", (False,) * 3)):
        assert trial.expected[name].tolist() == [opt - outcome_value(plan, params)]


def _spy_checks(monkeypatch, miss=(), second=False):
    """Record every check of a drafted block as (its first customer, its
    length, the customers kept); with `miss`, each customer in it is
    drafted with its first round's bid moved across its HOB (to 0.0 if it
    won there, to the HOB, which ties win, if it lost), so its draft walks
    another path and misses; with `second`, so is every drafted block's
    second customer."""
    import bidlab.harness as harness_module

    checks, first_hob = [], {}  # each customer's first-round HOB
    real_draft, real_check = harness_module.draft_plans, harness_module.check_drafts
    real_draw = harness_module.draw_hobs

    def draw(means, rng, start):
        hobs = real_draw(means, rng, start)
        first_hob.update(enumerate(hobs[:, 0].tolist(), start + 1))
        return hobs

    def draft(agent, X):
        rows = real_draft(agent, X)
        for k in range(len(X)):
            if agent.t + k in miss or second and k == 1:
                hob = first_hob[agent.t + k]
                rows[k, 0] = 0.0 if rows[k, 0] >= hob else hob
        return rows

    def check(agent, episodes, drafts):
        first = agent.t
        kept = real_check(agent, episodes, drafts)
        checks.append((first, len(episodes), kept))
        return kept

    monkeypatch.setattr(harness_module, "draw_hobs", draw)
    monkeypatch.setattr(harness_module, "draft_plans", draft)
    monkeypatch.setattr(harness_module, "check_drafts", check)
    return checks


def _missed(checks):
    """The customers whose drafts missed: each check's first not kept."""
    return [first + kept for first, length, kept in checks if kept < length]


@pytest.mark.parametrize("mode", ["outcome", "dp"])
def test_drafts_that_always_miss_back_off_to_playing_alone(monkeypatch, mode):
    # every drafted block misses at its second customer, so each keeps one:
    # the blocks shrink and the customers played alone between them double,
    # so the drafted blocks grow as the log of the exploit customers and
    # the dropped customers stay within a multiple of those played
    checks = _spy_checks(monkeypatch, second=True)
    cfg = small_config(T=300, trials=1, n_underbar=20, checkpoints=(300,), mode=mode,
                       policies=("learner",), emit_logs=False)
    exploit = cfg.T - exploration_window(cfg.n_underbar, cfg.H)
    got = run_trial(cfg, 0)
    assert checks and all(kept == 1 for _, _, kept in checks)
    dropped = sum(length - kept for _, length, kept in checks)
    assert dropped <= 2 * exploit
    assert len(checks) <= math.log2(exploit) + 4
    want = _one_at_a_time_trial(monkeypatch, cfg, None)
    assert got.agent_snapshot == want.agent_snapshot
    assert got.expected["learner"].tolist() == want.expected["learner"].tolist()


def test_each_customer_builds_each_stream_once(monkeypatch):
    # one HOB stream per customer, shared by all four policies: context,
    # HOBs, the random plan and four conversion streams; a customer that a
    # drafted block drops (from its first missed draft on) builds its
    # learner's conversion stream again when it plays later.  Drafts run
    # as they are, then missing at 24 (the block 21-30 drops 7), 25 (the
    # block 25-30, after 24 plays alone, drops 6) and 27 (the block 27-30,
    # after two more alone, drops 4)
    keys = []
    real = RandomSource.stream

    def stream(self, *key):
        keys.append((self.prefix, key))
        return real(self, *key)

    monkeypatch.setattr(RandomSource, "stream", stream)
    cfg = small_config(T=30, trials=1, n_underbar=5, checkpoints=(10, 30),
                       emit_logs=False)
    for miss in ((), (24, 25, 27)):
        keys.clear()
        with monkeypatch.context() as patch:
            checks = _spy_checks(patch, miss)
            run_trial(cfg, 0)
        assert _missed(checks) == list(miss)
        dropped = [t for first, length, kept in checks
                   for t in range(first + kept, first + length)]
        assert len(dropped) == (0 if not miss else 7 + 6 + 4)
        per_customer = [k for k in keys if k[1] != ("instance",)]
        assert len(per_customer) == 7 * cfg.T + len(dropped)
        again = Counter(per_customer) - Counter(set(per_customer))
        assert again == Counter(((0,), (t, "conv", "learner")) for t in dropped)


@pytest.mark.parametrize("H", [1, 2, 3, 4, 5, 6])
@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("T", [1, 2, 40])
def test_baseline_arrays_equal_per_customer_episodes(H, dim, T):
    cfg = config_from_dict({"T": T, "trials": 1, "H": H, "dim": dim, "seed": 3 + H,
                            "n_underbar": 2})
    reference = per_customer_realized(cfg, 0)
    trial = run_trial(cfg, 0)
    for name in cfg.policies:
        assert trial.realized[name].tolist() == reference[name].tolist(), name


@pytest.mark.parametrize("trial", [0, 1])
def test_baseline_arrays_equal_per_customer_episodes_without_learner(trial):
    cfg = config_from_dict({"T": 60, "trials": 2, "H": 4, "seed": 2**40 + 3,
                            "policies": ["passive", "random", "aggressive"]})
    reference = per_customer_realized(cfg, trial)
    result = run_trial(cfg, trial)
    for name in cfg.policies:
        assert result.realized[name].tolist() == reference[name].tolist(), name


@pytest.mark.parametrize("H", [1, 2, 3, 5])
def test_array_player_follows_run_episodes_auction_rule(H):
    # arbitrary rows: finite bids in (0, B_A], bids exactly a customer's HOB
    # of the round (ties win) or just under it, inf and 0.0; the record of
    # the block is run_episode's, customer by customer, bit for bit
    from bidlab.environment import _play_bids

    cfg = small_config(H=H, bounds=replace(small_config().bounds, H=H))
    start, n = 1000, 40
    rng = RandomSource(11 + H)
    m, a = generate_instance(cfg.instance, cfg.bounds, rng)
    xs = np.array([sample_context(cfg.instance, cfg.bounds, rng.stream(t, "ctx"))
                   for t in range(start + 1, start + n + 1)])
    hobs = np.array([draw_hobs(x, a, rng, t) for t, x in enumerate(xs, start + 1)])
    table = state_table(H)
    round_of = np.array([h for h, ids in enumerate(table.layers) for _ in ids])
    at_hob = hobs[:, round_of]  # (n, states): the HOB of each state's round
    gen = np.random.default_rng(H)
    finite = np.minimum(at_hob * np.exp(gen.standard_normal(at_hob.shape)),
                        cfg.bounds.B_A)
    choices = [finite, at_hob, np.nextafter(at_hob, 0.0), np.full_like(at_hob, math.inf),
               np.zeros_like(at_hob)]
    pick = gen.integers(0, len(choices), at_hob.shape)
    bids = np.choose(pick, choices)
    assert (pick == 1).any() and (pick == 3).any() and (pick == 4).any()
    got = _play_bids(bids, xs, hobs, batch_params(xs, m, a), rng, "policy", start)
    want = concat([
        run_episode(bids[c], x, m, a, rng, t=t, noise_label="policy", hobs=hobs[c])
        for c, (t, x) in enumerate(zip(range(start + 1, start + n + 1), xs))
    ])
    for name in ("t", "x", "ids", "bid", "hob", "won", "conversions", "payment",
                 "realized_reward"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tolist() == w.tolist(), name


@pytest.mark.parametrize("mode", ["outcome", "dp"])
@pytest.mark.parametrize("learner", [True, False])
def test_only_the_learner_runs_episodes(monkeypatch, mode, learner):
    # only the learner's exploit blocks of one run episodes: the window and
    # the drafted blocks, in either mode, play as arrays
    import bidlab.harness as harness_module

    calls = []
    real = harness_module.run_episode

    def counting(*args, **kwargs):
        calls.append(kwargs["noise_label"])
        return real(*args, **kwargs)

    monkeypatch.setattr(harness_module, "run_episode", counting)
    checks = _spy_checks(monkeypatch)
    policies = ("learner",) * learner + ("aggressive", "random", "passive")
    cfg = small_config(T=30, trials=2, n_underbar=5, checkpoints=(10, 30),
                       mode=mode, policies=policies, emit_logs=False)
    exploit = cfg.T - exploration_window(cfg.n_underbar, cfg.H)
    for k in range(cfg.trials):
        calls.clear()
        checks.clear()
        run_trial(cfg, k)
        kept = sum(kept for _, _, kept in checks)
        assert calls == ["learner"] * (exploit - kept) * learner
        assert (kept > 0) == learner


def test_negative_rate_of_a_baseline_names_trial_and_customer(monkeypatch):
    # theta row 1 converts a first win; it turns negative at contexts with
    # x0 < x1, which the oracle-gap sample (switched off here) would also
    # reject, so the baseline arrays meet it first
    import bidlab.harness as harness_module

    cfg = small_config(T=60, trials=1, checkpoints=(60,), policies=("aggressive",))
    m, a = generate_instance(cfg.instance, cfg.bounds, RandomSource(cfg.seed).scoped(0))
    theta = m.theta.copy()
    theta[1] = [1.0, -1.0]
    bad = (replace(m, theta=theta), a)
    monkeypatch.setattr(harness_module, "generate_instance", lambda *args: bad)
    monkeypatch.setattr(harness_module, "ORACLE_GAP_SAMPLE", 0)
    with pytest.raises(ValueError) as reference:
        per_customer_realized(cfg, 0, instance=bad)
    xs = [sample_context(cfg.instance, cfg.bounds,
                         RandomSource(cfg.seed).scoped(0).stream(t, "ctx"))
          for t in range(1, cfg.T + 1)]
    t = next(t for t, x in enumerate(xs, start=1) if x[0] < x[1])
    with pytest.raises(RuntimeError) as err:
        run_trial(cfg, 0)
    assert str(err.value) == f"trial 0, customer {t}: {reference.value}"


@pytest.mark.parametrize("mode", ["outcome", "dp"])
@pytest.mark.parametrize("policies", [("learner", "aggressive"), ("aggressive",)])
def test_negative_conversion_mean_of_the_oracle_names_trial_and_customer(
    monkeypatch, mode, policies
):
    # the same instance with the oracle-gap sample on: the oracle plans
    # customer 4 (the first context with x0 < x1) on true means one of which
    # is negative, and rejects them before anything plays that customer
    import bidlab.harness as harness_module

    cfg = small_config(T=60, trials=1, n_underbar=5, checkpoints=(60,),
                       mode=mode, policies=policies, emit_logs=False)
    m, a = generate_instance(cfg.instance, cfg.bounds, RandomSource(cfg.seed).scoped(0))
    theta = m.theta.copy()
    theta[1] = [1.0, -1.0]
    bad = (replace(m, theta=theta), a)
    monkeypatch.setattr(harness_module, "generate_instance", lambda *args: bad)
    with pytest.raises(RuntimeError) as err:
        run_trial(cfg, 0)
    assert str(err.value) == (
        "trial 0, customer 4: conversion means must be clamped nonnegative"
    )


def test_a_dp_trial_plans_on_the_grid_only_for_the_learners_exploit_customers(
    monkeypatch,
):
    # the auction oracle runs on one block of customers, so dp_policy is called
    # by the learner only, once per exploit customer played alone and twice
    # per drafted block (its drafts and its check), and never by the harness,
    # which also builds no per-customer params and scores no bid rule alone
    import bidlab.agent as agent_module
    import bidlab.harness as harness_module

    calls = []
    for module, name in ((agent_module, "dp_policy"), (harness_module, "dp_policy"),
                         (harness_module, "params_from_true"),
                         (harness_module, "policy_value")):
        def counting(*args, _real=getattr(module, name),
                     _key=f"{module.__name__}.{name}", **kwargs):
            calls.append(_key)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    checks = _spy_checks(monkeypatch)
    cfg = small_config(T=45, trials=1, n_underbar=5, checkpoints=(45,), mode="dp",
                       emit_logs=False)
    run_trial(cfg, 0)
    alone = cfg.T - exploration_window(cfg.n_underbar, cfg.H) - sum(
        kept for _, _, kept in checks)
    assert checks and calls == ["bidlab.agent.dp_policy"] * (alone + 2 * len(checks))


@pytest.mark.parametrize("mode", ["outcome", "dp"])
@pytest.mark.parametrize("chunk", [1, 7, 10**6])
def test_grid_oracle_block_size_leaves_a_trial_unchanged(monkeypatch, mode, chunk):
    # the harness scores the auction oracle in one block; in blocks of
    # `chunk` customers every customer's value, and so the trial, is the same
    import bidlab.harness as harness_module

    cfg = small_config(T=60, trials=1, n_underbar=5, checkpoints=(60,), mode=mode,
                       emit_logs=False)
    reference = run_trial(cfg, 0)
    real = harness_module.best_grid_values

    def in_blocks(op, B_A):
        n = len(op.hob[0])
        return np.concatenate([real(op.rows(i, min(i + chunk, n)), B_A)
                               for i in range(0, n, chunk)])

    monkeypatch.setattr(harness_module, "best_grid_values", in_blocks)
    got = run_trial(cfg, 0)
    assert got.oracle_gap == reference.oracle_gap
    for name in cfg.policies:
        assert got.realized[name].tolist() == reference.realized[name].tolist()
        assert got.expected[name].tolist() == reference.expected[name].tolist()


def test_trials_reuse_the_state_table(monkeypatch):
    # once the table of an H exists, no customer rebuilds the reachable
    # states or constructs an exposure state
    import bidlab.model as model_module

    cfg = small_config(T=30, trials=1, n_underbar=5, checkpoints=(10, 30),
                       emit_logs=False)
    run_trial(cfg, 0)
    built = []
    real_init = model_module.ExposureState.__post_init__

    def counting_init(self):
        built.append(self)
        real_init(self)

    def no_reachable_states(H):
        raise AssertionError("reachable_states called")

    monkeypatch.setattr(model_module.ExposureState, "__post_init__", counting_init)
    monkeypatch.setattr(model_module, "reachable_states", no_reachable_states)
    for mode in ("outcome", "dp"):
        run_trial(replace(cfg, mode=mode), 1)
    assert built == []


def _sigma_max_edge(T, H=3):
    # A trial's sum of T * H HOB means exp(<x, beta_h> + sigma_h^2 / 2), with
    # |<x, beta_h>| up to B_beta * B_x = 25 at the default bounds, leaves the
    # float range past this sigma_max (~36.886 at T=30, ~36.834 at T=200).
    return math.sqrt(2.0 * (math.log(sys.float_info.max) - 5.0 * 5.0
                            - math.log(T * H)))


_SIGMA_MAX_EDGE = _sigma_max_edge(30)


def _hob_limit_config(sigma_max, mode="outcome"):
    # sigma_scale 60 drives every round's sigma to the sigma_max cap
    return {"T": 30, "trials": 1, "mode": mode,
            "bounds": {"sigma_max": sigma_max}, "instance": {"sigma_scale": 60}}


def test_bounds_that_overflow_the_hob_mean_are_rejected_at_load():
    for sigma_max in (60.0, _SIGMA_MAX_EDGE * (1.0 + 1e-9)):
        with pytest.raises(ValueError, match=r"B_beta \* B_x \+ sigma_max"):
            config_from_dict(_hob_limit_config(sigma_max))


@pytest.mark.parametrize("mode", ["outcome", "dp"])
def test_bounds_just_inside_the_hob_mean_limit_run_a_trial(mode):
    cfg = config_from_dict(_hob_limit_config(_SIGMA_MAX_EDGE * (1.0 - 1e-9), mode))
    result = run_experiment(cfg)
    for name in cfg.policies:
        curve = result.trials[0].expected[name]
        assert curve.shape == (30,) and np.all(np.isfinite(curve))


@pytest.mark.parametrize("mode", ["outcome", "dp"])
def test_learner_plans_past_exploration_just_inside_the_hob_mean_limit(mode):
    # the learner plans from customer 21 on; its estimated beta and sigma
    # are projected onto the bounds, so its HOB mean stays finite too
    cfg = config_from_dict({"T": 200, "trials": 1, "n_underbar": 5, "mode": mode,
                            "bounds": {"sigma_max": _sigma_max_edge(200) - 1e-4},
                            "instance": {"sigma_scale": 60}})
    trial = run_experiment(cfg).trials[0]
    for name in cfg.policies:
        for curve in (trial.expected[name], trial.realized[name]):
            assert curve.shape == (200,) and np.all(np.isfinite(curve))


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def test_z_max_bounds_the_normal_numpy_draws():
    # the ziggurat's tail returns r - inv_r * log1p(-U) with U at most
    # 1 - 2**-53 (numpy's ziggurat_nor_r and ziggurat_nor_inv_r)
    r, inv_r = 3.6541528853610088, 0.27366123732975828
    assert r + inv_r * -math.log1p(-(1.0 - 2.0**-53)) <= Z_MAX < 13.708


def test_the_hob_draw_overflow_probe_is_rejected_at_load():
    # it used to load and abort with "trial 0, customer 393: math range error"
    probe = {"T": 2000, "trials": 1, "seed": 0, "n_underbar": 20,
             "checkpoints": [500, 2000],
             "bounds": {"B_x": 100.0, "B_beta": 6.972, "sigma_max": 5.0},
             "instance": {"beta_scale": 1000.0, "context_scale": 1000.0,
                          "sigma_scale": 100.0}}
    with pytest.raises(ValueError, match=r"^B_beta \* B_x \+ sigma_max \* Z_MAX .*"
                       r"\+ log\(T \* H\) must not exceed log\(max float\) = 709\.78"):
        config_from_dict(probe)


@pytest.mark.parametrize("sigma_max", [0.5, 5.0, 27.0, 30.0])
@pytest.mark.parametrize("T, H", [(1, 1), (50, 3)])
def test_the_hob_bound_holds_at_its_edge(sigma_max, T, H):
    spread = max(sigma_max * Z_MAX, sigma_max * sigma_max / 2)
    edge = _LOG_FLOAT_MAX - spread - math.log(T * H)  # B_beta * B_x there
    for B_beta, loads in ((edge * (1 - 1e-9), True), (edge * (1 + 1e-9), False)):
        raw = {"T": T, "H": H, "bounds": {"B_x": 1.0, "B_beta": B_beta,
                                          "sigma_max": sigma_max}}
        if loads:
            config_from_dict(raw)
        else:
            with pytest.raises(ValueError, match=r"^B_beta \* B_x \+ sigma_max"):
                config_from_dict(raw)


def test_a_conversion_rate_numpy_cannot_draw_is_rejected_at_load():
    edge = POISSON_RATE_MAX / 10.0 / 5.0  # B_theta at B_x = 10, B_d = 5
    config_from_dict({"bounds": {"B_x": 10.0, "B_beta": 1e-3, "B_theta": edge}})
    with pytest.raises(ValueError, match=r"^B_theta \* B_x \* max\(1, B_d\)"):
        config_from_dict({"bounds": {"B_x": 10.0, "B_beta": 1e-3,
                                     "B_theta": edge * (1 + 1e-9)}})


@settings(max_examples=100, deadline=None)
@example(H=3, T=2, dim=1, mode="outcome", sigma_max=37.0, B_x=1.0, headroom=0.5,
         rate_edge=False, rate_slack=0.0, scale=1e6)
@given(
    H=st.integers(1, 3), T=st.integers(1, 50), dim=st.integers(1, 3),
    mode=st.sampled_from(["outcome", "dp"]),
    sigma_max=st.floats(0.01, 40.0), B_x=st.floats(0.01, 100.0),
    headroom=st.floats(-0.5, 1.5) | st.floats(1 - 1e-9, 1 + 1e-9),
    rate_edge=st.booleans(), rate_slack=st.floats(-1e-3, 1e-3),
    scale=st.sampled_from([1.0, 1e6]),
)
def test_a_config_near_the_bounds_edges_is_rejected_at_load_or_runs_finite(
    H, T, dim, mode, sigma_max, B_x, headroom, rate_edge, rate_slack, scale,
):
    # B_beta * B_x leaves `headroom` times log(T * H) below log(max float)
    # for the HOB spread (1 at the edge; below 0 the HOB mean alone
    # overflows) and, optionally, B_theta lies around the largest Poisson
    # rate; a scale of 1e6 drives every drawn context, effect, coefficient
    # and noise scale to its bound, so in dimension 1 <x, beta_h> is B_beta * B_x
    spread = max(sigma_max * Z_MAX, sigma_max * sigma_max / 2)
    exponent = _LOG_FLOAT_MAX - spread - headroom * math.log(T * H)
    bounds = {"B_x": B_x, "B_beta": max(exponent / B_x, 1e-3), "sigma_max": sigma_max}
    if rate_edge:
        bounds["B_theta"] = POISSON_RATE_MAX / (B_x * 5.0) * (1 + rate_slack)
    raw = {"T": T, "trials": 1, "H": H, "dim": dim, "mode": mode, "n_underbar": 2,
           "bounds": bounds,
           "instance": {f"{k}_scale": scale
                        for k in ("theta", "beta", "sigma", "context")}}
    try:
        cfg = config_from_dict(raw)
    except ValueError:
        event("rejected at load")
        return
    event("ran")
    trial = run_experiment(cfg).trials[0]
    for name in cfg.policies:
        assert np.all(np.isfinite(trial.realized[name])), name
        assert np.all(np.isfinite(trial.expected[name])), name


def test_trial_errors_carry_provenance(monkeypatch):
    cfg = small_config(trials=1, emit_logs=False)
    import bidlab.harness as harness_module

    real = harness_module.sample_context

    def boom(recipe, bounds, rng):
        draw = real(recipe, bounds, rng)
        boom.count += 1
        if boom.count == 3:
            raise ValueError("synthetic failure")
        return draw

    boom.count = 0
    monkeypatch.setattr(harness_module, "sample_context", boom)
    with pytest.raises(RuntimeError, match="trial 0, customer 3: synthetic failure"):
        run_trial(cfg, 0)


def test_a_failed_trial_deletes_its_partial_logs(monkeypatch, tmp_path):
    # segments of 16: the first segment's rows are on disk when the second
    # fails at customer 20; the trial removes both of its logs and re-raises
    import bidlab.harness as harness_module

    monkeypatch.setattr(harness_module, "SEGMENT", 16)
    real, written = harness_module.sample_context, []

    def boom(recipe, bounds, rng):
        boom.count += 1
        if boom.count == 20:
            written.extend(sorted(p.name for p in tmp_path.iterdir()))
            raise ValueError("synthetic failure")
        return real(recipe, bounds, rng)

    boom.count = 0
    monkeypatch.setattr(harness_module, "sample_context", boom)
    cfg = small_config(T=40, trials=1, n_underbar=2, checkpoints=(40,))
    with pytest.raises(RuntimeError, match="^trial 0, customer 20: synthetic failure$"):
        run_trial(cfg, 0, tmp_path)
    assert written == ["contexts_trial0.csv", "episodes_trial0.csv"]
    assert list(tmp_path.iterdir()) == []


def test_a_trial_holds_one_segment_besides_its_regret_increments(monkeypatch, tmp_path):
    # the Python-heap peak of a trial that writes its logs grows by its
    # 8-byte increments (2 per policy and customer, 64 bytes here) as T
    # goes from one segment to four; a trial that held every customer grew
    # by about 1.1 KB per customer on this measure
    import bidlab.harness as harness_module

    S = 64
    monkeypatch.setattr(harness_module, "SEGMENT", S)

    def peak(T):
        cfg = small_config(T=T, trials=1, n_underbar=5, checkpoints=(T,))
        tracemalloc.start()
        try:
            run_trial(cfg, 0, tmp_path)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(S)  # caches and free lists
    assert (peak(4 * S) - peak(S)) / (3 * S) <= 256


def test_a_replay_holds_about_one_block_at_each_update(monkeypatch, tmp_path):
    # the episode reader keeps no more of what it read than the block it
    # yields: at the entry of each update of a T=4000 replay (blocks of 512)
    # the traced heap above the replay's start stays under 0.25 MB, about
    # the per-row reader's figure; it was 0.52-0.61 MB while each read's
    # rows and its episodes' keys, starts and lengths lived across the yield
    import bidlab.harness as harness_module

    cfg = small_config(T=4000, trials=1, seed=0, n_underbar=600, checkpoints=(4000,),
                       policies=("learner",))
    run_experiment(cfg, tmp_path)
    held, real = [], harness_module.update

    def update(agent, episodes):
        held.append(tracemalloc.get_traced_memory()[0] - start)
        return real(agent, episodes)

    monkeypatch.setattr(harness_module, "update", update)
    start = 0
    replay_estimation(tmp_path / "episodes_trial0.csv")  # caches and free lists
    held.clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        replay_estimation(tmp_path / "episodes_trial0.csv")
    finally:
        tracemalloc.stop()
    assert len(held) == 8 and max(held) < 0.25e6


def test_experiment_aborts_on_trial_failure(tmp_path):
    bad = small_config(instance=replace(small_config().instance, strict=True,
                                        theta_scale=0.0, theta_offset=1e-6))
    with pytest.raises(RuntimeError, match="experiment aborted"):
        run_experiment(bad)
    with pytest.raises(RuntimeError, match="experiment aborted"):
        run_experiment(bad, tmp_path)
    assert not (tmp_path / "curves.csv").exists()
    assert not (tmp_path / "summary.txt").exists()


@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the patched run_trial reaches the workers by fork")
def test_a_pooled_run_stops_at_its_first_failed_trial(tmp_path, monkeypatch):
    # trial 0 fails at once and every other trial takes 1 s: the run aborts
    # once trial 0 has failed and trial 1, already running, has ended; no
    # trial past the two workers starts (all six would take 3 s)
    import bidlab.harness as harness_module

    def run_trial(config, trial, out_dir=None):
        (tmp_path / f"started{trial}").touch()
        if trial == 0:
            raise ValueError("synthetic failure")
        time.sleep(1.0)
        raise ValueError(f"trial {trial} ran to its end")

    monkeypatch.setattr(harness_module, "run_trial", run_trial)
    began = time.perf_counter()
    with pytest.raises(RuntimeError, match="experiment aborted: synthetic failure"):
        run_experiment(small_config(trials=6, workers=2))
    assert time.perf_counter() - began < 2.0
    started = {int(p.name.removeprefix("started")) for p in tmp_path.iterdir()}
    assert 0 in started and started <= {0, 1}


def test_worker_pool_matches_sequential(small_result):
    cfg = replace(small_config(), workers=2, emit_logs=False)
    par = run_experiment(cfg)
    for tr_seq, tr_par in zip(small_result.trials, par.trials):
        for name in cfg.policies:
            assert np.array_equal(tr_seq.realized[name], tr_par.realized[name])


@pytest.mark.parametrize("workers", [1, 2])
def test_trials_write_their_logs_and_return_without_them(tmp_path, small_result,
                                                        small_dir, workers):
    # the sequential run's files, the logs its trials wrote included, are
    # the pooled run's, byte for byte
    cfg = replace(small_result.config, workers=workers)
    run_experiment(cfg, tmp_path)
    written = sorted(p.name for p in small_dir.iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == written
    for name in written:
        if name == "config.json":  # it records the workers
            assert load_config(tmp_path / name) == cfg
        else:
            assert (tmp_path / name).read_bytes() == (small_dir / name).read_bytes(), name


def test_a_run_without_an_output_directory_writes_no_log(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    cfg = small_config(T=30, n_underbar=5, checkpoints=(30,))
    assert cfg.emit_logs
    result = run_experiment(cfg)
    assert [tr.agent_snapshot["t"] for tr in result.trials] == [cfg.T + 1] * cfg.trials
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("workers, trials, pool", [
    (8, 2, [2]), (2, 3, [2]), (8, 1, []), (1, 3, []),
])
def test_the_pool_has_no_more_workers_than_trials(monkeypatch, workers, trials, pool):
    import bidlab.harness as harness_module

    sizes = []

    class RecordingPool:  # runs each job here as it is submitted, records its size
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, job):
            future = Future()
            future.set_result(fn(job))
            return future

    monkeypatch.setattr(harness_module, "ProcessPoolExecutor", RecordingPool)
    cfg = small_config(T=20, checkpoints=(10, 20), n_underbar=2, emit_logs=False,
                       workers=workers, trials=trials)
    assert len(run_experiment(cfg).trials) == trials
    assert sizes == pool


# --- aggregation and persistence ---------------------------------------------


def test_summary_means_are_cross_trial_means(small_result):
    cfg = small_result.config
    idx = np.asarray(cfg.checkpoints) - 1
    for name in cfg.policies:
        s = small_result.summaries[name]
        at = np.stack([tr.realized[name][idx] for tr in small_result.trials])
        assert np.allclose(s.means, at.mean(axis=0), atol=1e-12)
        want_hw = cfg.half_width_multiplier * at.std(axis=0, ddof=1)
        assert np.allclose(s.half_widths, want_hw, atol=1e-12)
        assert s.mean_curve_order == fit_regret_order(s.means, cfg.checkpoints)
        assert len(s.per_trial_orders) == cfg.trials


def test_single_trial_half_widths_are_zero():
    res = run_experiment(small_config(trials=1, emit_logs=False))
    for s in res.summaries.values():
        assert s.half_widths == (0.0,) * len(res.config.checkpoints)


def test_summary_text_renders_all_policies(small_result):
    text = render_summary(small_result)
    for name in small_result.config.policies:
        assert name in text
    assert "fitted regret order" in text
    assert "t=400" in text
    assert "oracle value gap" in text


def test_summary_text_renders_undefined_orders(small_result):
    patched = replace(
        small_result.summaries["passive"],
        mean_curve_order=None,
        per_trial_orders=(None,) * small_result.config.trials,
    )
    summaries = dict(small_result.summaries)
    summaries["passive"] = patched
    shown = render_summary(replace(small_result, summaries=summaries))
    assert "undefined" in shown


def test_written_outputs_round_trip(small_result, small_dir):
    out, cfg = small_dir, small_result.config

    with open(out / "curves.csv", encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = fh.read().splitlines()
    assert header == "trial,t,policy,cum_regret,cum_regret_expected"
    assert len(rows) == cfg.trials * len(cfg.policies) * cfg.T
    first = rows[0].split(",")
    assert first[:3] == ["0", "1", "learner"]
    assert float(first[3]) == small_result.trials[0].realized["learner"][0]

    assert load_config(out / "config.json") == cfg
    for k in range(cfg.trials):
        snap = json.loads((out / f"instance_trial{k}.snapshot").read_text())
        assert snap == small_result.trials[k].instance
        logged = trial_log(out, cfg, k)  # every customer, with its context
        assert logged.t.tolist() == list(range(1, cfg.T + 1))
        rng = RandomSource(cfg.seed).scoped(k)
        assert logged.x.tolist() == [
            sample_context(cfg.instance, cfg.bounds, rng.stream(t, "ctx")).tolist()
            for t in range(1, cfg.T + 1)
        ]
        agent_snap = json.loads((out / f"agent_trial{k}.snapshot").read_text())
        assert agent_snap == small_result.trials[k].agent_snapshot
    assert (out / "summary.txt").read_text() == render_summary(small_result)


def test_no_won_round_of_the_preset_log_pays_more_than_its_bid(tmp_path):
    # a forced win was once logged at the bid cap B_A while it paid the HOB:
    # 15 of this log's 3,600 won rounds paid more than their bid
    cfg = benchmark_config(T=3000, trials=1, seed=69, emit_logs=True,
                           checkpoints=scaled_checkpoints(3000))
    run_experiment(cfg, tmp_path)
    ep = trial_log(tmp_path, cfg)
    assert len(ep) == 3000 and ep.won.sum() == 3600
    assert not np.any(ep.payment[ep.won] > ep.bid[ep.won])


# --- offline replay ------------------------------------------------------------


def test_replay_matches_live_snapshots(small_result, small_dir):
    for k in range(small_result.config.trials):
        snap = replay_estimation(small_dir / f"episodes_trial{k}.csv")
        assert snap == small_result.trials[k].agent_snapshot


def test_replay_of_empty_log_is_the_initial_snapshot(tmp_path):
    cfg = small_config()
    write_episode_csv(tmp_path / "episodes_trial0.csv", [])
    write_context_csv(tmp_path / "contexts_trial0.csv", [])
    snap = replay_estimation(
        tmp_path / "episodes_trial0.csv",
        config=cfg,
    )
    fresh = make_agent(
        cfg.bounds,
        cfg.T,
        delta=cfg.delta,
        width_scale=cfg.width_scale,
        n_underbar=cfg.n_underbar,
        Gamma_override=cfg.Gamma_trunc,
        planner_mode=cfg.mode,
    )
    assert snap == agent_to_dict(fresh)


def test_replay_of_a_prefix_matches_a_live_agent_stopped_there(tmp_path, small_result,
                                                              small_dir):
    cfg = small_result.config
    out = tmp_path
    contexts = read_context_csv(small_dir / "contexts_trial0.csv", cfg.dim)
    episodes = trial_log(small_dir, cfg)
    k = 37
    write_episode_csv(out / "episodes_trial9.csv", [(0, episodes[:k])])
    write_context_csv(
        out / "contexts_trial9.csv",
        [(0, t, contexts[(0, t)]) for t in range(1, k + 1)],
    )
    snap = replay_estimation(out / "episodes_trial9.csv", config=cfg)

    live = make_agent(
        cfg.bounds,
        cfg.T,
        delta=cfg.delta,
        width_scale=cfg.width_scale,
        n_underbar=cfg.n_underbar,
        Gamma_override=cfg.Gamma_trunc,
        planner_mode=cfg.mode,
    )
    for j in range(k):
        update(live, episodes[j:j + 1])
    assert snap == agent_to_dict(live)


def test_replay_rejects_logs_mixing_trials(tmp_path, small_result, small_dir):
    mixed = [(k, trial_log(small_dir, small_result.config, k)[:1]) for k in (0, 1)]
    write_episode_csv(tmp_path / "episodes_mixed.csv", mixed)
    contexts = {
        (k, 1): read_context_csv(small_dir / f"contexts_trial{k}.csv",
                                  small_result.config.dim)[(k, 1)]
        for k in (0, 1)
    }
    write_context_csv(
        tmp_path / "contexts_mixed.csv", [(k, 1, v) for (k, _), v in contexts.items()]
    )
    with pytest.raises(ValueError, match="mixes trials"):
        replay_estimation(
            tmp_path / "episodes_mixed.csv",
            contexts_path=tmp_path / "contexts_mixed.csv",
            config=small_result.config,
        )


def test_replay_rejects_a_short_episode_and_contexts_of_another_dimension(
    tmp_path, small_dir
):
    # unchecked, the first fails inside numpy on ragged HOB rows and the
    # second on a matrix product of mismatched shapes, neither naming a line
    for name in ("config.json", "episodes_trial0.csv", "contexts_trial0.csv"):
        (tmp_path / name).write_bytes((small_dir / name).read_bytes())
    log, ctx = tmp_path / "episodes_trial0.csv", tmp_path / "contexts_trial0.csv"
    lines = log.read_text().splitlines(keepends=True)
    log.write_text("".join(lines[:3] + lines[4:]))  # customer 1's round 3
    with pytest.raises(ValueError, match=r"^line 2: expected 3 rounds, got 2$"):
        replay_estimation(log)
    log.write_text("".join(lines))
    ctx.write_text("\n".join(line + ",0.5" for line in ctx.read_text().splitlines()))
    with pytest.raises(ValueError, match=r"^line 2: expected 2 x-columns, got 3$"):
        replay_estimation(log)


def test_replay_requires_locatable_contexts(tmp_path):
    write_episode_csv(tmp_path / "rounds.csv", [])
    with pytest.raises(ValueError, match="contexts_path"):
        replay_estimation(tmp_path / "rounds.csv", config=small_config())


def test_replay_holds_at_most_one_chunk_of_episodes(small_result, small_dir, monkeypatch):
    # the log and its contexts are streamed: each update gets a block of at
    # most SEGMENT episodes, and no episode or context is read before the
    # ones already read are consumed.  In lines pulled from the files: the
    # log's reader holds one block of SEGMENT * H lines besides the episode
    # its last read cut, the contexts' one chunk of CONTEXT_CHUNK lines
    import bidlab.environment as environment_module
    import bidlab.harness as harness_module

    monkeypatch.setattr(harness_module, "SEGMENT", 16)
    monkeypatch.setattr(environment_module, "CONTEXT_CHUNK", 5)
    H = small_result.config.H
    counts = {"contexts": 0, "read": 0, "consumed": 0}
    pulled = {"episodes": 0, "contexts": 0}  # lines, headers included
    real_contexts = harness_module.read_context_rows
    real_read, real_update = harness_module.read_episode_csv, harness_module.update

    class CountedFile:
        def __init__(self, path, **kwargs):
            self.name = os.path.basename(path).split("_")[0]
            self.file = open(path, **kwargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            self.file.close()

        def __iter__(self):
            return self

        def __next__(self):
            line = next(self.file)
            pulled[self.name] += 1
            return line

    def counted_contexts(*args):
        for row in real_contexts(*args):
            counts["contexts"] += 1
            assert counts["contexts"] - counts["consumed"] <= 16
            yield row

    def counted_read(*args):
        for trial, episodes in real_read(*args):
            counts["read"] += len(episodes)
            assert counts["read"] - counts["consumed"] <= 16
            yield trial, episodes

    def counted_update(agent, episodes):
        assert len(episodes) <= 16
        assert pulled["episodes"] - 1 - counts["consumed"] * H <= 16 * H + H
        counts["consumed"] += len(episodes)
        assert pulled["contexts"] - 1 - counts["consumed"] <= 5
        return real_update(agent, episodes)

    monkeypatch.setattr(environment_module, "open", CountedFile, raising=False)
    monkeypatch.setattr(harness_module, "read_context_rows", counted_contexts)
    monkeypatch.setattr(harness_module, "read_episode_csv", counted_read)
    monkeypatch.setattr(harness_module, "update", counted_update)
    snap = replay_estimation(small_dir / "episodes_trial0.csv")
    T = small_result.config.T
    assert counts == {"contexts": T, "read": T, "consumed": T}
    assert pulled == {"episodes": 1 + T * H, "contexts": 1 + T}
    assert snap == small_result.trials[0].agent_snapshot


# --- the learner's runs of updates ------------------------------------------------


def _recording_trial(monkeypatch, cfg):
    """Run trial 0 of `cfg`, recording every learner decision as (customer,
    the agent's next customer, bids by state id) and the length of every
    update."""
    import bidlab.harness as harness_module

    decisions, runs = [], []
    real_act, real_update = harness_module.act, harness_module.update

    def recording_act(agent, x, t):
        bids = real_act(agent, x, t)
        decisions.append((t, agent.t, bids))
        return bids

    def recording_update(agent, episodes):
        runs.append(len(episodes))
        return real_update(agent, episodes)

    monkeypatch.setattr(harness_module, "act", recording_act)
    monkeypatch.setattr(harness_module, "update", recording_update)
    return run_trial(cfg, 0), decisions, runs


def test_exploration_is_consumed_in_chunks_ending_at_the_window(monkeypatch):
    # segments of 7: each segment's exploration customers are one run, the
    # last ending at the window's edge; then each exploit block of one is a
    # run, and the drafted blocks, consumed by their check, cover the rest
    import bidlab.harness as harness_module

    monkeypatch.setattr(harness_module, "SEGMENT", 7)
    cfg = small_config(T=60, trials=1, n_underbar=10, checkpoints=(60,),
                       policies=("learner",))
    checks = _spy_checks(monkeypatch)
    result, decisions, runs = _recording_trial(monkeypatch, cfg)
    window = exploration_window(10, cfg.H)
    kept = sum(kept for _, _, kept in checks)
    assert kept > 0
    assert runs == [7] * 5 + [window - 35] + [1] * (cfg.T - window - kept)
    assert len(decisions) == window + cfg.T - window - kept
    for t, agent_t, bids in decisions:
        if t <= window:
            assert bids == forced_bids(exploration_plan(t, 10, cfg.H))
        else:
            assert agent_t == t
    assert any(agent_t < t for t, agent_t, _ in decisions)  # updates deferred
    assert result.agent_snapshot["t"] == cfg.T + 1


def test_a_trial_shorter_than_the_window_consumes_every_customer(monkeypatch):
    # segments of 64: one run per segment, the last one short
    import bidlab.harness as harness_module

    monkeypatch.setattr(harness_module, "SEGMENT", 64)
    cfg = small_config(T=300, trials=1, n_underbar=100, checkpoints=(300,),
                       policies=("learner",))
    result, decisions, runs = _recording_trial(monkeypatch, cfg)
    assert runs == [64] * (300 // 64) + [300 % 64]
    assert [bids for _, _, bids in decisions] == [
        forced_bids(exploration_plan(t, 100, cfg.H)) for t in range(1, 301)
    ]
    assert result.agent_snapshot["t"] == 301


def test_the_exploration_window_plays_as_run_episode_plays_each_customer(monkeypatch,
                                                                        tmp_path):
    # segments of 7, the window's edge (customer 20) inside the third: the
    # window's logged episodes are per-customer run_episode play, bit for bit
    import bidlab.harness as harness_module

    monkeypatch.setattr(harness_module, "SEGMENT", 7)
    cfg = small_config(T=30, trials=1, n_underbar=5, checkpoints=(30,),
                       policies=("learner",))
    window = exploration_window(cfg.n_underbar, cfg.H)
    assert window % 7 != 0
    rng = RandomSource(cfg.seed).scoped(0)
    m, a = generate_instance(cfg.instance, cfg.bounds, rng)
    want = []
    for t in range(1, window + 1):
        x = sample_context(cfg.instance, cfg.bounds, rng.stream(t, "ctx"))
        bids = forced_bids(exploration_plan(t, cfg.n_underbar, cfg.H))
        want.append(run_episode(bids, x, m, a, rng, t=t, noise_label="learner",
                                hobs=draw_hobs(x, a, rng, t)))
    want = concat(want)
    run_trial(cfg, 0, tmp_path)
    got = trial_log(tmp_path, cfg)[:window]
    for name in (*Episodes.__slots__, "payment", "realized_reward"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype and g.tolist() == w.tolist(), name


def _one_at_a_time_trial(monkeypatch, cfg, out_dir):
    """Trial 0 of `cfg` with every exploit customer played alone: the
    reference that drafted blocks must equal bit for bit."""
    import bidlab.harness as harness_module

    with monkeypatch.context() as patch:
        patch.setattr(harness_module._TrialPlay, "learn", learn_one_at_a_time)
        return run_trial(cfg, 0, out_dir)


@pytest.mark.parametrize("width_scale", [0.0, 0.01])
@pytest.mark.parametrize("mode", ["outcome", "dp"])
@pytest.mark.parametrize("H", [1, 2, 3, 5])
def test_drafted_blocks_equal_one_at_a_time_play(monkeypatch, tmp_path, H, mode,
                                                 width_scale):
    # segments of 7 with the window's edge inside one; drafts as they are,
    # then missing at a block's last customer, and then also at the first
    # customer of the next drafted block, so two drafted blocks in a row
    # miss and the second keeps none: every curve and estimate is the
    # one-at-a-time loop's, bit for bit, and so are the written logs
    import bidlab.harness as harness_module

    monkeypatch.setattr(harness_module, "SEGMENT", 7)
    cfg = config_from_dict({"T": 90, "trials": 1, "H": H, "seed": 11 + H, "n_underbar": 5,
                            "mode": mode, "width_scale": width_scale, "checkpoints": [90],
                            "policies": ["learner", "random"], "emit_logs": True})
    window = exploration_window(cfg.n_underbar, H)
    assert window % 7 != 0
    (tmp_path / "want").mkdir()
    want = _one_at_a_time_trial(monkeypatch, cfg, tmp_path / "want")
    logs = ("episodes_trial0.csv", "contexts_trial0.csv")

    def spied_trial(miss=()):
        out = tmp_path / f"miss{len(miss)}"
        out.mkdir()
        with monkeypatch.context() as patch:
            checks = _spy_checks(patch, miss)
            got = run_trial(cfg, 0, out)
        for name in logs:
            assert (out / name).read_bytes() == (tmp_path / "want" / name).read_bytes(), name
        return got, checks

    got, checks = spied_trial()
    first, length, _ = next(c for c in checks if c[1] == c[2] >= 3)
    last = first + length - 1
    once, once_checks = spied_trial((last,))
    assert (first, length, length - 1) in once_checks
    after = next(f for f, _, _ in once_checks if f > last)
    twice, twice_checks = spied_trial((last, after))
    assert (first, length, length - 1) in twice_checks
    assert [kept for f, _, kept in twice_checks if f == after] == [0]
    for got in (got, once, twice):
        assert got.agent_snapshot == want.agent_snapshot
        for name in cfg.policies:
            assert got.realized[name].tolist() == want.realized[name].tolist()
            assert got.expected[name].tolist() == want.expected[name].tolist()


@pytest.mark.parametrize("mode, failure", [
    pytest.param("outcome", "log HOB", id="log HOB"),
    pytest.param("outcome", "conversion rate", id="conversion rate"),
    pytest.param("dp", "log HOB", id="dp-log HOB"),
    pytest.param("dp", "value of winning", id="dp-value of winning"),
])
def test_a_failure_inside_a_drafted_block_is_the_one_at_a_time_failure(
    monkeypatch, tmp_path, mode, failure
):
    # segments of 16: customer 40 is inside the drafted block 33-48 of the
    # third.  A HOB of inf fails its update, a context that turns every
    # conversion rate negative fails its play (in outcome mode: in dp mode
    # the auction oracle rejects the context before any play), and in dp
    # mode a HOB mean of
    # NaN in the learner's view of customer 40 alone (keyed by its last
    # round's log-sd, which no other customer sees) fails its plan, in the
    # block's check and in any draft made on its estimates.  Each raises
    # what the one-at-a-time loop raises at customer 40, never the batch
    # planner's message, and the trial's logs, the first segment's
    # written, are deleted
    import bidlab.agent as agent_module
    import bidlab.harness as harness_module

    monkeypatch.setattr(harness_module, "SEGMENT", 16)
    cfg = small_config(T=60, trials=1, n_underbar=5, checkpoints=(60,),
                       policies=("learner",), mode=mode)
    j = 40
    if failure == "value of winning":
        sigmas, real_params = {}, agent_module.optimistic_params

        def recording(agent, x):
            params = real_params(agent, x)
            sigmas[agent.t] = params.sigma[-1]
            return params

        with monkeypatch.context() as patch:
            patch.setattr(agent_module, "optimistic_params", recording)
            _one_at_a_time_trial(monkeypatch, cfg, None)
        assert sigmas[j] not in {sd for t, sd in sigmas.items() if t != j}
        real_mean = agent_module.lognormal_mean
        monkeypatch.setattr(agent_module, "lognormal_mean", lambda log_mean, sd: (
            math.nan if sd == sigmas[j] else real_mean(log_mean, sd)))
        message = f"trial 0, customer {j}: round "
    elif failure == "log HOB":
        real_draw = harness_module.draw_hobs

        def draw(means, rng, start):
            hobs = real_draw(means, rng, start)
            if start < j <= start + len(hobs):
                hobs[j - start - 1, 1] = math.inf
            return hobs

        monkeypatch.setattr(harness_module, "draw_hobs", draw)
        message = f"trial 0, customer {j}, round 2: log HOB must be finite, got the HOB inf"
    else:
        rng = RandomSource(cfg.seed).scoped(0)
        m, a = generate_instance(cfg.instance, cfg.bounds, rng)
        bad = (replace(m, theta=np.tile([9.0, -0.1], (cfg.H + 1, 1))), a)
        real_context = harness_module.sample_context
        x_j = real_context(cfg.instance, cfg.bounds, rng.stream(j, "ctx"))

        def context(recipe, bounds, rng):
            x = real_context(recipe, bounds, rng)
            return np.array([0.01, 4.9]) if np.array_equal(x, x_j) else x

        monkeypatch.setattr(harness_module, "generate_instance", lambda *args: bad)
        monkeypatch.setattr(harness_module, "sample_context", context)
        monkeypatch.setattr(harness_module, "ORACLE_GAP_SAMPLE", 0)
        message = f"trial 0, customer {j}: negative conversion rate "
    blocks, real_play = [], harness_module._play_bids

    def play(bids, x, hobs, means, rng, name, start):
        blocks.append((start + 1, len(x), name))
        return real_play(bids, x, hobs, means, rng, name, start)

    monkeypatch.setattr(harness_module, "_play_bids", play)
    with pytest.raises(RuntimeError) as want:
        _one_at_a_time_trial(monkeypatch, cfg, tmp_path)
    assert str(want.value).startswith(message)
    assert list(tmp_path.iterdir()) == []
    written, real_write = [], harness_module.write_episode_csv

    def write(path, blocks, append=False):
        written.append(path)
        return real_write(path, blocks, append)

    monkeypatch.setattr(harness_module, "write_episode_csv", write)
    blocks.clear()
    with pytest.raises(RuntimeError) as got:
        run_trial(cfg, 0, tmp_path)
    assert str(got.value) == str(want.value)
    assert "of the batch" not in str(got.value)
    assert (33, 16, "learner") in blocks and len(written) == 2
    assert list(tmp_path.iterdir()) == []


def _learner_config(**overrides):
    return small_config(T=40, trials=1, n_underbar=5, checkpoints=(40,),
                        policies=("learner",), **overrides)


def test_a_nonfinite_log_hob_in_a_run_names_trial_customer_and_round(monkeypatch):
    # customers 1-20 (the window) are consumed in one run
    import bidlab.harness as harness_module

    real = harness_module.draw_hobs

    def draw(means, rng, start):
        hobs = real(means, rng, start)
        if start < 7 <= start + len(hobs):
            hobs[7 - start - 1, 2 - 1] = math.inf
        return hobs

    monkeypatch.setattr(harness_module, "draw_hobs", draw)
    with pytest.raises(RuntimeError) as err:
        _recording_trial(monkeypatch, _learner_config())
    assert str(err.value) == (
        "trial 0, customer 7, round 2: log HOB must be finite, got the HOB inf"
    )


def test_a_misrouted_w_round_in_a_run_names_trial_and_customer(monkeypatch):
    import bidlab.agent as agent_module

    real = agent_module.split_episode

    def misfile(episodes):
        # customer 9 wins round 1; file it under natural demand
        bucket = real(episodes)
        bucket[episodes.t == 9, 0] = 0
        return bucket

    monkeypatch.setattr(agent_module, "split_episode", misfile)
    with pytest.raises(RuntimeError) as err:
        _recording_trial(monkeypatch, _learner_config())
    assert str(err.value) == (
        "trial 0, customer 9, round 1 is not a clean sample of theta row 0"
    )


def test_underfed_delays_in_a_run_name_trial_and_customer(monkeypatch):
    # all-lose episodes never feed a delay estimator; the run that ends at
    # the window (customer 20) trips the check
    import bidlab.harness as harness_module

    never = forced_bids((False,) * 3)
    monkeypatch.setattr(harness_module, "act", lambda agent, x, t: never)
    with pytest.raises(RuntimeError) as err:
        run_trial(_learner_config(), 0)
    assert str(err.value) == (
        "trial 0, customer 20: exploration underfed the lag-1 delay "
        "estimator: 0 < 5"
    )


# --- command line ---------------------------------------------------------------


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps(config_to_dict(small_config(trials=1))))
    out = root / "out"
    code = main(
        [
            "run",
            "--config", str(cfg_path),
            "--trials", "2",
            "--seed", "5",
            "--out", str(out),
            "--emit-logs",
        ]
    )
    assert code == 0
    return root, cfg_path, out


def test_cli_run_writes_outputs(cli_run):
    _, _, out = cli_run
    for name in ("curves.csv", "summary.txt", "config.json",
                 "instance_trial0.snapshot", "episodes_trial1.csv"):
        assert (out / name).exists()


def test_cli_run_matches_library_run(cli_run, small_result, tmp_path):
    _, _, out = cli_run
    write_outputs(small_result, tmp_path)
    assert (out / "curves.csv").read_bytes() == (tmp_path / "curves.csv").read_bytes()
    assert (out / "summary.txt").read_bytes() == (tmp_path / "summary.txt").read_bytes()


def test_cli_run_is_byte_identical_across_repeats(cli_run, tmp_path):
    root, cfg_path, out = cli_run
    out2 = tmp_path / "again"
    code = main(
        [
            "run",
            "--config", str(cfg_path),
            "--trials", "2",
            "--seed", "5",
            "--out", str(out2),
            "--emit-logs",
        ]
    )
    assert code == 0
    assert (out / "curves.csv").read_bytes() == (out2 / "curves.csv").read_bytes()
    assert (out / "summary.txt").read_bytes() == (out2 / "summary.txt").read_bytes()


def test_cli_fit_reports_orders(cli_run, capsys):
    _, _, out = cli_run
    code = main(
        ["fit", "--curve", str(out / "curves.csv"), "--checkpoints", "100,250,400"]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    got = {tuple(line.split()[:2]): line.split()[2] for line in lines}
    assert ("learner", "realized") in got
    assert ("passive", "expected") in got


def test_cli_fit_matches_summary_order(cli_run, capsys, small_result):
    _, _, out = cli_run
    main(["fit", "--curve", str(out / "curves.csv"), "--checkpoints", "100,250,400"])
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines:
        name, label, text = line.split()
        if label != "realized" or text == "undefined":
            continue
        want = small_result.summaries[name].mean_curve_order
        assert float(text) == pytest.approx(want, abs=5e-5)


def test_cli_oracle_prints_values(cli_run, capsys):
    _, _, out = cli_run
    code = main(
        [
            "oracle",
            "--config", str(out / "config.json"),
            "--contexts", str(out / "contexts_trial0.csv"),
        ]
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "trial,t,value,plan"
    assert len(lines) == 1 + 400
    trial, t, value, plan = lines[1].split(",")
    assert (trial, t) == ("0", "1")
    assert float(value) > 0
    assert set(plan) <= {"0", "1"} and len(plan) == 3


def test_cli_oracle_matches_direct_enumeration(cli_run, capsys):
    _, _, out = cli_run
    cfg = load_config(out / "config.json")
    main(
        [
            "oracle",
            "--config", str(out / "config.json"),
            "--contexts", str(out / "contexts_trial0.csv"),
        ]
    )
    line = capsys.readouterr().out.strip().splitlines()[1]
    _, _, value, plan_text = line.split(",")
    rng = RandomSource(cfg.seed).scoped(0)
    m, a = generate_instance(cfg.instance, cfg.bounds, rng)
    contexts = read_context_csv(out / "contexts_trial0.csv", cfg.dim)
    params = params_from_true(contexts[(0, 1)], m, a)
    plan, value_want = best_outcome_plan(params)
    assert float(value) == value_want
    assert plan_text == "".join("1" if w else "0" for w in plan)


def test_cli_estimate_reproduces_live_snapshot(cli_run, tmp_path):
    _, _, out = cli_run
    target = tmp_path / "replayed.snapshot"
    code = main(["estimate", "--log", str(out / "episodes_trial0.csv"),
                 "--out", str(target)])
    assert code == 0
    assert target.read_bytes() == (out / "agent_trial0.snapshot").read_bytes()


def test_cli_oracle_rejects_dp_configs(cli_run, tmp_path, capsys):
    # the grid planner is a dp config's oracle; outcome plans would mislead
    _, _, out = cli_run
    raw = json.loads((out / "config.json").read_text())
    (tmp_path / "dp.json").write_text(json.dumps({**raw, "mode": "dp"}))
    code = main(["oracle", "--config", str(tmp_path / "dp.json"),
                 "--contexts", str(out / "contexts_trial0.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error:" in captured.err and "'dp'" in captured.err


def test_cli_oracle_rejects_contexts_of_another_dimension(cli_run, tmp_path, capsys):
    # a 3-column context file under a dim-2 config fails on its first row,
    # before the CSV header is printed
    _, _, out = cli_run
    (tmp_path / "contexts.csv").write_text("trial,t,x0,x1,x2\n0,1,0.5,1.0,1.5\n")
    code = main(["oracle", "--config", str(out / "config.json"),
                 "--contexts", str(tmp_path / "contexts.csv")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: line 2: expected 2 x-columns")


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    code = main(["fit", "--curve", str(tmp_path / "missing.csv"),
                 "--checkpoints", "1,2"])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_cli_fit_rejects_a_malformed_curve_file_naming_the_line(cli_run, tmp_path, capsys):
    # a missing column, a short row and a non-finite regret at a checkpoint
    # end in "error: ..." with exit 1, not in a traceback or a fit of nan
    _, _, out = cli_run
    lines = (out / "curves.csv").read_text().splitlines(keepends=True)
    missing = "".join(",".join(ln.rstrip("\n").split(",")[:-1]) + "\n" for ln in lines)
    short = lines[0] + lines[1] + "0,2,learner,1.0\n" + "".join(lines[2:])
    k = next(k for k, ln in enumerate(lines) if ln.startswith("0,250,learner,"))

    def with_cells(realized, expected):
        changed = lines[:k] + [f"0,250,learner,{realized},{expected}\n"] + lines[k + 1:]
        return "".join(changed)

    cases = [
        (missing, "line 1: expected header trial,t,policy,cum_regret,cum_regret_expected"),
        (short, "line 3: expected 5 fields, got 4"),
    ]
    for realized, expected in (("nan", "1.0"), ("1.0", "inf"), ("-inf", "nan")):
        cases.append((with_cells(realized, expected), f"line {k + 1}: regrets must "
                      f"be finite, got ['{realized}', '{expected}']"))
    for text, message in cases:
        path = tmp_path / "curves.csv"
        path.write_text(text)
        code = main(["fit", "--curve", str(path), "--checkpoints", "100,250,400"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"
