"""Golden digests: byte-exact outputs of small runs in both planner modes,
including outcome runs at H=1 (the smallest parameter arrays), at H=5 in
dimension 3 (up to 11 states per round), at T=2 (the smallest batch of
customers), at a root seed of two 32-bit words (2**40 + 3) and with the
fixed baselines only (no learner), with a truncation level and an effect
bound small enough that the online Newton step truncates and projects, and
with three trials on a pool of two workers (whose processes write the
episode and context logs), and dp runs at H=4 (whose `bid_grid_points`
of 8 no planner reads), at T=1 (one context, padded for the stacked
product) and at H=5 in dimension 3 (37 customers, 13 of them planned by
the learner).

Every config reaches the same digests when its trials play in segments of
1, 7 or 64 customers instead of `harness.SEGMENT`.

Any change to the simulator, the planners, the estimators or the writers
that moves a single bit of `curves.csv`, `summary.txt`, `config.json`, the
emitted episode and context logs, the instance snapshots or the learner
snapshots fails here.  A deliberate bit
change updates the digests below and says in CHANGES.md which bits moved
and why.  To print the current digests, run this file as a script:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from bidlab.harness import config_from_dict, run_experiment

CONFIGS = {
    "outcome": {"T": 600, "trials": 2, "n_underbar": 50, "emit_logs": True},
    "outcome_h1": {"T": 60, "trials": 1, "H": 1, "n_underbar": 5, "emit_logs": True},
    "outcome_h5_dim3": {
        "T": 200,
        "trials": 2,
        "H": 5,
        "dim": 3,
        "n_underbar": 10,
        "emit_logs": True,
    },
    "outcome_t2": {"T": 2, "trials": 1, "n_underbar": 1, "emit_logs": True},
    "outcome_seed_2pow40": {
        "T": 40,
        "trials": 2,
        "seed": 2**40 + 3,
        "n_underbar": 2,
        "emit_logs": True,
    },
    "outcome_baselines_only": {
        "T": 50,
        "trials": 2,
        "H": 4,
        "policies": ["aggressive", "random", "passive"],
        "emit_logs": True,
    },
    "outcome_workers2": {
        "T": 200,
        "trials": 3,
        "workers": 2,
        "n_underbar": 20,
        "emit_logs": True,
    },
    "outcome_trunc_proj": {
        "T": 200,
        "trials": 2,
        "n_underbar": 12,
        "Gamma_trunc": 2.0,
        "bounds": {"B_theta": 2.0},
        "emit_logs": True,
    },
    "dp": {"T": 60, "trials": 1, "mode": "dp", "n_underbar": 10, "emit_logs": True},
    "dp_h4_grid8": {
        "T": 60,
        "trials": 1,
        "mode": "dp",
        "H": 4,
        "bid_grid_points": 8,
        "n_underbar": 8,
        "emit_logs": True,
    },
    "dp_t1": {"T": 1, "trials": 1, "mode": "dp", "n_underbar": 1, "emit_logs": True},
    "dp_h5_dim3": {
        "T": 37,
        "trials": 2,
        "mode": "dp",
        "H": 5,
        "dim": 3,
        "n_underbar": 4,
        "emit_logs": True,
    },
}

GOLDEN = {
    "outcome": {
        "agent_trial0.snapshot": "c145b00930784e3202d8809580aa83431d9e725ca541e8b09246b546d462f14f",
        "agent_trial1.snapshot": "0800a780ebec94852c608b764442d22e22430aaea948617ed68e555026b3fdd2",
        "config.json": "5b40e14bb9e3189650415a1c856c956ac93f4d3f7c740c9bbb216dc3f41545a4",
        "contexts_trial0.csv": "9c7263b04e2ff9b3e92af470f1f48eb050122a9ddb5fa880e9e5ebae13406a3e",
        "contexts_trial1.csv": "058ec76871de266f393d2832b0914903efd618be1eb08e31b7913d288c6b5262",
        "curves.csv": "fc6137c83941ef6a8569300a07ee90cefb846de9f4b14742ee1bb4f8d3beea04",
        "episodes_trial0.csv": "8c62a3faf966c2f909d42a9730401f3d1e8e626b00bd4912e6ac5219e70fe767",
        "episodes_trial1.csv": "9a9d0c952433d63597f106d7292988bcc4a3d4a39dc18478eceff7ce2e159240",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "instance_trial1.snapshot": "492ff1f1f9b7230a30def54c6a175c1bdff17b544417dae704ee15d3e607d906",
        "summary.txt": "c84e97ca5f86a510a0ef6089d480ba1f03214a5d6322d6fb66d0cb5180ed46a1",
    },
    "outcome_h1": {
        "agent_trial0.snapshot": "789c8fd1194b83b7bfa6d4ce24ce1dbba6e70275c4389db07ce9ffb9f6a5de83",
        "config.json": "6d8237db8cf0124ff2b8fa88c060d9102f328a7c9f9a32c3c7df2d177a275cbd",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "4ea2939a9381bdb810ee7520a4b49eaca0d1226e81bf62e7adab357498befb2d",
        "episodes_trial0.csv": "b8e2d632dff45d8e0407e0dad80c82f966428756fd11f829008a3daa8b83c40a",
        "instance_trial0.snapshot": "9a9168623aac46924b13eaad734c3aef098ca8e93d7e64f876029ca1fc7517a6",
        "summary.txt": "00ee2b2a3419e08f60b194417aa34bda81da4fc18f5e9520f6fbd0e46eab9292",
    },
    "outcome_h5_dim3": {
        "agent_trial0.snapshot": "6e0c290e039a5bcd6469c4776a25777c86530bb574dfe36007daa8b3a51a2eae",
        "agent_trial1.snapshot": "815ca24c4e50efc2b2e4c3c4f5c01c21d0aec428a81436bba00b079a1ca0808e",
        "config.json": "29dac33b97696ba6b4cfd82c19c1388bc9e3485ebe1d4a802184af556ae9ba4e",
        "contexts_trial0.csv": "e28a84c6513ddbaa2b931615c50c846caa9383aacd7d8ec9d20bd0853efce146",
        "contexts_trial1.csv": "43f53a44e256cca1789a50b655331bbe51262b2389bf7008df7d12e18b3006a8",
        "curves.csv": "e1e215073cd34bf6c368fbe2e77e445c9615967370f8468172c098edcaf92475",
        "episodes_trial0.csv": "70f147838e5fd904f76dfd880331543e0e3621b64cbbd1641a97181bb91c57e0",
        "episodes_trial1.csv": "6f527537c48c90501108338982fc5870b855335d62144561828931f73041da70",
        "instance_trial0.snapshot": "650f7f66c7d851ca5ec90172bf1b9b1e9f2b41b089b5612ede1eff4f02c9f4db",
        "instance_trial1.snapshot": "5b794fb31dd9d60fd3f107b1c1bb54bd29ef891f1544094027b5e3947d8d152c",
        "summary.txt": "7147cca0fe4eff0ff56fe330d361b0a3238a979e399c0b9dc507a834c06eaf17",
    },
    "outcome_t2": {
        "agent_trial0.snapshot": "8f18361c3323f292d945d7fb6af595c0ccf28f0a73ba7248c160944007ce26b7",
        "config.json": "a60aff6bdb62b89d87287af53be0752e8a30378e5bddc17734877ea0f314ea5d",
        "contexts_trial0.csv": "b26ec3ce7c3700e79f2b11250c2959f60858627dc2b491ec10eceb4efa06a8bd",
        "curves.csv": "535f4b87ae01fb4e7c2ad2c81d1d88382d415ac1d0ede6e2c2f66d0c024dd79a",
        "episodes_trial0.csv": "0ad604f63390c6ec7375d6a9ecc0ff539f342a679ea3dc2f4d97b99b2f12e80e",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "e94791e686ee50c7bac57640045d1f8300bafa9d504b8defbc42cbd19c67fea3",
    },
    "outcome_seed_2pow40": {
        "agent_trial0.snapshot": "30a88829a1dbaae7d8523d7055c3bc4b7360bc77fdfcc59d6e214fdf77008978",
        "agent_trial1.snapshot": "e607dea52c07dfae370201bfbb816796bb8c8034a04102a77b6ad9ba4bf2d7f4",
        "config.json": "10732d3bfa847faaeb9af6cdf425fc162c1eaf96068a2afb33e396ffd7c13276",
        "contexts_trial0.csv": "fd663105bb6af9f7e2ad56880f283d1bee5c7a01793bfbd8453ff8b537f09d37",
        "contexts_trial1.csv": "7da3b07b9bf4b65bf56a2f47ee7bcbe14474d0e874e75e067fdb1ca1995fec65",
        "curves.csv": "c6b8c51cef7264ff2a679f6148d64c4d1fd151af7ef8f72c2e98b034dea56354",
        "episodes_trial0.csv": "a6e9831b4bd0b9bc3104b42c622e2eff150d5b7f7b8de8a13501a940e7b36690",
        "episodes_trial1.csv": "6b54e783cc4106f1956c1960fb48733ec07ad574c9d1094f14e1b054c37a44fb",
        "instance_trial0.snapshot": "431b87ae465afb97bedbfefb40586149a74e869144bf3ece4c0a363c01643990",
        "instance_trial1.snapshot": "58661539c4149af9824510b17a5f6cd5c124811a66c1a1b0f34b626a89b5c654",
        "summary.txt": "e5458a2979e4138e56d5c05084ceb1a63c4ff1fee5ea2643c26902de04eed677",
    },
    "outcome_baselines_only": {
        "config.json": "992a35d5a017c70f78a06900ddc91982c820700f0d51ef487b60f78816e7e707",
        "curves.csv": "2f7d0efeeca178e7a66bc667817e9a34bd988f602aa18eaaced85e824a937830",
        "instance_trial0.snapshot": "45542f1f4ec3fe51b7051c34ac7fa37d6aa4334fc3a9b2f5f2d37e9d6bf6cc40",
        "instance_trial1.snapshot": "f3a841b1e759b5c57f0745910e3db1b9889fd4cf1d1ea183ca8e3b193f583512",
        "summary.txt": "bb343ef5c562fc52b83024f2607b8a2efdd2328b1e5bb4110cd6c8017c7e7f95",
    },
    "outcome_workers2": {
        "agent_trial0.snapshot": "6190a4b3916d85ba0b92852f5239b6f3f67fd11fa4a6a8e5eaa2df185536485c",
        "agent_trial1.snapshot": "d2789d4d2bae874cdcb0afa08b27296b42cdb7a6de3ef1387aa5a3ce1e2dd52b",
        "agent_trial2.snapshot": "8bd8dd4097bbf2a9f56811f32b06be8d016bacacfe80dfccbdcdea8d21a5ac26",
        "config.json": "63fde41b16ce2af8d7be74ad3392bed1f9ec960705c46f2ce768917e6c420981",
        "contexts_trial0.csv": "6e23815af94284c346407673deedfa3ec859a695eab6a4df7a42c90a9836a271",
        "contexts_trial1.csv": "f4f98ee60c846e28f62c511574a163527ec44f156bb19cbb3d7cdee87b430168",
        "contexts_trial2.csv": "2b0c010b8d0bdde4a7430b593d45f8b4e01da5e4b68caed5171f463cc4087663",
        "curves.csv": "f92a306de2efc69fbab0a863cacaaf22dc885ec917f36d657f9ee2bba6c60d6d",
        "episodes_trial0.csv": "ff3c2711d7b9bb6612c07b34ac3e7a402a2e0accff22ab2063f91f9fea25bc36",
        "episodes_trial1.csv": "1872a578d55fd00cccf7a58b5d29603129060fe1f637bf91f18f419d171cf4f6",
        "episodes_trial2.csv": "0d593205b6037daef2fa995a32295617b6a4b15476e6f1b9178fac779512dcd7",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "instance_trial1.snapshot": "492ff1f1f9b7230a30def54c6a175c1bdff17b544417dae704ee15d3e607d906",
        "instance_trial2.snapshot": "87d185c7968a290d180819905be53067a2a0947e787e9c3b76319416bb8d1dab",
        "summary.txt": "d840f411ddd41b87f5e67827d3d8ec2f9eb2cc72395779a7661c75d2be0b9aeb",
    },
    "outcome_trunc_proj": {
        "agent_trial0.snapshot": "a7c8563101183eadfd5ed61fa5d48537d6f51246ab9843991081895e44e5efe4",
        "agent_trial1.snapshot": "f2c72e13bee4b3b06394e654ea8e012b1e3691362310657e8219b409004b48d2",
        "config.json": "2f36be5ee726474de758ae69063c7e801a0e6bf27de1176a18c6377611b36ede",
        "contexts_trial0.csv": "6e23815af94284c346407673deedfa3ec859a695eab6a4df7a42c90a9836a271",
        "contexts_trial1.csv": "f4f98ee60c846e28f62c511574a163527ec44f156bb19cbb3d7cdee87b430168",
        "curves.csv": "2c99fda538c8a35a044a13ecc70901789c42e6e07ab9c8c8db7b629268d8f187",
        "episodes_trial0.csv": "8f58313c91599e81e80a95ade2cb36a74118ce63f5b90282a307aac8a6534793",
        "episodes_trial1.csv": "f3f37c9f7d26f5b15ee8b5bb6057efd7674fc7f3977d0ecb305fc014f75bbd17",
        "instance_trial0.snapshot": "8cdf333097e95ed20b158cac8a1358b7258ced8afbcea646705fd9d8cf2b66bc",
        "instance_trial1.snapshot": "7ef72c6932e8ea89db706d019674966c4e54ca3f7a30aeb823fe28bf6a9004ab",
        "summary.txt": "8176b28182b4336bcb0c3ee8655df07a5180f86a2e05e9bf0f2b86a2bb635dd3",
    },
    "dp": {
        "agent_trial0.snapshot": "614a3154823cc6ccf215f5922fe62046ceb37cc59b9b4fa8989df02f6d85e497",
        "config.json": "c199ad305ce4843481e42d24d71fde949b92c267c5cc493858ec12a4bff73f61",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "a3387f664de037ed7be9dcdc93f62618376a2e842858669a6af197e852a3fb8b",
        "episodes_trial0.csv": "f3a45b550bf37502151549aefc7fdcc0c541ef4c49c208193d785c70aa93d1f6",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "8a03c497871d9050811d8ee7f2ae520563cd9536882d78197abb669156515e73",
    },
    "dp_h4_grid8": {
        "agent_trial0.snapshot": "520d77ebaa28f067b2c5ebdada13eff13f2f9417c821de4d07c5ecf537c0357f",
        "config.json": "740235ff607360a07c9fc37c6e7fa633ca666a71cdf579d42a353929e91b8633",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "6e215e758c3e0c19a58d6a79773f87793510288549645aedaf93a2ceeb07ee62",
        "episodes_trial0.csv": "8de10441d3d250f9702bfa085bfdc719166bbd706b20dbbab6b9749889e6b199",
        "instance_trial0.snapshot": "45542f1f4ec3fe51b7051c34ac7fa37d6aa4334fc3a9b2f5f2d37e9d6bf6cc40",
        "summary.txt": "c40bfb5e5cd730bf4347b6b3e5843faa306619b8a860127f066953e1ccbdea5e",
    },
    "dp_t1": {
        "agent_trial0.snapshot": "096391232f4b6965b123ab2342d3f05b6b9845181c4f5a5d0845ec3cb32d00cf",
        "config.json": "2ac785d114cb0d2dddbbc3f3b04a52359b91b5960fbc1ea70b41c68d364e5834",
        "contexts_trial0.csv": "432570627a2c69b92413e94eda991687a92711b82fb501f8596cad5c009e3baf",
        "curves.csv": "c4825a490004c78d6f88b77e4fb1313ee00d6e0dbaa020f4bd33cdcd2fb7012e",
        "episodes_trial0.csv": "61a06433aaa379567c6ba4141ec0bf13d71e82c9bd36623e51fbf8b360591fcb",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "368b043e339cd345d3d9d55333c5d3c5c6826d904bb770b08465c0c5734b89ba",
    },
    "dp_h5_dim3": {
        "agent_trial0.snapshot": "1258cca62bad1dd0bf8561bf63ef46b672b539f2209020e06c3d3fc84495db72",
        "agent_trial1.snapshot": "9b60e0f59e6cd1122dcdf676e5ecabfc9d81c3cfa35840a5b69eb5cd68c4e2c1",
        "config.json": "8b852703a9aa8a453656255b761300fc516a0c165a9429fa2ed9c8a50166ea24",
        "contexts_trial0.csv": "9b0bdadc71053f9ead62493eea62a8b507a57a0995d5537163b99ab518581baa",
        "contexts_trial1.csv": "ca30957a4a28ddad0589fa8384ed4faed9db852a8d4e99db3f0361391c81ee5b",
        "curves.csv": "3495cc1ce9b58da1242bf9d3822cd6d6cb778edace8aae2dc0f2915f5e316b7e",
        "episodes_trial0.csv": "6179448bef3ad997a9cdb3adc0b62743fb09440ccdbe0d26e0535977dae7d4a8",
        "episodes_trial1.csv": "70e57344a8f842535e7dbd922f1ce610a9f73920a0768b5d227785ff6d0d8b72",
        "instance_trial0.snapshot": "650f7f66c7d851ca5ec90172bf1b9b1e9f2b41b089b5612ede1eff4f02c9f4db",
        "instance_trial1.snapshot": "5b794fb31dd9d60fd3f107b1c1bb54bd29ef891f1544094027b5e3947d8d152c",
        "summary.txt": "6e2438349e435f90880cdce50613ee4f963c5f6262626d673b8dd61dd8bd05d1",
    },
}

_DIGESTED = ("curves.csv", "summary.txt", "config.json")
_DIGESTED_PREFIXES = (
    "episodes_trial", "contexts_trial", "agent_trial", "instance_trial",
)


def output_digests(name: str, out_dir: Path) -> dict[str, str]:
    run_experiment(config_from_dict(CONFIGS[name]), out_dir)
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
        if path.name in _DIGESTED or path.name.startswith(_DIGESTED_PREFIXES)
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests(name, tmp_path):
    assert output_digests(name, tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("segment", [1, 7, 64])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_digests_at_any_segment_size(name, segment, tmp_path, monkeypatch):
    # a trial plays its customers in segments: the learner's update chunks,
    # the oracle-gap sample and the dp learner's switch to exact bids span
    # them, and the pool's workers (forked) play theirs alike
    import bidlab.harness as harness_module

    monkeypatch.setattr(harness_module, "SEGMENT", segment)
    assert output_digests(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            print(name, output_digests(name, Path(tmp)))
