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
        "agent_trial0.snapshot": "e517d8f7d0588a15132f0787dd7f0a80374c988661e1b5e5e05cbd7597264623",
        "agent_trial1.snapshot": "6a3b988d01a6525cb8310cbf5bce23f99df3fac5e836317760d78a321ef2612c",
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
        "agent_trial0.snapshot": "43d172bbb845fb41f57897adf81b81058a40b7c1f1e9e52aeda054c6ff3a7726",
        "config.json": "6d8237db8cf0124ff2b8fa88c060d9102f328a7c9f9a32c3c7df2d177a275cbd",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "4ea2939a9381bdb810ee7520a4b49eaca0d1226e81bf62e7adab357498befb2d",
        "episodes_trial0.csv": "b8e2d632dff45d8e0407e0dad80c82f966428756fd11f829008a3daa8b83c40a",
        "instance_trial0.snapshot": "9a9168623aac46924b13eaad734c3aef098ca8e93d7e64f876029ca1fc7517a6",
        "summary.txt": "00ee2b2a3419e08f60b194417aa34bda81da4fc18f5e9520f6fbd0e46eab9292",
    },
    "outcome_h5_dim3": {
        "agent_trial0.snapshot": "881e1e4744e73c83c9f197613510d9983952b2784afc5463ca6a3be3a8587ff1",
        "agent_trial1.snapshot": "9adafca156b8628de9f7d2f7df3e6304334f89cccc003ff5695e452b81c39c15",
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
        "agent_trial0.snapshot": "57649f2031cae13bb364974a4b8af479d3a1053febf5c58bd9617d95581ccb1a",
        "config.json": "a60aff6bdb62b89d87287af53be0752e8a30378e5bddc17734877ea0f314ea5d",
        "contexts_trial0.csv": "b26ec3ce7c3700e79f2b11250c2959f60858627dc2b491ec10eceb4efa06a8bd",
        "curves.csv": "535f4b87ae01fb4e7c2ad2c81d1d88382d415ac1d0ede6e2c2f66d0c024dd79a",
        "episodes_trial0.csv": "0ad604f63390c6ec7375d6a9ecc0ff539f342a679ea3dc2f4d97b99b2f12e80e",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "e94791e686ee50c7bac57640045d1f8300bafa9d504b8defbc42cbd19c67fea3",
    },
    "outcome_seed_2pow40": {
        "agent_trial0.snapshot": "4a06d7fca0035952c0e0557bc4262dca6f60be85208a6754842785aaddbf87c2",
        "agent_trial1.snapshot": "310c666c90b213045fb1411eeba6600bbf23579715764f6230615dc7b91de4cb",
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
        "agent_trial0.snapshot": "2f9f07fda81ce154750c6de19cdd2c8d6185de963d42ad1d967a14829ab601b6",
        "agent_trial1.snapshot": "81e1b952d8ec16053a5bee37d26ea6083d6f4db3c8fb39ce8b4ddab315eecf17",
        "agent_trial2.snapshot": "b15a1adb8594c179a0315fba125680e7e2784600aff3445f27be547b77f0a478",
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
        "agent_trial0.snapshot": "09d519cecf39bece9364ece9bffedd298641d9052483aa03da2799d56d1d397a",
        "agent_trial1.snapshot": "5fbb7199ba26c30b7ece025b2d6b3dd80ecf0a4063699dcdba29312fd20aba27",
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
        "agent_trial0.snapshot": "952cae640ca76b0726301eb87488df090537de3c46f1d6fa83516434734ebf66",
        "config.json": "c199ad305ce4843481e42d24d71fde949b92c267c5cc493858ec12a4bff73f61",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "a3387f664de037ed7be9dcdc93f62618376a2e842858669a6af197e852a3fb8b",
        "episodes_trial0.csv": "7b76144d5de51b918024952f6d6fedbb8966d431b784cc0924d346697f47c251",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "8a03c497871d9050811d8ee7f2ae520563cd9536882d78197abb669156515e73",
    },
    "dp_h4_grid8": {
        "agent_trial0.snapshot": "1f1b6a4267db442578c247e4cc03ec114ad5b6915f8576cc4eaf9a5c3f77b73b",
        "config.json": "740235ff607360a07c9fc37c6e7fa633ca666a71cdf579d42a353929e91b8633",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "6e215e758c3e0c19a58d6a79773f87793510288549645aedaf93a2ceeb07ee62",
        "episodes_trial0.csv": "ae202feaa90ca8112fb2730cd1c11b802f80353a8f40cef612c8fb5bc0aa5290",
        "instance_trial0.snapshot": "45542f1f4ec3fe51b7051c34ac7fa37d6aa4334fc3a9b2f5f2d37e9d6bf6cc40",
        "summary.txt": "c40bfb5e5cd730bf4347b6b3e5843faa306619b8a860127f066953e1ccbdea5e",
    },
    "dp_t1": {
        "agent_trial0.snapshot": "d4f3652f563410b949771db85ce2fa198e76f1495422f6e807ad2dd9362bde68",
        "config.json": "2ac785d114cb0d2dddbbc3f3b04a52359b91b5960fbc1ea70b41c68d364e5834",
        "contexts_trial0.csv": "432570627a2c69b92413e94eda991687a92711b82fb501f8596cad5c009e3baf",
        "curves.csv": "c4825a490004c78d6f88b77e4fb1313ee00d6e0dbaa020f4bd33cdcd2fb7012e",
        "episodes_trial0.csv": "61a06433aaa379567c6ba4141ec0bf13d71e82c9bd36623e51fbf8b360591fcb",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "368b043e339cd345d3d9d55333c5d3c5c6826d904bb770b08465c0c5734b89ba",
    },
    "dp_h5_dim3": {
        "agent_trial0.snapshot": "683d982a0a5444528601d73128cf91bed527ed5d086d2cb69f48db2c5d0b98f1",
        "agent_trial1.snapshot": "df2e7cec288fc10db6929b7394cd14307e9af6c661e7a99e588804630b17470d",
        "config.json": "8b852703a9aa8a453656255b761300fc516a0c165a9429fa2ed9c8a50166ea24",
        "contexts_trial0.csv": "9b0bdadc71053f9ead62493eea62a8b507a57a0995d5537163b99ab518581baa",
        "contexts_trial1.csv": "ca30957a4a28ddad0589fa8384ed4faed9db852a8d4e99db3f0361391c81ee5b",
        "curves.csv": "3c5a789976870be1a8e8ced56d71011c2f2f761ab975ddfa646bbc5c8fbe6681",
        "episodes_trial0.csv": "42c944c82b2d4e7e2a96772a41a2d8c3a401e5028ece1258b947c1900282648d",
        "episodes_trial1.csv": "7dc5917fd6c560b01f1c6bfcaf9bc084670583ef295460e46441ef9174758b28",
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
