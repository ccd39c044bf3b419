"""Golden digests: byte-exact outputs of small runs in both planner modes,
including outcome runs at H=1 (the smallest parameter arrays), at H=5 in
dimension 3 (up to 11 states per round), at T=2 (the smallest batch of
customers), at a root seed of two 32-bit words (2**40 + 3) and with the
fixed baselines only (no learner), with a truncation level and an effect
bound small enough that the online Newton step truncates and projects, and
dp runs at H=4 on an 8-point bid grid, at T=1 (one context, padded
for the stacked product) and at H=5 in dimension 3 (37 customers, 13 of
them planned by the learner on the grid).

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
        "episodes_trial0.csv": "9c9310a8f713510e28aa43c4a04a35565829e34a9fa05ec73fd40827f1b0fbf7",
        "episodes_trial1.csv": "9a6f1017d0636360e19b8bd57919ab0050a37aa33f4c2d402a43af1f23b0df0c",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "instance_trial1.snapshot": "492ff1f1f9b7230a30def54c6a175c1bdff17b544417dae704ee15d3e607d906",
        "summary.txt": "c58d4649e5e9ef8ce4d02ea00fa378a41d9b1e132a0a27524465aaa98997841d",
    },
    "outcome_h1": {
        "agent_trial0.snapshot": "43d172bbb845fb41f57897adf81b81058a40b7c1f1e9e52aeda054c6ff3a7726",
        "config.json": "6d8237db8cf0124ff2b8fa88c060d9102f328a7c9f9a32c3c7df2d177a275cbd",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "4ea2939a9381bdb810ee7520a4b49eaca0d1226e81bf62e7adab357498befb2d",
        "episodes_trial0.csv": "ba415341c638e070bf8d1ebf6a973211079d4814adb557917787cfe929f65701",
        "instance_trial0.snapshot": "9a9168623aac46924b13eaad734c3aef098ca8e93d7e64f876029ca1fc7517a6",
        "summary.txt": "67a83e696c02b68322618a8b8d257b3415e72b552a970897ff6a9907a7dab861",
    },
    "outcome_h5_dim3": {
        "agent_trial0.snapshot": "881e1e4744e73c83c9f197613510d9983952b2784afc5463ca6a3be3a8587ff1",
        "agent_trial1.snapshot": "9adafca156b8628de9f7d2f7df3e6304334f89cccc003ff5695e452b81c39c15",
        "config.json": "29dac33b97696ba6b4cfd82c19c1388bc9e3485ebe1d4a802184af556ae9ba4e",
        "contexts_trial0.csv": "e28a84c6513ddbaa2b931615c50c846caa9383aacd7d8ec9d20bd0853efce146",
        "contexts_trial1.csv": "43f53a44e256cca1789a50b655331bbe51262b2389bf7008df7d12e18b3006a8",
        "curves.csv": "e1e215073cd34bf6c368fbe2e77e445c9615967370f8468172c098edcaf92475",
        "episodes_trial0.csv": "cb981b632bc36c079dbe731c9c16686b69e5cc5ed5c97b983cdc09583e88115f",
        "episodes_trial1.csv": "1570e1cb6d560791ec5a4cb4e60fa3a54764e083a1527d372ba7a40a18456819",
        "instance_trial0.snapshot": "650f7f66c7d851ca5ec90172bf1b9b1e9f2b41b089b5612ede1eff4f02c9f4db",
        "instance_trial1.snapshot": "5b794fb31dd9d60fd3f107b1c1bb54bd29ef891f1544094027b5e3947d8d152c",
        "summary.txt": "7ba089b2932118af59a60bf2cd18291cd0943960283490a2e071e2cdc2aea205",
    },
    "outcome_t2": {
        "agent_trial0.snapshot": "57649f2031cae13bb364974a4b8af479d3a1053febf5c58bd9617d95581ccb1a",
        "config.json": "a60aff6bdb62b89d87287af53be0752e8a30378e5bddc17734877ea0f314ea5d",
        "contexts_trial0.csv": "b26ec3ce7c3700e79f2b11250c2959f60858627dc2b491ec10eceb4efa06a8bd",
        "curves.csv": "535f4b87ae01fb4e7c2ad2c81d1d88382d415ac1d0ede6e2c2f66d0c024dd79a",
        "episodes_trial0.csv": "8dd48d7044fc0e05645dc46fbe0aa033da39b45f4e04c784edd3cf4364b86ddc",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "bc072331b36c3b725bddd472f2bcb943b434d3ebb7a2b395f7e0d7e83c670b71",
    },
    "outcome_seed_2pow40": {
        "agent_trial0.snapshot": "4a06d7fca0035952c0e0557bc4262dca6f60be85208a6754842785aaddbf87c2",
        "agent_trial1.snapshot": "310c666c90b213045fb1411eeba6600bbf23579715764f6230615dc7b91de4cb",
        "config.json": "10732d3bfa847faaeb9af6cdf425fc162c1eaf96068a2afb33e396ffd7c13276",
        "contexts_trial0.csv": "fd663105bb6af9f7e2ad56880f283d1bee5c7a01793bfbd8453ff8b537f09d37",
        "contexts_trial1.csv": "7da3b07b9bf4b65bf56a2f47ee7bcbe14474d0e874e75e067fdb1ca1995fec65",
        "curves.csv": "c6b8c51cef7264ff2a679f6148d64c4d1fd151af7ef8f72c2e98b034dea56354",
        "episodes_trial0.csv": "5589e4583bef0d03b993574082f49adcf0885a0c3a55a7e68cb588c074ae5285",
        "episodes_trial1.csv": "271e8d192081590201cee757f8274afba8de27da256723781801e0e786474697",
        "instance_trial0.snapshot": "431b87ae465afb97bedbfefb40586149a74e869144bf3ece4c0a363c01643990",
        "instance_trial1.snapshot": "58661539c4149af9824510b17a5f6cd5c124811a66c1a1b0f34b626a89b5c654",
        "summary.txt": "04fd27f4b93eca2f28945653b5c03f0a8360dbc9fa8ad0010a7d6b4b33253f2f",
    },
    "outcome_baselines_only": {
        "config.json": "992a35d5a017c70f78a06900ddc91982c820700f0d51ef487b60f78816e7e707",
        "curves.csv": "2f7d0efeeca178e7a66bc667817e9a34bd988f602aa18eaaced85e824a937830",
        "instance_trial0.snapshot": "45542f1f4ec3fe51b7051c34ac7fa37d6aa4334fc3a9b2f5f2d37e9d6bf6cc40",
        "instance_trial1.snapshot": "f3a841b1e759b5c57f0745910e3db1b9889fd4cf1d1ea183ca8e3b193f583512",
        "summary.txt": "1d220f504e8f0e05acf342f64f1f547f1895a24c7b4aa82b0d7d995edd8df87b",
    },
    "outcome_trunc_proj": {
        "agent_trial0.snapshot": "09d519cecf39bece9364ece9bffedd298641d9052483aa03da2799d56d1d397a",
        "agent_trial1.snapshot": "5fbb7199ba26c30b7ece025b2d6b3dd80ecf0a4063699dcdba29312fd20aba27",
        "config.json": "2f36be5ee726474de758ae69063c7e801a0e6bf27de1176a18c6377611b36ede",
        "contexts_trial0.csv": "6e23815af94284c346407673deedfa3ec859a695eab6a4df7a42c90a9836a271",
        "contexts_trial1.csv": "f4f98ee60c846e28f62c511574a163527ec44f156bb19cbb3d7cdee87b430168",
        "curves.csv": "2c99fda538c8a35a044a13ecc70901789c42e6e07ab9c8c8db7b629268d8f187",
        "episodes_trial0.csv": "fe6e6140f552284534efe480021a08ee97eaaf9ec760501ea9aef2ce40dedd6d",
        "episodes_trial1.csv": "c1b4e1e057b630dc73a053a910020680432a0961ccaaa23baf9e815b49aaa9ed",
        "instance_trial0.snapshot": "8cdf333097e95ed20b158cac8a1358b7258ced8afbcea646705fd9d8cf2b66bc",
        "instance_trial1.snapshot": "7ef72c6932e8ea89db706d019674966c4e54ca3f7a30aeb823fe28bf6a9004ab",
        "summary.txt": "3a101b6061110757c293f8d6ed14ddf910c259418b79d1e77225b864a9df4994",
    },
    "dp": {
        "agent_trial0.snapshot": "952cae640ca76b0726301eb87488df090537de3c46f1d6fa83516434734ebf66",
        "config.json": "c199ad305ce4843481e42d24d71fde949b92c267c5cc493858ec12a4bff73f61",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "d8dc7a881b9f105d5d18d1a1f483924adcd70335bd97875504b96427aa6b2c1c",
        "episodes_trial0.csv": "4c50ee8dd5a73c2c9ea29cbe878dfce4221120f64b8bb67f3cd3762979963a28",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "b8c2c83be0f923a42fbd274628053f5d76a9387adfa48e880918e500669e7bbb",
    },
    "dp_h4_grid8": {
        "agent_trial0.snapshot": "5cc13c44cfce29fbfb377dda38bd4dc076a53223f03750205b8e5e474316e844",
        "config.json": "740235ff607360a07c9fc37c6e7fa633ca666a71cdf579d42a353929e91b8633",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "9eb05e323fbeafb9dc03ee45751db2cb6ce3c9db70a5421bc67ca25a0cad8b72",
        "episodes_trial0.csv": "e68fe50e434282d89f779d01ae7b2a0d38ab8dfa76bd4c328a6f471fc812d05f",
        "instance_trial0.snapshot": "45542f1f4ec3fe51b7051c34ac7fa37d6aa4334fc3a9b2f5f2d37e9d6bf6cc40",
        "summary.txt": "609c949c3111a0911d0a81455c3e95a5c25a37b84dfd2fcdd83a0d2c05b2030a",
    },
    "dp_t1": {
        "agent_trial0.snapshot": "d4f3652f563410b949771db85ce2fa198e76f1495422f6e807ad2dd9362bde68",
        "config.json": "2ac785d114cb0d2dddbbc3f3b04a52359b91b5960fbc1ea70b41c68d364e5834",
        "contexts_trial0.csv": "432570627a2c69b92413e94eda991687a92711b82fb501f8596cad5c009e3baf",
        "curves.csv": "51648678a183591fcd0f4fe3a1aa8d7747a5e8da914790a8605146f7246e994f",
        "episodes_trial0.csv": "46a6aaa5ea5c0e5905ef259d074cfc01c8113af93742f70c9238ab06bd010e9e",
        "instance_trial0.snapshot": "5224ffb2ca1412074c36969583d75dbf6a178543ea7dfe1c55aab1a1f9c55b4e",
        "summary.txt": "3b6c5f5a88ecbe5b9b2af5916dab286b2cb52c780f3ea70fbfd9b53c9864d4b8",
    },
    "dp_h5_dim3": {
        "agent_trial0.snapshot": "683d982a0a5444528601d73128cf91bed527ed5d086d2cb69f48db2c5d0b98f1",
        "agent_trial1.snapshot": "df2e7cec288fc10db6929b7394cd14307e9af6c661e7a99e588804630b17470d",
        "config.json": "8b852703a9aa8a453656255b761300fc516a0c165a9429fa2ed9c8a50166ea24",
        "contexts_trial0.csv": "9b0bdadc71053f9ead62493eea62a8b507a57a0995d5537163b99ab518581baa",
        "contexts_trial1.csv": "ca30957a4a28ddad0589fa8384ed4faed9db852a8d4e99db3f0361391c81ee5b",
        "curves.csv": "cbde046a7cd323e6fcfd54f310186755a99d2b2209aee8447cd071114f699d33",
        "episodes_trial0.csv": "d2ed3a7f5854eb4e765e1f8c374648ce3080c777e496e5a4b50065eb4ec5e842",
        "episodes_trial1.csv": "90a67369cec3d80e5087dc367556252ba945518c2a9075ecf67051c8515630ce",
        "instance_trial0.snapshot": "650f7f66c7d851ca5ec90172bf1b9b1e9f2b41b089b5612ede1eff4f02c9f4db",
        "instance_trial1.snapshot": "5b794fb31dd9d60fd3f107b1c1bb54bd29ef891f1544094027b5e3947d8d152c",
        "summary.txt": "7d0d11eefc5cd368cda5f7ea9d07ec187848552064c73f21839f483eeeb863cb",
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


if __name__ == "__main__":
    import tempfile

    for name in sorted(CONFIGS):
        with tempfile.TemporaryDirectory() as tmp:
            print(name, output_digests(name, Path(tmp)))
