"""Golden digests: byte-exact outputs of small runs in both planner modes,
including a dp run at H=4 on an 8-point bid grid.

Any change to the simulator, the planners, the estimators or the writers
that moves a single bit of `curves.csv`, `summary.txt`, the emitted episode
and context logs or the learner snapshots fails here.  A deliberate bit
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
}

GOLDEN = {
    "outcome": {
        "agent_trial0.snapshot": "e517d8f7d0588a15132f0787dd7f0a80374c988661e1b5e5e05cbd7597264623",
        "agent_trial1.snapshot": "6a3b988d01a6525cb8310cbf5bce23f99df3fac5e836317760d78a321ef2612c",
        "contexts_trial0.csv": "9c7263b04e2ff9b3e92af470f1f48eb050122a9ddb5fa880e9e5ebae13406a3e",
        "contexts_trial1.csv": "058ec76871de266f393d2832b0914903efd618be1eb08e31b7913d288c6b5262",
        "curves.csv": "fc6137c83941ef6a8569300a07ee90cefb846de9f4b14742ee1bb4f8d3beea04",
        "episodes_trial0.csv": "9c9310a8f713510e28aa43c4a04a35565829e34a9fa05ec73fd40827f1b0fbf7",
        "episodes_trial1.csv": "9a6f1017d0636360e19b8bd57919ab0050a37aa33f4c2d402a43af1f23b0df0c",
        "summary.txt": "c58d4649e5e9ef8ce4d02ea00fa378a41d9b1e132a0a27524465aaa98997841d",
    },
    "dp": {
        "agent_trial0.snapshot": "952cae640ca76b0726301eb87488df090537de3c46f1d6fa83516434734ebf66",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "d8dc7a881b9f105d5d18d1a1f483924adcd70335bd97875504b96427aa6b2c1c",
        "episodes_trial0.csv": "4c50ee8dd5a73c2c9ea29cbe878dfce4221120f64b8bb67f3cd3762979963a28",
        "summary.txt": "b8c2c83be0f923a42fbd274628053f5d76a9387adfa48e880918e500669e7bbb",
    },
    "dp_h4_grid8": {
        "agent_trial0.snapshot": "5cc13c44cfce29fbfb377dda38bd4dc076a53223f03750205b8e5e474316e844",
        "contexts_trial0.csv": "4b0f48e0df687f770b0fa425f980917c7cdbbd4b0193b051edd4ccab18b2bb7c",
        "curves.csv": "9eb05e323fbeafb9dc03ee45751db2cb6ce3c9db70a5421bc67ca25a0cad8b72",
        "episodes_trial0.csv": "e68fe50e434282d89f779d01ae7b2a0d38ab8dfa76bd4c328a6f471fc812d05f",
        "summary.txt": "609c949c3111a0911d0a81455c3e95a5c25a37b84dfd2fcdd83a0d2c05b2030a",
    },
}

_DIGESTED = ("curves.csv", "summary.txt")
_DIGESTED_PREFIXES = ("episodes_trial", "contexts_trial", "agent_trial")


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
