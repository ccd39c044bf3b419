"""One set-up of a benchmark workload, timed in a fresh interpreter.

    python3 perfbench/setup_probe.py '<config json>' [<output dir>]

Times the imports of the package, config resolution, instance generation
for every trial and the bid grid; with an output directory it also runs
the config once and writes its outputs there (the inputs of the log_replay
workload).  Prints {"setup_s": ...} on its last line.  The package must be
importable, e.g. through PYTHONPATH=src.
"""

import time

_START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def main(argv: list[str]) -> int:
    import bidlab.cli  # noqa: F401  (the command-line import chain)
    from bidlab.environment import RandomSource, generate_instance
    from bidlab.harness import config_from_dict, run_experiment
    from bidlab.planning import default_bid_grid

    config = config_from_dict(json.loads(argv[0]))
    for trial in range(config.trials):
        rng = RandomSource(config.seed).scoped(trial)
        generate_instance(config.instance, config.bounds, rng)
    default_bid_grid(config.bounds, config.bid_grid_points)
    if len(argv) > 1:
        run_experiment(config, out_dir=argv[1])
    print(json.dumps({"setup_s": time.perf_counter() - _START}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
