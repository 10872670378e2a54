"""One set-up launch of the benchmark: a fresh interpreter imports
spirallab.cli and writes the workload's input specs, then exits at once, so
the parent's wall time for this process is the time until the first verdict
could start.

    python3 verdictbench/setup_probe.py WORKLOAD SEED WORKDIR
"""

import json
import os
import sys


def main(name, seed, workdir):
    import spirallab.cli  # noqa: F401  the import being timed

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads

    for fname, spec in workloads.build(name, seed, workdir).specs.items():
        with open(os.path.join(workdir, fname), "w") as fh:
            json.dump(spec, fh)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    sys.stdout.flush()
    os._exit(0)  # skip interpreter teardown, which a verdict never waits for
