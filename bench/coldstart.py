"""One cold set-up of a workload, timed from outside by run.py.

    python3 bench/coldstart.py <workload> <seed> <scratch dir>

Starts from a fresh interpreter, imports the package, generates the
workload's inputs from the seed in a temporary directory under the scratch
directory and runs the first operation once.  Exits non-zero if any of that
raises; the parent process verifies the same operation itself.  The BLAS
thread setting comes from the parent's environment.
"""

import sys
import tempfile

import workloads


def main() -> int:
    name, seed, scratch = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    with tempfile.TemporaryDirectory(dir=scratch, prefix="cold-") as workdir:
        workloads.build(name, seed, workdir).run(0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
