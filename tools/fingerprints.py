"""Print every benchmark workload's output fingerprint for seeds 5 and 9.

Run from the repository root::

    python3 tools/fingerprints.py [TREE]

``TREE`` is the root of the checkout whose ``src/`` and ``perfbench/`` are
run; it defaults to the checkout holding this script. Each line is
``workload seed crc32``: one ``run_once`` of the workload in
``perfbench/workloads.py`` after its set-up, and ``zlib.crc32`` of the
``repr`` of that repetition's fingerprint, which holds every output that
must repeat exactly on one seed. Two trees compute the same results on one
machine when they print the same lines there (``tools/same_results.py``
compares them). Digit-shape bits depend on the BLAS thread count, so
compare runs at the same ``OPENBLAS_NUM_THREADS``.

Exits 1, naming the check on stderr, if a repetition fails one of the
workload's output checks.
"""

from __future__ import annotations

import importlib
import os
import sys
import tempfile
import zlib

SEEDS = (5, 9)


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(f"usage: {sys.argv[0]} [TREE]", file=sys.stderr)
        return 2
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    root = os.path.abspath(argv[0]) if argv else here
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    workloads = importlib.import_module("workloads")
    failed = 0
    for seed in SEEDS:
        for name, workload in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory() as workdir:
                rep = workload.run_once(workload.setup(seed, workdir))
            for check, ok in rep.checks.items():
                if not ok:
                    print(f"{name} seed {seed}: check failed: {check}", file=sys.stderr)
                    failed += 1
            print(f"{name} {seed} {zlib.crc32(repr(rep.fingerprint).encode())}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
