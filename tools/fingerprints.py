"""Print every benchmark workload's output fingerprint for seeds 5 and 9.

Run from the repository root::

    python3 tools/fingerprints.py

Each line is ``workload seed crc32``: one ``run_once`` of the workload in
``perfbench/workloads.py`` after its set-up, and ``zlib.crc32`` of the
``repr`` of that repetition's fingerprint, which holds every output that
must repeat exactly on one seed. Two trees compute the same results on one
machine when they print the same lines there. Digit-shape bits depend on
the BLAS thread count, so compare runs at the same ``OPENBLAS_NUM_THREADS``.

Exits 1, naming the check on stderr, if a repetition fails one of the
workload's output checks.
"""

from __future__ import annotations

import os
import sys
import tempfile
import zlib

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import workloads  # noqa: E402 - needs the paths above

SEEDS = (5, 9)


def main() -> int:
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
    sys.exit(main())
