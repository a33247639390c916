"""Check that two trees compute the same results on this machine.

Run from the repository root::

    python3 tools/same_results.py BASE_TREE

The head tree is the checkout holding this script. For each tree,
``tools/fingerprints.py`` (the head's copy, so both trees are read the
same way) prints every workload's fingerprint for seeds 5 and 9, once with
``OPENBLAS_NUM_THREADS=1`` and once with the variable unset, since
digit-shape bits depend on the BLAS thread count. The four runs go one
after another.

Exits 0 when the trees print the same lines at both thread settings, and 1
naming the first workload, seed and thread setting that differ, or the run
that failed.
"""

from __future__ import annotations

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
FINGERPRINTS = os.path.join(HERE, "fingerprints.py")
THREADS = ("1", None)


def fingerprints(tree: str, threads: str | None) -> dict[tuple[str, str], str]:
    """``(workload, seed) -> crc32`` printed for ``tree``; a failed run raises."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    run = subprocess.run(
        [sys.executable, FINGERPRINTS, tree], env=env, capture_output=True, text=True
    )
    if run.returncode != 0:
        raise RuntimeError(f"fingerprints of {tree} exited {run.returncode}:\n{run.stderr}")
    lines = [line.split() for line in run.stdout.splitlines()]
    return {(name, seed): crc for name, seed, crc in lines}


def setting(threads: str | None) -> str:
    return "OPENBLAS_NUM_THREADS unset" if threads is None else f"OPENBLAS_NUM_THREADS={threads}"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(f"usage: {sys.argv[0]} BASE_TREE", file=sys.stderr)
        return 2
    base, head = argv[0], os.path.dirname(HERE)
    for threads in THREADS:
        try:
            want, got = fingerprints(base, threads), fingerprints(head, threads)
        except RuntimeError as exc:
            print(f"error at {setting(threads)}: {exc}", file=sys.stderr)
            return 1
        for key in [*want, *(k for k in got if k not in want)]:
            if want.get(key) != got.get(key):
                name, seed = key
                print(
                    f"results differ: {name} seed {seed} at {setting(threads)}: "
                    f"base {want.get(key, 'missing')}, head {got.get(key, 'missing')}",
                    file=sys.stderr,
                )
                return 1
        print(f"same results at {setting(threads)}: {len(want)} fingerprints", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
