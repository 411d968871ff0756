"""Pin the reference digest of every workload invocation into reference.json.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/pin.py

Each invocation runs once at CLI defaults and, when it is a verify, once more
with `--workers 1`; both digests must agree, or nothing is written. The
benchmark counts any later mismatch as a failed invocation.
"""

from __future__ import annotations

import json
import os
import platform
import sys

from run import spawn
from workloads import REFERENCE_PATH, WORKLOADS, digest


def main() -> int:
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    from somborlab._kernels import BACKEND

    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    digests = {}
    for workload in WORKLOADS.values():
        for inv in workload.invocations:
            variants = [inv.argv] + ([inv.argv + ("--workers", "1")] if inv.expect_pass else [])
            seen = set()
            for argv in variants:
                res = spawn(argv, root, env)
                if res.returncode != 0:
                    print(f"error: `{' '.join(argv)}` exited {res.returncode}", file=sys.stderr)
                    return 1
                seen.add(digest(res.stdout))
            if len(seen) != 1:
                print(f"error: `{inv.key}` output depends on the worker count", file=sys.stderr)
                return 1
            digests[inv.key] = seen.pop()
            print(f"{digests[inv.key]}  {inv.key}")
    record = {"context": {"backend": BACKEND, "python": platform.python_version()},
              "digests": digests}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
