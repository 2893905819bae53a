"""Record the library's outputs on every workload as reference.json.

Run from the repository root on the commit whose outputs are the
reference: ``python3 perfbench/record_reference.py``.  The scans are
recorded at seed 8020; the other workloads ignore the seed.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 8020


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import WORKLOADS, library, snapshot, workdir_root

    lab = library()
    reference = {}
    for name, workload in WORKLOADS.items():
        workdir = tempfile.mkdtemp(prefix="ref-", dir=workdir_root(ROOT))
        try:
            inputs = workload.setup(lab, SEED, workdir)
            reference[name] = snapshot(name, workload.run(lab, inputs), SEED)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"recorded {name}", file=sys.stderr)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
