"""Record golden.json: the sha256 and exit code of every CLI report the
geometry and charts workloads produce, for every presentation variant.

    python3 perfbench/record_golden.py

Reports are byte-deterministic, so a digest pins a report exactly.  Run
this only on a commit whose reports are known to be right; a crash is
never recorded as golden.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main() -> int:
    golden = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for workload in ("geometry", "charts"):
            for variant in range(workloads.VARIANTS):
                for op in workloads.cli_ops(workload, variant, tmp, {}):
                    code = op.call()  # a crash stops the recording
                    with open(os.path.join(tmp, "report.json"), "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    if golden.setdefault(op.key, {"exit": code, "sha256": digest}) != {"exit": code, "sha256": digest}:
                        raise SystemExit(f"{op.key} is not deterministic")
                    print(op.key, code, digest[:12], flush=True)
    with open(workloads.GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
