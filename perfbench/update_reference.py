"""Merge the reply digests that benchmark runs wrote under
.perfbench_out/outputs into perfbench/reference/<workload>.json.

    python3 perfbench/update_reference.py

Run it only at a commit whose outputs are the reference, after running the
benchmark on the seeds to cover.  A key whose recorded digest differs from
a new one is reported and left unchanged.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUTPUTS = HERE.parent / ".perfbench_out" / "outputs"


def main() -> int:
    merged: dict[str, dict[str, str]] = {}
    for path in sorted(OUTPUTS.glob("*.json")):
        workload = path.name.rsplit("-seed", 1)[0]
        merged.setdefault(workload, {}).update(json.loads(path.read_text(encoding="utf-8")))
    conflicts = 0
    for workload, digests in sorted(merged.items()):
        ref_path = HERE / "reference" / f"{workload}.json"
        ref = json.loads(ref_path.read_text(encoding="utf-8")) if ref_path.is_file() else {}
        for key, value in digests.items():
            if ref.setdefault(key, value) != value:
                conflicts += 1
                print(f"{workload}: {key} recorded {ref[key]}, new {value}", file=sys.stderr)
        ref_path.parent.mkdir(exist_ok=True)
        ref_path.write_text(json.dumps(ref, indent=0, sort_keys=True) + "\n", encoding="utf-8")
        print(f"{workload}: {len(ref)} recorded outputs")
    return 1 if conflicts else 0


if __name__ == "__main__":
    sys.exit(main())
