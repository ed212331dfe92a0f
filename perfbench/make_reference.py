"""Write perfbench/reference.json: witness-stripped digests of every record.

    python3 perfbench/make_reference.py

Runs one pass of each workload at seed 0 and stores each record's stripped
digest.  The stripped records of the semigroup workloads do not depend on
the seed, so they are stored under "*" and checked at every seed; dual_mix
inputs follow the seed, so its digests are stored under "0" only.  Rerun it
only when a change to the records is intended and written down.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from run import REFERENCE, import_program
from checks import stripped_digest
from workloads import WORKLOADS

SEED = 0


def main() -> int:
    _, cli = import_program()
    reference = {}
    with tempfile.TemporaryDirectory(dir=Path(__file__).resolve().parent) as scratch:
        for name, workload in WORKLOADS.items():
            records = workload.run_pass(
                cli, workload.inputs(SEED), SEED, Path(scratch), between=lambda: None
            ).records()
            if any(error for _, _, error in records):
                print(f"{name}: a record raised, no reference written", file=sys.stderr)
                return 1
            digests = {key: stripped_digest(json.loads(text)) for key, text, _ in records}
            reference[name] = {"0" if workload.kind == "dual" else "*": digests}
            print(f"{name}: {len(digests)} records")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
