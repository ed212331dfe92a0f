"""sha256 digests of the records a change must keep byte-identical.

    python3 scripts/record_digests.py

Prints one line per record set, each the sha256 of the set's seed-0 records
in order, one JSON line each, as the CLI writes them.  The sets are the
benchmark's workloads, read from ``perfbench/workloads.py``:

- ``sweep``: the north-star sweep ``sweep --mult 2:16 --count 3:4
  --max-gen 28 --require-m-pure``, as ``aperylef`` prints it;
- ``analyze``: ``analyze --method both`` on the three named instances;
- ``dual_mix``: ``from-dual`` on the 332 seeded forms of ``dual_mix``.

aperylef is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aperylef import cli  # noqa: E402

SEED = 0


def _load_workloads():
    spec = importlib.util.spec_from_file_location("_workloads", ROOT / "perfbench" / "workloads.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sweep_output(workloads) -> str:
    mults = workloads.SWEEP_MULTIPLICITIES
    argv = ["--seed", str(SEED), "sweep", "--mult", f"{mults[0]}:{mults[-1]}"] + workloads.SWEEP_ARGS
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"aperylef {' '.join(argv)} exited {code}")
    return out.getvalue()


def digests() -> dict[str, str]:
    workloads = _load_workloads()
    texts = {
        "sweep": _sweep_output(workloads),
        "analyze": "".join(
            json.dumps(cli.analyze_record(gens, method="both", seed_root=SEED)) + "\n"
            for gens in workloads.INSTANCES.values()
        ),
        "dual_mix": "".join(
            json.dumps(cli.from_dual_record(item["poly"], seed_root=SEED)) + "\n"
            for item in workloads.dual_mix_inputs(SEED)
        ),
    }
    return {name: hashlib.sha256(text.encode()).hexdigest() for name, text in texts.items()}


if __name__ == "__main__":
    for name, digest in digests().items():
        print(f"{name} {digest}")
