"""Apply each catalogued mutant to a copy of the checkout and run the tests
that must kill it.

    python3 scripts/mutants.py

The catalogue, ``scripts/mutants.json``, lists mutants.  Each mutant is a
name, a file, an exact old text that occurs once in that file, the new text
that replaces it, and the pytest node ids that must fail.  For each mutant
the checkout (without ``.git``, bytecode and benchmark results) is copied
into a temporary directory, the mutant is applied there, and only its tests
run there; the checkout itself is never written.  A mutant is killed when
every one of its tests fails (a node id without parameters stands for all of
its parameters).  One line per mutant gives killed or survived and the
seconds its tests took; the exit status is 1 when any mutant survived.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CATALOGUE = ROOT / "scripts" / "mutants.json"
SKIP = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", "results")


def load() -> list[dict]:
    return json.loads(CATALOGUE.read_text(encoding="utf-8"))


def apply(mutant: dict, tree: Path) -> None:
    """Replace the mutant's old text in its file under tree; the old text
    must occur exactly once."""
    path = tree / mutant["file"]
    text = path.read_text(encoding="utf-8")
    if text.count(mutant["old"]) != 1:
        raise SystemExit(f"{mutant['name']}: the old text does not occur exactly once in {mutant['file']}")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def failed_ids(output: str) -> set[str]:
    """The node ids that pytest's short summary (-rfE) reports as failed or
    in error."""
    return {m.group(1) for m in re.finditer(r"^(?:FAILED|ERROR) (\S.*?)(?: - .*)?$", output, re.M)}


def killed(tests: list[str], failed: set[str]) -> bool:
    return all(any(f == t or f.startswith(t + "[") for f in failed) for t in tests)


def run(mutant: dict, scratch: Path) -> tuple[bool, float]:
    tree = scratch / mutant["name"]
    shutil.copytree(ROOT, tree, ignore=SKIP)
    apply(mutant, tree)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider", *mutant["tests"]],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    elapsed = time.perf_counter() - start
    shutil.rmtree(tree)
    return killed(mutant["tests"], failed_ids(proc.stdout)), elapsed


def main() -> int:
    mutants = load()
    survived = 0
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="mutants-") as scratch:
        for mutant in mutants:
            ok, elapsed = run(mutant, Path(scratch))
            survived += not ok
            print(f"{'killed' if ok else 'SURVIVED':8} {elapsed:6.1f} s  {mutant['name']}", flush=True)
    print(f"{len(mutants) - survived} of {len(mutants)} killed in {time.perf_counter() - start:.1f} s")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
