import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.load(), ids=lambda m: m["name"])
def test_each_mutant_old_text_occurs_exactly_once(mutant):
    # a change that rewrites mutated code updates the catalogue with it
    assert (ROOT / mutant["file"]).read_text(encoding="utf-8").count(mutant["old"]) == 1
    assert mutant["new"] != mutant["old"] and mutant["tests"]
