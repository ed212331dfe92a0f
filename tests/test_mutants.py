import ast
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


@pytest.mark.parametrize("mutant", mutants.load(), ids=lambda m: m["name"])
def test_each_mutant_test_names_a_test_function_of_its_file(mutant):
    # pytest reports a node id it cannot find on stderr, where the script
    # does not look, so a renamed test would read as a survived mutant
    for node_id in mutant["tests"]:
        path, _, name = node_id.partition("::")
        tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
        defined = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name.partition("[")[0] in defined, node_id
