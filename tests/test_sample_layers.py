import importlib
import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("sample_layers", ROOT / "scripts" / "sample_layers.py")
sample_layers = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sample_layers)


def test_a_sampled_sweep_exits_0_with_shares_that_sum_to_1(capsys):
    # about 0.1 s of CPU, so dozens of samples on a 4 ms kernel tick
    argv = ["sweep", "--mult", "4:9", "--count", "3:4", "--max-gen", "20", "--require-m-pure"]
    assert sample_layers.main(argv) == 0
    head, *rows = capsys.readouterr().out.splitlines()
    samples = int(head.split()[3])
    shares = {line[:20].strip(): float(line[20:]) for line in rows}
    assert samples > 0 and list(shares) == list(sample_layers.LAYERS)
    assert math.isclose(sum(shares.values()), 1, abs_tol=1e-3)


def test_a_frame_takes_the_layer_of_the_innermost_frame_that_names_one():
    class Frame:
        def __init__(self, module, name, back=None):
            self.f_globals = {"__name__": module}
            self.f_code = type("Code", (), {"co_name": name.rpartition(".")[2], "co_qualname": name})
            self.f_back = back

    record = Frame("aperylef.cli", "_record")
    text = Frame("aperylef.polynomial", "SparsePoly.__str__", Frame("aperylef.algebra", "relation_text", record))
    product = Frame("fractions", "Fraction._mul", Frame("aperylef.polynomial", "SparsePoly.__mul__",
                                                         Frame("aperylef.algebra", "multiplication_matrix", record)))
    assert sample_layers.layer_of(text) == "texts"
    assert sample_layers.layer_of(product) == "map build and rank"
    assert sample_layers.layer_of(Frame("aperylef.algebra", "_apery_algebra", record)) == "algebra build"
    assert sample_layers.layer_of(Frame("json.encoder", "JSONEncoder.encode", record)) == "JSON"
    assert sample_layers.layer_of(Frame("argparse", "ArgumentParser.parse_args")) == "other"


def test_every_function_and_module_of_the_layer_map_exists():
    # a renamed function would otherwise hand its samples to its module's layer
    for module, qualname in sample_layers.FUNCTIONS:
        obj = importlib.import_module(module)
        for part in qualname.split("."):
            obj = getattr(obj, part)
        assert obj.__code__.co_qualname == qualname and obj.__module__ == module
    for module in sample_layers.MODULES:
        importlib.import_module(module)
