import ast
import contextlib
import gc
import hashlib
import io
import json
import math
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aperylef import (InternalFault, create_semigroup, dual_algebra_view, dual_socle_generator, hessian,
                      parse_polynomial)
from aperylef.cli import analyze_record, main
from aperylef.linalg import POINT_PRIME
from dual_forms import dual_form_text

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_cli(args, **kwargs):
    """Invoke main() in-process, capturing stdout."""
    import contextlib
    import io

    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(args)
    return code, out.getvalue(), err.getvalue()


def test_analyze_16_18_21_27():
    code, out, _ = run_cli(["analyze", "--gens", "16,18,21,27", "--method", "both"])
    assert code == 0
    record = json.loads(out)
    assert record["schema_version"] == 1
    assert record["classification"] == "codim3-structured"
    assert record["dual_generator"] == "y^4*w + y^2*z^3"
    assert record["slp"]["ranks"]["verdict"] == "holds"
    assert record["slp"]["hessian"]["verdict"] == "holds"
    assert record["quotient_chain"]["extras"]["C"] == 2
    assert record["conjecture"]["all_wlp"] is True


def test_analyze_8_10_11_12_classification():
    code, out, _ = run_cli(["analyze", "--gens", "8,10,11,12"])
    record = json.loads(out)
    assert code == 0
    assert record["classification"] == "CI"
    assert "z^2 - y*w" in record["ideal"]["tilde_generators"]
    assert record["hilbert"] == [1, 3, 3, 1]


def test_analyze_non_gorenstein_skips_hessian():
    code, out, _ = run_cli(["analyze", "--gens", "4,5,6,7"])
    record = json.loads(out)
    assert code == 0
    assert record["m_pure_symmetric"] is False
    assert record["wlp"]["hessian"]["verdict"] == "skipped"
    assert record["wlp"]["ranks"]["verdict"] in ("holds", "fails")


@pytest.mark.parametrize("gens", [(16, 18, 21, 27), (8, 10, 11, 12), (60, 66, 71, 77, 83)])
def test_analyze_record_releases_its_algebra(gens, monkeypatch):
    """No reference cycle keeps a record's algebra, or the maps it memoizes,
    alive after the record: the Apery table refers to it only weakly."""
    import aperylef.cli as cli

    refs = []
    build = cli.build_algebra

    def recording(table):
        alg = build(table)
        refs.append(weakref.ref(alg))
        return alg

    monkeypatch.setattr(cli, "build_algebra", recording)
    gc.collect()
    gc.disable()
    try:
        analyze_record(gens, method="both", seed_root=0)
        assert refs and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_ranks_route_builds_no_dual_view(monkeypatch):
    import aperylef.cli as cli

    def refuse(*args, **kwargs):
        raise AssertionError("the ranks route read a dual view")

    monkeypatch.setattr(cli, "dual_algebra_view", refuse)
    record = analyze_record((16, 18, 21, 27), method="ranks", seed_root=0)
    assert record["dual_generator"] == "y^4*w + y^2*z^3"
    assert record["wlp"]["ranks"]["verdict"] == "holds"


def test_analyze_reduces_generators():
    code, out, _ = run_cli(["analyze", "--gens", "6,4,10,9"])
    record = json.loads(out)
    assert record["generators"] == [4, 6, 9]


def test_exit_codes():
    assert run_cli(["analyze", "--gens", "4,6"])[0] == 2
    assert run_cli(["analyze", "--gens", "0,3"])[0] == 2
    assert run_cli(["analyze", "--gens", "abc"])[0] == 2
    assert run_cli(["analyze", "--gens", "4,5,6,7", "--method", "hessian"])[0] == 3
    assert run_cli(["from-dual", "--poly", "x^2 + y^3"])[0] == 2
    assert run_cli(["from-dual", "--poly", "x^2 +"])[0] == 2
    assert run_cli(["from-dual", "--poly", "1/0*x"])[0] == 2
    assert run_cli(["quotient-chain", "--poly", "x^2 + y^3", "--steps", "x"])[0] == 2
    # the dual view's monomial cap, raised before any work
    assert run_cli(["from-dual", "--poly", "x^100000"])[0] == 4


def test_internal_fault_exit_code(monkeypatch):
    # An elimination that claims full rank for a map deficient at every point:
    # a generic-rank "holds" finds no witness, a library fault.
    monkeypatch.setattr("aperylef.linalg.rank_info", lambda m: (min(m.nrows, m.ncols), False))
    code, _, err = run_cli(["analyze", "--gens", "60,66,71,77,83"])
    assert code == 5
    assert err.startswith("internal error: ")
    assert not issubclass(InternalFault, ValueError)


def test_internal_value_error_exit_code(monkeypatch):
    # input is checked up front with AperyError subclasses, so a ValueError
    # that reaches main is a fault of the library, not a user error
    def broken(*args, **kwargs):
        raise ValueError("an internal check failed")

    monkeypatch.setattr("aperylef.cli.wlp_by_ranks", broken)
    code, _, err = run_cli(["analyze", "--gens", "8,10,11,12"])
    assert code == 5
    assert err.startswith("internal error: ")


@pytest.mark.parametrize("error", [
    "DegreeOutOfRange", "NotGorensteinAtStep", "DegreeTooSmall", "NotInSemigroup", "DependentBasis",
])
def test_an_error_no_command_should_reach_is_an_internal_error(monkeypatch, error):
    # these AperyErrors guard library calls that no command makes with bad
    # arguments, so one reaching main is a fault of the library
    import aperylef

    def broken(*args, **kwargs):
        raise getattr(aperylef.errors, error)("a guard fired")

    monkeypatch.setattr("aperylef.cli.conjecture_check", broken)
    assert run_cli(["conjecture", "--gens", "8,10,11,12"]) == (5, "", "internal error: a guard fired\n")


def test_no_assert_statements_in_the_package():
    # invariants are explicit InternalFault checks, which python -O keeps
    package = Path(SRC) / "aperylef"
    modules = sorted(package.glob("*.py"))
    assert modules
    for path in modules:
        tree = ast.parse(path.read_text(), filename=str(path))
        lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert not lines, f"{path.name} has assert statements on lines {lines}"


def test_the_package_imports_only_the_standard_library():
    # exact arithmetic stays on Python's own ints and Fractions: every import
    # in the package is relative or names a standard library module
    package = Path(SRC) / "aperylef"
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside = [n for n in names if n.partition(".")[0] not in sys.stdlib_module_names]
            assert not outside, f"{path.name} line {node.lineno} imports {outside}"


def test_every_package_name_has_a_caller_outside_the_tests():
    # a function, class or method of the package that only tests reach
    # belongs in a tests/ oracle: some other module of the package, the
    # benchmark or a script must name it.  A re-export in __init__ or
    # __all__ is not a use, nor is a name inside its own definition.
    root = Path(SRC).parent
    package = Path(SRC) / "aperylef"
    users = [path for path in sorted(package.glob("*.py")) if path.name != "__init__.py"]
    users += sorted((root / "perfbench").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    uses: dict[str, list] = {}
    statements = [stmt for path in users for stmt in ast.parse(path.read_text(), filename=str(path)).body]
    for statement in statements:
        if isinstance(statement, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in statement.targets
        ):
            continue
        for node in ast.walk(statement):
            if isinstance(node, ast.Name):
                names = [node.id]
            elif isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.alias):  # "import a.b as c" binds c
                names = [node.asname or node.name.rpartition(".")[2]]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names = node.value.split(".")  # perfbench binds "Class.method" by name
            else:
                continue
            for name in names:
                uses.setdefault(name, []).append(node)
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for top in tree.body:
            defined = [(top.name, top)] if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else []
            if isinstance(top, ast.ClassDef):
                defined += [(f"{top.name}.{m.name}", m) for m in top.body if isinstance(m, ast.FunctionDef)]
            for qualified, node in defined:
                name = qualified.rpartition(".")[2]
                if name.startswith("__") and name.endswith("__"):
                    continue  # the language calls dunder methods
                inside = {id(n) for n in ast.walk(node)}
                if all(id(n) in inside for n in uses.get(name, [])):
                    unused.append(f"{path.name}: {qualified}")
    assert not unused, f"only tests call {unused}; move them into a tests/ oracle"


def test_apery_of_30000_30001_30002():
    # orders reach 15,000: the walk for the maximal representations is iterative
    code, out, _ = run_cli(["apery", "--gens", "30000,30001,30002"])
    assert code == 0
    record = json.loads(out)
    assert len(record["max_representations"]) == 30000
    assert record["max_representations"][-1] == [[0, 1, 14999]]


def test_apery_size_limit_exit_code(monkeypatch):
    # <16, 18, 21, 27> builds 19 maximal representations, for its Apery
    # table and for its frame
    monkeypatch.setattr("aperylef.semigroup.MAXIMAL_REPS_LIMIT", 10)
    for command in ("apery", "classify"):
        code, out, err = run_cli([command, "--gens", "16,18,21,27"])
        assert code == 4
        assert out == ""
        assert err.startswith("limit exceeded: ")


def test_invalid_apery_seed_is_an_input_error(monkeypatch):
    monkeypatch.setenv("APERY_SEED", "abc")
    code, out, err = run_cli(["analyze", "--gens", "8,10,11,12"])
    assert code == 2
    assert out == ""
    assert "'abc'" in err and err.startswith("input error: ")


def test_from_dual_cubic_counterexample():
    code, out, _ = run_cli(["from-dual", "--poly", "a^2*x + a*b*y + b^2*z"])
    record = json.loads(out)
    assert code == 0
    assert record["hilbert"] == [1, 5, 5, 1]
    assert record["hess1_zero"] is True
    assert record["wlp"]["hessian"]["verdict"] == "fails"
    assert record["slp"]["hessian"]["verdict"] == "fails"
    assert record["wlp"]["ranks"]["verdict"] == "fails"


def test_from_dual_quartic_with_slp():
    code, out, _ = run_cli(
        ["from-dual", "--poly", "a^2*x*z + a*b*y*z + 1/2*b^2*z^2"]
    )
    record = json.loads(out)
    assert record["hilbert"] == [1, 5, 10, 5, 1]
    assert record["slp"]["hessian"]["verdict"] == "holds"


def test_from_dual_monomial():
    code, out, _ = run_cli(["from-dual", "--poly", "x^3"])
    record = json.loads(out)
    assert record["hilbert"] == [1, 1, 1, 1]
    assert record["slp"]["hessian"]["verdict"] == "holds"


def test_from_dual_drops_variables_with_no_nonzero_term():
    # a zero term names no variable of the form: the same form, the same bytes
    outs = {
        run_cli(["--seed", "0", "from-dual", "--poly", poly])[1]
        for poly in ("x^2*y + 1/2*y^3", "x^2*y + 1/2*y^3 + 0*z^3", "x^2*y + z*w - w*z + 1/2*y^3")
    }
    assert len(outs) == 1
    assert json.loads(outs.pop())["variables"] == ["x", "y"]
    for poly in ("x - x", "0*z^3"):
        code, out, err = run_cli(["from-dual", "--poly", poly])
        assert (code, out) == (2, "")
        assert err == "input error: zero polynomial does not present an algebra\n"


@pytest.mark.parametrize("poly", [
    f"{POINT_PRIME}*x^2 + y^2",
    f"1/{POINT_PRIME}*x^2 + y^2",
])
def test_from_dual_holds_where_every_point_is_deficient_mod_the_point_prime(poly):
    """Each map is full generically but deficient modulo POINT_PRIME at every
    point, or has an entry the prime cannot invert: only the exact rank at
    the point finds the witness."""
    code, out, err = run_cli(["from-dual", "--poly", poly])
    assert code == 0, err
    record = json.loads(out)
    for prop in ("wlp", "slp"):
        for route in ("hessian", "ranks"):
            report = record[prop][route]
            assert report["verdict"] == "holds", (prop, route)
            assert set(report["witness"]) == {"x", "y"}


def test_apery_and_dual_commands():
    code, out, _ = run_cli(["apery", "--gens", "8,10,11,12"])
    record = json.loads(out)
    assert record["elements"] == [0, 10, 11, 12, 21, 22, 23, 33]
    assert record["m_pure_symmetric"] is True

    code, out, _ = run_cli(["dual", "--gens", "16,18,21,27"])
    assert json.loads(out)["dual_generator"] == "y^4*w + y^2*z^3"


def test_hessian_command():
    code, out, _ = run_cli(["hessian", "--gens", "16,18,21,27", "--d", "2"])
    record = json.loads(out)
    assert code == 0
    # auto-selected basis: first independent monomials in graded-lex order
    assert record["basis"] == ["y^2", "y*z", "y*w", "z^2"]
    assert record["entries"][2] == ["24*y", "0", "0", "0"]  # the y*w row
    code, out, _ = run_cli(["hessian", "--gens", "16,18,21,27", "--d", "1", "--format", "text"])
    assert code == 0
    assert out == ("basis: ['y', 'z', 'w']\n"
                   "[ 12*y^2*w + 2*z^3  6*y*z^2  4*y^3 ]\n"
                   "[          6*y*z^2  6*y^2*z      0 ]\n"
                   "[            4*y^3        0      0 ]\n")


@pytest.mark.parametrize("gens", [[16, 18, 21, 27], [8, 10, 11, 12], [15, 21, 35], [6, 7, 8, 9, 10],
                                  [6, 7], [12, 13, 15, 16, 18, 21], [102, 177, 192, 202]])
def test_hessian_command_prints_the_hessian_on_the_view_basis(gens):
    # every degree, in both formats, against the checked Hessian of the
    # dual generator on the view's basis; a matrix past 10x10 is not drawn
    F = dual_socle_generator(create_semigroup(gens).apery_table())
    view = dual_algebra_view(F)
    arg = ",".join(map(str, gens))
    for d in range(view.socle_degree + 1):
        want = hessian(F, d, view.bases[d])
        basis = [str(m) for m in want.row_labels]
        code, out, _ = run_cli(["hessian", "--gens", arg, "--d", str(d)])
        assert code == 0
        assert out == json.dumps({"schema_version": 1, "generators": gens, "degree": d, "basis": basis,
                                  "entries": [[str(e) for e in row] for row in want.entries]}) + "\n"
        code, out, _ = run_cli(["hessian", "--gens", arg, "--d", str(d), "--format", "text"])
        drawn = want.to_text()
        if want.nrows > 10:
            drawn = f"[{want.nrows}x{want.ncols} matrix not rendered; larger than 10x10]"
        assert code == 0 and out == f"basis: {basis}\n{drawn}\n", (gens, d)


def test_classify_command():
    code, out, _ = run_cli(["classify", "--gens", "15,21,35"])
    record = json.loads(out)
    assert record["classification"] == "monomial-CI"
    assert record["tilde_generators"] == ["y^5", "z^3"]


def test_quotient_chain_command_gens():
    code, out, _ = run_cli(["quotient-chain", "--gens", "16,18,21,27"])
    record = json.loads(out)
    assert record["extras"]["C"] == 2
    assert record["wlp_established"] is True


def test_quotient_chain_command_poly():
    code, out, _ = run_cli(
        [
            "quotient-chain",
            "--poly",
            "a^2*x*z + a*b*y*z + 1/2*b^2*z^2",
            "--steps",
            "z",
        ]
    )
    record = json.loads(out)
    step = record["steps"][0]
    assert step["conclusion"].startswith("inconclusive")
    assert step["middle_dims"] == [5, 10]
    assert step["direct_report"]["verdict"] == "fails"


def test_quotient_chain_seed_follows_canonical_generators():
    spellings = ("16,18,21,27", "27,21,18,16", "16,18,21,27,")
    outs = {run_cli(["--seed", "0", "quotient-chain", "--gens", g])[1] for g in spellings}
    assert len(outs) == 1
    digest = hashlib.sha256(outs.pop().encode()).hexdigest()
    assert digest == "f96c44f360add27dedf3e53bc8636af51813e18ad0525e75549f5e7b44855d39"


@pytest.mark.parametrize("steps", ["q", "z", ""])
def test_quotient_chain_refuses_steps_with_gens(steps):
    # --gens builds the paper's chain; --steps would be ignored there
    code, out, err = run_cli(["quotient-chain", "--gens", "16,18,21,27", "--steps", steps])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --steps applies only with --poly")


@pytest.mark.parametrize("gens", ["16,18,21,27", ""])
def test_quotient_chain_refuses_poly_with_gens(gens):
    # --gens builds the paper's chain; --poly would be ignored there
    code, out, err = run_cli(["quotient-chain", "--gens", gens, "--poly", "x^3"])
    assert code == 2
    assert out == ""
    assert err.startswith("input error: --poly applies only without --gens")
    assert err.count("\n") == 1


@pytest.mark.parametrize("steps", [[], ["--steps", ""], ["--steps", " , "]])
def test_quotient_chain_poly_without_steps_is_an_input_error(steps):
    code, out, err = run_cli(["quotient-chain", "--poly", "x^2*y + y^2*z + x*z^2"] + steps)
    assert code == 2
    assert out == ""
    assert err == "input error: --steps is required with --poly\n"


@pytest.mark.parametrize("steps", ["q", "x:q", "x:0"])
def test_quotient_chain_rejects_bad_steps(steps):
    code, out, err = run_cli(
        ["quotient-chain", "--poly", "x^2*y + y^2*z + x*z^2", "--steps", steps]
    )
    assert code == 2
    assert out == ""
    assert f"input error: step {steps!r}" in err


def test_conjecture_command():
    code, out, _ = run_cli(["conjecture", "--gens", "8,10,11,12"])
    record = json.loads(out)
    assert record["all_wlp"] is True


def test_analyze_byte_identical():
    a = run_cli(["analyze", "--gens", "16,18,21,27"])[1]
    b = run_cli(["analyze", "--gens", "16,18,21,27"])[1]
    assert a == b
    # a different seed changes the witness draw but stays deterministic
    c = run_cli(["--seed", "99", "analyze", "--gens", "16,18,21,27"])[1]
    d = run_cli(["--seed", "99", "analyze", "--gens", "16,18,21,27"])[1]
    assert c == d


def test_analyze_600_601_602_ranks_record_is_pinned():
    # codimension 2 at socle degree 300: 150 narrow-sense SLP maps, each its
    # integer path-count matrix, give the bytes the symbolic maps gave.  The
    # Hessian route would stop at the size cap of the degree-300 dual view.
    record = analyze_record([600, 601, 602], method="ranks", seed_root=0)
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == "d7457aadf9367a336d975d1f6b248ba17930110c1e05c9edaf8183286b54c192"


def test_record_round_trip_and_no_floats():
    from aperylef.cli import validate_record

    record = analyze_record([16, 18, 21, 27], seed_root=0)
    text = json.dumps(record)
    assert json.loads(text) == record
    validate_record(json.loads(text))

    def no_floats(value):
        if isinstance(value, float):
            return False
        if isinstance(value, dict):
            return all(no_floats(v) for v in value.values())
        if isinstance(value, list):
            return all(no_floats(v) for v in value)
        return True

    assert no_floats(record)


def test_timings_opt_in():
    without = analyze_record([8, 10, 11, 12], seed_root=0)
    assert without["timings"] is None
    with_timings = analyze_record([8, 10, 11, 12], seed_root=0, with_timings=True)
    assert "analyze_seconds" in with_timings["timings"]


def test_apery_seed_environment_variable(monkeypatch):
    monkeypatch.setenv("APERY_SEED", "7")
    a = run_cli(["analyze", "--gens", "8,10,11,12"])[1]
    b = run_cli(["analyze", "--gens", "8,10,11,12"])[1]
    assert a == b
    monkeypatch.setenv("APERY_SEED", "8")
    c = run_cli(["analyze", "--gens", "8,10,11,12"])[1]
    ra, rc = json.loads(a), json.loads(c)
    assert ra["seed"] != rc["seed"]
    # verdicts are seed-independent; only witness draws move
    assert ra["wlp"]["ranks"]["verdict"] == rc["wlp"]["ranks"]["verdict"]


def test_sweep_writes_filters_and_resumes(tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    args = [
        "sweep",
        "--mult",
        "8:8",
        "--count",
        "4:4",
        "--max-gen",
        "12",
        "--require-m-pure",
        "--require-ci-or-codim3",
        "--out",
        str(out_path),
    ]
    code, _, err = run_cli(args)
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    records = [json.loads(line) for line in lines]
    from aperylef.cli import validate_record

    for record in records:
        validate_record(record)
    keys = [",".join(map(str, r["generators"])) for r in records]
    assert "8,10,11,12" in keys
    assert len(keys) == len(set(keys))
    for record in records:
        if record["conjecture"] is not None:
            assert record["conjecture"]["all_wlp"] is True

    # resume skips everything already present
    code, _, err = run_cli(args + ["--resume"])
    assert code == 0
    assert "wrote 0" in err
    assert out_path.read_text().strip().splitlines() == lines

    # corrupt trailing line is warned about and ignored
    with open(out_path, "a", encoding="utf-8") as fh:
        fh.write('{"generators": [8,')
    code, _, err = run_cli(args + ["--resume"])
    assert code == 0
    assert "corrupt" in err
    final_lines = out_path.read_text().strip().splitlines()
    assert len([l for l in final_lines if l.startswith('{"schema_version"')]) == len(lines)


def test_sweep_resume_skips_lines_that_are_not_utf8(tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    args = ["--seed", "0"] + SWEEP_ARGS + ["--out", str(out_path)]
    assert run_cli(args)[0] == 0
    written = out_path.read_bytes()
    # a UTF-16 byte order mark and a stray byte: neither line decodes
    out_path.write_bytes(b"\xff\xfe{}\n" + written + b"\x80\n")
    code, out, err = run_cli(args + ["--resume"])
    assert code == 0 and out == ""
    assert err == (
        f"warning: ignoring corrupt line 1 in {out_path}\n"
        f"warning: ignoring corrupt line 5 in {out_path}\n"
        "sweep: wrote 0, filtered 0, resumed past 3\n"
    )
    assert out_path.read_bytes() == b"\xff\xfe{}\n" + written + b"\x80\n"


def test_sweep_resume_counts_records_of_an_unfiltered_sweep(tmp_path):
    """A record written without --require-m-pure counts as resumed, not
    filtered, when a wider m-pure sweep resumes over it, symmetric or not."""
    out_path = tmp_path / "sweep.jsonl"
    common = ["--seed", "0", "sweep", "--count", "3:3", "--method", "ranks",
              "--out", str(out_path)]
    code, _, err = run_cli(common + ["--mult", "5:6", "--max-gen", "11"])
    assert code == 0
    assert err == "sweep: wrote 18, filtered 0, resumed past 0\n"
    code, _, err = run_cli(
        common + ["--mult", "5:8", "--max-gen", "12", "--require-m-pure", "--resume"]
    )
    assert code == 0
    assert err == "sweep: wrote 3, filtered 15, resumed past 18\n"
    assert len(out_path.read_text().splitlines()) == 21


ELEVEN_RECORDS = ["--seed=0", "sweep", "--mult=3:4", "--count=3:3", "--max-gen=10"]


def test_sweep_resume_after_a_partial_last_line(tmp_path):
    """A sweep killed mid-write leaves part of a record as its last line; the
    resumed sweep starts its first record on a line of its own, so no record
    is lost in the corrupt line and the next resume redoes nothing."""
    out_path = tmp_path / "sweep.jsonl"
    args = ELEVEN_RECORDS + ["--out", str(out_path)]
    assert run_cli(args)[0] == 0
    full = out_path.read_bytes().splitlines()
    assert len(full) == 11
    out_path.write_bytes(full[0] + b"\n" + full[1] + b"\n" + full[2][:100])
    warning = f"warning: ignoring corrupt line 3 in {out_path}\n"
    code, _, err = run_cli(args + ["--resume"])
    assert code == 0
    assert err == warning + "sweep: wrote 9, filtered 0, resumed past 2\n"
    lines = out_path.read_bytes().splitlines()
    assert lines[2] == full[2][:100]
    assert all(lines.count(record) == 1 for record in full)
    code, _, err = run_cli(args + ["--resume"])
    assert code == 0
    assert err == warning + "sweep: wrote 0, filtered 0, resumed past 11\n"
    assert out_path.read_bytes().splitlines() == lines


@pytest.mark.parametrize("generators", ['"3,5,7"', "[3.0, 5, 7]", "[true, 5, 7]", "[[3], 5, 7]", "null", "357"])
def test_sweep_resume_takes_generators_that_are_not_a_list_of_ints_for_a_corrupt_line(generators, tmp_path):
    out_path = tmp_path / "sweep.jsonl"
    args = ELEVEN_RECORDS + ["--out", str(out_path)]
    assert run_cli(args)[0] == 0
    lines = out_path.read_text().splitlines()
    assert '"generators": [3, 5, 7],' in lines[1]
    out_path.write_text("\n".join([lines[0], lines[1].replace("[3, 5, 7]", generators, 1)] + lines[2:]) + "\n")
    code, _, err = run_cli(args + ["--resume"])
    assert code == 0
    assert err == (f"warning: ignoring corrupt line 2 in {out_path}\n"
                   "sweep: wrote 1, filtered 0, resumed past 10\n")
    assert out_path.read_text().splitlines()[-1] == lines[1]


@pytest.mark.parametrize("filters", [[], ["--require-m-pure"], ["--require-ci-or-codim3"]])
def test_sweep_records_the_semigroups_its_walk_built(filters, tmp_path, monkeypatch):
    """The sweep analyzes the semigroup its walk yields, with what its filter
    built, and never reduces a tuple again; each line is still the record
    analyze_record gives for that tuple."""
    import aperylef.cli as cli

    calls = []
    create = cli.create_semigroup
    monkeypatch.setattr(cli, "create_semigroup", lambda gens: calls.append(gens) or create(gens))
    out_path = tmp_path / "sweep.jsonl"
    seed = 3
    code, _, _ = run_cli(["--seed", str(seed), "sweep", "--mult", "5:7", "--count", "3:4",
                          "--max-gen", "11", *filters, "--out", str(out_path)])
    assert code == 0 and calls == []
    monkeypatch.undo()
    lines = out_path.read_text().splitlines()
    assert len(lines) >= 5
    for line in lines:
        gens = json.loads(line)["generators"]
        assert line == json.dumps(analyze_record(gens, method="ranks", seed_root=seed))


@pytest.mark.parametrize("mult", ["0:3", "-2:3"])
def test_sweep_rejects_a_nonpositive_multiplicity(mult, tmp_path):
    code, _, err = run_cli(
        ["sweep", f"--mult={mult}", "--count", "2:3", "--max-gen", "6",
         "--out", str(tmp_path / "s.jsonl")]
    )
    assert code == 2
    assert err == "input error: generators must be positive integers\n"


def test_empty_sweep(tmp_path):
    # no semigroup of multiplicity 3 has 4 minimal generators
    out_path = tmp_path / "empty.jsonl"
    code, _, err = run_cli(
        ["sweep", "--mult", "3:3", "--count", "4:4", "--max-gen", "10",
         "--out", str(out_path)]
    )
    assert code == 0
    assert out_path.read_text() == ""
    assert err == "sweep: wrote 0, filtered 0, resumed past 0\n"


def test_text_format():
    code, out, _ = run_cli(["analyze", "--gens", "8,10,11,12", "--format", "text"])
    assert code == 0
    assert "classification: CI" in out


def test_analyze_out_flag(tmp_path):
    target = tmp_path / "record.json"
    code, out, _ = run_cli(["analyze", "--gens", "8,10,11,12", "--out", str(target)])
    assert code == 0 and out == ""
    record = json.loads(target.read_text())
    assert record["generators"] == [8, 10, 11, 12]


SWEEP_ARGS = ["sweep", "--mult", "5:5", "--count", "3:3", "--max-gen", "8"]


@pytest.mark.parametrize("command", [["analyze", "--gens", "3,5"], SWEEP_ARGS, SWEEP_ARGS + ["--resume"]])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_an_output_path_that_cannot_be_opened_is_an_input_error(command, where, tmp_path):
    path = tmp_path / "missing" / "out.json" if where == "missing directory" else tmp_path
    code, out, err = run_cli(command + ["--out", str(path)])
    assert code == 2 and out == ""
    reason = "No such file or directory" if where == "missing directory" else "Is a directory"
    assert err == f"input error: cannot open {path}: {reason}\n"


def test_large_matrix_rendering_note():
    from aperylef.cli import _matrix_text
    from aperylef import Matrix

    big = Matrix(list(range(11)), list(range(11)), [[0] * 11 for _ in range(11)])
    assert "not rendered" in _matrix_text(big)
    small = Matrix([0], [0], [[1]])
    assert "1" in _matrix_text(small)


def test_module_entry_point_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "aperylef.cli", "dual", "--gens", "8,10,11,12"],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["dual_generator"] == "y*z*w + z^3"


def test_a_reader_that_closes_stdout_early_ends_the_run_quietly():
    # the sweep writes about 2.5 MB, far more than a pipe buffer holds, so
    # a write after the reader has gone fails
    proc = subprocess.Popen(
        [sys.executable, "-m", "aperylef.cli", "sweep", "--mult", "2:8", "--max-gen", "20"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
    )
    first = proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert json.loads(first)["generators"] == [3, 4, 5]
    assert err == b""


# -- the input contract over a small grammar of valid and broken inputs --

GENS = st.one_of(
    st.sampled_from(["3,5", "4,5,6,7", "8,10,11,12", "5,6,7,8", "6,4,10,9", "1", "1,2", "2,3", "7,14",
                     "", " ", "abc", "3,,5", "3.5,4", "3 5", "1e3", "4,6", "0,3", "-1,3"]),
    st.lists(st.integers(-2, 14), min_size=1, max_size=4).map(lambda gs: ",".join(map(str, gs))),
    st.lists(st.integers(3, 14), min_size=2, max_size=4).map(lambda gs: ",".join(map(str, gs))),
)
POLYS = st.one_of(
    st.sampled_from(["x^2*y + 1/2*y^3", "x*y", "x^2", "x", "1", "0", "", "x^2 + y^3", "x^2 +", "1/0*x",
                     "x^-1", "x^100000", "x^2*y + y^2*z + x*z^2", "x^3 + y^3 + z^3", "x^2*y + 1/2*y^3 + 0*z^3",
                     "2*a^2*x0 + a*b*x1 + b^2*x2"]),
    st.lists(st.sampled_from(["x^2", "y^2", "x*y", "-x*z", "1/2*z^2", "3*y*z", "x^3", "0*y^2"]),
             min_size=1, max_size=3).map(" + ".join),
)
STEPS = st.lists(st.sampled_from(["x", "y", "z", "y:2", "q", "x:0", "x:a", "", " ", "z:1", "x:-1"]),
                 max_size=3).map(",".join)
RANGES = st.one_of(
    st.sampled_from(["x", "1:2:3", "", ":", "3:", "a:b"]),
    st.tuples(st.integers(-2, 7), st.integers(-2, 7)).map(lambda r: f"{r[0]}:{r[1]}"),
    st.integers(-2, 7).map(str),
)
COUNTS = st.one_of(st.sampled_from(["x", "2:1", "1:5"]), st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
    lambda r: f"{r[0]}:{r[1]}"))
MAX_GENS = st.one_of(st.sampled_from(["x", ""]), st.integers(-1, 12).map(str))


def optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"{flag}={v}"]))


@st.composite
def command_lines(draw, tmp):
    """An argument list: a command and its options, each valid or broken."""
    out = draw(st.sampled_from([[], [], [f"--out={tmp / 'out.txt'}"], [f"--out={tmp}"],
                                [f"--out={tmp / 'missing' / 'out.txt'}"]]))
    command = draw(st.sampled_from(["analyze", "apery", "dual", "hessian", "classify", "conjecture",
                                    "from-dual", "quotient-chain", "sweep"]))
    gens = [f"--gens={draw(GENS)}"]
    if command == "analyze":
        args = gens + draw(st.sampled_from([[], ["--method=ranks"], ["--method=hessian"]]))
    elif command == "hessian":
        args = gens + [f"--d={draw(st.integers(-1, 4))}"]
    elif command == "from-dual":
        args = [f"--poly={draw(POLYS)}"]
    elif command == "quotient-chain":
        args = draw(optional("--gens", GENS)) + draw(optional("--poly", POLYS)) + draw(optional("--steps", STEPS))
    elif command == "sweep":
        args = [f"--mult={draw(RANGES)}", f"--count={draw(COUNTS)}", f"--max-gen={draw(MAX_GENS)}"]
        args += draw(st.sampled_from([[], ["--require-m-pure"], ["--require-ci-or-codim3"]]))
        args += draw(st.sampled_from([[], ["--resume"]]))
    else:
        args = gens
    return ["--seed=1", command] + args + out


@given(st.data())
@settings(max_examples=150, deadline=None, derandomize=True)
def test_every_command_line_exits_with_a_one_line_message(tmp_path_factory, data):
    tmp = tmp_path_factory.mktemp("cli")
    argv = data.draw(command_lines(tmp))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            code = exc.code
    err = err.getvalue()
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err
    assert err.count("\n") <= 1, (argv, err)
    if code:
        assert err.startswith(("input error: ", "inapplicable: ", "limit exceeded: ")), (argv, err)


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--mult=x", "--max-gen=9"], "argument --mult: 'x': ranges look like LO:HI or N"),
    (["sweep", "--mult=2:3:4", "--max-gen=9"], "argument --mult: '2:3:4': ranges look like LO:HI or N"),
    (["hessian", "--gens=3,5", "--d=x"], "argument --d: invalid int value: 'x'"),
    (["analyze"], "the following arguments are required: --gens"),
    (["sweep", "--mult=3:2", "--max-gen=9"], "argument --mult: '3:2': LO is above HI"),
    (["sweep", "--mult=3:4", "--count=4:3", "--max-gen=9"], "argument --count: '4:3': LO is above HI"),
    (["sweep", "--mult=2:5", "--count=0:1", "--max-gen=10"],
     "argument --count: '0:1': HI is below 2, the fewest generators a sweep takes"),
])
def test_a_command_line_the_parser_refuses_is_a_one_line_input_error(argv, message):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert err.getvalue() == f"input error: {message}\n"


# -- resume files: the sweep's own records, blank lines and damage --

@pytest.fixture(scope="module")
def eleven_records():
    code, out, _ = run_cli(ELEVEN_RECORDS)
    assert code == 0
    records = [line.encode() for line in out.splitlines()]
    assert len(records) == 11
    return records


def damaged_lines(records):
    """Lines a resume must warn about: a record cut short, text that is not
    JSON or not a record, bytes that are not UTF-8, and a record whose
    generators are not a list of ints.  None holds a line break."""
    def regenerated(record, gens):
        doc = json.loads(record)
        doc["generators"] = gens
        return json.dumps(doc).encode()

    some = st.sampled_from(records)
    return st.one_of(
        st.tuples(some, st.integers(1, 300)).map(lambda t: t[0][:t[1]]).filter(lambda b: b not in records),
        st.sampled_from([b"{", b"not json", b"[3, 5, 7]", b"null", b'"3,5,7"', b"{}", b'{"generators": 5}',
                         b"[" * 2000, b'{"generators": [1' + b"0" * 5000 + b"]}"]),
        st.sampled_from([b"\xff\xfe{}", b"\x80", b"\xc3\x28", b"{\"generators\": [3, \xff5]}"]),
        st.tuples(some, st.integers(0, 3)).map(
            lambda t: regenerated(t[0], [",".join(map(str, json.loads(t[0])["generators"])),
                                         [float(g) for g in json.loads(t[0])["generators"]],
                                         [True, False], {"3": 5}][t[1]])),
    )


@st.composite
def resume_files(draw, records):
    """(bytes of a resume file, line numbers a resume must warn about); each
    record appears at most once, and the last line may lack its newline."""
    kept = draw(st.lists(st.sampled_from(records), unique=True, max_size=len(records)))
    bad = draw(st.lists(damaged_lines(records), max_size=4))
    blank = draw(st.lists(st.sampled_from([b"", b"  ", b"\t"]), max_size=2))
    lines = draw(st.permutations([(line, False) for line in kept + blank] + [(line, True) for line in bad]))
    text = b"\n".join(line for line, _ in lines)
    if lines and draw(st.booleans()):
        text += b"\n"
    return text, [i + 1 for i, (_, warn) in enumerate(lines) if warn], len(kept)


@given(st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_a_resumed_sweep_holds_every_record_on_exactly_one_line(tmp_path_factory, eleven_records, data):
    text, warned, kept = data.draw(resume_files(eleven_records))
    out_path = tmp_path_factory.mktemp("resume") / "sweep.jsonl"
    out_path.write_bytes(text)
    code, out, err = run_cli(ELEVEN_RECORDS + ["--out", str(out_path), "--resume"])
    assert (code, out) == (0, "")
    assert err == "".join(f"warning: ignoring corrupt line {n} in {out_path}\n" for n in warned) + (
        f"sweep: wrote {11 - kept}, filtered 0, resumed past {kept}\n")
    after = out_path.read_bytes()
    assert after.startswith(text)
    lines = after.splitlines()
    assert all(lines.count(record) == 1 for record in eleven_records)


# -- one input, however it is spelled, gives the same bytes --

def spelled_term(draw, coeff, powers):
    """One term of a polynomial, its factors permuted and respelled: the
    coefficient as an equivalent fraction, a unit coefficient as 1* or *1 or
    left out, x^e as x^e, as x*x*..., or split, x as x or x^1."""
    mag = abs(coeff)
    k = draw(st.integers(1, 3))
    factors = []
    if mag != 1 or not powers or draw(st.booleans()):
        factors.append(str(mag.numerator * k) if mag.denominator == 1 and k == 1
                       else f"{mag.numerator * k}/{mag.denominator * k}")
    for name, e in powers:
        style = draw(st.integers(0, 2))
        if style == 0:
            factors.append(f"{name}^{e}" if e > 1 or draw(st.booleans()) else name)
        elif style == 1:
            factors += [name] * e
        else:
            a = draw(st.integers(0, e))
            factors += [f"{name}^{a}"] * (a > 0) + [f"{name}^{e - a}"] * (e - a > 0)
    factors = draw(st.permutations(factors))
    space = st.sampled_from(["", " ", "  "])
    return "".join(f + draw(space) + "*" + draw(space) for f in factors[:-1]) + factors[-1]


@st.composite
def respelled_polynomials(draw, text):
    """text respelled: permuted terms, permuted and respelled factors,
    extra spaces, a leading + and added zero terms."""
    F = parse_polynomial(text)
    terms = [(c, [(v, e) for v, e in zip(F.vars, exps) if e]) for exps, c in F.terms.items()]
    terms += [(Fraction(0), [(draw(st.sampled_from(["w", "q", F.vars[0]])), draw(st.integers(1, 3)))])
              for _ in range(draw(st.integers(0, 2)))]
    space = st.sampled_from(["", " ", "   "])
    out = draw(space)
    for i, (c, powers) in enumerate(draw(st.permutations(terms))):
        body = spelled_term(draw, c, powers) if c else "0*" + spelled_term(draw, Fraction(1), powers)
        if c < 0:
            sign = "-"
        else:
            sign = "+" if i or draw(st.booleans()) else ""
        out += sign + draw(space) + body + draw(space)
    return out


@given(st.data())
@settings(max_examples=40, deadline=None, derandomize=True)
def test_every_spelling_of_a_dual_form_gives_the_same_bytes(data):
    text = dual_form_text(data)
    code, want, _ = run_cli(["--seed=0", "from-dual", f"--poly={text}"])
    spelled = data.draw(respelled_polynomials(text))
    assert parse_polynomial(spelled) == parse_polynomial(text)
    got = run_cli(["--seed=0", "from-dual", "--poly", spelled])
    assert got == (code, want, _), spelled


@pytest.mark.parametrize("argv", [
    ["from-dual", "--poly", "-x^2*y+y^3"],
    ["quotient-chain", "--poly", "-x^2*y+y^2*z+x*z^2", "--steps", "x"],
    ["from-dual", "--poly", "-h"],
    ["quotient-chain", "--poly", "-h", "--steps", "h"],
])
def test_a_polynomial_with_a_leading_minus_is_a_value(argv):
    """argparse takes a word that starts with "-" and holds no space for an
    option, and "-h" for the help option; a polynomial given that way is read
    like any other spelling."""
    at = argv.index("--poly")
    joined = argv[:at] + [f"--poly={argv[at + 1].replace('+', ' + ')}"] + argv[at + 2:]
    code, out, err = run_cli(argv)
    assert (code, err) == (0, "")
    assert run_cli(joined) == (code, out, err)


@given(st.lists(st.integers(3, 12), min_size=2, max_size=4), st.data())
@settings(max_examples=30, deadline=None, derandomize=True)
def test_every_spelling_of_a_generator_list_gives_the_same_bytes(gens, data):
    """Permuted generators, spaces around them, and redundant ones: repeats
    and sums of two of them."""
    assume(math.gcd(*gens) == 1)
    code, want, err = run_cli(["--seed=0", "analyze", "--gens", ",".join(map(str, gens))])
    extra = data.draw(st.lists(st.tuples(st.sampled_from(gens), st.sampled_from(gens + [0])), max_size=3))
    spelled = data.draw(st.permutations(gens + [a + b for a, b in extra]))
    space = st.sampled_from(["", " ", "  "])
    text = ",".join(data.draw(space) + str(g) + data.draw(space) for g in spelled)
    assert run_cli(["--seed=0", "analyze", "--gens", text]) == (code, want, err), text
