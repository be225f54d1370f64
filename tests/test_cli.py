"""The ``liesplit`` command line."""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner

import liesplit
from liesplit.catalog import catalog
from liesplit.cli import main
from liesplit.schemes import epsilon, ordering_str, scheme_to_text


def _run(*args):
    return CliRunner().invoke(main, list(args), catch_exceptions=False)


@pytest.mark.parametrize("name", ["n2-p4-s-m9-opt", "n3-p2-sl-m5-leapfrog"])
def test_epsilon_json_matches_the_library(name):
    e = catalog()[name]
    rep = epsilon(e.scheme, e.params, e.order)
    result = _run("epsilon", "--catalog", name, "--json")
    assert result.exit_code == 0, result.output
    out = json.loads(result.output)
    exact = isinstance(rep.epsilon, Fraction)
    as_json = (lambda v: str(v)) if exact else (lambda v: v)
    assert out == {
        "scheme": name, "p": e.order, "m": e.scheme.m, "exact": exact,
        "epsilon": as_json(rep.epsilon),
        "ordering_best": ordering_str(rep.ordering_best),
        "sums_per_ordering": {ordering_str(o): as_json(s)
                              for o, s in rep.sums_per_ordering.items()},
        "order_residuals": {str(d): as_json(r) for d, r in rep.order_residuals.items()},
    }


def test_epsilon_text_names_every_ordering_and_degree():
    result = _run("epsilon", "--catalog", "n3-p4-sl-m21-opt")
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[0] == "n3-p4-sl-m21-opt: p = 4, m = 21"
    assert lines[1].startswith("epsilon ")
    assert lines[2].split() == ["best", "ordering", "A<B<C"]
    assert [ln.split()[0] for ln in lines[4:10]] == [
        "A<B<C", "A<C<B", "B<A<C", "B<C<A", "C<A<B", "C<B<A"]
    assert [ln.split()[0] for ln in lines[11:]] == ["1", "2", "3", "4"]


def test_epsilon_reads_a_scheme_file(tmp_path):
    e = catalog()["n2-p4-s-m9-opt"]
    path = tmp_path / "s9.txt"
    path.write_text(scheme_to_text(e.scheme, e.params))
    from_file = json.loads(_run("epsilon", str(path), "--order", "4", "--json").output)
    from_catalog = json.loads(_run("epsilon", "--catalog", "n2-p4-s-m9-opt", "--json").output)
    assert from_file.pop("scheme") == "n2-s-m9"
    from_catalog.pop("scheme")
    assert from_file == from_catalog


@pytest.mark.parametrize("args,message", [
    ([], "exactly one"),
    (["--catalog", "no-such-entry"], "no catalog entry"),
    (["--catalog", "n2-p4-s-m9-opt", "--order", "6"], "does not reach order 6"),
    (["--catalog", "n2-p4-s-m9-opt", "--order", "30"],
     "Error: truncation degree 31 needs 4294967295 words, over the limit of 32768"),
])
def test_epsilon_usage_errors(args, message):
    result = CliRunner().invoke(main, ["epsilon", *args])
    assert result.exit_code != 0
    assert message in result.output


def test_epsilon_text_of_an_exact_entry():
    """Exact values print as a fraction and its float."""
    result = _run("epsilon", "--catalog", "n2-p2-sl-m3-leapfrog")
    assert result.exit_code == 0, result.output
    lines = result.output.splitlines()
    assert lines[1] == "epsilon        9/32 (0.28125)"
    assert lines[4:6] == ["  A<B      1/8 (0.125)", "  B<A      1/8 (0.125)"]


def test_unparsable_scheme_file_is_a_bad_parameter(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n = 2\nfamily = S\nm = 9\na_1 = abc\n")
    result = CliRunner().invoke(main, ["epsilon", str(path), "--order", "4"])
    assert result.exit_code == 2
    assert "Invalid value for SCHEME_FILE: line 4: 'abc' is not a finite number" in result.output


def test_non_integral_scheme_size_names_its_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n = 2\nfamily = S\nm = 9.0\n")
    result = CliRunner().invoke(main, ["epsilon", str(path), "--order", "4"])
    assert result.exit_code == 2
    assert "Invalid value for SCHEME_FILE: line 3: field 'm' is '9.0', not an integer" in (
        result.output)


def test_scheme_file_needs_an_order(tmp_path):
    e = catalog()["n2-p4-s-m9-opt"]
    path = tmp_path / "s9.txt"
    path.write_text(scheme_to_text(e.scheme, e.params))
    result = CliRunner().invoke(main, ["epsilon", str(path)])
    assert result.exit_code != 0
    assert "--order" in result.output


def test_python_m_liesplit_runs_the_command_line():
    """``python -m liesplit`` on the source tree prints what the library
    returns."""
    src = str(Path(liesplit.__file__).parents[1])
    out = subprocess.run([sys.executable, "-m", "liesplit", "epsilon", "--catalog",
                          "n2-p2-sl-m3-leapfrog", "--json"], capture_output=True, text=True,
                         check=True, cwd=src, timeout=120)
    report = json.loads(out.stdout)
    assert report["scheme"] == "n2-p2-sl-m3-leapfrog" and report["exact"] is True
    e = catalog()["n2-p2-sl-m3-leapfrog"]
    assert Fraction(report["epsilon"]) == epsilon(e.scheme, e.params, e.order).epsilon


def test_import_loads_no_click():
    # a fresh interpreter: this test module itself imports click
    src = str(Path(liesplit.__file__).parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import liesplit; "
            "print(any(m.split('.')[0] == 'click' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code, src],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
