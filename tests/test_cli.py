import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import charcensus
from charcensus import asymptotics, characters, cli, counting
from charcensus.asymptotics import P32_REGIMES
from charcensus.cli import main


@pytest.fixture(scope="module")
def schema():
    text = resources.files("charcensus").joinpath(
        "schemas/output-v1.schema.json").read_text()
    return json.loads(text)


@pytest.fixture()
def run(capsys, schema):
    """Run the CLI, returning (exit_code, stdout, stderr); JSON output is
    validated against the shipped schema on every call."""

    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        if "--format" in argv and argv[argv.index("--format") + 1] == "json" \
                and code == 0 and captured.out:
            jsonschema.validate(json.loads(captured.out), schema)
        return code, captured.out, captured.err

    return _run


def test_zeros_exact_n3(run):
    code, out, _ = run("zeros", "exact", "--n", "3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["Z"] == "1"
    assert doc["result"]["p_N"] == "3"
    assert doc["result"]["Z_t"]["2"] == "1"


def test_count_p(run):
    code, out, _ = run("count", "p", "--n", "100", "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["value"] == "190569292"


def test_count_p_and_pt_write_no_file(run, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for argv, value in ((("count", "p", "--n", "100"), "190569292"),
                        (("count", "pt", "--t", "3", "--n", "10"), "14"),
                        (("count", "pt", "--t", "20", "--n", "10"), "42")):
        code, out, _ = run(*argv, "--format", "json")
        assert code == 0
        assert json.loads(out)["result"]["value"] == value
    assert list(tmp_path.iterdir()) == []


def test_count_core_brute_matches_series(run):
    _, brute, _ = run("count", "core", "--t", "5", "--n", "7", "--brute",
                      "--format", "json")
    _, series, _ = run("count", "core", "--t", "5", "--n", "7",
                       "--format", "json")
    assert json.loads(brute)["result"]["value"] \
        == json.loads(series)["result"]["value"]


def test_char_eval(run):
    code, out, _ = run("char", "eval", "--lambda", "[4,2,1]", "--mu", "[5,2]",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["chi"] == "0"


def test_char_table_csv(run):
    code, out, _ = run("char", "table", "--n", "4")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["lambda", "[4]", "[3,1]", "[2,2]", "[2,1,1]", "[1,1,1,1]"]
    assert len(rows) == 6


def test_char_table_json_matches_csv(run):
    _, out_csv, _ = run("char", "table", "--n", "5")
    _, out_json, _ = run("char", "table", "--n", "5", "--format", "json")
    doc = json.loads(out_json)["result"]
    rows = list(csv.reader(io.StringIO(out_csv)))
    assert rows[0][1:] == doc["partitions"]
    assert [r[1:] for r in rows[1:]] == doc["rows"]


def test_lower_bound_full_and_partial(run):
    _, full, _ = run("zeros", "lower-bound", "--n", "12", "--format", "json")
    _, lo_part, _ = run("zeros", "lower-bound", "--n", "12",
                        "--t-lo", "1", "--t-hi", "5", "--format", "json")
    _, hi_part, _ = run("zeros", "lower-bound", "--n", "12",
                        "--t-lo", "6", "--t-hi", "12", "--format", "json")
    total = int(json.loads(full)["result"]["value"])
    assert total == int(json.loads(lo_part)["result"]["value"]) \
        + int(json.loads(hi_part)["result"]["value"])


def test_bounds_t12_contract(run):
    code, out, _ = run("bounds", "t12", "--n", "100", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert "log_bound" in result
    assert result["p_source"] == "exact"
    expected = math.log(2) + 2 * math.log(190569292) - math.log(math.log(100))
    assert result["log_bound"] == pytest.approx(expected)


def test_bounds_t13_and_p32(run):
    code, out, _ = run("bounds", "t13", "--n", "2000", "--t", "10",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["regime"] == "T13_I"
    code, out, _ = run("bounds", "p32", "--n", "1000", "--t", "900",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["regime"] == "P32_III"
    code, out, _ = run("bounds", "p32", "--n", "1000", "--t", "900",
                       "--regime", "P32_IV", "--format", "json")
    assert json.loads(out)["result"]["regime"] == "P32_IV"


def test_bounds_saddle(run):
    code, out, _ = run("bounds", "saddle", "--n", "100", "--t", "10",
                       "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["bracket_lo"] < result["y"] < result["bracket_hi"]
    assert result["ty_regime"] == "SMALL"


def test_estimate_density_deterministic(run):
    _, a, _ = run("estimate", "density", "--n", "10", "--samples", "500",
                  "--seed", "3", "--format", "json")
    _, b, _ = run("estimate", "density", "--n", "10", "--samples", "500",
                  "--seed", "3", "--format", "json")
    assert json.loads(a)["result"] == json.loads(b)["result"]


def test_estimate_density_generates_seed(run):
    code, out, _ = run("estimate", "density", "--n", "5", "--samples", "10",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["seed"] == doc["config"]["seed"]
    assert isinstance(doc["result"]["seed"], int)


@pytest.mark.parametrize("seed, ok", [("-1", False), (str(2**64), False),
                                      ("0", True), (str(2**64 - 1), True)])
def test_estimate_density_seed_range(run, seed, ok):
    code, out, err = run("estimate", "density", "--n", "12", "--samples", "10",
                         "--seed", seed, "--format", "json")
    if ok:
        assert code == 0 and json.loads(out)["result"]["seed"] == int(seed)
    else:
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and seed in error["message"]


def test_sweep_csv_columns(run):
    code, out, _ = run("sweep", "--n-list", "3-6")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][:4] == ["N", "p_N", "Z", "lower_bound"]
    assert len(rows) == 5
    by_n = {int(r[0]): r for r in rows[1:]}
    assert by_n[3][2] == "1"  # Z(3)
    assert 0 < float(by_n[3][4]) <= 1  # lower_bound_over_Z


def test_sweep_json_matches_csv(run):
    _, out_csv, _ = run("sweep", "--n-list", "4,6")
    _, out_json, _ = run("sweep", "--n-list", "4,6", "--format", "json")
    doc = json.loads(out_json)["result"]["rows"]
    rows = list(csv.reader(io.StringIO(out_csv)))
    for parsed, row in zip(doc, rows[1:]):
        assert str(parsed["N"]) == row[0]
        assert parsed["Z"] == row[2]
        assert repr(parsed["log_t12_bound"]) == row[6]


def test_csv_config_goes_to_stderr(run):
    code, out, err = run("count", "p", "--n", "10", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["family", "n", "t", "value"]
    assert rows[1][3] == "42"
    assert json.loads(err)["config"]["n"] == 10


def test_out_file(run, tmp_path):
    target = tmp_path / "census.json"
    code, out, _ = run("zeros", "exact", "--n", "4", "--format", "json",
                       "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["result"]["Z"] == "4"


def test_guard_exit_code(run):
    code, _, err = run("zeros", "exact", "--n", "50")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "guard"


def test_zeros_exact_refused_above_the_guard(run):
    message = _refusal(run, "zeros", "exact", "--n", "21")
    assert f"n <= {characters.TABLE_GUARD}, got 21" in message


@pytest.fixture()
def no_work(monkeypatch):
    """Make every exact counter, the census, the single character value
    and the two kernels of the analytic evaluators (log p(n) and the eta
    series) that the guarded commands reach fail loudly, on the modules
    that define them (each command imports them when it runs), so a
    refusal test also shows that no work started."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the cost guard")

    for module, name in ((counting, "partition_count"),
                         (counting, "bounded_partition_count"),
                         (counting, "tcore_count"),
                         (characters, "lower_bound_partial"),
                         (characters, "zero_count"),
                         (characters, "character_value"),
                         (asymptotics, "_log_p"),
                         (asymptotics, "_q_sums")):
        monkeypatch.setattr(module, name, fail)


def _refusal(run, *argv):
    code, out, err = run(*argv, "--format", "json")
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == 3 and error["type"] == "guard"
    return error["message"]


def test_count_p_cost_guard(run, no_work):
    message = _refusal(run, "count", "p", "--n", str(10**7))
    assert str(cli.P_GUARD_N) in message
    assert "exact p(n)" in message  # one value, not the table p(0..n)


def test_count_pt_cost_guard(run, no_work):
    message = _refusal(run, "count", "pt", "--t", "1000", "--n", "100000")
    assert "100000000" in message and str(cli.PT_GUARD_STEPS) in message
    _refusal(run, "count", "pt", "--t", str(10**7), "--n", str(10**7))


@pytest.mark.parametrize("t, n", [("5", "-3"), ("0", "10")])
def test_count_pt_usage_error(run, t, n):
    code, out, err = run("count", "pt", "--t", t, "--n", n, "--format", "json")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "usage"


def test_count_core_cost_guard(run, no_work):
    message = _refusal(run, "count", "core", "--t", "2", "--n", "100000")
    assert "2500000000" in message and str(cli.CORE_GUARD_STEPS) in message
    _refusal(run, "count", "core", "--t", str(10**7), "--n", str(10**7))


def test_zeros_lower_bound_cost_guard(run, no_work):
    message = _refusal(run, "zeros", "lower-bound", "--n", "20000", "--t-lo", "200")
    assert str(cli.LOWER_BOUND_GUARD_STEPS) in message
    _refusal(run, "zeros", "lower-bound", "--n", str(10**7), "--t-lo", "1",
             "--t-hi", "1")


@pytest.mark.parametrize("n_list, got", [("1-2000000000", "2000000000"),
                                          ("1-25", "25")])
def test_sweep_refused_before_expanding(run, no_work, n_list, got):
    # one JSON line before any range is expanded or any census starts
    message = _refusal(run, "sweep", "--n-list", n_list)
    assert f"n <= {characters.TABLE_GUARD}, got {got}" in message


@pytest.mark.parametrize("lam, mu, got", [
    ("[61]", "[60,1]", 61),
    ("[1000000]", "[1000000]", 10**6),
    ("[2]", "[1000000]", 10**6),
])
def test_char_eval_size_guard(run, no_work, lam, mu, got):
    # refused before any beta mask or memo is built, whichever side is large
    message = _refusal(run, "char", "eval", "--lambda", lam, "--mu", mu)
    assert f"n <= {characters.VALUE_GUARD}, got {got}" in message


@pytest.mark.parametrize("argv, name, digits", [
    (["t12", "--n", str(10**400)], "n", 401),
    (["t13", "--n", str(10**400), "--t", "10"], "n", 401),
    (["p32", "--n", str(10**400), "--t", "10"], "n", 401),
    (["saddle", "--n", str(10**400), "--t", "10"], "n", 401),
    (["saddle", "--n", "100", "--t", str(10**300)], "t", 301),
    (["p32", "--n", str(10**100 + 1), "--t", "10"], "n", 101),
])
def test_bounds_size_guard(run, no_work, argv, name, digits):
    # sizes whose doubles overflow: one JSON line, not an internal error
    message = _refusal(run, "bounds", *argv)
    assert f"{name} <= 10^100, got {name} of {digits} digits" in message


def test_char_eval_at_the_size_guard(run):
    code, out, _ = run("char", "eval", "--lambda", f"[{characters.VALUE_GUARD}]",
                       "--mu", f"[{characters.VALUE_GUARD}]", "--format", "json")
    assert code == 0 and json.loads(out)["result"]["chi"] == "1"


def test_p32_unknown_regime_is_usage_error(run):
    code, out, err = run("bounds", "p32", "--n", "1000", "--t", "900",
                         "--regime", "P32_V", "--format", "json")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "usage"
    # the message argparse gives for the same choices held as a tuple
    reference = argparse.ArgumentParser(exit_on_error=False)
    reference.add_argument("--regime", choices=P32_REGIMES)
    with pytest.raises(argparse.ArgumentError) as exc:
        reference.parse_args(["--regime", "P32_V"])
    assert error["message"] == str(exc.value)


def test_usage_exit_code(run):
    code, _, err = run("count", "p", "--n", "-1")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_unknown_flag_exit_code(run):
    code, _, err = run("count", "p", "--bogus")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "usage"


def test_no_bound_regime_is_guard(run):
    code, _, err = run("bounds", "p32", "--n", "2000", "--t", "130")
    assert code == 3
    assert "regime" in json.loads(err)["error"]["message"]


def test_human_format_echoes_config(run):
    code, out, _ = run("count", "p", "--n", "5")
    assert code == 0
    assert "# n = 5" in out
    assert "value" in out


def test_unwritable_out_file_is_usage_error(run, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run("count", "p", "--n", "10", "--format", "json",
                         "--out", str(target))
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == 2 and error["type"] == "usage"
    assert str(target) in error["message"]


def test_unexpected_error_is_one_json_line(run, monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_count_p", broken)
    code, out, err = run("count", "p", "--n", "10", "--format", "json")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == 1 and error["type"] == "internal"
    assert "RuntimeError: boom" in error["message"]


def _loaded_by(code: str, watched: set) -> list:
    """The modules of ``watched`` that running ``code`` in a fresh
    interpreter loads, beyond those the interpreter starts with."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import json, sys; before = set(sys.modules)\n{code}\n"
         f"print(json.dumps(sorted(({watched!r} & set(sys.modules)) - before)))"],
        env=env, capture_output=True, text=True, check=True).stdout
    return json.loads(out)


LAYERS = {f"charcensus.{m}" for m in ("asymptotics", "characters", "sampling",
                                      "counting", "partitions", "logreal",
                                      "rademacher")}


def test_import_loads_no_layer():
    # start-up compiles only the CLI; the Rademacher sum and decimal load
    # on the first large p(n), and no record type pulls in dataclasses
    watched = LAYERS | {"decimal", "dataclasses", "inspect"}
    assert _loaded_by("import charcensus.cli", watched) == []


def test_count_p_loads_only_its_layer():
    code = ("import contextlib, io, charcensus.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert charcensus.cli.main(['count', 'p', '--n', '5']) == 0")
    assert _loaded_by(code, LAYERS) == ["charcensus.counting", "charcensus.partitions"]


def _command_paths(parser, prefix=()):
    """Every command path of the parser: (), ("count",), ("count", "p"), ..."""
    yield prefix
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _command_paths(sub, prefix + (name,))


@pytest.mark.parametrize("path", list(_command_paths(cli.build_parser())),
                         ids=lambda path: " ".join(path) or "top")
def test_help_exits_0_and_loads_no_layer(path):
    # the --regime choices of `bounds p32` stay unread, so its help does
    # not load asymptotics
    code = ("import contextlib, io, charcensus.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    assert charcensus.cli.main({[*path, '--help']!r}) == 0\n"
            "assert out.getvalue().startswith('usage: charcensus')")
    assert _loaded_by(code, LAYERS) == []


PUBLIC_NAMES = {
    "Partition", "enumerate_partitions", "is_t_core", "parse_partition",
    "bounded_partition_count", "partition_count", "tcore_count",
    "tcore_count_bruteforce",
    "CharacterTable", "ZeroCensus", "character_table", "character_value",
    "lower_bound_partial", "lower_bound_sum", "zero_count",
    "LogReal",
    "BoundReport", "SaddleSolution", "core_count_bound", "eta",
    "full_table_bound", "rademacher_main_term", "solve_saddle",
    "strip_zero_bound", "tcore_count_estimate",
    "DensityEstimate", "estimate_zero_density",
    "CharcensusError", "GuardError", "NumericError",
}


def test_public_names_resolve_to_their_submodule():
    # the surface is pinned: a name joins or leaves it on purpose
    assert len(charcensus.__all__) == len(PUBLIC_NAMES) == 30
    assert set(charcensus.__all__) == PUBLIC_NAMES
    listed = dir(charcensus)
    for name in charcensus.__all__:
        obj = getattr(charcensus, name)
        assert getattr(sys.modules[obj.__module__], name) is obj
        assert name in listed
    namespace: dict = {}
    exec("from charcensus import *", namespace)
    assert all(namespace[name] is getattr(charcensus, name)
               for name in charcensus.__all__)
    with pytest.raises(AttributeError):
        charcensus.no_such_name
