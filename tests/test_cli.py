import argparse
import contextlib
import csv
import hashlib
import io
import itertools
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
from charcensus import asymptotics, characters, cli, counting, rademacher, sampling, values
from charcensus.cli import main


@pytest.fixture(scope="module")
def validator():
    """A validator of the shipped schema, the schema itself checked once
    for the module rather than on every validation."""
    schema = json.loads(resources.files("charcensus").joinpath(
        "schemas/output-v1.schema.json").read_text())
    cls = jsonschema.validators.validator_for(schema)
    cls.check_schema(schema)
    return cls(schema)


@pytest.fixture()
def run(capsys, validator):
    """Run the CLI, returning (exit_code, stdout, stderr); JSON output is
    validated against the shipped schema on every call."""

    def _run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        if "--format" in argv and argv[argv.index("--format") + 1] == "json" \
                and code == 0 and captured.out:
            validator.validate(json.loads(captured.out))
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


# sha256 of the stdout of `char table` and `zeros exact`, pinned so that
# the table engine keeps every formatted byte, not only the values
OUTPUT_DIGESTS = {
    ("char", 1, "csv"):
        "7f03e20ebfc21fc445734b60cb427b095bfec39ff2b4abae6387852e54b84ced",
    ("char", 1, "json"):
        "5b12835034241fa11aef10d919833c67cbcc438565bcd02a2e5009920379f84e",
    ("char", 5, "csv"):
        "a3b1e5296a3c600b1e03062803d4318bbfef6c9b2329ae29d7ed00ace79e8af4",
    ("char", 5, "json"):
        "c9bdc4dcbd6f937a9c0416bfd4931169b11aa01601d9ae38b3e6b604f38bbb04",
    ("char", 12, "csv"):
        "b283ee3b21a997180d46c2401c0db9e3eed592f8d430b368b1ba82b93d250b72",
    ("char", 12, "json"):
        "179f42846210f932c81a80bbb3dafcbfcf171e5e6df1a804ad0631ca2d5f419b",
    ("char", 15, "csv"):
        "faf8afabababff33f01ab9cf8653561d1a1006361d94338aea8e46ee886cab1d",
    ("char", 15, "json"):
        "13bc1208c8979e05b94b891f9dddf191895c7f5d6e692df0eda89076df66cf75",
    ("char", 20, "csv"):
        "66a3a6e7347f9f128182066cf51c2b60c595ae9a5be1f2fdfa30738cb53979cc",
    ("char", 20, "json"):
        "0777096b047d39ff2b209060cc74fbb736401ebf3a399fbf6e867d589a31036e",
    ("zeros", 1, "csv"):
        "8e959b7f90c884f8f61c80e0369a9e0c7f50eaac588ef61aa5b0fd4e85c13dcb",
    ("zeros", 1, "json"):
        "aac33e4839a560fbc6c8f0092a7722f2a2a8cf771544cc640fbe6bb3e2ae7e8e",
    ("zeros", 5, "csv"):
        "90a48e9fd81db9802fb9527ef1bea01e31e7407b2ade6fca0ad9c30c37f89324",
    ("zeros", 5, "json"):
        "04802a66a89e73a1afea360f10d284a4194bb44b82850b06a2baa5c3415d051a",
    ("zeros", 12, "csv"):
        "1484e288a267831449ad42c5515b30af1ea60c55573ef30105ec51de1315461b",
    ("zeros", 12, "json"):
        "ffd5b090046bc2fa7de813027364c545a9ca0ee0b7f5cb56103bec7b6ee92b30",
    ("zeros", 15, "csv"):
        "672250e620e1fc019fc53d26226c3f36d22620511453e1e10b72fb86af04c458",
    ("zeros", 15, "json"):
        "08b1ebe431eb5f85b130eaace5b7bd007bde59c03507c6a449045f478d4402d7",
    ("zeros", 20, "csv"):
        "d4ea8d5f29e9e0d84fd525d3d5e4278667704325a77a33fad7a2fe28371bf6cd",
    ("zeros", 20, "json"):
        "0e172c802d8779958339ae18e128b82631a1f45ca2866a4332628102cbc96139",
}


@pytest.mark.parametrize("command, n, fmt", sorted(OUTPUT_DIGESTS))
def test_table_and_census_output_bytes_pinned(run, command, n, fmt):
    sub = "table" if command == "char" else "exact"
    code, out, _ = run(command, sub, "--n", str(n), "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == OUTPUT_DIGESTS[command, n, fmt]


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


@pytest.mark.parametrize("n, t", [(100, 10), (1000, 900), (10**6, 6)])
def test_bounds_saddle_meets_tol_1e_12(run, n, t):
    # the bisection pins y to relative width 1e-12, so its residual stays
    # below about 5e-13 m and a tol of 1e-12 passes
    code, out, _ = run("bounds", "saddle", "--n", str(n), "--t", str(t),
                       "--tol", "1e-12", "--format", "json")
    assert code == 0
    result = json.loads(out)["result"]
    assert abs(result["residual"]) <= 1e-12 * (n + (t * t - 1) / 24)


def test_bounds_saddle_tol_below_the_floor_is_numeric(run):
    # a tol under 1e-12 asks for more than the bisection pins: at
    # (10^6, 6) the residual is about -4.5e-7 against m near 10^6
    code, out, err = run("bounds", "saddle", "--n", str(10**6), "--t", "6",
                         "--tol", "1e-15", "--format", "json")
    assert code == 1 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["code"], error["type"]) == (1, "numeric")
    assert "saddle residual" in error["message"]


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


SEED_RANGE = [("-1", False), (str(2**64), False), ("0", True), (str(2**64 - 1), True)]


@pytest.mark.parametrize("seed, ok", SEED_RANGE)
def test_estimate_density_seed_range(run, seed, ok):
    code, out, err = run("estimate", "density", "--n", "12", "--samples", "10",
                         "--seed", seed, "--format", "json")
    if ok:
        assert code == 0 and json.loads(out)["result"]["seed"] == int(seed)
    else:
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "usage" and seed in error["message"]


@pytest.mark.parametrize("seed, ok", SEED_RANGE)
def test_schema_density_seed_range(run, validator, seed, ok):
    # the schema admits exactly the seeds that estimate_zero_density takes
    _, out, _ = run("estimate", "density", "--n", "5", "--samples", "10",
                    "--seed", "0", "--format", "json")
    doc = json.loads(out)
    doc["result"]["seed"] = int(seed)
    if ok:
        validator.validate(doc)
    else:
        with pytest.raises(jsonschema.ValidationError):
            validator.validate(doc)


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


def test_benchmark_refusal_tracks_the_table_guard(monkeypatch):
    # the benchmark's cli workload expects this command to exit 3, so a
    # change that moves the guard must move the benchmark first
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    from workloads import cli_commands

    (argv, code), = [(argv, code) for cid, argv, code in cli_commands(42)
                     if cid == "refused"]
    assert argv[:2] == ["zeros", "exact"] and code == 3
    assert argv[argv.index("--n") + 1] == str(characters.TABLE_GUARD + 1)


def test_guard_exit_code(run):
    code, _, err = run("zeros", "exact", "--n", "50")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "guard"


def test_zeros_exact_refused_above_the_guard(run):
    message = _refusal(run, "zeros", "exact", "--n", "21")
    assert f"n <= {characters.TABLE_GUARD}, got 21" in message


@pytest.fixture()
def no_work(monkeypatch):
    """Make the kernels behind the guarded entry points fail loudly: the
    table p(0..n), the Rademacher sum, the eta recurrence that extends
    that table and gives each eta power, the column engine
    and the character recursion, on the modules that define them (the
    entry points look them up there when they run), the two kernels of
    the analytic evaluators (log p(n) and the eta series), and the
    sampler's table and character value on ``sampling``, so a refusal
    test also shows that no work started."""
    def fail(*args, **kwargs):
        raise AssertionError("work started before the cost guard")

    for module, name in ((counting, "_p_table"),
                         (rademacher, "p_exact"),
                         (counting, "_eta_extend"),
                         (characters, "_packed_rows"),
                         (characters, "_kept_levels"),
                         (values, "_values"),
                         (asymptotics, "_log_p"),
                         (asymptotics, "_q_sums"),
                         (sampling, "build_bounded_table"),
                         (sampling, "_values")):
        monkeypatch.setattr(module, name, fail)


def _refusal(run, *argv):
    code, out, err = run(*argv, "--format", "json")
    assert code == 3 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == 3 and error["type"] == "guard"
    return error["message"]


def test_count_p_cost_guard(run, no_work):
    message = _refusal(run, "count", "p", "--n", str(10**6 + 1))
    assert str(counting.P_EXACT_LIMIT) in message
    assert "exact p(n)" in message  # one value, not the table p(0..n)
    # with t >= n, p_t(n) is p(n) and has the same limit
    message = _refusal(run, "count", "pt", "--t", str(10**7), "--n", str(10**6 + 1))
    assert str(counting.P_EXACT_LIMIT) in message


def test_count_p_at_the_exact_limit(run):
    # one Rademacher sum, not the table p(0..n): p(10^6) = 1.47... * 10^1107
    for argv in (("p",), ("pt", "--t", str(10**6))):
        code, out, _ = run("count", *argv, "--n", str(10**6), "--format", "json")
        assert code == 0
        value = json.loads(out)["result"]["value"]
        assert len(value) == 1108 and value.startswith("147168")


def test_count_pt_cost_guard(run, no_work):
    message = _refusal(run, "count", "pt", "--t", "1000", "--n", "100000")
    assert "100000000" in message and str(counting.PT_GUARD_STEPS) in message
    _refusal(run, "count", "pt", "--t", str(10**7), "--n", str(10**7))
    # t < n has the n limit of t >= n, so a p_t(n) with few steps but a
    # long DP list is refused before the list is allocated
    message = _refusal(run, "count", "pt", "--t", "2", "--n", str(10**6 + 1))
    assert f"n (exact p_t(n)) = 1000001 exceeds the limit {counting.P_EXACT_LIMIT}" \
        in message


def test_count_pt_above_the_table_limit(run):
    # p_2(n) = floor(n/2) + 1; n above the table limit P_GUARD_N
    code, out, _ = run("count", "pt", "--t", "2", "--n", "200000", "--format", "json")
    assert code == 0 and json.loads(out)["result"]["value"] == "100001"


# an invalid t is a usage error at any n, before the cost guard
@pytest.mark.parametrize("t, n", [("5", "-3"), ("0", "10"), ("0", str(10**8))])
def test_count_pt_usage_error(run, t, n):
    code, out, err = run("count", "pt", "--t", t, "--n", n, "--format", "json")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert json.loads(line)["error"]["type"] == "usage"


def test_count_core_cost_guard(run, no_work):
    # n alone is bounded, at t = 2 as at any t <= n
    message = _refusal(run, "count", "core", "--t", "2", "--n", "100001")
    assert f"n (exact p(0..n)) = 100001 exceeds the limit {counting.P_GUARD_N}" in message
    _refusal(run, "count", "core", "--t", str(10**7), "--n", str(10**7))
    # t > n is p(n), with its limit
    message = _refusal(run, "count", "core", "--t", str(10**6 + 2), "--n", str(10**6 + 1))
    assert f"n (exact p(n)) = 1000001 exceeds the limit {counting.P_EXACT_LIMIT}" \
        in message


def test_count_core_one_cores_are_read_off(run, no_work):
    # the only 1-core is the empty partition, so no n is too large
    code, out, _ = run("count", "core", "--t", "1", "--n", "20000", "--format", "json")
    assert code == 0 and json.loads(out)["result"]["value"] == "0"


def test_count_core_above_n_is_p(run):
    # every hook length is below t, so every partition is a t-core
    _, p_out, _ = run("count", "p", "--n", "200000", "--format", "json")
    code, out, _ = run("count", "core", "--t", "200001", "--n", "200000",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["value"] == json.loads(p_out)["result"]["value"]


@pytest.mark.parametrize("argv", [
    ("count", "core", "--t", "0", "--n", "200000"),
    ("zeros", "lower-bound", "--n", "200000", "--t-lo", "5", "--t-hi", "3"),
])
def test_invalid_argument_is_usage_error_at_any_size(run, no_work, argv):
    # argument validation comes before the cost guard
    code, out, err = run(*argv, "--format", "json")
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["type"] == "usage"


def test_lower_bound_at_n_0_names_n(run, no_work):
    # not the t range 1..0 that the defaults would make of it
    code, out, err = run("zeros", "lower-bound", "--n", "0", "--format", "json")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert (error["type"], error["message"]) == ("usage", "n must be positive, got 0")


@pytest.mark.parametrize("argv", [
    ("estimate", "density", "--n", "-5", "--samples", "10", "--seed", "1"),
    ("bounds", "saddle", "--n", "-3", "--t", "6"),
    ("bounds", "saddle", "--n", "100", "--t", "0"),
    ("bounds", "t13", "--n", "-5", "--t", "6"),
    ("bounds", "t13", "--n", "1000", "--t", "0"),
    ("bounds", "p32", "--n", "-5", "--t", "6"),
    ("bounds", "p32", "--n", "1000", "--t", "-2"),
    # the other arguments too, at an n or t the domain guards refuse
    ("estimate", "density", "--n", "1", "--samples", "0", "--seed", "1"),
    ("bounds", "saddle", "--n", "100", "--t", "3", "--tol", "2"),
    ("bounds", "p32", "--n", "50", "--t", "6", "--epsilon", "2"),
    ("bounds", "p32", "--n", "50", "--t", "6", "--regime", "P32_V"),
])
def test_invalid_argument_before_the_domain_guards(run, no_work, argv):
    # checked before the domain guards, which refuse n = 0 or 1, or t < 6
    code, out, err = run(*argv, "--format", "json")
    assert code == 2 and out == ""
    error = json.loads(err)["error"]
    assert error["type"] == "usage" and "must be" in error["message"]


@pytest.mark.parametrize("n_list, token", [("5-3,7", "5-3"), ("5-3", "5-3"),
                                           ("3-5,9-8", "9-8")])
def test_sweep_empty_range_is_usage_error(run, no_work, n_list, token):
    # a reversed range holds no n: it is named, not dropped
    code, out, err = run("sweep", "--n-list", n_list, "--format", "json")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "usage" and f"empty range '{token}'" in error["message"]


@pytest.mark.parametrize("n_list, token", [("2,,3", ""), ("3-x", "3-x"),
                                           ("4,a", "a")])
def test_sweep_bad_token_is_usage_error(run, no_work, n_list, token):
    # the message names the token, not the parser's private type function
    code, out, err = run("sweep", "--n-list", n_list, "--format", "json")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["type"] == "usage" and f"not an n or a range: {token!r}" in error["message"]
    assert "_n_ranges" not in error["message"]


def test_zeros_lower_bound_cost_guard(run, no_work):
    # 64101 is the first n whose whole sum is refused
    message = _refusal(run, "zeros", "lower-bound", "--n", "64101")
    assert str(counting.LOWER_BOUND_GUARD_STEPS) in message
    _refusal(run, "zeros", "lower-bound", "--n", str(10**7), "--t-lo", "1",
             "--t-hi", "1")


def test_sweep_row_count_guard(run, no_work):
    message = _refusal(run, "sweep", "--n-list", ",".join(["20"] * 3000))
    assert f"rows (census runs) = 3000 exceeds the limit {cli.SWEEP_GUARD_ROWS}" in message
    # a range counts as its length
    message = _refusal(run, "sweep", "--n-list", ",".join(["1-20"] * 6))
    assert "rows (census runs) = 120" in message
    _refusal(run, "sweep", "--n-list", ",".join(["1"] * (cli.SWEEP_GUARD_ROWS + 1)))


def test_sweep_at_the_row_limit(run):
    code, out, _ = run("sweep", "--n-list", ",".join(["1"] * cli.SWEEP_GUARD_ROWS),
                       "--format", "json")
    assert code == 0 and len(json.loads(out)["result"]["rows"]) == cli.SWEEP_GUARD_ROWS


def test_sweep_repeated_n_runs_one_census(run, monkeypatch):
    _, out, _ = run("sweep", "--n-list", "12", "--format", "json")
    (row,) = json.loads(out)["result"]["rows"]
    calls = []
    zero_count = characters.zero_count

    def counted(n):
        calls.append(n)
        return zero_count(n)

    monkeypatch.setattr(characters, "zero_count", counted)
    code, out, _ = run("sweep", "--n-list", "12,12,12", "--format", "json")
    assert code == 0 and calls == [12]
    assert json.loads(out)["result"]["rows"] == [row] * 3


@pytest.mark.parametrize("n, samples", [("12", "100000000000000"), ("60", "1000000")])
def test_estimate_density_samples_guard(run, no_work, n, samples):
    message = _refusal(run, "estimate", "density", "--n", n, "--samples", samples,
                       "--seed", "1")
    assert str(sampling.DENSITY_GUARD) in message


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
    assert f"n <= {values.VALUE_GUARD}, got {got}" in message


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
    code, out, _ = run("char", "eval", "--lambda", f"[{values.VALUE_GUARD}]",
                       "--mu", f"[{values.VALUE_GUARD}]", "--format", "json")
    assert code == 0 and json.loads(out)["result"]["chi"] == "1"


def test_p32_unknown_regime_is_usage_error(run, no_work):
    # core_count_bound's own message, also below its n >= 100 guard
    for n in ("1000", "50", "-5"):
        code, out, err = run("bounds", "p32", "--n", n, "--t", "900",
                             "--regime", "P32_V", "--format", "json")
        assert code == 2 and out == ""
        (line,) = err.splitlines()
        assert json.loads(line)["error"] == {
            "code": 2, "type": "usage",
            "message": "regime must be one of P32_I, P32_II, P32_III, P32_IV, got 'P32_V'"}


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


def test_interrupt_is_one_json_line(run, monkeypatch):
    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_count_p", interrupted)
    code, out, err = run("count", "p", "--n", "10", "--format", "json")
    assert code == 130 and out == ""
    assert "Traceback" not in err
    (line,) = err.splitlines()
    error = json.loads(line)["error"]
    assert error["code"] == 130 and error["type"] == "interrupted"


class _ClosedPipe:
    """A stdout whose reader is gone, on a file descriptor of its own."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.fd


def test_closed_stdout_exits_141_in_silence(capsys, monkeypatch, tmp_path):
    with open(tmp_path / "stdout", "w") as fh:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fh.fileno()))
        assert main(["count", "p", "--n", "10", "--format", "json"]) == 141
        # the descriptor now points at devnull, for the flush at exit
        assert os.path.samestat(os.fstat(fh.fileno()), os.stat(os.devnull))
    assert capsys.readouterr().err == ""


def test_closed_stdout_pipe_in_a_subprocess():
    # the read end is closed before the child starts, so its write fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "charcensus.cli", "count", "p", "--n", "5000",
             "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert done.returncode == 141
    assert done.stderr == b""  # no JSON error, no "Exception ignored" at exit


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
                                      "counting", "partitions",
                                      "rademacher", "values")}


def test_import_loads_no_layer():
    # start-up compiles only the CLI; the Rademacher sum and decimal load
    # on the first large p(n), and no record type pulls in dataclasses
    watched = LAYERS | {"decimal", "dataclasses", "inspect"}
    assert _loaded_by("import charcensus.cli", watched) == []


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
    code = ("import contextlib, io, charcensus.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
            f"    assert charcensus.cli.main({[*path, '--help']!r}) == 0\n"
            "assert out.getvalue().startswith('usage: charcensus')")
    assert _loaded_by(code, LAYERS) == []


def _parsed(parser, argv, capsys):
    """(exit code, stdout, stderr) of ``parser.parse_args(argv)``, which
    exits on --help and on a usage error."""
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    return (exc.value.code, *capsys.readouterr())


def _leaves():
    paths = set(_command_paths(cli.build_parser()))
    return sorted(path for path in paths
                  if not any(other[:len(path)] == path != other for other in paths))


@pytest.mark.parametrize("path", _leaves(), ids=" ".join)
def test_one_command_parser_prints_the_full_parsers_help(path, capsys):
    # main builds only the parsers on a named command's way down; its
    # help is byte for byte the full tree's
    assert cli._command_path([*path, "--help"]) == path
    full = _parsed(cli.build_parser(), [*path, "--help"], capsys)
    assert full[0] == 0 and full[1].startswith(f"usage: charcensus {' '.join(path)} ")
    assert _parsed(cli.build_parser(path), [*path, "--help"], capsys) == full
    assert main([*path, "--help"]) == 0
    assert capsys.readouterr() == full[1:]


# one run of each leaf command, and the layers it loads
COMMAND_LAYERS = {
    ("count", "p", "--n", "5"): ("counting", "partitions"),
    ("count", "pt", "--t", "2", "--n", "5"): ("counting", "partitions"),
    ("count", "core", "--t", "2", "--n", "5"): ("counting", "partitions"),
    ("char", "eval", "--lambda", "[2,1]", "--mu", "[3]"): ("partitions", "values"),
    ("char", "table", "--n", "4"): ("characters", "partitions"),
    ("zeros", "exact", "--n", "5"): ("characters",),
    ("zeros", "lower-bound", "--n", "12"): ("counting", "partitions"),
    ("bounds", "p32", "--n", "100", "--t", "10"): ("asymptotics", "counting", "partitions"),
    ("bounds", "saddle", "--n", "100", "--t", "10"): ("asymptotics", "counting", "partitions"),
    ("bounds", "t12", "--n", "12"): ("asymptotics", "counting", "partitions"),
    ("bounds", "t13", "--n", "100", "--t", "10"): ("asymptotics", "counting", "partitions"),
    ("estimate", "density", "--n", "5", "--samples", "10", "--seed", "1"):
        ("counting", "partitions", "sampling", "values"),
    ("sweep", "--n-list", "1-3"): ("asymptotics", "characters", "counting", "partitions"),
}


def _path_of(argv):
    """The command path of an argv: its words before the first option."""
    return tuple(itertools.takewhile(lambda word: not word.startswith("--"), argv))


@pytest.mark.parametrize("argv, layers", [
    *(pytest.param(argv, layers, id=" ".join(_path_of(argv)))
      for argv, layers in COMMAND_LAYERS.items()),
    # the census engine loads no other layer
    pytest.param(None, ("characters",), id="import characters"),
])
def test_count_p_loads_only_its_layer(argv, layers):
    if argv is None:
        code = "import charcensus.characters"
    else:
        code = ("import contextlib, io, charcensus.cli\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    assert charcensus.cli.main({list(argv)!r}) == 0")
    assert _loaded_by(code, LAYERS) == [f"charcensus.{m}" for m in layers]


def test_library_census_loads_only_the_census_engine():
    # the census compiles no single-value walk and no partitions layer
    code = "import charcensus; assert charcensus.zero_count(20).total_zeros == 155176"
    assert _loaded_by(code, LAYERS) == ["charcensus.characters"]


def test_library_density_loads_no_census_engine():
    code = ("import charcensus\n"
            "assert charcensus.estimate_zero_density(12, 200, seed=1).samples == 200")
    assert _loaded_by(code, LAYERS) == [f"charcensus.{m}" for m in
                                        ("counting", "partitions", "sampling", "values")]


def test_every_leaf_command_has_a_layer_case():
    assert set(map(_path_of, COMMAND_LAYERS)) == set(_leaves())


def test_main_builds_only_a_named_commands_parsers(monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def recorded(path=()):
        built.append(path)
        return build(path)

    monkeypatch.setattr(cli, "build_parser", recorded)
    assert main(["sweep", "--n-list", "3"]) == 0
    assert main(["count", "p", "--n", "5"]) == 0
    for argv in (["--help"], ["count", "--help"], ["count", "q"], []):
        main(argv)
    assert built == [("sweep",), ("count", "p"), (), (), (), ()]


def _usage_errors():
    """Three usage errors of each command: a required option left out, an
    int that is not one and an unknown option."""
    for argv in COMMAND_LAYERS:
        path = _path_of(argv)
        yield pytest.param(list(path), id=f"{' '.join(path)} missing")
        if "--n" in argv:
            bad = list(argv)
            bad[bad.index("--n") + 1] = "x"
            yield pytest.param(bad, id=f"{' '.join(path)} bad int")
        yield pytest.param([*argv, "--bogus"], id=f"{' '.join(path)} unknown")


@pytest.mark.parametrize("argv", _usage_errors())
def test_one_command_parser_gives_the_full_parsers_usage_errors(argv, capsys):
    full = _parsed(cli.build_parser(), argv, capsys)
    assert full[0] == 2 and full[1] == ""
    assert json.loads(full[2])["error"]["type"] == "usage"
    path = cli._command_path(argv)
    assert path == _path_of(argv)
    assert _parsed(cli.build_parser(path), argv, capsys) == full
    assert main(argv) == 2
    assert capsys.readouterr() == full[1:]


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


def test_readme_library_example_runs():
    # the README's python block, run as written, so that a moved or
    # renamed name shows up here
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = text.split("```python\n")[1:]
    assert len(blocks) == 1
    code = blocks[0].split("```")[0]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(code, "README.md", "exec"), {})
    log_bound, ratio = map(float, out.getvalue().split())
    assert 0 < ratio < 1 and math.isfinite(log_bound)
