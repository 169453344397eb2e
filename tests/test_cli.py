import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bstar
from bstar import kernels, search
from bstar.cli import run
from bstar.constructions import ConstructionReport, half_modular, singer_sets, small_gn_witness
from bstar.intervals import IntervalSet, largest_symmetric_subset
from bstar.intsets import IntSet, is_bstar


def _refuse(constant):
    raise ValueError(f"{constant} is not strict JSON")


def run_json(capsys, argv):
    """Exit code and the last stdout line, parsed as strict JSON."""
    code = run(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out.splitlines()[-1], parse_constant=_refuse)


def test_verify_pass_and_fail(capsys):
    code, obj = run_json(capsys, ["verify", "--set", "1,2,5,7", "--g", "2"])
    assert code == 0 and obj["max_rep"] == 2 and obj["is_bstar"]
    code, obj = run_json(capsys, ["verify", "--set", "1,2,5,7", "--g", "1"])
    assert code == 1 and not obj["is_bstar"]


def test_verify_modular(capsys):
    code, obj = run_json(capsys, ["verify", "--set", "0,1,2,4", "--modulus", "7",
                                  "--g", "3"])
    assert code == 0 and obj["max_rep"] == 3


@pytest.mark.filterwarnings("error")  # a warning on stderr would break the one-line rule
def test_usage_error_exit_code(capsys, tmp_path):
    set_json = 'set JSON must be an object with keys "elements" (a list) and "modulus"'
    set_entries = 'set JSON "elements" must be integers and "modulus" an integer or null'
    one_row = tmp_path / "one.csv"
    one_row.write_text("0,1\n")
    three_cols = tmp_path / "three.csv"
    three_cols.write_text("0,1,2\n1,0.5,3\n")
    t_gap = tmp_path / "gap.csv"
    t_gap.write_text("0,1\n2,0.5\n")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    non_finite = []  # each would otherwise end in a tail norm overflow
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / f"{bad}.csv"
        path.write_text(f"0,1\n1,{bad}\n2,0.3\n")
        non_finite += [(["kernel", "pwl", "--pwl-file", str(path), "--p", p],
                        "kernel node values must be finite") for p in ("4/3", "2")]
    huge = tmp_path / "huge.csv"  # finite nodes whose transform overflows
    huge.write_text("0,1\n1,1e308\n")
    large = tmp_path / "large.csv"  # finite C(j) whose power-of-two scale overflows
    large.write_text("0,1\n1,6e307\n2,6e307\n3,6e307\n")
    pwl_rows = "--pwl-file must hold rows t,y_t for t = 0, 1, ..., T"
    messages = [
        (["construct", "ruzsa"], "the following arguments are required: --p, --k"),
        (["construct", "compose"],
         "the following arguments are required: --set-json, --mate-json, --g, --h"),
        (["construct", "ruzsa", "--p", "5", "--k", "1", "--g", "3"],
         "unrecognized arguments: --g 3"),
        (["verify", "--g", "2"], "the following arguments are required: --set"),
        (["verify", "--set", "1,2", "--g", "0"], "--g must be a positive integer"),
        (["verify", "--set", "1,2", "--g", "-3"], "--g must be a positive integer"),
        (["table", "--which", "R", "--max-k", "4", "--g-min", "0", "--g-max", "1"],
         "--g-min must be a positive integer"),
        (["bounds"], "the following arguments are required: bound"),
        (["kernel"], "the following arguments are required: source"),
        (["dee"], "the following arguments are required: --intervals"),
        (["dee", "--intervals", "0:1", "--json-file", "f"],
         "unrecognized arguments: --json-file f"),
        (["dee", "--intervals", "1/2:1/4"], "interval 1/2:1/4 must have a < b"),
        (["dee", "--intervals", "0.5:0.5", "--mode", "float"], "interval 0.5:0.5 must have a < b"),
        (["bounds", "rho-lower"], "the following arguments are required: --g"),
        (["bounds", "rho-upper"], "the following arguments are required: --g"),
        # the g = 3 formula falls below rho(3)^2 = 1/3, so it is no bound
        (["bounds", "rho-upper", "--g", "3"],
         "rho_upper has no bound at g = 3: the small-odd formula gives 0.155457, "
         "below the known rho(3)^2 = 1/3"),
        (["bounds", "delta-half"], "the following arguments are required: --epsilon"),
        (["bounds", "ubiquity"], "the following arguments are required: --gamma, --alpha"),
        (["bounds", "ubiquity", "--gamma", "0.7"],
         "the following arguments are required: --alpha"),
        (["kernel", "pwl"], "the following arguments are required: --pwl-file"),
        # a flag that another bound or kernel source reads is refused
        (["bounds", "certificate", "--g", "4"], "unrecognized arguments: --g 4"),
        (["kernel", "pwl", "--pwl-file", "f", "--T", "5"], "unrecognized arguments: --T 5"),
        (["kernel", "K3", "--pwl-file", "f"], "unrecognized arguments: --pwl-file f"),
        (["random", "circle", "--n", "100"], "the following arguments are required: --epsilon"),
        (["kernel", "pwl", "--pwl-file", str(one_row)], "need node values y_0..y_T with T >= 1"),
        (["kernel", "pwl", "--pwl-file", str(three_cols)], pwl_rows),
        (["kernel", "pwl", "--pwl-file", str(t_gap)], pwl_rows),
        (["kernel", "pwl", "--pwl-file", str(empty)], pwl_rows),
        *non_finite,
        *[(["kernel", "pwl", "--pwl-file", str(path)],
           "the kernel's Fourier coefficients overflow a float") for path in (huge, large)],
        (["kernel", "K5", "--p", "4/0"], "--p 4/0 has a zero denominator"),
        (["kernel", "K5", "--p", "4/3/2"], "--p 4/3/2 must be a number or a fraction a/b"),
        (["kernel", "K5", "--p", "abc"], "--p abc must be a number or a fraction a/b"),
        (["kernel", "K5", "--T", "-1"], "T must be a positive integer"),
        (["bounds", "certificate", "--T", "-2"], "T must be a positive integer"),
        (["dee", "--intervals", "0:1/0"], "interval 0:1/0 has a zero denominator"),
        # a chunk that is not exactly a:b
        (["dee", "--intervals", ""], "interval '' must have the form a:b"),
        (["dee", "--intervals", "0:1/2,"], "interval '' must have the form a:b"),
        (["dee", "--intervals", "0:1:2"], "interval '0:1:2' must have the form a:b"),
        (["delta-k", "--k", "2", "--epsilon", "0.5", "--restarts", "0"],
         "restarts must be positive"),
        (["verify", "--set", "1,2,-3", "--g", "2"], "elements must be nonnegative"),
        (["verify", "--set", "1,2", "--modulus", "0", "--g", "2"],
         "modulus must be a positive integer"),
        (["construct", "compose", "--set-json", "{}", "--mate-json", "{}", "--g", "2",
          "--h", "2"], set_json),
        (["construct", "compose", "--set-json", "[1,2]", "--mate-json", "[1,2]", "--g", "2",
          "--h", "2"], set_json),
        (["construct", "compose", "--set-json", '{"elements": ["a"], "modulus": 7}',
          "--mate-json", "{}", "--g", "2", "--h", "2"], set_entries),
        (["construct", "compose", "--set-json", '{"elements": [1.0], "modulus": 7}',
          "--mate-json", "{}", "--g", "2", "--h", "2"], set_entries),
        (["construct", "compose", "--set-json", '{"elements": [true], "modulus": 7}',
          "--mate-json", "{}", "--g", "2", "--h", "2"], set_entries),
        (["construct", "compose", "--set-json", '{"elements": [1], "modulus": "7"}',
          "--mate-json", "{}", "--g", "2", "--h", "2"], set_entries),
        # non-finite parameters; each would otherwise print NaN or Infinity
        (["random", "integer", "--n", "10", "--gamma", "nan"], "gamma must be at least pi"),
        (["bounds", "ubiquity", "--gamma", "nan", "--alpha", "0.5"],
         "gamma_ratio must be positive and finite"),
        (["bounds", "ubiquity", "--gamma", "inf", "--alpha", "0.5"],
         "gamma_ratio must be positive and finite"),
        (["bounds", "ubiquity", "--gamma", "1e200", "--alpha", "0.5"],
         "the ubiquity bound overflows a float at gamma_ratio = 1e+200"),
        (["kernel", "K5", "--T", "10", "--p", "inf"], "tail norms need 1 < p < inf"),
        # a finite p can still overflow the tail norm; no numpy warning leaks
        (["kernel", "K5", "--p", "34"], "the tail norm overflows a float at p = 34"),
        (["kernel", "K5", "--T", "10", "--p", "100"],
         "the tail norm overflows a float at p = 100"),
        # --n decides one n; a range flag next to it would be ignored
        (["search", "--kind", "integer", "--g", "2", "--k", "5", "--n", "12",
          "--n-start", "100", "--n-limit", "3"],
         "argument --n-start: not allowed with argument --n"),
        (["search", "--kind", "integer", "--g", "2", "--k", "5", "--n", "12",
          "--n-limit", "3"], "argument --n-limit: not allowed with argument --n"),
        # a search effort that means nothing
        (["search", "--kind", "integer", "--g", "2", "--k", "5", "--budget", "-1"],
         "budget must be nonnegative"),
        (["search", "--kind", "integer", "--g", "2", "--k", "5", "--n", "12", "--budget", "-1"],
         "budget must be nonnegative"),
        (["search", "--kind", "integer", "--g", "2", "--k", "5", "--threads", "0"],
         "workers must be positive"),
        (["search", "--kind", "integer", "--g", "2", "--k", "5", "--n", "12", "--threads", "-3"],
         "workers must be positive"),
        (["table", "--which", "R", "--max-k", "4", "--budget", "-1"],
         "budget must be nonnegative"),
        (["table", "--which", "R", "--max-k", "4", "--threads", "0"], "workers must be positive"),
        (["table", "--which", "R", "--max-k", "4", "--g-min", "3", "--g-max", "2"],
         "--g-max must be at least --g-min"),
        # a --max-k below the first k of --g-min would print a bare header
        (["table", "--which", "R", "--max-k", "2"],
         "--max-k must be at least 3, the first k of --g-min 2"),
        (["table", "--which", "C", "--max-k", "4", "--g-min", "4", "--g-max", "6"],
         "--max-k must be at least 5, the first k of --g-min 4"),
    ]
    for argv, message in messages:
        assert run(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n", argv
    # argparse words the list of choices differently across Python versions
    assert run(["nonsense"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: argument command: invalid choice: 'nonsense'")


def test_non_finite_result_is_a_usage_error(capsys, monkeypatch):
    # a NaN that no parameter check catches still never prints as JSON
    monkeypatch.setattr(kernels, "zeta_integral_check", lambda: math.nan)
    assert run(["bounds", "zeta-integral"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: Out of range float values are not JSON compliant")


def test_undecided_search_exit_code(capsys):
    assert run(["search", "--kind", "integer", "--g", "2", "--k", "12",
                "--budget", "10"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: node budget exhausted")

    # a table stops at the undecided row; the rows before it stand
    assert run(["table", "--which", "R", "--max-k", "6", "--g-max", "2",
                "--budget", "30"]) == 3
    captured = capsys.readouterr()
    assert captured.out.splitlines()[:2] == ["kind,g,k,min_n,exhaustive,witness",
                                             "integer,2,3,4,True,1 2 4"]
    assert captured.err.startswith("error: node budget exhausted")


def test_closed_pipe_is_not_an_error():
    # the reader takes the header and goes away while rows are still due
    env = dict(os.environ, PYTHONPATH=str(Path(bstar.__file__).resolve().parents[1]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "bstar.cli", "table", "--which", "C",
         "--max-k", "8", "--g-max", "3"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"kind,g,k,min_n,exhaustive,witness\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert err == b"" and proc.returncode == 0


def test_package_import_loads_no_submodule():
    # the package is a namespace: callers import the submodules they use
    env = dict(os.environ, PYTHONPATH=str(Path(bstar.__file__).resolve().parents[1]))
    code = ("import sys, bstar; "
            "print([m for m in sys.modules if m == 'numpy' or m.startswith('bstar.')])")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_cli_import_and_help_load_no_numpy():
    # the handlers import the library: importing the front end, --help
    # and a usage error the parser finds load neither numpy nor a
    # library module
    env = dict(os.environ, PYTHONPATH=str(Path(bstar.__file__).resolve().parents[1]))
    code = "\n".join([
        "import contextlib, io, sys",
        "import bstar.cli",
        "loaded = lambda: [m for m in sys.modules if m == 'numpy' or m.startswith('bstar.')]",
        "print(loaded())",
        "for argv in (['--help'], ['table', '--help'], ['kernel', 'K5', '--help'],",
        "             ['search', '--kind', 'integer']):",
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):",
        "        try:",
        "            bstar.cli.run(argv)",
        "        except SystemExit:",
        "            pass",
        "print(loaded())",
    ])
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "['bstar.cli']\n['bstar.cli']\n"
    # bstar --help itself: -X importtime lists every import on stderr,
    # cli's own fractions among them, and numpy must not be there
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "bstar.cli", "--help"],
                          env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.startswith("usage: bstar")
    assert "| fractions" in proc.stderr and "numpy" not in proc.stderr


def test_kernel_families_match_the_profiles():
    from bstar import cli
    assert cli._KERNEL_FAMILIES == tuple(sorted(kernels.PROFILES))


def test_search_subcommand(capsys):
    code, obj = run_json(capsys, ["search", "--kind", "integer", "--g", "2",
                                  "--k", "8"])
    assert code == 0 and obj["min_n"] == 35
    witness = IntSet.of(obj["witness"])
    assert is_bstar(witness, 2) and witness.max_element <= 35


def test_search_single_decision(capsys):
    code, obj = run_json(capsys, ["search", "--kind", "modular", "--g", "3",
                                  "--k", "4", "--n", "7"])
    assert code == 0 and obj["feasible"] and obj["witness"] == [0, 1, 2, 4]


def test_bounds_subcommand(capsys):
    code, obj = run_json(capsys, ["bounds", "rho-lower", "--g", "12"])
    assert code == 0
    assert abs(obj["rho_lower"] - 0.7746) < 1e-4
    code, obj = run_json(capsys, ["bounds", "rho-upper", "--g", "2"])
    assert code == 0 and obj == {"rho_upper_sq": pytest.approx(1.238015, abs=1e-6)}
    code, obj = run_json(capsys, ["bounds", "zeta-integral"])
    assert abs(obj["zeta_integral"] - math.sqrt(3) / 2) < 1e-9
    # an underflowed ubiquity bound prints 0.0, never -0.0
    assert run(["bounds", "ubiquity", "--gamma", "1e-200", "--alpha", "0.5"]) == 0
    assert capsys.readouterr().out == '{"ubiquity_spectral": 0.0, "ubiquity_counting": 0.0}\n'


def test_construct_and_round_trip(capsys):
    code, obj = run_json(capsys, ["construct", "singer", "--p", "2", "--k", "1"])
    assert code == 0 and obj["verified"]
    reloaded = IntSet.of(obj["set"]["elements"], obj["set"]["modulus"])
    assert is_bstar(reloaded, obj["claimed_g"])


def test_construct_half_modular_json_operands(capsys):
    s = '{"modulus": null, "elements": [1, 2, 5, 7]}'
    m = '{"modulus": 7, "elements": [0, 1, 3]}'
    code, obj = run_json(capsys, ["construct", "half-modular", "--g", "2",
                                  "--h", "2", "--set-json", s, "--mate-json", m])
    assert code == 0 and obj["verified"] and obj["claimed_g"] == 4


def test_construct_report_round_trip(capsys):
    # the printed fields rebuild the library's report exactly
    code, obj = run_json(capsys, ["construct", "singer", "--p", "3", "--k", "2"])
    assert code == 0
    assert list(obj) == ["construction", "params", "claimed_g", "claimed_modulus_or_range",
                         "verified", "set"]
    again = ConstructionReport(
        obj["construction"], obj["params"],
        IntSet(tuple(obj["set"]["elements"]), obj["set"]["modulus"]),
        obj["claimed_g"], obj["claimed_modulus_or_range"], obj["verified"])
    assert again == singer_sets(3, 2)


def test_set_json_round_trip(capsys):
    # construct prints its set in the format that --set-json and --mate-json read
    _, mate = run_json(capsys, ["construct", "singer", "--p", "2", "--k", "1"])
    assert mate["set"] == {"modulus": 7, "elements": [0, 1, 3]}
    _, base = run_json(capsys, ["construct", "small-gn", "--g", "6"])
    assert base["set"]["modulus"] is None
    code, obj = run_json(capsys, ["construct", "half-modular", "--g", "6", "--h", "2",
                                  "--set-json", json.dumps(base["set"]),
                                  "--mate-json", json.dumps(mate["set"])])
    expected = half_modular(small_gn_witness(6).set, 6, singer_sets(2, 1).set, 2)
    assert code == 0 and obj["set"]["elements"] == list(expected.set.elements)


def test_dee_profile_csv(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    code, obj = run_json(capsys, ["dee", "--intervals", "0:1/4,3/4:1",
                                  "--profile-csv", str(out)])
    assert code == 0 and obj["d_value"]["num"] == 1 and obj["d_value"]["den"] == 2
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "center,symmetric_measure"
    assert len(lines) > 3
    # float mode on the circle prints the library's D(E) at 12 digits
    code, obj = run_json(capsys, ["dee", "--intervals", "0:0.25,0.3:0.45", "--mode", "float",
                                  "--geometry", "circle", "--profile-csv", str(out)])
    e = IntervalSet.of([(0.0, 0.25), (0.3, 0.45)], geometry="circle")
    assert code == 0 and obj["geometry"] == "circle"
    assert obj["d_value"] == float(f"{float(largest_symmetric_subset(e).d_value):.12g}")
    assert out.read_text().startswith("center,symmetric_measure\n")


def test_dee_block_picture_bytes(tmp_path, capsys):
    # the block picture of {1, 2, 3, 5, 8, 13} at n = 13: 4 intervals on the
    # grid L = 13, too few for the grid path; bytes frozen from the sweep
    frozen = {
        "line": (
            '{"geometry": "line", "measure": {"num": 6, "den": 13, "float": 0.461538461538}, '
            '"d_value": {"num": 3, "den": 13, "float": 0.230769230769}, '
            '"center": {"num": 3, "den": 26, "float": 0.115384615385}}\n',
            "center,symmetric_measure\n0,0\n0.115384615385,0.230769230769\n"
            "0.153846153846,0.153846153846\n0.192307692308,0.230769230769\n"
            "0.230769230769,0.153846153846\n0.269230769231,0.153846153846\n"
            "0.307692307692,0.153846153846\n0.346153846154,0.230769230769\n"
            "0.384615384615,0.153846153846\n0.423076923077,0\n"
            "0.461538461538,0.153846153846\n0.5,0.153846153846\n"
            "0.538461538462,0.153846153846\n0.576923076923,0.230769230769\n"
            "0.615384615385,0\n0.653846153846,0.153846153846\n0.692307692308,0\n"
            "0.730769230769,0\n0.769230769231,0.153846153846\n0.807692307692,0\n"
            "0.923076923077,0\n0.961538461538,0.0769230769231\n1,0\n"),
        "circle": (
            '{"geometry": "circle", "measure": {"num": 6, "den": 13, "float": 0.461538461538}, '
            '"d_value": {"num": 5, "den": 13, "float": 0.384615384615}, '
            '"center": {"num": 1, "den": 13, "float": 0.0769230769231}}\n',
            "center,symmetric_measure\n0,0.153846153846\n"
            "0.0384615384615,0.230769230769\n0.0769230769231,0.384615384615\n"
            "0.115384615385,0.230769230769\n0.153846153846,0.307692307692\n"
            "0.192307692308,0.230769230769\n0.230769230769,0.153846153846\n"
            "0.269230769231,0.307692307692\n0.307692307692,0.153846153846\n"
            "0.346153846154,0.230769230769\n0.384615384615,0.153846153846\n"
            "0.423076923077,0\n0.461538461538,0.230769230769\n"),
    }
    out = tmp_path / "profile.csv"
    for geometry, (stdout, csv) in frozen.items():
        assert run(["dee", "--intervals", "0:3/13,4/13:5/13,7/13:8/13,12/13:1",
                    "--geometry", geometry, "--profile-csv", str(out)]) == 0
        assert capsys.readouterr().out == stdout
        assert out.read_bytes() == csv.encode()


def test_seeded_random_is_byte_identical(capsys):
    argv = ["random", "integer", "--n", "2000", "--gamma", "20", "--seed", "9",
            "--emit-elements"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


def test_table_streams_csv(capsys):
    code = run(["table", "--which", "R", "--max-k", "4", "--g-min", "2",
                "--g-max", "3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert out[0] == "kind,g,k,min_n,exhaustive,witness"
    rows = [line.split(",") for line in out[1:]]
    cells = {(r[1], r[2]): int(r[3]) for r in rows}
    assert cells[("2", "3")] == 4 and cells[("2", "4")] == 7
    assert cells[("3", "4")] == 5


def test_table_timings_extend_the_rows(capsys):
    argv = ["table", "--which", "R", "--max-k", "6", "--g-max", "3"]
    assert run(argv) == 0
    plain = capsys.readouterr().out.splitlines()
    assert run(argv + ["--timings"]) == 0
    timed = capsys.readouterr().out.splitlines()
    assert timed[0] == plain[0] + ",nodes,seconds"
    rows = [line.split(",") for line in timed[1:]]
    assert [",".join(r[:6]) for r in rows] == plain[1:]
    nodes = [res.nodes_explored for _, _, res in search.table_rows("integer", 2, 3, 6)]
    assert [int(r[6]) for r in rows] == nodes
    assert all(float(r[7]) >= 0 for r in rows)


def test_help_names_each_required_flag(capsys):
    # each family and model states its own flags, so --help shows them
    needs = {
        ("construct", "ruzsa"): ["--p", "--k"],
        ("construct", "bose"): ["--p", "--k"],
        ("construct", "singer"): ["--p", "--k"],
        ("construct", "small-gn"): ["--g"],
        ("construct", "compose"): ["--set-json", "--mate-json", "--g", "--h"],
        ("construct", "half-modular"): ["--set-json", "--mate-json", "--g", "--h"],
        ("random", "circle"): ["--n", "--epsilon"],
        ("random", "integer"): ["--n", "--gamma"],
    }
    for words, required in needs.items():
        with pytest.raises(SystemExit) as exit_:
            run([*words, "--help"])
        captured = capsys.readouterr()
        assert exit_.value.code == 0 and captured.err == "", words
        usage = captured.out.split("\n\n")[0].split()
        for flag in required:
            # a required flag appears in the usage line without brackets
            assert flag in usage, (words, flag)
    # each bound and kernel source lists its own flags and no other
    own = {
        ("bounds", "rho-lower"): (["--g"], []),
        ("bounds", "rho-upper"): (["--g"], []),
        ("bounds", "ubiquity"): (["--gamma", "--alpha"], []),
        ("bounds", "delta-half"): (["--epsilon"], []),
        ("bounds", "certificate"): ([], ["--T"]),
        ("bounds", "zeta-integral"): ([], []),
        ("kernel", "pwl"): (["--pwl-file"], ["--p", "--tail-from"]),
        ("kernel", "K5"): ([], ["--p", "--tail-from", "--T"]),
    }
    for words, (required, optional) in own.items():
        with pytest.raises(SystemExit) as exit_:
            run([*words, "--help"])
        captured = capsys.readouterr()
        assert exit_.value.code == 0 and captured.err == "", words
        usage = captured.out.split("\n\n")[0]
        assert all(flag in usage.split() for flag in required), words
        assert sorted(re.findall(r"(?<![\w-])--?[\w-]+", usage)) == sorted(
            ["-h", *required, *optional]), words


def test_table_row_after_an_exhaustive_row_is_exhaustive(capsys):
    # the k = 9 search starts at the k = 8 value 22, above the counting
    # floor; every smaller n has no 8-set, so it has no 9-set either
    assert run(["table", "--which", "C", "--max-k", "9", "--g-min", "4",
                "--g-max", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2].startswith("modular,4,8,22,True,")
    assert out[-1].startswith("modular,4,9,28,True,")


def test_kernel_eval_small(capsys):
    code, obj = run_json(capsys, ["kernel", "K3", "--T", "500",
                                  "--p", "4/3", "--tail-from", "1"])
    assert code == 0 and obj["family"] == "K3" and obj["T"] == 500
    assert 0.86 < obj["khat0"] < 0.88
    assert 0.20 < obj["tail_norm"] < 0.22


def test_kernel_mix_near_p_one(capsys):
    # q = p/(p-1) is 100001 at p = 1.00001: the mix used to overflow there
    # and end in a traceback
    for p in ("1.00001", "1.001"):
        code, obj = run_json(capsys, ["kernel", "K5", "--T", "10", "--p", p])
        assert code == 0 and obj["mix_alpha"] == 1.0 and obj["mix_floor"] == 1.0, p


def test_kernel_prints_tail_norms_where_the_mix_is_undefined(tmp_path, capsys):
    # khat0 = 1.25 lies above 1, and the constant kernel's tail norms are
    # 0: the mix is undefined at every p, as it is for p >= 2, and prints
    # null next to the tail norms
    path = tmp_path / "nodes.csv"
    for y, khat0 in (([1.0, 2.0], 1.25), ([1.0, 1.0], 1.0)):
        path.write_text("".join(f"{t},{v}\n" for t, v in enumerate(y)))
        kernel = kernels.PiecewiseLinearKernel(y)
        for text, p in (("4/3", 4 / 3), ("2", 2.0)):
            code, obj = run_json(capsys, ["kernel", "pwl", "--pwl-file", str(path), "--p", text])
            assert code == 0 and obj["khat0"] == khat0
            assert obj["tail_norm"] == float(f"{kernels.tail_norm(kernel, 1, p).value:.12g}")
            assert (obj["mix_alpha"], obj["mix_floor"]) == (None, None), (y, text)
    assert obj["tail_norm"] == 0.0 and obj["full_norm"] == 1.0


def test_kernel_with_huge_finite_nodes_prints_finite_norms(tmp_path, capsys):
    # y_t = 1e307 for t = 1..100: the nodes' plain sum overflows, but
    # Khat(0), about 4.975e306, and the tail norms fit in a float; the mix
    # needs Khat(0) <= 1 and prints null
    path = tmp_path / "huge.csv"
    path.write_text("0,1\n" + "".join(f"{t},1e307\n" for t in range(1, 101)))
    code, obj = run_json(capsys, ["kernel", "pwl", "--pwl-file", str(path)])
    assert code == 0
    assert obj["khat0"] == 4.975e306  # 0.5 + (1/2 + 99 * 1e307 + 1e307/2) / 200
    assert all(math.isfinite(obj[key]) for key in ("khat1", "tail_norm", "full_norm"))
    assert obj["full_norm"] > obj["khat0"]
    assert (obj["mix_alpha"], obj["mix_floor"]) == (None, None)


def test_kernel_eval_pwl_file(tmp_path, capsys):
    import numpy as np

    from bstar.kernels import PiecewiseLinearKernel, power_profile, tail_norm

    T = 200
    kernel = PiecewiseLinearKernel.from_profile(power_profile, T)
    path = tmp_path / "nodes.csv"
    np.savetxt(path, np.column_stack([np.arange(T + 1), kernel.y]), delimiter=",")
    code, obj = run_json(capsys, ["kernel", "pwl", "--pwl-file", str(path),
                                  "--p", "4/3", "--tail-from", "2"])
    assert code == 0 and obj["family"] == str(path) and obj["T"] == T
    assert obj["tail_norm"] == json.loads(json.dumps(obj["tail_norm"]))
    assert abs(obj["tail_norm"] - tail_norm(kernel, 2, 4 / 3).value) < 1e-9


def test_float_rendering_sig_digits(capsys):
    code, obj = run_json(capsys, ["bounds", "ubiquity", "--gamma", "0.7",
                                  "--alpha", "0.25"])
    assert code == 0
    assert obj["ubiquity_spectral"] > 0.0137382
    # 12 significant digits round-trips through the printed form
    assert obj["ubiquity_spectral"] == float(f"{obj['ubiquity_spectral']:.12g}")
