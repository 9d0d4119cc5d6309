import argparse
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slncrystals import abacus, checks, cli, cylindric, kyoto, qseries
from slncrystals.abacus import DominantWeight

from helpers import (
    FIG12_PROFILE,
    FIG12_ROWS,
    abacus_configs,
    all_level_coeffs,
    fig10,
    tight_configs,
)


def run_cli(argv, stdin=""):
    import sys

    old_in, old_out, old_err = sys.stdin, sys.stdout, sys.stderr
    sys.stdin = io.StringIO(stdin)
    sys.stdout = io.StringIO()
    sys.stderr = io.StringIO()
    try:
        rc = cli.main(argv)
        return rc, sys.stdout.getvalue(), sys.stderr.getvalue()
    finally:
        sys.stdin, sys.stdout, sys.stderr = old_in, old_out, old_err


def test_parse_weight():
    assert cli.parse_weight("2*L0+3*L1+L2", 3) == DominantWeight((2, 3, 1))
    assert cli.parse_weight("L1", 2) == DominantWeight((0, 1))
    with pytest.raises(cli.InputError):
        cli.parse_weight("L5", 3)
    with pytest.raises(cli.InputError):
        cli.parse_weight("2L0", 3)
    # int() reads Arabic-Indic digits; a weight takes ASCII digits only
    for text in ("L\u0660+L\u0661", "\u0662*L0"):
        with pytest.raises(cli.InputError):
            cli.parse_weight(text, 3)


def test_non_ascii_weight_digits_exit_2():
    argv = ["series", "--n", "3", "--ell", "2", "--weight", "L\u0660+L\u0661",
            "--nmax", "2"]
    rc, out, err = run_cli(argv)
    assert rc == 2 and out == "" and "cannot parse weight term" in err


@pytest.mark.parametrize("command", ["graph", "series", "enumerate"])
def test_missing_weight_exit_2(command):
    rc, out, err = run_cli([command, "--n", "3", "--ell", "2"])
    assert rc == 2 and out == "" and "--weight is required" in err


# an integer of more digits than int() and json.loads read by default (4,300)
_PAST_DIGIT_LIMIT = "1" * 5000


@pytest.mark.parametrize("weight", [_PAST_DIGIT_LIMIT + "*L0", "L" + _PAST_DIGIT_LIMIT],
                         ids=["coefficient", "index"])
def test_weight_integer_past_the_digit_limit_exit_2(weight):
    argv = ["series", "--n", "3", "--ell", "2", "--weight", weight, "--nmax", "2"]
    rc, out, err = run_cli(argv)
    assert (rc, out) == (2, "") and err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("src,dst,stdin", [
    ("abacus", "cpp", '{"n": 3, "ell": 2, "rows": [{"charge": %s, "parts": []}, '
                      '{"charge": 0, "parts": []}]}' % _PAST_DIGIT_LIMIT),
    ("path", "abacus", '{"n": 3, "ell": 2, "weight": [1, 1, 0], '
                       '"deviations": {"1": [0, %s]}}' % _PAST_DIGIT_LIMIT),
], ids=["abacus-charge", "path-entry"])
def test_convert_json_integer_past_the_digit_limit_exit_2(src, dst, stdin):
    # json.dumps refuses such an int too, so the digits are written out
    rc, out, err = run_cli(["convert", src, dst], stdin)
    assert (rc, out) == (2, "") and err.startswith("error: bad JSON input")
    assert err.count("\n") == 1


def test_weight_level_past_the_digit_limit_exit_3():
    # each term parses, but their sum, the level, has 4,301 digits; the
    # refusal is one error line, not a traceback from formatting the level
    big = "9" * 4300
    argv = ["series", "--n", "3", "--ell", "2", "--weight", "%s*L0+%s*L1" % (big, big)]
    rc, out, err = run_cli(argv)
    assert (rc, out) == (3, "") and err.startswith("error: ") and err.count("\n") == 1


def test_convert_figure10_to_cpp():
    rc, out, _ = run_cli(
        ["convert", "abacus", "cpp"], stdin=json.dumps(fig10().to_json())
    )
    assert rc == 0
    data = json.loads(out)
    assert tuple(data["profile"]) == FIG12_PROFILE
    assert tuple(tuple(r) for r in data["rows"]) == FIG12_ROWS


def test_convert_figure10_to_cpp_text():
    argv = ["convert", "abacus", "cpp", "--format", "text"]
    rc, out, _ = run_cli(argv, stdin=json.dumps(fig10().to_json()))
    assert rc == 0
    assert out == cylindric.render_text(cylindric.from_abacus(fig10()))


def test_convert_reads_input_file(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fig10().to_json()))
    from_stdin = run_cli(["convert", "abacus", "cpp"], stdin=path.read_text())
    assert run_cli(["convert", "abacus", "cpp", str(path)]) == from_stdin
    assert from_stdin[0] == 0


def test_convert_takes_input_file_before_or_after_options(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fig10().to_json()))
    before = run_cli(["convert", "abacus", "cpp", str(path), "--format", "text"])
    after = run_cli(["convert", "abacus", "cpp", "--format", "text", str(path)])
    assert before[0] == 0 and after == before
    between = ["convert", "abacus", "cpp", "--n", "3", str(path), "--format", "text"]
    assert run_cli(between) == before
    stdin = run_cli(["convert", "abacus", "cpp", "--format", "text", "-"],
                    stdin=path.read_text())
    assert stdin == before


@pytest.mark.parametrize("tail", [
    ["FILE", "extra"],
    ["--format", "text", "FILE", "extra"],
    ["--format", "text", "FILE", "--bogus"],
    ["FILE", "--format", "text", "--bogus"],
    ["--format", "text", "--bogus"],
])
def test_convert_refuses_stray_arguments_exit_2(tmp_path, tail):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(fig10().to_json()))
    argv = ["convert", "abacus", "cpp"] + [str(path) if t == "FILE" else t for t in tail]
    with pytest.raises(SystemExit) as exc:
        run_cli(argv, stdin=path.read_text())
    assert exc.value.code == 2


def test_only_convert_takes_a_late_positional():
    with pytest.raises(SystemExit) as exc:
        run_cli(["series", "--n", "3", "--weight", "2*L0", "extra"])
    assert exc.value.code == 2


def test_module_entry_point_matches_main():
    argv = ["series", "--n", "3", "--ell", "2", "--weight", "2*L0", "--nmax", "4"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "slncrystals.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == run_cli(argv)[:2]


def _cap_address_space():
    limit = 400 * 2**20  # 400 MB, set in the child process only
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


@pytest.mark.parametrize("n, nmax", [(2, 10**8), (10**8, 2)])
def test_memory_error_exits_3_without_traceback(n, nmax):
    # a series of 10^8 coefficients is refused by the --nmax cap, and a
    # weight of 10^8 coefficients does not fit in 400 MB: one error line and
    # exit 3, never exit 1
    argv = ["series", "--kind", "borodin", "--n", str(n), "--ell", "1",
            "--weight", "L0", "--nmax", str(nmax)]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "slncrystals.cli"] + argv,
        capture_output=True, text=True, env=env, timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


def test_convert_roundtrip():
    rc, out, _ = run_cli(
        ["convert", "abacus", "cpp"], stdin=json.dumps(fig10().to_json())
    )
    rc2, out2, _ = run_cli(["convert", "cpp", "abacus"], stdin=out)
    assert rc2 == 0
    assert json.loads(out2) == fig10().to_json()


def test_convert_partition_vacuum():
    rc, out, _ = run_cli(
        ["convert", "partition", "abacus", "--n", "3", "--ell", "2"], stdin="[]"
    )
    assert rc == 0
    data = json.loads(out)
    assert data["rows"] == [{"charge": 0, "parts": []}, {"charge": 0, "parts": []}]
    rc, out2, _ = run_cli(["convert", "abacus", "partition"], stdin=out)
    assert rc == 0 and json.loads(out2) == []


def test_convert_path_roundtrip():
    rc, out, _ = run_cli(
        ["convert", "abacus", "path"], stdin=json.dumps(fig10().to_json())
    )
    assert rc == 0
    rc, back, _ = run_cli(["convert", "path", "abacus"], stdin=out)
    assert rc == 0
    assert json.loads(back) == fig10().to_json()


def _fig10_as(src):
    """fig10, a (3, 4) configuration, as the JSON of `src`."""
    psi = fig10()
    obj = {"abacus": psi, "cpp": cylindric.from_abacus(psi), "path": kyoto.to_path(psi)}
    return json.dumps(obj[src].to_json())


@pytest.mark.parametrize("src", ["abacus", "cpp", "path"])
@pytest.mark.parametrize(
    "flags,message",
    [
        (["--n", "4"], "--n 4, but input has 3"),
        (["--ell", "2"], "--ell 2, but input has 4"),
        (["--n", "3", "--ell", "5"], "--ell 5, but input has 4"),
        # out of every command's domain: the same rule, not the domain's
        (["--n", "1"], "--n 1, but input has 3"),
        (["--ell", "0"], "--ell 0, but input has 4"),
    ],
)
def test_convert_flag_other_than_the_inputs_exit_3(src, flags, message):
    # an abacus, cpp or path input carries its own n and ell
    rc, out, err = run_cli(["convert", src, "abacus"] + flags, stdin=_fig10_as(src))
    assert (rc, out, err) == (3, "", "error: %s\n" % message)


@pytest.mark.parametrize("src", ["abacus", "cpp", "path"])
def test_convert_flag_naming_the_inputs_changes_nothing(src):
    data = _fig10_as(src)
    want = (0, json.dumps(fig10().to_json()) + "\n", "")
    assert run_cli(["convert", src, "abacus"], stdin=data) == want
    for flags in (["--n", "3"], ["--ell", "4"], ["--ell", "4", "--n", "3"]):
        assert run_cli(["convert", src, "abacus"] + flags, stdin=data) == want


@pytest.mark.parametrize("n, ell", [(1, 1), (5, 1), (2, 3)])
def test_convert_omitted_flags_are_the_inputs(n, ell):
    # not the defaults 3 and 2, and not their domain: n = 1 converts too
    data = {"n": n, "ell": ell, "rows": [{"charge": 0, "parts": [1]}] * ell}
    rc, out, err = run_cli(["convert", "abacus", "cpp"], stdin=json.dumps(data))
    got = json.loads(out)
    assert (rc, err, got["n"], got["ell"]) == (0, "", n, ell)


@pytest.mark.parametrize("flags", [["--n", "1"], ["--ell", "0"]])
def test_convert_partition_keeps_the_domain_check(flags):
    # a partition has no n or ell of its own: --n and --ell default to 3 and
    # 2 and are checked as for every other command
    rc, out, err = run_cli(["convert", "partition", "abacus"] + flags, stdin="[1]")
    assert (rc, out, err) == (3, "", "error: need --n >= 2 and --ell >= 1\n")


def test_convert_parse_error_exit_2():
    rc, _, err = run_cli(["convert", "abacus", "cpp"], stdin="{not json")
    assert rc == 2 and "error" in err


@pytest.mark.parametrize("src,dst", [("abacus", "cpp"), ("path", "abacus")])
def test_convert_deeply_nested_json_exit_2(src, dst):
    # json.loads raises RecursionError on deep nesting; that is unparsable
    # input, one error line and no traceback
    rc, out, err = run_cli(["convert", src, dst], stdin="[" * 200_000)
    assert (rc, out) == (2, "")
    assert err.startswith("error: bad JSON input") and err.count("\n") == 1


def test_convert_takes_no_weight_exit_2():
    # convert reads no weight, so argparse refuses the option
    with pytest.raises(SystemExit) as exc:
        run_cli(
            ["convert", "abacus", "path", "--weight", "L0"],
            stdin=json.dumps(fig10().to_json()),
        )
    assert exc.value.code == 2


def test_convert_validation_error_exit_3():
    bad = {
        "n": 3,
        "ell": 2,
        "rows": [{"charge": 0, "parts": []}, {"charge": 5, "parts": []}],
    }
    rc, _, err = run_cli(["convert", "abacus", "cpp"], stdin=json.dumps(bad))
    assert rc == 3 and "descending" in err


@pytest.mark.parametrize(
    "deviations,weight",
    [
        ({"1": [5, 5]}, [2, 0, 0]),  # entries outside [0, n)
        ({"1": [0]}, [2, 0, 0]),  # an element of length other than ell
        ({}, [1, 0, 0]),  # a weight of level other than ell
        ({"0": [0, 1]}, [2, 0, 0]),  # positions start at 1
        ({"-2": [0, 1]}, [2, 0, 0]),
        ({}, [2, 0]),  # a weight with other than n coefficients
        ({"1_0": [0, 1]}, [2, 0, 0]),  # int() reads these four as integers
        ({" +3 ": [0, 1]}, [2, 0, 0]),
        ({"+1": [0, 1]}, [2, 0, 0]),
        ({"\u0663": [0, 1]}, [2, 0, 0]),  # an Arabic-Indic digit three
        ({"1": [0, 1], "01": [0, 1]}, [2, 0, 0]),  # two keys for one position
    ],
)
def test_convert_malformed_path_exit_2(deviations, weight):
    data = {"n": 3, "ell": 2, "weight": weight, "deviations": deviations}
    rc, out, err = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
    assert rc == 2 and out == "" and "error" in err


def test_convert_path_needs_n_at_least_2_exit_2():
    data = {"n": 1, "ell": 1, "weight": [1], "deviations": {}}
    rc, out, err = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
    assert rc == 2 and out == "" and "n >= 2" in err


@pytest.mark.parametrize(
    "src,data",
    [
        ("abacus", {"n": 1, "ell": 1, "rows": [{"charge": 0, "parts": []}]}),
        ("abacus", {"n": 1, "ell": 2, "rows": [{"charge": 0, "parts": [2]}] * 2}),
        ("cpp", {"n": 1, "ell": 1, "profile": [0], "rows": [[]]}),
    ],
)
def test_convert_to_path_needs_n_at_least_2_exit_3(src, data):
    # the input is valid, but its path could not be read back (exit 2 above)
    rc, out, err = run_cli(["convert", src, "path"], stdin=json.dumps(data))
    assert rc == 3 and out == "" and "n >= 2" in err


@pytest.mark.parametrize("dst", ["abacus", "cpp", "path"])
@pytest.mark.parametrize(
    "data",
    [
        {"n": 0, "ell": 1, "profile": [1], "rows": [[]]},
        {"n": 2, "ell": 0, "profile": [], "rows": []},
        {"n": -1, "ell": 1, "profile": [0], "rows": [[1]]},
    ],
)
def test_convert_cpp_needs_positive_n_and_ell_exit_2(data, dst):
    # as an abacus or path input with n or ell below 1 is refused
    rc, out, err = run_cli(["convert", "cpp", dst], stdin=json.dumps(data))
    assert rc == 2 and out == "" and "n >= 1 and ell >= 1" in err


def test_convert_long_path_roundtrip_in_linear_time():
    # [0, 0] is never a ground element of weight L0 + L1, so every one of
    # the 30,000 positions deviates; an element lookup that scans the list
    # of deviations makes this quadratic, about 15 s on a 2-core machine
    data = _path([1, 1, 0], {str(k): [0, 0] for k in range(1, 30_001)})
    t0 = time.perf_counter()
    rc, out, _ = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
    rc2, back, _ = run_cli(["convert", "abacus", "path"], stdin=out)
    assert time.perf_counter() - t0 < 5
    assert rc == rc2 == 0 and json.loads(back) == data


def test_convert_path_of_rank_bound_at_last_position():
    # the positions before the deviation hold ground elements of 100,000
    # residue classes mod n; building each from the weight, O(n) apiece,
    # takes about half an hour on a 2-core machine (300 positions take 5 s)
    top = kyoto.MAX_PATH_POSITION
    weight = [1] + [0] * (top - 1)
    data = {"n": top, "ell": 1, "weight": weight, "deviations": {str(top): [5]}}
    t0 = time.perf_counter()
    rc, out, _ = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
    rc2, back, _ = run_cli(["convert", "abacus", "path"], stdin=out)
    assert time.perf_counter() - t0 < 5
    assert rc == rc2 == 0 and json.loads(back) == data


def test_convert_long_path_through_cpp_roundtrip():
    # the 20,000 positions give parts up to 40,000; conjugating the rows
    # or checking the cylinder cell by cell takes about two minutes
    data = _path([1, 1, 0], {str(k): [0, 0] for k in range(1, 20_001)})
    t0 = time.perf_counter()
    rc, out, _ = run_cli(["convert", "path", "cpp"], stdin=json.dumps(data))
    rc2, back, _ = run_cli(["convert", "cpp", "path"], stdin=out)
    assert time.perf_counter() - t0 < 10
    assert rc == rc2 == 0 and json.loads(back) == data

def test_convert_path_position_bound():
    data = {"n": 3, "ell": 2, "weight": [1, 1, 0], "deviations": {"1000000000": [1, 0]}}
    t0 = time.perf_counter()
    rc, out, err = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
    assert time.perf_counter() - t0 < 0.5
    assert rc == 2 and out == "" and "path position 1000000000" in err
    for k, want in ((kyoto.MAX_PATH_POSITION + 1, 2), (kyoto.MAX_PATH_POSITION, 0)):
        data["deviations"] = {str(k): [1, 0]}
        rc, out, _ = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
        assert rc == want
    rows = json.loads(out)["rows"]
    assert max(len(r["parts"]) for r in rows) >= kyoto.MAX_PATH_POSITION


def test_convert_path_n_and_ell_bound():
    # 51 bytes that would describe a million rows
    big = kyoto.MAX_PATH_POSITION + 1
    cases = [
        ({"n": 3, "ell": 1_000_000, "weight": [1_000_000, 0, 0]}, "ell 1000000"),
        ({"n": 3, "ell": big, "weight": [big, 0, 0]}, "ell %d" % big),
        ({"n": big, "ell": 1, "weight": [1] + [0] * (big - 1)}, "n %d" % big),
    ]
    for data, field in cases:
        t0 = time.perf_counter()
        rc, out, err = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
        assert time.perf_counter() - t0 < 0.5
        assert rc == 2 and out == "" and field in err
    # the accepted maxima take a few seconds at most; 5 s catches a build of
    # the ground elements or a tight placement quadratic in n or ell
    top = kyoto.MAX_PATH_POSITION
    for data in (
        {"n": 3, "ell": top, "weight": [top, 0, 0]},
        {"n": top, "ell": 1, "weight": [1] + [0] * (top - 1)},
        # one deviation, so a placement quadratic in ell shows
        {"n": 3, "ell": top, "weight": [top, 0, 0], "deviations": {"7": [1] * top}},
    ):
        t0 = time.perf_counter()
        rc, out, _ = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
        assert time.perf_counter() - t0 < 5
        assert rc == 0 and len(json.loads(out)["rows"]) == data["ell"]


def test_convert_path_ell_times_last_position_bound():
    # from_path places ell beads in each bead set up to the last position:
    # 3,000 x 3,000 took about 12 s from a 9 KB input on a 2-core machine
    top = kyoto.MAX_PATH_BEADS
    for ell, last, want in ((1_000, top // 1_000 + 1, 2), (10, top // 10, 0)):
        devs = {str(last): [1] * ell}
        data = {"n": 2, "ell": ell, "weight": [ell, 0], "deviations": devs}
        t0 = time.perf_counter()
        rc, out, err = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
        elapsed = time.perf_counter() - t0
        assert rc == want
        if want:
            assert elapsed < 0.5 and out == ""
            assert "ell %d" % ell in err and "position %d" % last in err
        else:
            assert len(json.loads(out)["rows"]) == ell


def test_convert_abacus_to_path_ell_times_deepest_bead_bound():
    # 3,000 rows at n = 2, the bottom one holding 3,000 parts of 1 (93 KB):
    # its path has 3,000 x 3,000 beads, which convert path ... refuses, and
    # building it took about 3.3 s on a 2-core machine
    rows = [{"charge": 0, "parts": [1] * 3_000}] + [{"charge": 0, "parts": []}] * 2_999
    data = json.dumps({"n": 2, "ell": 3_000, "rows": rows})
    t0 = time.perf_counter()
    rc, out, err = run_cli(["convert", "abacus", "path"], stdin=data)
    assert time.perf_counter() - t0 < 0.5
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "ell 3000 times last position 3000 exceeds" in err


def _config_past_position_bound():
    """The (3, 2) configuration of weight L0 + L1 whose deepest bead is
    MAX_PATH_POSITION + 1: from_path of a path one position past the bound,
    built unchecked through _pruned_path.  Its ell x K is only 200,002."""
    base = kyoto._empty_path(3, (1, 0))
    last = kyoto.MAX_PATH_POSITION + 1
    elements = [base.ground(k) for k in range(1, last)]
    # [0, 0] is no ground element of L0 + L1
    elements.append(kyoto.PerfectElem((0, 0)))
    psi = kyoto.from_path(kyoto._pruned_path(base, elements))
    assert psi.max_bead_index() == last
    return psi.to_json()


_EMPTY_ROW = {"charge": 0, "parts": []}


@pytest.mark.parametrize(
    "data,field",
    [
        ({"n": 100_001, "ell": 1, "rows": [_EMPTY_ROW]}, "path n 100001 exceeds"),
        ({"n": 2, "ell": 100_001, "rows": [_EMPTY_ROW] * 100_001},
         "path ell 100001 exceeds"),
        (None, "path position 100001 exceeds"),
        # a path of 10^8 ground elements took 24 s and printed 300 MB
        ({"n": 10**8, "ell": 1, "rows": [_EMPTY_ROW]}, "path n 100000000 exceeds"),
        # ended in an OverflowError traceback, exit 1
        ({"n": 2**63, "ell": 1, "rows": [_EMPTY_ROW]}, "path n %d exceeds" % 2**63),
    ],
    ids=["n", "ell", "position", "n-1e8", "n-2^63"],
)
def test_convert_abacus_to_path_keeps_the_path_size_rule(data, field):
    # to_path writes only what Path.from_json reads: n, ell and the last
    # position at most MAX_PATH_POSITION.  The first three printed a path
    # that convert path ... refused with exit 2.  The bound is on the time
    # past reading the input: the 2.8 MB of 100,001 rows alone take 0.3 to
    # 0.5 s to read on a 2-core machine.
    text = json.dumps(_config_past_position_bound() if data is None else data)
    t0 = time.perf_counter()
    abacus.AbacusConfig.from_json(json.loads(text))
    t1 = time.perf_counter()
    rc, out, err = run_cli(["convert", "abacus", "path"], stdin=text)
    assert time.perf_counter() - t1 < 0.5 + (t1 - t0)
    assert rc == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and field in err


@pytest.mark.parametrize(
    "n,ell,weight,deviations",
    [
        # n at MAX_PATH_POSITION
        (100_000, 1, [1] + [0] * 99_999, {"1": [5]}),
        # the last position at MAX_PATH_POSITION
        (3, 2, [1, 1, 0], {"100000": [0, 0]}),
        # ell x K at MAX_PATH_BEADS
        (2, 10, [10, 0], {"100000": [1] * 10}),
    ],
    ids=["n", "position", "ell-times-position"],
)
def test_convert_abacus_path_roundtrip_at_the_size_bounds(n, ell, weight, deviations):
    # convert abacus path gives back the path that convert path abacus
    # read, so the configuration round-trips through it too
    data = {"n": n, "ell": ell, "weight": weight, "deviations": deviations}
    rc, psi, _ = run_cli(["convert", "path", "abacus"], stdin=json.dumps(data))
    rc2, out, _ = run_cli(["convert", "abacus", "path"], stdin=psi)
    assert rc == rc2 == 0 and json.loads(out) == data


_HUGE_CYLINDER = {"n": 2, "ell": 1, "profile": [0], "rows": [[10**30]]}


@pytest.mark.parametrize(
    "src,dst,data",
    [
        ("cpp", "abacus", _HUGE_CYLINDER),
        ("cpp", "partition", _HUGE_CYLINDER),
        ("cpp", "path", _HUGE_CYLINDER),
        ("abacus", "cpp", {"n": 2, "ell": 1, "rows": [{"charge": 0, "parts": [10**30]}]}),
    ],
)
def test_convert_part_too_large_for_an_index_exit_3(src, dst, data):
    # conjugating a part of 10^30 raised OverflowError: a traceback, exit 1
    t0 = time.perf_counter()
    rc, out, err = run_cli(["convert", src, dst], stdin=json.dumps(data))
    assert time.perf_counter() - t0 < 0.5
    assert rc == 3 and out == "" and "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "the request is too large" in err


@pytest.mark.parametrize("dst", ["partition", "abacus", "path"])
def test_convert_text_format_needs_cpp_exit_3(dst):
    # only a cylinder has a text rendering; the other destinations printed
    # JSON under --format text
    data = json.dumps({"n": 2, "ell": 2, "rows": [{"charge": 0, "parts": [1]},
                                                  {"charge": 0, "parts": []}]})
    argv = ["convert", "abacus", dst, "--format", "text"]
    rc, out, err = run_cli(argv, stdin=data)
    assert rc == 3 and out == ""
    assert err == "error: --format text needs the destination cpp\n"
    assert run_cli(argv[:-1] + ["json"], stdin=data)[0] == 0


def test_convert_partition_to_abacus_linear_in_ell():
    # each of the ell strands rescanning every bead makes this quadratic in
    # ell, about 65 s on a 2-core machine
    ell = 32_000
    t0 = time.perf_counter()
    rc, out, _ = run_cli(
        ["convert", "partition", "abacus", "--n", "3", "--ell", str(ell)], stdin="[]"
    )
    assert time.perf_counter() - t0 < 5
    rows = json.loads(out)["rows"]
    assert rc == 0 and len(rows) == ell
    assert sum(r["charge"] for r in rows) == 0 and not any(r["parts"] for r in rows)


def _rows(*rows):
    return {"n": 3, "ell": 2, "rows": [{"charge": c, "parts": p} for c, p in rows]}


def _path(weight, deviations):
    return {"n": 3, "ell": 2, "weight": weight, "deviations": deviations}


@pytest.mark.parametrize(
    "src,data",
    [
        ("abacus", _rows((0.7, [1.5]), (0, []))),  # used to run as charge 0, [1]
        ("abacus", _rows((0, [1.0]), (0, []))),
        ("abacus", _rows((True, []), (0, []))),
        ("abacus", _rows(("1", []), (0, []))),
        ("abacus", _rows((0, "21"), (0, []))),
        ("abacus", dict(_rows((0, []), (0, [])), n=3.0)),
        ("abacus", dict(_rows((0, []), (0, [])), ell=True)),
        ("partition", [2, 1.0]),
        ("partition", [True]),
        ("partition", "21"),
        ("cpp", {"n": 3, "ell": 2, "profile": [0, 0.5], "rows": [[], []]}),
        ("cpp", {"n": 3, "ell": 2, "profile": [0, False], "rows": [[], []]}),
        ("cpp", {"n": 3, "ell": 2, "profile": [0, 0], "rows": [[1.0], []]}),
        ("cpp", {"n": 3, "ell": 2.0, "profile": [0, 0], "rows": [[], []]}),
        ("path", _path([2, 0, 0.0], {})),
        ("path", _path([2, 0, False], {})),
        ("path", _path("200", {})),
        ("path", _path([2, 0, 0], {"1": [0, 1.0]})),
        ("path", _path([2, 0, 0], {"1": [0, True]})),
        ("path", _path([2, 0, 0], {"1": "01"})),
        ("path", _path([2, 0, 0], [[0, 1]])),  # used to raise AttributeError
        ("path", dict(_path([2, 0, 0], {}), n=3.5)),
    ],
)
def test_convert_non_integer_json_exit_2(src, data):
    argv = ["convert", src, "abacus", "--n", "3", "--ell", "2"]
    rc, out, err = run_cli(argv, stdin=json.dumps(data))
    assert rc == 2 and out == "" and "error" in err


@pytest.mark.parametrize(
    "src,data,field",
    [
        ("abacus", {"n": 3, "ell": 2}, "rows"),
        ("abacus", {"n": 3, "ell": 2, "rows": [{"parts": []}] * 2}, "charge"),
        ("cpp", {"n": 3, "ell": 2, "rows": [[], []]}, "profile"),
        ("path", {"n": 3, "ell": 2, "deviations": {}}, "weight"),
    ],
)
def test_convert_missing_field_exit_2(src, data, field):
    argv = ["convert", src, "abacus", "--n", "3", "--ell", "2"]
    rc, out, err = run_cli(argv, stdin=json.dumps(data))
    assert rc == 2 and out == ""
    assert err == "error: input does not parse as %s: missing field %r\n" % (
        src,
        field,
    )


@pytest.mark.parametrize(
    "data,rotate",
    [
        (_rows((1, [1]), (-1, [1])), 0),  # charges outside [0, n)
        (_rows((3, [1]), (0, [2, 1])), 0),
        (fig10().to_json(), 1),  # charges 2, 1, 1, 0 rotated to 3, 2, 2, 1
        (fig10().to_json(), 3),
    ],
)
def test_convert_to_path_outside_its_domain_exit_3(data, rotate):
    # tight descending, but not in the crystal of highest_weight_config: the
    # path would not convert back to the same configuration
    argv = ["convert", "abacus", "path", "--rotate-colors", str(rotate)]
    rc, out, err = run_cli(argv, stdin=json.dumps(data))
    assert rc == 3 and out == "" and "charges" in err


def test_convert_to_path_rotated_roundtrip():
    data = _rows((1, [1, 1]), (0, [1]))  # charges 1, 0 rotated to 2, 1
    rc, out, _ = run_cli(
        ["convert", "abacus", "path", "--rotate-colors", "1"], stdin=json.dumps(data)
    )
    assert rc == 0
    rc, back, _ = run_cli(["convert", "path", "abacus"], stdin=out)
    assert rc == 0 and json.loads(back) == _rows((2, [1, 1]), (1, [1]))


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "rank-level", "--n", "3", "--ell", "1"],
        ["verify", "kyoto", "--n", "1", "--ell", "1"],
        ["verify", "level-one", "--n", "1", "--ell", "1"],
        ["verify", "three-way-Z", "--n", "1", "--ell", "1"],
        ["series", "--weight", "2*L0", "--nmax", "-1"],
        ["graph", "--weight", "2*L0", "--max-degree", "-1"],
    ],
)
def test_out_of_domain_arguments_exit_3(argv):
    rc, out, err = run_cli(argv)
    assert rc == 3 and out == "" and "error" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--weight", "L0+L1", "--max-degree", "1001"],
        ["series", "--weight", "L0+L1", "--nmax", "1001"],
        ["enumerate", "--weight", "L0+L1", "--nmax", "1001"],
        ["verify", "gglemma", "--nmax", "1001"],
    ],
)
def test_degree_above_the_cap_exits_3_before_any_work(argv, monkeypatch):
    # the engines these commands call first fail the test if reached
    def work(*args):
        raise AssertionError("the request reached %s" % (args,))

    for module, name in ((abacus, "highest_weight_config"), (qseries, "Z_rep"),
                         (checks, "run")):
        monkeypatch.setattr(module, name, work)
    start = time.perf_counter()
    rc, out, err = run_cli(argv)
    assert time.perf_counter() - start < 0.5
    assert (rc, out) == (3, "")
    assert err == "error: %s 1001 exceeds %d\n" % (argv[-2], cli.MAX_DEGREE)


def test_borodin_series_at_the_cap_exits_0():
    argv = ["series", "--kind", "borodin", "--n", "2", "--ell", "1",
            "--weight", "L0", "--nmax", str(cli.MAX_DEGREE)]
    rc, out, err = run_cli(argv)
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 1001 and lines[-1].startswith("1000\t")


def test_graph_single_node():
    rc, out, _ = run_cli(
        ["graph", "--n", "3", "--ell", "4", "--weight", "L0+2*L1+L2", "--max-degree", "0"]
    )
    assert rc == 0
    assert out.count("label=") == 1


def test_graph_invalid_weight_exit_3():
    rc, _, err = run_cli(
        ["graph", "--n", "3", "--ell", "4", "--weight", "L0", "--max-degree", "1"]
    )
    assert rc == 3 and "level" in err


def test_graph_deterministic_and_layered():
    args = ["graph", "--n", "3", "--ell", "1", "--weight", "L0", "--max-degree", "5"]
    rc1, out1, _ = run_cli(args)
    rc2, out2, _ = run_cli(args)
    assert rc1 == rc2 == 0 and out1 == out2
    rc, outj, _ = run_cli(args + ["--format", "json"])
    layers = json.loads(outj)["layers"]
    # layer sizes match the graded dimension series
    from slncrystals.qseries import dimq_crystal

    dims = dimq_crystal(DominantWeight((1, 0, 0)), 3, 1, 5)
    assert [len(l) for l in layers] == dims.coeffs


# sha256 of the graph output at two weights, pinning the layers, the edges
# and their order; taken from the BFS that called f_abacus on every edge
GRAPH_GOLDEN = [
    (["--n", "3", "--ell", "2", "--weight", "L0+L1"], "dot",
     "073efbf87f07461922603bc99e46afa08572a3a9222abed0003832db9a8fcf68"),
    (["--n", "3", "--ell", "2", "--weight", "L0+L1"], "json",
     "73dd9fb2cb9d0575451a9834d630e27b797ec78eb35b15ea773ab9f7a7d50ecb"),
    (["--n", "2", "--ell", "3", "--weight", "2*L0+L1"], "dot",
     "74240ac68d681059f8bc004b9c9da92fed734a6fb828ba07ce88ea512c7b8036"),
    (["--n", "2", "--ell", "3", "--weight", "2*L0+L1"], "json",
     "f9aa63ff6e8d6419598fb049159d0702fd7a18355359de194db27d650957c320"),
]


@pytest.mark.parametrize("args,fmt,digest", GRAPH_GOLDEN)
def test_graph_output_matches_golden_digest(args, fmt, digest):
    rc, out, err = run_cli(["graph"] + args + ["--max-degree", "8", "--format", fmt])
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_series_output_format():
    rc, out, _ = run_cli(
        ["series", "--n", "3", "--ell", "1", "--weight", "L0", "--nmax", "6"]
    )
    assert rc == 0
    lines = [l.split("\t") for l in out.strip().split("\n")]
    assert [int(c) for _, c in lines] == [1, 1, 2, 3, 5, 7, 11]
    assert [int(k) for k, _ in lines] == list(range(7))


def test_series_kinds_agree():
    base = ["series", "--n", "2", "--ell", "2", "--weight", "2*L0", "--nmax", "8"]
    outs = []
    for kind in ("Z", "borodin", "brute"):
        rc, out, _ = run_cli(base + ["--kind", kind])
        assert rc == 0
        outs.append(out)
    assert outs[0] == outs[1] == outs[2]


def test_enumerate_weights_sorted():
    rc, out, _ = run_cli(
        ["enumerate", "--n", "3", "--ell", "2", "--weight", "2*L0", "--nmax", "3"]
    )
    assert rc == 0
    weights = [json.loads(l)["weight"] for l in out.strip().split("\n")]
    assert weights == sorted(weights)
    rc, out_t, _ = run_cli(
        ["enumerate", "--n", "3", "--ell", "2", "--weight", "2*L0", "--nmax", "3", "--tight"]
    )
    assert rc == 0
    assert len(out_t.strip().split("\n")) <= len(weights)


def test_verify_suites_pass():
    for which, extra in [
        ("gglemma", ["--nmax", "4"]),
        ("tk-commute", ["--nmax", "4"]),
        ("bijection", ["--nmax", "4"]),
        ("three-way-Z", ["--nmax", "6"]),
        ("rank-level", ["--nmax", "6"]),
        ("level-one", ["--nmax", "10"]),
        ("kyoto", ["--nmax", "4"]),
    ]:
        rc, out, _ = run_cli(["verify", which, "--n", "3", "--ell", "2"] + extra)
        assert rc == 0, (which, out)
        assert out.startswith("ok")


def test_verify_reports_first_counterexample(monkeypatch):
    from slncrystals import qseries

    real = qseries.Z_borodin

    def broken(bd, nmax):
        s = real(bd, nmax)
        coeffs = list(s.coeffs)
        if len(coeffs) > 1:
            coeffs[1] += 1
        return qseries.QSeries(coeffs, s.nmax)

    monkeypatch.setattr(qseries, "Z_borodin", broken)
    rc, out, _ = run_cli(["verify", "three-way-Z", "--n", "3", "--ell", "2", "--nmax", "4"])
    assert rc == 1
    assert "q^1" in out  # mismatch reported at the lowest degree


def test_verify_reports_case_count_on_stderr():
    argv = ["verify", "gglemma", "--n", "3", "--ell", "2", "--nmax", "3"]
    rc, out, err = run_cli(argv)
    cases, _ = checks.run("gglemma", 3, 2, 3)
    assert (rc, out, err) == (0, "ok: gglemma\n", "checked %d cases\n" % cases)
    # at nmax 0 each of the 6 level-2 weights of rank 3 is one case
    rc, out, err = run_cli(["verify", "kyoto", "--n", "3", "--ell", "2", "--nmax", "0"])
    assert (rc, out) == (0, "ok: kyoto\n")
    assert err == "checked 6 cases\nvacuous: only degree 0 was checked\n"


def test_weight_keeps_the_parsed_weight(monkeypatch):
    # the parsed weight is already a checked DominantWeight: no copy
    # through the rank-and-level rule
    w = DominantWeight((1, 1, 0))
    monkeypatch.setattr(cli, "parse_weight", lambda text, n: w)
    argv = ["series", "--n", "3", "--ell", "2", "--weight", "L0+L1"]
    assert cli._weight(cli._parse_args(argv)) is w


def test_each_command_lists_its_settings():
    # every value a caller can set, by subcommand, so that adding or
    # removing one shows here as tests/src_size.py shows a line count;
    # --rotate-colors shifts bead rows, which only convert has to shift
    parser = cli.build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        name: [a.option_strings[-1] if a.option_strings else a.dest
               for a in p._actions if a.dest != "help"]
        for name, p in commands.choices.items()
    }
    assert options == {
        "convert": ["src", "dst", "input", "--format", "--n", "--ell", "--rotate-colors"],
        "graph": ["--n", "--ell", "--weight", "--max-degree", "--format"],
        "series": ["--n", "--ell", "--weight", "--nmax", "--kind"],
        "enumerate": ["--n", "--ell", "--weight", "--nmax", "--tight"],
        "verify": ["which", "--n", "--ell", "--weight", "--nmax"],
    }


# the weight commands: rotating the colors of a weight gives the weight
# typed rotated, and the principal grading does not see it at all
WEIGHT_COMMANDS = [["graph"], ["series"], ["enumerate"], ["verify", "level-one"]]


@pytest.mark.parametrize("command", WEIGHT_COMMANDS, ids=lambda c: c[0])
def test_weight_commands_take_no_rotate_colors(capsys, command):
    argv = command + ["--n", "3", "--ell", "1", "--weight", "L0", "--rotate-colors", "1"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == ""
    assert err.endswith("error: unrecognized arguments: --rotate-colors 1\n")


def test_wrong_rank_or_level_gives_one_message_naming_weight_n_and_ell():
    # the library's rank-and-level rule, through every reader of a weight
    msg = "weight %s needs %d coefficients and level %d"
    for coeffs, n, ell in (((1, 1), 3, 2), ((1, 0, 0), 3, 2), ((2, 1, 0), 3, 2)):
        w = DominantWeight(coeffs)
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg % (w, n, ell))):
            abacus._level_coeffs(w, n, ell)
        with pytest.raises(ValueError, match="^%s$" % re.escape(msg % (w, n, ell))):
            kyoto.Path(n, ell, w, ())
        data = {"n": n, "ell": ell, "weight": list(coeffs), "deviations": {}}
        rc, out, err = run_cli(["convert", "path", "abacus"], json.dumps(data))
        assert (rc, out) == (2, "")
        assert err == "error: input does not parse as path: %s\n" % (msg % (w, n, ell))
    for argv in (["series"], ["verify", "gglemma"]):
        rc, out, err = run_cli(argv + ["--n", "3", "--ell", "2", "--weight", "L0"])
        assert (rc, out, err) == (3, "", "error: %s\n" % (msg % ("L0", 3, 2)))


@pytest.mark.parametrize("which", ["gglemma", "rank-level"])
def test_verify_weight_level_mismatch_exit_3(which):
    rc, out, err = run_cli(["verify", which, "--weight", "L0", "--n", "3", "--ell", "2"])
    assert rc == 3 and out == "" and "level" in err


def test_verify_single_weight():
    for which in ("gglemma", "kyoto", "three-way-Z", "rank-level"):
        rc, out, _ = run_cli(
            ["verify", which, "--weight", "L0+L1", "--n", "3", "--ell", "2", "--nmax", "3"]
        )
        assert (rc, out) == (0, "ok: %s\n" % which)
    rc, out, _ = run_cli(["verify", "level-one", "--weight", "L2", "--n", "3", "--ell", "1"])
    assert (rc, out) == (0, "ok: level-one\n")
    # level-one reads its weight at level 1, whatever --ell is
    argv = ["verify", "level-one", "--n", "3", "--ell", "2", "--weight"]
    assert run_cli(argv + ["L0"])[:2] == (0, "ok: level-one\n")
    rc, out, err = run_cli(argv + ["2*L0"])
    assert (rc, out) == (3, "")
    assert err == "error: weight 2*L0 needs 3 coefficients and level 1\n"


def _broken_gglemma(monkeypatch):
    from slncrystals import crystal

    monkeypatch.setattr(crystal, "f_descending", lambda psi, i: None)


def _broken_gglemma_e(monkeypatch):
    from slncrystals import crystal

    monkeypatch.setattr(crystal, "e_descending", lambda psi, i: None)


def _broken_tk_commute(monkeypatch):
    from slncrystals import abacus

    real = abacus.tighten
    # T_k now kills every configuration of odd weight
    monkeypatch.setattr(
        abacus, "tighten", lambda psi, k: None if abacus.weight(psi) % 2 else real(psi, k)
    )


def _broken_tk_commute_e(monkeypatch):
    from slncrystals import abacus, crystal

    real = crystal.e_abacus
    # e_i now kills every configuration of odd weight, f_i is untouched
    monkeypatch.setattr(
        crystal, "e_abacus", lambda psi, i: None if abacus.weight(psi) % 2 else real(psi, i)
    )


def _broken_bijection(monkeypatch):
    from slncrystals import cylindric

    real = cylindric.cpp_weight
    monkeypatch.setattr(cylindric, "cpp_weight", lambda pi: real(pi) + 1)


def _broken_from_abacus(monkeypatch):
    from slncrystals import cylindric

    real = cylindric.from_abacus

    def broken(psi):
        # increasing profile entries, which no cylinder of ell >= 2 has
        pi = real(psi)
        profile = tuple(range(pi.ell))
        return cylindric.CylindricPlanePartition(pi.n, pi.ell, profile, pi.rows)

    monkeypatch.setattr(cylindric, "from_abacus", broken)


def _broken_to_abacus(monkeypatch):
    from slncrystals import abacus, cylindric

    real = cylindric.to_abacus
    # the inverse now forgets every bead move
    monkeypatch.setattr(cylindric, "to_abacus", lambda pi: abacus.compactify(real(pi)))


def _broken_kyoto(monkeypatch):
    from slncrystals import kyoto

    monkeypatch.setattr(kyoto, "f_path", lambda path, i: None)


def _broken_dimq(monkeypatch):
    from slncrystals import qseries

    real = qseries.dimq_crystal

    def broken(w, n, ell, nmax):
        s = real(w, n, ell, nmax)
        coeffs = list(s.coeffs)
        if n == 3 and nmax >= 1:  # only the rank-3 side of rank-level duality
            coeffs[1] += 1
        return qseries.QSeries(coeffs, s.nmax)

    monkeypatch.setattr(qseries, "dimq_crystal", broken)


# (id, suite, a monkeypatch that breaks one side of its identity, a fragment
# of the failure that names that side)
BREAKERS = [
    ("bijection", "bijection", _broken_bijection, "weight mismatch"),
    ("bijection-image", "bijection", _broken_from_abacus,
     "image not a cylindric plane partition"),
    ("bijection-roundtrip", "bijection", _broken_to_abacus, "roundtrip failed"),
    ("gglemma", "gglemma", _broken_gglemma, "f rules disagree"),
    ("gglemma-e", "gglemma", _broken_gglemma_e, "e rules disagree"),
    ("kyoto", "kyoto", _broken_kyoto, "path model disagrees"),
    ("level-one", "level-one", _broken_dimq, "level-one identity fails"),
    ("rank-level", "rank-level", _broken_dimq, "rank-level duality fails"),
    ("tk-commute", "tk-commute", _broken_tk_commute, "and f_"),
    ("tk-commute-e", "tk-commute", _broken_tk_commute_e, "and e_"),
]


@pytest.mark.parametrize(
    "which,breaker,fragment", [pytest.param(*case[1:], id=case[0]) for case in BREAKERS]
)
def test_verify_suite_reports_counterexample(monkeypatch, which, breaker, fragment):
    breaker(monkeypatch)
    rc, out, _ = run_cli(["verify", which, "--n", "3", "--ell", "2", "--nmax", "4"])
    assert rc == 1
    assert out.startswith("FAIL: %s:" % which)
    assert fragment in out


@pytest.mark.parametrize("which", ["gglemma", "tk-commute", "bijection", "kyoto"])
def test_verify_case_count_matches_borodin(which):
    # descending configurations = sum of Z_borodin's coefficients; tight ones
    # = dim_q = Z * prod_k (1 - q^{nk})
    from slncrystals import checks, qseries

    n, ell, nmax = 3, 2, 4
    expected = 0
    for w in qseries.level_weights(n, ell):
        z = qseries.Z_borodin(qseries.boundary_of(w, n, ell), nmax)
        if which == "kyoto":
            for e in range(n, nmax + 1, n):
                z = z.times_one_minus(e)
        expected += sum(z.coeffs)
    assert checks.run(which, n, ell, nmax) == (expected, None)


# ---------------------------------------------------------------------------
# fuzzing the whole front end

MODELS = ["partition", "abacus", "cpp", "path"]
JSON_KEYS = ["n", "ell", "rows", "charge", "parts", "profile", "weight",
             "deviations", "1", "2", "x"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 6) | st.floats(-2, 2)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(JSON_KEYS), inner, max_size=5),
    max_leaves=12,
)


@st.composite
def model_json(draw, model):
    """The encoding of a valid object of `model`, or a random one."""
    if model == "partition":
        return sorted(draw(st.lists(st.integers(1, 6), max_size=6)), reverse=True)
    n, ell = draw(st.sampled_from([(2, 2), (3, 2), (2, 3)]))
    w = draw(st.sampled_from(all_level_coeffs(n, ell)))
    cfg = draw(st.sampled_from(tight_configs(n, ell, w, 3)))
    if model == "abacus":
        return cfg.to_json()
    if model == "cpp":
        return cylindric.from_abacus(cfg).to_json()
    return kyoto.to_path(cfg).to_json()


# more digits than int() and json.loads read by default (4,300)
past_digit_limit = st.integers(4301, 4400).map(lambda k: "7" * k)


@st.composite
def weight_text(draw, n, ell):
    """A weight of rank n, level ell most of the time, or stray text, or a
    term with an integer past the digit limit."""
    if draw(st.integers(0, 19)) == 0:
        digits = draw(past_digit_limit)
        return draw(st.sampled_from(["%s*L0" % digits, "L%s" % digits,
                                     "L0+%s*L1" % digits]))
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(alphabet="L0123*+ x", max_size=8))
    m = [0] * max(n, 1)
    level = max(ell, 0)
    for c in draw(st.lists(st.integers(0, len(m) - 1), min_size=level, max_size=level)):
        m[c] += 1
    return "+".join("%d*L%d" % (c, i) for i, c in enumerate(m) if c) or "L0"


@st.composite
def cli_cases(draw):
    """(argv, stdin) for any subcommand, with --nmax and --max-degree at
    most 3; the arguments and the input are mostly valid."""
    command = draw(st.sampled_from(["convert", "graph", "series", "enumerate",
                                    "verify"]))
    argv = [command]
    stdin = ""
    if command == "convert":
        src, dst = draw(st.sampled_from(MODELS)), draw(st.sampled_from(MODELS))
        argv += [src, dst]
        options = draw(st.sampled_from([[], ["--format", "text"], ["--format", "json"]]))
        if draw(st.integers(0, 4)) == 0:  # an input file, before or after the options
            name = draw(st.sampled_from(["-", "no-such-input.json", "."]))
            options.insert(draw(st.sampled_from([0, len(options)])), name)
        argv += options
        data = draw(model_json(src)) if draw(st.booleans()) else draw(st.one_of(
            model_json(draw(st.sampled_from(MODELS))),
            abacus_configs().map(lambda c: c.to_json()), json_values))
        stdin = json.dumps(data)
        if draw(st.integers(0, 9)) == 0:
            stdin = draw(st.text(max_size=10))
        elif draw(st.integers(0, 9)) == 0:
            # one integer past the digit limit, written out (json.dumps
            # refuses such an int) over a number of the text or at its start
            numbers = list(re.finditer("[0-9]+", stdin)) or [re.match("", stdin)]
            m = draw(st.sampled_from(numbers))
            stdin = stdin[:m.start()] + draw(past_digit_limit) + stdin[m.end():]
    elif command == "verify":
        argv.append(draw(st.sampled_from(checks.SUITES)))
    n = draw(st.integers(2, 4)) if draw(st.integers(0, 4)) else draw(st.integers(-1, 1))
    ell = draw(st.integers(1, 3)) if draw(st.integers(0, 4)) else draw(st.integers(-1, 0))
    argv += ["--n", str(n), "--ell", str(ell)]
    if command != "convert":  # convert takes no weight
        argv += ["--weight", draw(weight_text(n, ell))]
    if command == "convert" and draw(st.booleans()):
        argv += ["--rotate-colors", str(draw(st.integers(-3, 3)))]
    if command in ("series", "enumerate", "verify"):
        argv += ["--nmax", str(draw(st.integers(-1, 3)))]
    if command == "series":
        argv += ["--kind", draw(st.sampled_from(["Z", "dimq", "borodin", "brute"]))]
    if command == "graph":
        argv += ["--max-degree", str(draw(st.integers(-1, 3)))]
        argv += ["--format", draw(st.sampled_from(["dot", "json"]))]
    if command == "enumerate" and draw(st.booleans()):
        argv.append("--tight")
    if draw(st.integers(0, 9)) == 0:  # a token argparse must refuse
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--bogus", "extra", "--n", "--nmax=x"])))
    return argv, stdin


@settings(max_examples=300, deadline=None)
@given(cli_cases())
def test_cli_fuzz_exit_codes(case):
    # every input works or is refused with its documented exit code: 2 for
    # unparsable input, 3 for invalid input, 1 only for a failed verify; any
    # other exception fails the test with its traceback.  One parser serves
    # every example, so a parse that left state in it would show here too.
    argv, stdin = case
    try:
        rc, _, err = run_cli(argv, stdin)
    except SystemExit as exc:  # argparse refusing the argv
        rc, err = exc.code, ""
    assert rc in (0, 1, 2, 3)
    assert rc != 1 or argv[0] == "verify"
    assert "Traceback" not in err
