import itertools
import json
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patstat import cli, engine, formulas, words
from patstat.perms import format_perm


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_poly_text_output(capsys):
    code, out, _ = run_cli(["poly", "--stat", "inv", "--n", "3", "--avoid", "312"], capsys)
    assert code == 0
    assert out == "1 + 2*q + q^2 + q^3\n"


def test_poly_json_output(capsys):
    code, out, _ = run_cli(
        ["poly", "--stat", "inv", "--n", "3", "--avoid", "312", "--format", "json"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {"n": 3, "patterns": ["312"], "stat": "inv", "poly": [1, 2, 1, 1]}


def test_poly_csv_output(capsys):
    code, out, _ = run_cli(
        ["poly", "--stat", "majdes", "--n", "3", "--avoid", "213,321", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert out.splitlines() == ["q,t,c", "0,0,1", "1,1,1", "2,1,2"]


def test_enumerate_empty_length(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "0", "--avoid", "123"], capsys)
    assert code == 0
    assert out == "ε\n"


def test_enumerate_lines(capsys):
    code, out, _ = run_cli(["enumerate", "--n", "3", "--avoid", "312"], capsys)
    assert code == 0
    assert out.splitlines() == ["123", "132", "213", "231", "321"]


def test_enumerate_json(capsys):
    code, out, _ = run_cli(
        ["enumerate", "--n", "3", "--avoid", "312", "--format", "json"], capsys
    )
    payload = json.loads(out)
    assert payload["avoiders"] == ["123", "132", "213", "231", "321"]


def test_commands_echo_the_parsed_patterns(capsys):
    for command in (["enumerate"], ["count"], ["poly", "--stat", "inv"]):
        code, out, _ = run_cli(
            command + ["--n", "3", "--avoid", "132, 213", "--format", "json"], capsys
        )
        assert (code, json.loads(out)["patterns"]) == (0, ["132", "213"]), command


@pytest.mark.parametrize("items", ["132,", "132,,213", " , "])
@pytest.mark.parametrize("command", [
    ["count"], ["poly", "--stat", "inv"], ["enumerate"], ["mahonian", "--right", "132"],
], ids=["count", "poly", "enumerate", "mahonian"])
def test_an_empty_item_in_a_pattern_list_is_refused(command, items, capsys):
    flag = "--left" if command[0] == "mahonian" else "--avoid"
    with pytest.raises(SystemExit) as info:
        cli.main(command + ["--n", "4", flag, items, "--format", "json"])
    assert info.value.code == 2
    assert capsys.readouterr() == (
        "", f"patstat: empty item in pattern list {items.strip()!r} (the empty pattern is ε)\n")


def test_the_empty_pattern_and_the_empty_list_stay_valid(capsys):
    for avoid, patterns, count in (("ε", ["ε"], 0), ("", [], 24), ("132,ε", ["132", "ε"], 0)):
        code, out, _ = run_cli(["count", "--n", "4", "--avoid", avoid, "--format", "json"],
                               capsys)
        assert (code, json.loads(out)) == (0, {"n": 4, "patterns": patterns, "count": count})


def test_count(capsys):
    code, out, _ = run_cli(["count", "--n", "10", "--avoid", "132"], capsys)
    assert code == 0 and out.strip() == "16796"


def test_formula_command(capsys):
    code, out, _ = run_cli(["formula", "--id", "maj-132-231", "--n", "3"], capsys)
    assert code == 0
    assert out.strip() == "1 + 2*q*t + q^3*t^2"


def test_series_command(capsys):
    code, out, _ = run_cli(["series", "--gf", "gf-231-312-321", "--order", "3"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x^0: 1"
    assert lines[1] == "x^1: 1"
    assert len(lines) == 4


def test_foata_commands(capsys):
    code, out, _ = run_cli(["foata", "--word", "1011"], capsys)
    assert code == 0 and out.strip() == "1011"
    code, out, _ = run_cli(["foata", "--word", "0101", "--inverse"], capsys)
    assert code == 0 and out.strip() == "1001"


def test_decompose_command(capsys):
    code, out, _ = run_cli(["decompose", "--word", "001101001"], capsys)
    assert code == 0
    assert out.splitlines() == ["lambda=3,3,2", "d=2", "beta=2,0,0", "rho=2,0"]
    code, out, _ = run_cli(["decompose", "--word", "001101001", "--format", "json"], capsys)
    assert json.loads(out) == {"lambda": [3, 3, 2], "d": 2, "beta": [2, 0, 0], "rho": [2, 0]}


def test_bijection_commands(capsys):
    code, out, _ = run_cli(["bijection", "--name", "231-321", "--input", "213"], capsys)
    assert code == 0 and out.strip() == "101"
    code, out, _ = run_cli(
        ["bijection", "--name", "231-321", "--input", "101", "--inverse"], capsys
    )
    assert code == 0 and out.strip() == "213"
    code, out, _ = run_cli(
        ["bijection", "--name", "132-213-partition", "--input", "321"], capsys
    )
    assert code == 0 and out.strip() == "2,1"
    code, out, _ = run_cli(
        ["bijection", "--name", "132-213-partition", "--input", "2,1", "--inverse",
         "--n", "3"],
        capsys,
    )
    assert code == 0 and out.strip() == "321"
    code, out, _ = run_cli(["bijection", "--name", "132-to-231", "--input", "4213"], capsys)
    assert code == 0 and out.strip() == "4213"


def test_bijection_names_are_the_table():
    name = cli._grammar()[1]["bijection"].plain["--name"]
    assert tuple(name.choices) == tuple(words.BIJECTIONS)
    for key, bij in words.BIJECTIONS.items():
        if bij.words:
            assert f"gf-{key}" in formulas.SERIES_IDS


@pytest.mark.parametrize("name", list(words.BIJECTIONS))
def test_every_bijection_round_trips_through_the_command(name, capsys):
    patterns = words.BIJECTIONS[name].patterns
    for n in range(7):
        for p in engine.enumerate_avoiders(n, patterns):
            code, image, _ = run_cli(["bijection", "--name", name, "--input", format_perm(p)],
                                     capsys)
            assert code == 0, p
            back = ["bijection", "--name", name, "--input", image.strip(), "--inverse"]
            if name.endswith("-partition"):
                back += ["--n", str(n)]
            code, out, _ = run_cli(back, capsys)
            assert (code, out) == (0, format_perm(p) + "\n"), (p, image)


@pytest.mark.parametrize("name, member, message", [
    ("231-321", "2413", "2413 contains 231 or 321"),
    ("312-321", "3142", "3142 contains 312 or 321"),
    ("231-312-321", "321", "321 contains 231, 312 or 321"),
    ("132-213-partition", "1432", "1432 contains 132 or 213"),
    ("132-231-partition", "2431", "2431 contains 132 or 231"),
    ("132-to-231", "1324", "1324 contains 132"),
])
def test_bijection_refuses_a_non_member(name, member, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bijection", "--name", name, "--input", member])
    assert info.value.code == 2
    assert capsys.readouterr() == ("", f"patstat: {message}\n")


@pytest.mark.parametrize("name", ["132-213-partition", "132-231-partition"])
def test_partition_inverse_refuses_a_negative_n(name, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bijection", "--name", name, "--input", "-", "--inverse", "--n", "-1"])
    assert info.value.code == 2
    assert capsys.readouterr() == ("", "patstat: length must be nonnegative\n")


_BAD_WORD = "its letters must be 0 or 1"
_BAD_PART = "each part must be an integer"


@pytest.mark.parametrize("argv, message", [
    (["foata", "--word", "0a1"], f"cannot parse word '0a1': {_BAD_WORD}"),
    (["foata", "--word", "0 1", "--inverse"], f"cannot parse word '0 1': {_BAD_WORD}"),
    (["decompose", "--word", "2"], f"cannot parse word '2': {_BAD_WORD}"),
    (["bijection", "--name", "231-321", "--inverse", "--input", "1,0"],
     f"cannot parse word '1,0': {_BAD_WORD}"),
    (["bijection", "--name", "132-213-partition", "--inverse", "--input", "3,,1", "--n", "5"],
     f"cannot parse partition '3,,1': {_BAD_PART}"),
    (["bijection", "--name", "132-231-partition", "--inverse", "--input", "2,x", "--n", "5"],
     f"cannot parse partition '2,x': {_BAD_PART}"),
    (["bijection", "--name", "231-321", "--input", "2,x,1"], "cannot parse permutation '2,x,1'"),
    (["bijection", "--name", "231-321", "--input", "2,,1"], "cannot parse permutation '2,,1'"),
], ids=["foata", "foata-inverse", "decompose", "word-bijection", "empty-part", "letter-part",
        "letter-in-perm", "empty-in-perm"])
def test_a_bad_word_or_partition_is_named(argv, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert capsys.readouterr() == ("", f"patstat: {message}\n")


def test_mahonian_exit_codes(capsys):
    code, out, _ = run_cli(
        ["mahonian", "--left", "132,213", "--right", "132,231", "--n", "6"], capsys
    )
    assert code == 0 and out.strip() == "true"
    code, out, _ = run_cli(["mahonian", "--left", "123", "--right", "321", "--n", "3"], capsys)
    assert code == 1 and out.strip() == "false"


def test_classify_output(capsys):
    code, out, _ = run_cli(
        ["classify", "--k", "3", "--size", "1", "--stat", "maj", "--nmax", "6"], capsys
    )
    assert code == 0
    assert out.splitlines() == ["123", "132 | 231", "213 | 312", "321"]
    code, out, _ = run_cli(
        ["classify", "--k", "3", "--size", "1", "--stat", "maj", "--nmax", "6",
         "--format", "json"],
        capsys,
    )
    assert json.loads(out) == [["123"], ["132", "231"], ["213", "312"], ["321"]]


@pytest.mark.parametrize("k, size, message", [
    ("-1", "1", "ground length must be nonnegative"),
    ("3", "-1", "subset size must be nonnegative"),
])
def test_classify_refuses_negative_arguments(k, size, message, capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["classify", "--k", k, "--size", size, "--stat", "inv", "--nmax", "3"])
    assert info.value.code == 2
    assert capsys.readouterr() == ("", f"patstat: {message}\n")


def test_verify_conjectures_small(capsys):
    code, out, _ = run_cli(["verify", "--suite", "conjectures", "--nmax", "6"], capsys)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "5/5 checks passed"
    assert all(line.startswith("PASS") for line in lines[:-1])


def test_verify_below_the_pattern_length(capsys):
    # the checks that classify raise their bound to the pattern length
    for nmax in ("0", "1", "2"):
        code, out, err = run_cli(["verify", "--suite", "paper", "--nmax", nmax], capsys)
        assert (code, out.splitlines()[-1], err) == (0, "22/22 checks passed", "")
    for nmax in ("0", "1", "2", "3"):
        code, out, err = run_cli(["verify", "--suite", "conjectures", "--nmax", nmax], capsys)
        assert (code, out.splitlines()[-1], err) == (1, "4/5 checks passed", "")
        assert out.startswith("FAIL trivial-inv-wilf")
        assert "not separated up to n_max=4;" in out
    for suite in ("paper", "conjectures"):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", "--suite", suite, "--nmax", "-1"])
        assert info.value.code == 2
        assert capsys.readouterr() == ("", "patstat: n_max must be nonnegative\n")


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["poly", "--stat", "area", "--n", "3"])
    assert info.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as info:
        cli.main(["bogus"])
    assert info.value.code == 2
    capsys.readouterr()


def test_invalid_value_exit_code(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["poly", "--stat", "inv", "--n", "3", "--avoid", "1x2"])
    assert info.value.code == 2
    capsys.readouterr()


def test_bijection_rejects_wrong_class(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["bijection", "--name", "231-321", "--input", "231"])
    assert info.value.code == 2
    capsys.readouterr()


def test_limit_seconds_aborts(capsys):
    code, out, err = run_cli(
        ["enumerate", "--n", "11", "--avoid", "", "--limit-seconds", "0.02",
         "--format", "json"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "time limit" in err


def _streamed_until_limit(argv, capsys):
    """The lines an enumeration printed before its time limit, and their
    number as named on stderr."""
    code, out, err = run_cli(argv, capsys)
    assert code == 1
    match = re.fullmatch(
        r"patstat: time limit exceeded, output incomplete after (\d+) avoiders\n", err
    )
    assert match, err
    return out.splitlines(), int(match.group(1))


def test_limit_seconds_keeps_streamed_text(capsys):
    lines, printed = _streamed_until_limit(
        ["enumerate", "--n", "11", "--avoid", "", "--limit-seconds", "0.02"], capsys
    )
    first = itertools.islice(itertools.permutations(range(1, 12)), printed)
    assert lines == [format_perm(p) for p in first]
    # each avoider is printed as it is found, so some precede the limit
    assert printed > 0
    # likewise for a set whose prefix states prune the walk
    lines, printed = _streamed_until_limit(
        ["enumerate", "--n", "14", "--avoid", "123", "--limit-seconds", "0.05"], capsys
    )
    first = itertools.islice(engine.enumerate_avoiders(14, [(1, 2, 3)]), printed)
    assert lines == [format_perm(p) for p in first]
    # csv streams its rows after the header in the same way
    lines, printed = _streamed_until_limit(
        ["enumerate", "--n", "11", "--avoid", "", "--limit-seconds", "0.02", "--format", "csv"],
        capsys,
    )
    first = itertools.islice(itertools.permutations(range(1, 12)), printed)
    assert lines == ["perm"] + [format_perm(p) for p in first]
    assert printed > 0


def test_limit_seconds_aborts_classify(capsys):
    code, out, err = run_cli(
        ["classify", "--k", "3", "--size", "2", "--stat", "maj-des", "--nmax", "9",
         "--limit-seconds", "0.0"],
        capsys,
    )
    assert code == 1
    assert out == ""
    assert "time limit" in err


@pytest.mark.parametrize("argv", [
    ["count", "--n", "13", "--avoid", "1324"],
    ["poly", "--stat", "majdes", "--n", "13", "--avoid", "1324", "--format", "json"],
    ["mahonian", "--left", "1324", "--right", "1234", "--n", "13"],
    ["verify", "--suite", "paper", "--nmax", "9"],
    ["series", "--gf", "gf-231-321", "--order", "30"],
], ids=["count", "poly", "mahonian", "verify", "series"])
def test_limit_seconds_aborts_profiles(argv, capsys):
    code, out, err = run_cli(argv + ["--limit-seconds", "0"], capsys)
    assert code == 1
    assert out == ""
    assert err == "patstat: time limit exceeded, partial results suppressed\n"


@pytest.mark.parametrize("argv", [
    ["count", "--n", "5", "--avoid", "132"],
    ["verify", "--suite", "paper", "--nmax", "1"],
    ["foata", "--word", "0110"],
], ids=["count", "verify", "foata"])
@pytest.mark.parametrize("value", ["nan", "-1", "-inf"])
def test_limit_seconds_refuses_values_below_zero(argv, value, capsys):
    # no deadline is ever passed at NaN, and a negative one has passed
    # before the command starts; "-inf" only parses as a value after "="
    with pytest.raises(SystemExit) as info:
        cli.main(argv + [f"--limit-seconds={value}"])
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith(f"error: argument --limit-seconds: must be a number >= 0, got '{value}'\n")


def test_limit_seconds_of_inf_is_no_limit(capsys):
    argv = ["count", "--n", "5", "--avoid", "132", "--limit-seconds"]
    assert run_cli(argv + ["inf"], capsys) == (0, "42\n", "")
    assert run_cli(argv + ["1e9"], capsys) == (0, "42\n", "")


def test_a_pattern_longer_than_nine_can_be_avoided(capsys):
    long = "10,1,2,3,4,5,6,7,8,9"
    assert run_cli(["count", "--n", "10", "--avoid", long], capsys) == (0, "3628799\n", "")
    code, out, _ = run_cli(
        ["poly", "--stat", "inv", "--n", "10", "--avoid", long, "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["patterns"] == [long]
    assert sum(payload["poly"]) == 3628799


def test_count_overflow_exit_code(capsys):
    code, out, err = run_cli(["count", "--n", "36", "--avoid", "321"], capsys)
    assert code == 1
    assert out == ""
    # the polynomial's coefficients all fit; Catalan(36), their sum, does not
    assert err == ("patstat: integer overflow: count 11959798385860453492 "
                   "exceeds the signed 64-bit range\n")


def test_progress_goes_to_stderr_only(capsys):
    code, out, err = run_cli(
        ["enumerate", "--n", "9", "--avoid", "", "--progress", "--format", "csv"],
        capsys,
    )
    assert code == 0
    assert "avoiders" in err
    assert out.splitlines()[0] == "perm"
    assert len(out.splitlines()) == 362881


def test_deterministic_output(capsys):
    args = ["poly", "--stat", "majdes", "--n", "7", "--avoid", "312", "--format", "json"]
    _, first, _ = run_cli(args, capsys)
    _, second, _ = run_cli(args, capsys)
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "patstat.cli", "count", "--n", "4", "--avoid", "123"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "14"


@pytest.mark.parametrize("argv, lines", [
    (["enumerate", "--n", "8", "--avoid", ""], 1),
    (["classify", "--k", "3", "--size", "1", "--stat", "inv", "--nmax", "5"], 0),
    (["verify", "--suite", "paper", "--nmax", "1"], 0),
], ids=["enumerate", "classify", "verify"])
def test_a_reader_that_closes_early_ends_the_command_quietly(argv, lines):
    # as with `patstat ... | head`: exit 1, with no traceback and nothing
    # said about the flush at interpreter exit
    proc = subprocess.Popen([sys.executable, "-m", "patstat.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for _ in range(lines):
        proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), err) == (1, b"")


def test_one_process_runs_many_commands(capsys, monkeypatch):
    # main() shares one parser across calls; each call must still print and
    # exit exactly as the same command run alone in a fresh interpreter
    monkeypatch.setenv("COLUMNS", "80")
    poly = ["poly", "--stat", "majdes", "--n", "5", "--avoid", "132", "--format", "json"]
    commands = [(poly, 0), (["poly", "--stat", "inv", "--n", "4", "--avoid", "1x2"], 2),
                (["--help"], 0), (["poly", "--stat", "area", "--n", "4"], 2), (poly, 0)]
    for argv, code in commands:
        try:
            got = cli.main(list(argv))
        except SystemExit as exit:
            got = exit.code
        out, err = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "patstat.cli", *argv],
                               capture_output=True, text=True)
        assert (got, out, err) == (alone.returncode, alone.stdout, alone.stderr), argv
        assert got == code, argv


_BAD_VALUES = ("-1", "nan", "-inf", "x", "1x2", "", " 4", "--", "-h", "--format")


def _good_values(action):
    if action.choices is not None:
        return tuple(action.choices)
    return {int: ("0", "3", "12"), cli._seconds: ("0", "2.5", "inf")}.get(
        action.type, ("132", "132,213", "0110", "231-321", ""))


@st.composite
def _command_lines(draw):
    """A command line: mostly a command's own options in some order, each
    with a value that its type and choices mostly accept, and a few hostile
    tokens put anywhere."""
    commands = cli._grammar()[1]
    name = draw(st.sampled_from([*commands, "bogus", "-h", "--help", "--"]))
    if draw(st.integers(0, 19)) == 0:
        return []
    argv = [name]
    options = [a for a in commands[name].declared if a.dest != "help"] if name in commands else []
    for action in draw(st.permutations(options)):
        if draw(st.integers(0, 9)) == 0:
            continue  # left out, required or not
        argv.append(action.option_strings[0])
        if action.nargs != 0:
            pool = _BAD_VALUES if draw(st.integers(0, 5)) == 0 else _good_values(action)
            argv.append(draw(st.sampled_from(pool)))
    spelled = sorted({s for a in options for s in a.option_strings})
    hostile = ["--", "-h", "--help", "extra", "poly", "--lim", "--limit-seconds", "nan",
               *spelled, *(s + "=3" for s in spelled), *(s[:-1] for s in spelled)]
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(hostile)))
    return argv


@settings(derandomize=True, database=None, max_examples=600, deadline=None)
@given(_command_lines())
@example([])
@example(["count", "--n", "5", "--limit-seconds", "nan"])
@example(["count", "--n", "-1"])
@example(["count", "--n", "5", "--n", "6"])
@example(["poly", "--stat", "inv", "--n", "4", "--avoid=132"])
@example(["poly", "--stat", "inv", "--n", "4", "--", "--avoid", "132"])
@example(["foata", "--word", "0110", "--inverse", "extra"])
def test_the_one_pass_parse_declines_or_agrees_with_argparse(argv):
    plain = cli._parse_plain(argv)
    if plain is not None:
        assert vars(plain) == vars(cli.build_parser().parse_args(argv)), argv
