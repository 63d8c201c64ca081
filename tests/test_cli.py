import argparse
import sys
import warnings

import numpy as np
import pytest

from heis import cli, grid
from heis.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


USAGE_ERRORS = [
    ("mul", "--n", "1", "1;2;3"),                 # missing positional
    ("dilate", "--n", "1", "1;1;1"),              # missing required option
    ("inv", "1;2;3"),                             # missing --n
    ("inv", "--n", "1", "--frob", "1", "1;2;3"),  # unknown option
    ("mul", "--n", "abc", "0;0;0", "0;0;0"),      # ill-typed option
    ("inv", "--n", "1", "-x;-2;-1"),              # '-' and no number, no `--`
    ("rep-check", "--L", "1"),                    # no grid operator reads L
    ("rep-check", "--lam", "1"),                  # nor a scale lambda
    ("rep-check", "--l", "2"),                    # prefixes are not options
    ("rep-check", "--tri", "1"),
    ("siegel-check", "--n", "1", "--se", "1"),
    ("dilate", "--n", "1", "--r", "2", "--he", "1;1;1"),
    ("commutator", "--in", "f.txt", "--N", "8"),  # the file fixes the grid
    ("commutator", "--L", "2"),                   # no period: h cancels from the defect
]


class TestElementVerbs:
    def test_mul_identity(self, capsys):
        code, out, _ = run(capsys, "mul", "--n", "2", "1,2;3,4;5", "0,0;0,0;0")
        assert code == 0
        assert out.strip() == "1,2;3,4;5"

    def test_mul_hand_example(self, capsys):
        code, out, _ = run(capsys, "mul", "--n", "1", "1;2;0", "3;4;0")
        assert (code, out.strip()) == (0, "4;6;6")

    def test_inv(self, capsys):
        code, out, _ = run(capsys, "inv", "--n", "1", "1;2;3")
        assert (code, out.strip()) == (0, "-1;-2;-1")

    def test_dilate(self, capsys):
        code, out, _ = run(capsys, "dilate", "--n", "1", "--r", "2", "1;1;1")
        assert (code, out.strip()) == (0, "2;2;4")

    def test_reduce(self, capsys):
        code, out, _ = run(capsys, "reduce", "--n", "1", "1.5;-0.25;2.3")
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "-1;1;-3"
        assert lines[1].startswith("0.5;0.75;0.7999999999999998")

    def test_real_roundtrip_17_digits(self, capsys):
        g = "0.1;0.30000000000000004;2.3"
        _, out, _ = run(capsys, "mul", "--n", "1", g, "0;0;0")
        _, out2, _ = run(capsys, "mul", "--n", "1", out.strip(), "0;0;0")
        assert out == out2


class TestWordVerbs:
    def test_parse_echo(self, capsys):
        code, out, _ = run(capsys, "parse", "--n", "1", "a1^2  b1 c^-1")
        assert (code, out.strip()) == (0, "a1^2 b1 c^-1")

    def test_norm(self, capsys):
        code, out, _ = run(capsys, "norm", "--n", "1", "b1 a1")
        assert (code, out.strip()) == (0, "a1 b1 c")

    def test_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "--n", "1", "a1^2 b1^3 c^5")
        assert (code, out.strip()) == (0, "2;3;5")


class TestExitCodes:
    def test_unknown_verb(self, capsys):
        code, out, _ = run(capsys, "frobnicate")
        assert code == 64
        assert out.startswith("usage:")

    def test_word_syntax_error(self, capsys):
        code, _, err = run(capsys, "norm", "--n", "1", "a1 ??")
        assert code == 2
        assert "error" in err

    def test_literal_syntax_error(self, capsys):
        code, _, _ = run(capsys, "mul", "--n", "1", "abc;def;ghi", "0;0;0")
        assert code == 2

    def test_dimension_error(self, capsys):
        code, _, _ = run(capsys, "mul", "--n", "1", "1,2;3,4;5", "0;0;0")
        assert code == 3

    def test_index_out_of_range(self, capsys):
        code, _, _ = run(capsys, "eval", "--n", "2", "b3")
        assert code == 2

    def test_bad_dilation_parameter(self, capsys):
        code, _, _ = run(capsys, "dilate", "--n", "1", "--r", "-2", "1;1;1")
        assert code == 3

    def test_reduce_overflow(self, capsys):
        # t + x . l = 1e200 * -1e200 overflows before the central slot is reduced
        code, out, err = run(capsys, "reduce", "--n", "1", "1e200;1e200;0")
        assert (code, out) == (3, "")
        assert "overflow" in err

    @pytest.mark.parametrize("verb", ["rep-check", "siegel-check"])
    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_no_vacuous_check(self, capsys, verb, trials):
        code, out, err = run(capsys, verb, "--n", "1", "--trials", trials, "--seed", "1")
        assert (code, out) == (3, "")
        assert "trials must be >= 1" in err

    @pytest.mark.parametrize("verb", ["rep-check", "siegel-check"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_check_dimension(self, capsys, verb, n):
        code, out, err = run(capsys, verb, "--n", n, "--trials", "1", "--seed", "1")
        assert (code, out) == (3, "")
        assert "n must be >= 1" in err

    @pytest.mark.parametrize("verb", ["rep-check", "siegel-check"])
    @pytest.mark.parametrize("seed", ["-1", "1.5", "abc"])
    def test_bad_seed_option(self, capsys, verb, seed):
        code, out, err = run(capsys, verb, "--n", "1", "--trials", "1", "--seed", seed)
        assert (code, out) == (3, "")
        assert "seed must be a non-negative integer" in err

    @pytest.mark.parametrize("seed", ["abc", "-3"])
    def test_bad_seed_environment(self, capsys, monkeypatch, seed):
        monkeypatch.setenv("HEIS_SEED", seed)
        code, out, err = run(capsys, "siegel-check", "--n", "1", "--trials", "1")
        assert (code, out) == (3, "")
        assert "seed must be a non-negative integer" in err

    @pytest.mark.parametrize("verb, word", [("eval", "a1"), ("norm", "a1"), ("relcheck", None),
                                            ("siegel-check", None)])
    def test_input_too_large_for_memory(self, capsys, verb, word):
        """n = 10^15 asks for a tuple or array of 8 PB or more, which cannot be mapped,
        so the allocation fails at once."""
        argv = [verb, "--n", str(10**15)] + ([word] if word else [])
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (3, "", "error: the input is too large for memory\n")

    # the first n whose one trial, 6n + 4 doubles, is more bytes than an index counts
    WIDEST_N = (np.iinfo(np.intp).max // 8 - 4) // 6 + 1

    @pytest.mark.parametrize("n, trials", [(10**19, "100"), (10**19, "4096"), (WIDEST_N, "1")],
                             ids=["n1e19-trials100", "n1e19-trials4096", "first-n-over"])
    def test_siegel_check_block_too_large_for_an_array(self, capsys, n, trials):
        """numpy raises ValueError, not MemoryError, for an array of more bytes than
        an index counts; the check refuses such a block first and names its size.
        A block holds one trial once a trial is wider than BLOCK_VALUES draws."""
        code, out, err = run(capsys, "siegel-check", "--n", str(n), "--trials", trials)
        assert (code, out) == (3, "")
        assert err == (f"error: siegel-check blocks of 1 x {6 * n + 4} samples exceed "
                       f"the largest array\n")

    @pytest.mark.parametrize("n", [10**15, WIDEST_N - 1], ids=["n1e15", "last-n-under"])
    def test_siegel_check_block_below_the_array_guard(self, capsys, n):
        """Just below the guard, and at 4096 trials of n = 10^15 (once a block of
        4096 x (6n + 4)), a one-trial block is an array numpy can index, and its
        allocation fails at once."""
        code, out, err = run(capsys, "siegel-check", "--n", str(n), "--trials", "4096")
        assert (code, out, err) == (3, "", "error: the input is too large for memory\n")

    def test_commutator_doubled_grid_names_N(self, capsys):
        """The check also runs at 2N: an N that the guard admits, but not its
        double, is refused by the N the user gave."""
        code, out, err = run(capsys, "commutator", "--N", "1048576")
        assert (code, out) == (3, "")
        assert err == ("error: N = 1048576 is too large: the check also runs at 2N = 2097152 "
                       "points, over the 1048576 guard\n")

    @pytest.mark.parametrize("values", [
        1.5e308 * (-1.0) ** (np.arange(32) // 2),  # f[j + 1] - f[j - 1] overflows
        1e307 * (-1.0) ** (np.arange(32) // 2),    # its quotient by 2 h does
    ], ids=["difference", "quotient"])
    def test_commutator_in_file_overflow(self, capsys, tmp_path, values):
        src = tmp_path / "f.txt"
        with open(src, "w") as fh:
            grid.write_grid_function(grid.GridFunction(grid.GridSpec(1, 32), values), fh)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # one line on stderr, no numpy warning
            code, out, err = run(capsys, "commutator", "--in", str(src))
        assert (code, out, err) == (3, "", "error: commutator overflows the float range\n")

    def test_commutator_in_file_infinite_sample(self, capsys, tmp_path):
        src = tmp_path / "f.txt"
        src.write_text("1 8\n" + "0.5 0\n" * 3 + "inf 0\n" + "0.5 0\n" * 4)
        code, out, err = run(capsys, "commutator", "--in", str(src))
        assert (code, out, err) == (3, "", "error: grid samples must be finite\n")

    @pytest.mark.parametrize("argv, code, error", [
        (("eval", "--n", "1", "c^" + "9" * 5000), 2,
         "exponent has more than {} digits, the most Python converts (at offset 2)"),
        (("parse", "--n", "1", "a1^" + "9" * 4400), 2,
         "exponent has more than {} digits, the most Python converts (at offset 3)"),
        # b1^X a1^X = a1^X b1^X c^(X^2), and X^2 has 8000 digits
        (("eval", "--n", "1", "b1^{0} a1^{0}".format("9" * 4000)), 3,
         "an integer coordinate has more than {} digits, the most Python converts"),
        (("norm", "--n", "1", "b1^{0} a1^{0}".format("9" * 4000)), 3,
         "a generator's exponent has more than {} digits, the most Python converts"),
        (("rep-check", "--trials", "1", "--seed", "9" * 5000), 3,
         "seed has more than {} digits, the most Python converts"),
    ], ids=["eval-literal", "parse-literal", "eval-output", "norm-output", "seed-option"])
    def test_integers_past_the_digit_limit(self, capsys, argv, code, error):
        """int() and str() convert at most sys.get_int_max_str_digits() digits:
        a longer literal is a parse error, a longer output or seed a domain error."""
        got = run(capsys, *argv)
        assert got == (code, "", f"error: {error.format(sys.get_int_max_str_digits())}\n")

    def test_seed_environment_past_the_digit_limit(self, capsys, monkeypatch):
        monkeypatch.setenv("HEIS_SEED", "+" + "9" * 5000)
        got = run(capsys, "siegel-check", "--n", "1", "--trials", "1")
        limit = sys.get_int_max_str_digits()
        assert got == (3, "", f"error: seed has more than {limit} digits, "
                              f"the most Python converts\n")

    @pytest.mark.parametrize("argv, sign", [
        (("siegel-check", "--n"), ""), (("rep-check", "--N"), "-"), (("rep-check", "--trials"), " +"),
    ], ids=["n", "N", "trials"])
    def test_int_option_past_the_digit_limit(self, capsys, argv, sign):
        """A usage error that names int()'s digit limit, without echoing the digits."""
        code, out, err = run(capsys, *argv, sign + "9" * 5000)
        limit = sys.get_int_max_str_digits()
        assert (code, out) == (64, "")
        assert err.endswith(f"\nerror: argument {argv[1]} has more than {limit} digits, "
                            f"the most Python converts\n")
        assert "999" not in err

    @pytest.mark.parametrize("n", ["3000", "4000"])
    def test_rep_check_huge_dimension(self, capsys, n):
        """16^4000 has more digits than int-to-str converts, and 16^3000 has
        3613: the point guard stops multiplying once the grid is too large."""
        code, out, err = run(capsys, "rep-check", "--n", n, "--trials", "1")
        assert (code, out) == (3, "")
        assert err == f"error: grid with N^n = 16^{n} points exceeds the 1048576 guard\n"

    def test_siegel_act_overflow(self, capsys):
        # |z|^2 = 1e320 overflows; squaring with ** 2 used to raise OverflowError
        code, out, err = run(capsys, "siegel-act", "--n", "1", "1e160+0i;0", "1e160+0i;0+1i")
        assert (code, out) == (3, "")
        assert "action overflows" in err

    @pytest.mark.parametrize("argv,message", [
        (("mul", "--n", "1", "1e200;1e200;0", "1e200;1e200;0"), "product overflows"),
        (("dilate", "--n", "1", "--r", "1e200", "1;1;1"), "dilation overflows"),
        (("siegel-mul", "--n", "1", "1e300+1e300i;0", "1e300-1e300i;0"), "product overflows"),
    ])
    def test_overflow_is_named(self, capsys, argv, message):
        # every input is finite; the output is not
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert message in err and "must be finite" not in err

    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_usage_errors_are_64(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (64, "")
        assert f"usage: heis {argv[0]}" in err

    @pytest.mark.parametrize("verb, option", [(verb, name) for verb in cli.VERBS
                                              for name, _ in cli.VERBS[verb].args
                                              if name.startswith("-")])
    def test_double_dash_value_is_missing(self, capsys, verb, option):
        # Python 3.11's argparse hands the verb [] for `--opt=--`
        for argv in ((verb, option, "--"), (verb, f"{option}=--")):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (64, ""), argv
            assert err.endswith(f"error: argument {option}: expected one argument\n"), argv

    def test_double_dash_after_double_dash_is_a_literal(self, capsys):
        # Python 3.11's argparse hands the verb [] for it, and the verb raised
        code, out, err = run(capsys, "mul", "--n", "1", "0;0;0", "--", "--")
        assert (code, out) == (2, "")
        assert err == "error: expected 3 semicolon-separated blocks, got 1\n"

    def test_literal_after_double_dash(self, capsys):
        assert run(capsys, "inv", "--n", "1", "--", "-1;-2;-1")[:2] == (0, "1;2;3\n")

    def test_negative_literal_needs_no_double_dash(self, capsys):
        assert run(capsys, "inv", "--n", "1", "-1;-2;-1")[:2] == (0, "1;2;3\n")
        assert run(capsys, "siegel-mul", "--n", "1", "-1-2i;0", "1;0")[:2] == (0, "0-2i;-4\n")

    @pytest.mark.parametrize("value", ["-2", "-.5", "-1e-3", "-1E-3", "-2e+1", "-inf",
                                       "-Infinity", "-nan", "-1_000"])
    def test_negative_value_exit_code_is_spelling_free(self, capsys, value):
        # argparse alone reads `-1e-3` and `-inf` as options (exit 64) unless
        # they are joined with `=`; this pins the verb parsers' private matcher
        spaced = run(capsys, "dilate", "--n", "1", "--r", value, "1;1;1")
        joined = run(capsys, "dilate", "--n", "1", f"--r={value}", "1;1;1")
        assert spaced == joined
        assert spaced[0] == 3 and "dilation parameter must be positive" in spaced[2]

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_verb_help_returns_zero(self, capsys, verb):
        code, out, _ = run(capsys, verb, "--help")
        assert code == 0
        assert out.startswith(f"usage: heis {verb}")

    def test_top_level_help(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and out == cli.USAGE
        assert run(capsys)[:2] == (64, cli.USAGE)

    @pytest.mark.parametrize("literal,code", [("inf+0i", 3), ("1+2j", 2), ("2i", 0)])
    def test_complex_literal_grammar(self, capsys, literal, code):
        # the unit is a trailing `i` only; a non-finite value is a domain error
        assert run(capsys, "siegel-mul", "--n", "1", f"{literal};0", "0;0")[0] == code

    def test_success_paths_are_zero(self, capsys):
        assert run(capsys, "relcheck", "--n", "1")[0] == 0
        assert run(capsys, "siegel-check", "--n", "1", "--trials", "5", "--seed", "3")[0] == 0


class TestSeededDeterminism:
    @pytest.mark.parametrize("argv", [
        ("rep-check", "--n", "1", "--N", "8", "--trials", "10", "--seed", "1"),
        ("siegel-check", "--n", "2", "--trials", "10", "--seed", "1"),
        ("relcheck", "--n", "3"),
        ("commutator", "--N", "32"),
    ])
    def test_same_seed_same_bytes(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second
        assert first[0] == 0

    def test_different_seeds_sample_differently(self, capsys):
        _, out1, _ = run(capsys, "rep-check", "--n", "1", "--N", "8", "--trials", "5", "--seed", "1")
        _, out2, _ = run(capsys, "rep-check", "--n", "1", "--N", "8", "--trials", "5", "--seed", "2")
        line1 = [l for l in out1.splitlines() if l.startswith("first sample")][0]
        line2 = [l for l in out2.splitlines() if l.startswith("first sample")][0]
        assert line1 != line2

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("HEIS_SEED", "7")
        _, out1, _ = run(capsys, "rep-check", "--n", "1", "--N", "8", "--trials", "5")
        _, out2, _ = run(capsys, "rep-check", "--n", "1", "--N", "8", "--trials", "5", "--seed", "7")
        assert out1 == out2


class TestGridFiles:
    @pytest.mark.parametrize("verb,option", [
        ("rep-check", "--in"), ("rep-check", "--out"), ("commutator", "--out"),
    ])
    def test_removed_file_options_are_usage_errors(self, capsys, tmp_path, verb, option):
        # rep-check never checked the file's samples, and commutator --out only
        # wrote back the file it had read
        spec = grid.GridSpec(1, 8)
        f = grid.GridFunction(spec, np.arange(8.0))
        src = tmp_path / "f.txt"
        with open(src, "w") as fh:
            grid.write_grid_function(f, fh)
        code, out, err = run(capsys, verb, option, str(src))
        assert (code, out) == (64, "")
        assert "unrecognized arguments" in err

    def test_commutator_in_file(self, capsys, tmp_path):
        spec = grid.GridSpec(1, 64)
        f = grid.GridFunction(spec, np.sin(2 * np.pi * (np.arange(64) * spec.h)))
        src = tmp_path / "sine.txt"
        with open(src, "w") as fh:
            grid.write_grid_function(f, fh)
        code, out, _ = run(capsys, "commutator", "--in", str(src))
        assert code == 0
        assert out.startswith("interior defect:")

    # a 3- or 4-field header (`n N L` or `n N L lambda` of older files) is malformed too
    @pytest.mark.parametrize("content", [b"a b c d\n", b"1 4 1 1\nx y\n", b"\xcc\xcc\n",
                                         b"a b c\n", b"1 4 1\nx y\n", b"a b\n", b"1 4\nx y\n"])
    def test_malformed_file(self, capsys, tmp_path, content):
        src = tmp_path / "bad.txt"
        src.write_bytes(content)
        code, _, err = run(capsys, "commutator", "--in", str(src))
        assert code == 3
        assert "malformed grid function file" in err

    @pytest.mark.parametrize("content, message", [
        ("1 4\n1 2 3\n", "expected `re im`, got '1 2 3'"),
        ("1 4\n0 0\n", "expected 4 samples, got 1"),
    ], ids=["fields", "count"])
    def test_a_bad_sample_line_or_count_names_the_file(self, capsys, tmp_path, content, message):
        src = tmp_path / "bad.txt"
        src.write_text(content)
        code, out, err = run(capsys, "commutator", "--in", str(src))
        assert (code, out, err) == (3, "", f"error: malformed grid function file: {message}\n")

    def test_period_header_is_refused(self, capsys, tmp_path):
        # the grid has no period: an `n N L` header of older files names the format
        src = tmp_path / "old.txt"
        src.write_text("1 4 1\n" + "0 0\n" * 4)
        code, out, err = run(capsys, "commutator", "--in", str(src))
        assert (code, out) == (3, "")
        assert err == "error: malformed grid function file: the header must be `n N`\n"

    def test_missing_file(self, capsys):
        code, _, _ = run(capsys, "commutator", "--in", "/nonexistent/f.txt")
        assert code == 3


class TestUsage:
    def test_every_option_is_in_usage(self):
        # the synopsis of each verb is generated from the same declarations
        synopses = {line.split()[0]: line.replace("[", " ").split()
                    for line in cli.USAGE.splitlines()
                    if line.startswith("  ") and not line.startswith("   ")}
        for verb in cli.VERBS:
            for action in cli._verb_parser(verb)._actions:
                for option in action.option_strings:
                    if option not in ("-h", "--help"):
                        assert option in synopses[verb], (verb, option)

    def test_optional_options_are_bracketed(self):
        lines = cli.USAGE.splitlines()
        assert "  dilate --n N --r R ELEM" in lines
        assert "  rep-check [--n N] [--N GRID] [--trials TRIALS] [--seed SEED]" in lines
        assert "  commutator [--N GRID] [--in FILE]" in lines

    def test_siegel_check_reports_its_bound(self, capsys):
        _, out, _ = run(capsys, "siegel-check", "--n", "1", "--trials", "1", "--seed", "0")
        assert out.splitlines()[0] == "siegel-check: n=1 trials=1 seed=0 bound=10"


class TestParserCache:
    """Each verb's parser is built once per process and reused unchanged."""

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_one_parser_per_verb(self, verb):
        assert cli._verb_parser(verb) is cli._verb_parser(verb)

    def test_main_builds_each_parser_at_most_once(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(self, *args, **kwargs):
            built.append(kwargs["prog"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        cli._verb_parser.cache_clear()
        try:
            for _ in range(3):
                assert run(capsys, "mul", "--n", "1", "1;2;0", "3;4;0")[:2] == (0, "4;6;6\n")
                assert run(capsys, "mul", "--n", "1", "1;2;0")[0] == 64
                assert run(capsys, "eval", "--help")[0] == 0
                assert run(capsys, "commutator", "--in", "f.txt", "--N", "8")[0] == 64
            assert sorted(built) == ["heis commutator", "heis eval", "heis mul"]
        finally:
            cli._verb_parser.cache_clear()  # no parser built under the patch outlives it

    def test_seed_default_is_read_per_call(self, capsys, monkeypatch):
        cli._verb_parser.cache_clear()
        for seed in ("7", "5"):
            monkeypatch.setenv("HEIS_SEED", seed)
            _, out, _ = run(capsys, "siegel-check", "--n", "1", "--trials", "1")
            assert out.splitlines()[0] == f"siegel-check: n=1 trials=1 seed={seed} bound=10"

    def test_help_is_sized_when_printed(self, capsys, monkeypatch):
        # argparse reads COLUMNS when it formats help, not when it builds the parser
        cli._verb_parser("rep-check")
        texts = []
        for columns in ("40", "160"):
            monkeypatch.setenv("COLUMNS", columns)
            code, out, _ = run(capsys, "rep-check", "--help")
            assert code == 0
            assert out == cli._verb_parser.__wrapped__("rep-check").format_help()
            texts.append(out)
        assert texts[0] != texts[1]


# one plain argv per verb: each option spaced or joined, `--` or not
PLAIN = {
    "mul": ("mul", "--n", "1", "1;2;0", "3;4;0"),
    "inv": ("inv", "--n=1", "--", "-1;-2;-1"),
    "dilate": ("dilate", "--r", "-1e-3", "--n", "1", "1;1;1"),
    "reduce": ("reduce", "--n", "1", "1.5;-2.5;0.25"),
    "parse": ("parse", "--n", "2", "a1^2 b2 c^-1"),
    "norm": ("norm", "--n", "2", "--", "b1 a1"),
    "eval": ("eval", "--n", "1", "b1 a1"),
    "relcheck": ("relcheck", "--n=1"),
    "rep-check": ("rep-check", "--N=8", "--trials", "2", "--seed", "3"),
    "commutator": ("commutator", "--N", "8"),
    "siegel-mul": ("siegel-mul", "--n", "1", "--", "-i;0", "1;0"),
    "siegel-act": ("siegel-act", "--n", "1", "1+2i;0", "0;1+1i"),
    "siegel-check": ("siegel-check", "--trials", "2", "--n", "1"),
}


class TestPlainArgv:
    """Plain argv is read from VERBS without a parser; argparse alone prints
    help and usage errors, with the bytes main printed when it alone parsed."""

    def _argparse_only(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_read", lambda verb, args: None)
            return run(capsys, *argv)

    @pytest.mark.parametrize("verb", list(cli.VERBS))
    def test_plain_argv_builds_no_parser(self, capsys, monkeypatch, verb):
        argv = PLAIN[verb]
        want = self._argparse_only(capsys, monkeypatch, argv)

        def refuse(name):
            raise AssertionError(f"a parser was built for {name}")

        monkeypatch.setattr(cli, "_verb_parser", refuse)
        assert run(capsys, *argv) == want
        assert want[0] == (3 if verb == "dilate" else 0)  # the reader takes r = -1e-3

    @pytest.mark.parametrize("verb", [verb for verb in cli.VERBS if "--" not in PLAIN[verb]])
    def test_a_lone_trailing_double_dash_is_ignored(self, capsys, verb):
        # argparse alone refused it after an option: `relcheck --n 1 --` and
        # `rep-check --` exited 64 with `unrecognized arguments: --`
        assert run(capsys, *PLAIN[verb], "--") == run(capsys, *PLAIN[verb])

    @pytest.mark.parametrize("argv", [("relcheck", "--n", "1"), ("rep-check",)])
    def test_a_trailing_double_dash_that_argparse_refuses_runs(self, capsys, argv):
        # cli._read and argparse both refuse these two argv with the `--`
        # (tests/test_cli_fuzz.py pins that); main drops it, and the verb runs
        with_dash = run(capsys, *argv, "--")
        assert with_dash[0] == 0 and with_dash == run(capsys, *argv)

    @pytest.mark.parametrize("argv", [(verb, "--help") for verb in cli.VERBS] + USAGE_ERRORS)
    def test_help_and_usage_errors_keep_their_bytes(self, capsys, monkeypatch, argv):
        assert run(capsys, *argv) == self._argparse_only(capsys, monkeypatch, argv)
