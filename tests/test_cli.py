import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from gintools import corpus
from gintools.cli import (EXIT_CHECK_FAILED, EXIT_COMPUTE, EXIT_CONFIG,
                          EXIT_PARSE, main)
from gintools.gin import child_rng
from gintools.parsing import max_coefficient
from gintools.ring import LinearChange, PolyRing

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "gintools" / "data"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_with_err(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gin_command(capsys):
    code, out = run(capsys, "gin", "--in", str(DATA / "twisted-cubic.ideal"),
                    "--seed", "7")
    assert code == 0
    assert "gin: x0^2, x0*x1, x1^2" in out
    assert "agreed: true" in out


def test_check_command_line_format(capsys):
    code, out = run(capsys, "check", "--in", str(DATA / "twisted-cubic.ideal"))
    assert code == 0
    assert out.splitlines()[0] == "s_Z=2 s_Gamma=2 hypothesis=yes connected=yes"


def test_check_fails_on_disconnected_staircase(capsys):
    gens = "x0^3, x0^2*x1, x0*x1^6, x1^8"
    code, out = run(capsys, "check", "--gens", gens, "--n", "3")
    assert code == EXIT_CHECK_FAILED
    assert "connected=no" in out
    assert "violation" in out


def test_borel_command_witness(capsys):
    code, out = run(capsys, "borel", "--gens", "x1", "--n", "2")
    assert code == 0
    assert "borel_fixed: false" in out
    assert "witness: (x1, e_1)" in out


@pytest.mark.parametrize("gens,expected", [
    ("x0^7, x1^7", ["borel_fixed: true"]),
    ("x1^7", ["borel_fixed: false", "witness: (x1^7, x0^7)"])])
def test_borel_command_tests_p_borel_at_the_given_prime(capsys, gens,
                                                        expected):
    """At p = 7 the move x1^7 -> x0^7 is required, but no other move of
    x1^7 is: C(7, s) = 0 mod 7 for 0 < s < 7."""
    code, out = run(capsys, "borel", "--gens", gens, "--n", "1",
                    "--prime", "7")
    assert code == 0
    assert out.splitlines() == expected


def test_borel_command_positive(capsys):
    code, out = run(capsys, "borel", "--gens", "x0^2, x0*x1, x1^2", "--n", "2")
    assert code == 0
    assert "borel_fixed: true" in out


def test_hilbert_command(capsys):
    code, out = run(capsys, "hilbert", "--in", str(DATA / "twisted-cubic.ideal"),
                    "--dmax", "4")
    assert code == 0
    assert "hilbert: 1, 4, 7, 10, 13" in out


def test_slice_command(capsys):
    code, out = run(capsys, "slice", "--gens", "x0^2, x0*x1, x1^3, x1^2*x2",
                    "--n", "3", "--axis", "2", "--level", "1")
    assert code == 0
    assert "slice: x0^2, x0*x1, x1^2" in out


def test_slice_requires_monomial_input(capsys):
    code, _ = run(capsys, "slice", "--gens", "x0*x2 - x1^2", "--n", "2",
                  "--axis", "2", "--level", "0")
    assert code == EXIT_CONFIG


def test_trace_command(capsys):
    code, out = run(capsys, "trace", "--in", str(DATA / "twisted-cubic.ideal"),
                    "--levels", "1")
    assert code == 0
    assert "step1: true" in out
    assert "step2: true" in out


def test_invariants_command(capsys):
    code, out = run(capsys, "invariants",
                    "--in", str(DATA / "rational-quartic.ideal"))
    assert code == 0
    assert "s_Z: 2" in out
    assert "p_hat=(0) s=2 lambda=(3, 2)" in out
    assert "p_hat=(1) s=2 lambda=(3, 1)" in out


# ---------------------------------------------------------------------------
# exit codes

def test_parse_error_exit_code(capsys):
    code, _ = run(capsys, "gin", "--gens", "x0 + ")
    assert code == EXIT_PARSE


@pytest.mark.parametrize("argv", [("--gens", "x0^2, x1 + ", "--n", "2"),
                                  ("--in", "{entry}")])
def test_parse_error_names_the_end_of_input_at_its_place_in_the_file(
        capsys, tmp_path, argv):
    entry = tmp_path / "u.ideal"
    entry.write_text("# seventh line: x1 + \nname: u\nn: 2\nprime: 32003\n"
                     "gens:\nx0^2\nx1 + \nexpect:\ngin: x0\n")
    argv = [a.format(entry=entry) for a in argv]
    code, _, err = run_with_err(capsys, "gin", *argv)
    assert code == EXIT_PARSE
    where = "line 1, column 11" if argv[0] == "--gens" else "line 7, column 5"
    assert err.strip().endswith(f"found end of input at {where}")


def test_parse_error_names_a_variable_by_its_name(capsys):
    code, _, err = run_with_err(capsys, "gin", "--gens", "x0x1", "--n", "1")
    assert code == EXIT_PARSE
    assert err.strip() == ("parse error: unexpected x1 after expression "
                           "at line 1, column 3")


def test_in_file_reports_a_bad_generator_at_its_line(capsys, tmp_path):
    entry = tmp_path / "bad.ideal"
    entry.write_text("# comment\nname: bad\nn: 2\ngens:\nx0^2 + x1\n")
    code, _, err = run_with_err(capsys, "gin", "--in", str(entry))
    assert code == EXIT_PARSE
    assert err.strip().endswith("at line 5, column 10")


def test_a_comment_does_not_change_the_ring(capsys):
    plain = run(capsys, "gin", "--gens", "x0^2, x0*x1, x1^2")
    commented = run(capsys, "gin", "--gens", "x0^2, x0*x1, x1^2 # x5")
    assert commented == plain
    assert "saturated: false" in plain[1]


def test_a_number_in_a_comment_is_not_a_coefficient(capsys):
    code, _ = run(capsys, "gin", "--gens",
                  "x0^2, x0*x1, x1^2  # from 99999 samples")
    assert code == 0


def test_strong_pseudoprime_modulus_is_config_error(capsys):
    code, _, err = run_with_err(capsys, "gin", "--gens", "x0^2, x0*x1",
                                "--n", "2", "--prime",
                                "318665857834031151167461")
    assert code == EXIT_CONFIG
    assert "318665857834031151167461" in err


def test_inhomogeneous_exit_code(capsys):
    code, _ = run(capsys, "gin", "--gens", "x0 + 1")
    assert code == EXIT_PARSE


def test_config_error_nonprime(capsys):
    code, _ = run(capsys, "gin", "--gens", "x0", "--prime", "32004")
    assert code == EXIT_CONFIG


def test_config_error_small_prime_for_coefficients(capsys):
    code, _ = run(capsys, "gin", "--gens", "40*x0 + x1", "--prime", "79")
    assert code == EXIT_CONFIG


def test_gin_of_a_large_power_succeeds(capsys):
    """The unsaturated input forces the sampled gin, whose coordinate
    changes expand the 1200th power of a linear form."""
    code, out = run(capsys, "gin", "--gens", "x0^1200, x0*x1, x0*x2",
                    "--n", "2")
    assert code == 0
    assert "gin: x0^2, x0*x1, x0*x2^1199" in out


def test_a_degree_past_the_packing_bound_is_config_error(capsys):
    code, _, err = run_with_err(capsys, "gin", "--gens",
                                "x0^32768, x0*x1, x0*x2", "--n", "2")
    assert code == EXIT_CONFIG
    assert "below 32768" in err


def test_config_error_votes(capsys):
    for command in ("gin", "invariants", "check", "trace"):
        code, _ = run(capsys, command, "--gens", "x0", "--votes", "1")
        assert code == EXIT_CONFIG, command


def test_max_coefficient_skips_variable_indices():
    assert max_coefficient("3*x45 + x1^7") == 3
    assert max_coefficient("x0*x12") is None


def test_variable_indices_are_not_coefficients(capsys):
    code, _ = run(capsys, "borel", "--gens", "x0*x12", "--prime", "13")
    assert code == 0
    code, _ = run(capsys, "borel", "--gens", "7*x0*x12", "--prime", "13")
    assert code == EXIT_CONFIG


# Each command takes only the options it reads: a valid command line for
# each, and the options it does not take.
COMMAND_LINES = {
    "gin": ("--gens", "x0"),
    "invariants": ("--gens", "x0"),
    "check": ("--gens", "x0"),
    "trace": ("--gens", "x0"),
    "slice": ("--gens", "x0", "--axis", "2", "--level", "0"),
    "borel": ("--gens", "x0"),
    "hilbert": ("--gens", "x0"),
}
NOT_TAKEN = {
    "gin": ("--dmax", "--phat-bounds"),
    "invariants": ("--dmax", "--phat-bounds"),
    "check": ("--dmax", "--phat-bounds"),
    "trace": ("--dmax", "--phat-bounds"),
    "slice": ("--seed", "--votes", "--dmax", "--phat-bounds"),
    "borel": ("--seed", "--votes", "--dmax", "--phat-bounds"),
    "hilbert": ("--seed", "--votes", "--phat-bounds"),
}


@pytest.mark.parametrize("command,option", [
    (command, option) for command, options in NOT_TAKEN.items()
    for option in options])
def test_options_a_command_does_not_read_are_rejected(capsys, command,
                                                      option):
    with pytest.raises(SystemExit) as exc:
        main([command, *COMMAND_LINES[command], option, "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_config_error_missing_input(capsys):
    code, _ = run(capsys, "gin")
    assert code == EXIT_CONFIG


def test_config_error_missing_file(capsys):
    code, _ = run(capsys, "gin", "--in", "no-such-file.ideal")
    assert code == EXIT_CONFIG


def test_malformed_entry_file_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("name: broken\ngens:\nx0\n")  # no n: header
    code, _ = run(capsys, "gin", "--in", str(bad))
    assert code == EXIT_PARSE


def test_composite_prime_in_entry_file_is_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.ideal"
    bad.write_text("name: composite\nn: 2\nprime: 9\ngens:\nx0\n")
    code, _ = run(capsys, "gin", "--in", str(bad))
    assert code == EXIT_PARSE


@pytest.mark.parametrize("header,override", [
    ("n: 2\nprime: 9", ("--prime", "7")),
    ("n: -1", ("--n", "2")),
], ids=["prime", "n"])
def test_in_file_header_is_checked_only_where_no_option_replaces_it(
        capsys, tmp_path, header, override):
    entry = tmp_path / "u.ideal"
    entry.write_text(f"name: u\n{header}\ngens:\nx0^2, x1\n")
    code, out, err = run_with_err(capsys, "gin", "--in", str(entry), *override)
    assert code == 0, err
    assert (code, out, err) == run_with_err(capsys, "gin", "--gens", "x0^2, x1",
                                            "--n", "2", *override)
    code, _, err = run_with_err(capsys, "gin", "--in", str(entry))
    assert code == EXIT_PARSE
    assert "entry" in err


def test_composite_prime_option_on_a_good_entry_file_is_config_error(
        capsys, tmp_path):
    entry = tmp_path / "u.ideal"
    entry.write_text("name: u\nn: 2\nprime: 7\ngens:\nx0^2, x1\n")
    code, _, err = run_with_err(capsys, "gin", "--in", str(entry),
                                "--prime", "9")
    assert code == EXIT_CONFIG
    assert "modulus 9 is not prime" in err


def test_computation_error_exit_code(capsys):
    # not saturated: x0 * (irrelevant ideal)
    code, _ = run(capsys, "invariants", "--gens", "x0^2, x0*x1, x0*x2")
    assert code == EXIT_COMPUTE


def test_invariants_on_a_line_in_p1_is_a_computation_error(capsys):
    """variety_invariants refuses the unsaturated gin (x0, x1) before the
    staircase table would refuse its two variables as a config error."""
    code, _, err = run_with_err(capsys, "invariants", "--gens", "x0, x1",
                                "--n", "1")
    assert code == EXIT_COMPUTE
    assert "saturate first" in err


@pytest.mark.parametrize("argv", [
    ("corpus-run", "--votes", "1"),
    ("hilbert", "--gens", "x0", "--dmax", "-3"),
    ("slice", "--gens", "x0^2", "--n", "3", "--axis", "2", "--level", "-1"),
    ("slice", "--gens", "x0^2", "--n", "3", "--axis", "7", "--level", "1"),
    ("trace", "--in", str(DATA / "twisted-cubic.ideal"), "--levels", "-1"),
    ("trace", "--in", str(DATA / "twisted-cubic.ideal"), "--levels", "1,1"),
    ("trace", "--gens", "x0^2, x0*x1, x1^2", "--n", "2"),
])
def test_option_values_the_library_rejects_are_config_errors(capsys, argv):
    code, _, err = run_with_err(capsys, *argv)
    assert code == EXIT_CONFIG
    assert err.startswith("config error:")


@pytest.mark.parametrize("command,gens,extra,message", [
    # parsed at the prime in effect, not at the file's prime
    ("borel", "5*x0 - x1", ("--prime", "11"), "5*x0 - x1 is not a monomial"),
    # the coefficient guard sees the literal 10, not its residue 3 mod 7
    ("gin", "10*x0 - x1", (), "too small for coefficient 10"),
])
def test_in_file_behaves_as_its_generator_lines(capsys, tmp_path, command,
                                                gens, extra, message):
    entry = tmp_path / "u.ideal"
    entry.write_text(f"name: u\nn: 2\nprime: 7\ngens:\n{gens}\n")
    from_file = run_with_err(capsys, command, "--in", str(entry), *extra)
    from_text = run_with_err(capsys, command, "--gens", gens, "--n", "2",
                             "--prime", "7", *extra)
    assert from_file == from_text
    assert from_file[0] == EXIT_CONFIG
    assert message in from_file[2]


# ---------------------------------------------------------------------------
# golden outputs under pinned seeds

@pytest.mark.parametrize("golden,argv", [
    ("gin_twisted_cubic_seed0.json",
     ("gin", "--in", str(DATA / "twisted-cubic.ideal"), "--seed", "0", "--json")),
    ("check_rational_quartic_seed0.json",
     ("check", "--in", str(DATA / "rational-quartic.ideal"), "--seed", "0", "--json")),
    ("invariants_points5_seed0.json",
     ("invariants", "--in", str(DATA / "points-5.ideal"), "--seed", "0", "--json")),
    *((f"corpus_run_seed{seed}.json",
       ("corpus-run", "--seed", str(seed), "--json")) for seed in range(5)),
])
def test_golden_outputs(capsys, golden, argv):
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (GOLDEN / golden).read_text()


def test_points_survey_matches_its_golden():
    """The survey script at ``--max-n 8``; CI diffs ``--max-n 20``."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "points_survey.py"),
         "--max-n", "8"], capture_output=True, text=True, check=True).stdout
    assert out == (GOLDEN / "points_survey_max8.txt").read_text()


# ---------------------------------------------------------------------------
# corpus-run

def test_corpus_run_filtered(capsys):
    """Named entries run once each, in file-name order."""
    for entries in ("twisted-cubic,points-3", "points-3,twisted-cubic,points-3"):
        code, out = run(capsys, "corpus-run", "--entries", entries, "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["all_passed"] is True
        assert [e["name"] for e in payload["entries"]] == ["points-3",
                                                            "twisted-cubic"]
        entry = payload["entries"][1]
        for key in ("ideal", "seed", "prime", "gin", "invariant_table", "s_Z",
                    "s_Gamma", "connected", "violations", "checks"):
            assert key in entry
        assert set(entry["checks"]) >= {"slice", "gap_truncation", "proof_trace"}


def test_corpus_run_unknown_entry(capsys):
    code, _ = run(capsys, "corpus-run", "--entries", "nope")
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("seed,name", [("85", "ci-surface"),
                                       ("104005001", "elliptic-quartic")])
def test_corpus_run_passes_at_seeds_with_special_trace_forms(capsys, seed,
                                                             name):
    code, _ = run(capsys, "corpus-run", "--seed", seed, "--entries", name)
    assert code == 0


def test_corpus_run_keeps_the_largest_sample_past_a_special_one(capsys):
    """The rational quartic is not Cohen-Macaulay, so its gin is sampled.
    At gin seed 948 the second of five samples has x1^2*x2 where the gin
    has x1^3, below it in degree 3."""
    code, out = run(capsys, "corpus-run", "--seed", "948", "--entries",
                    "rational-quartic", "--json")
    assert code == 0
    entry = json.loads(out)["entries"][0]
    assert (entry["agreed"], entry["samples"]) == (False, 5)
    assert entry["gin"] == ["x0^2", "x0*x1^2", "x1^3", "x0*x1*x2"]


def test_gin_redraws_when_both_draws_are_special(capsys):
    """A draw x1 -> x1 + c*x0 sends 3*x0^7 - x1^7 to (3 - c)*x0^7 - x1^7
    over F_7, since c^7 = c, which is special exactly when c = 3.  Both
    draws at seed 200 have c = 3, and their agreed (x1^7) is not Borel-fixed,
    so the sample count escalates.  Its degree is not below p, so the gin is
    sampled, not read off the Hilbert function."""
    ring = PolyRing(2, 7)
    assert [LinearChange.random(ring, child_rng(200, "gin-sample", k)).matrix
            for k in range(2)] == [((1, 0), (3, 1))] * 2
    code, out = run(capsys, "gin", "--gens", "3*x0^7 - x1^7", "--n", "1",
                    "--prime", "7", "--seed", "200")
    assert code == 0
    assert out.splitlines()[:3] == ["gin: x0^7", "agreed: false", "samples: 5"]


P_BOREL_GINS = {
    ("x0^7, x1^7", "7"): "x0^7, x1^7",
    ("x0^7, x1^7", "11"):
        "x0^7, x0^6*x1, x0^5*x1^3, x0^4*x1^5, x0^3*x1^7, x1^11",
    ("x0^2, x1^2", "2"): "x0^2, x1^2",
    ("x0^3, x1^3, x2^3", "3"): "x0^3, x1^3, x2^3",
}


@pytest.mark.parametrize("gens,n,prime", [("x0^7, x1^7", "1", "7"),
                                          ("x0^7, x1^7", "1", "11"),
                                          ("x0^2, x1^2", "1", "2"),
                                          ("x0^3, x1^3, x2^3", "2", "3")])
def test_gin_accepts_a_largest_sample_that_is_only_p_borel(capsys, gens, n,
                                                          prime):
    """In characteristic p these gins are p-Borel but not strongly stable:
    at p = 7, (x0^7, x1^7) is fixed by every coordinate change, and at
    p = 11 the move x1^11 -> x0*x1^10 is not required, as C(11, 1) = 11."""
    code, out = run(capsys, "gin", "--gens", gens, "--n", n, "--prime", prime)
    assert code == 0
    assert out.splitlines()[0] == f"gin: {P_BOREL_GINS[gens, prime]}"


@pytest.mark.parametrize("command", ["invariants", "check", "trace"])
def test_staircase_commands_refuse_a_gin_that_is_only_p_borel(capsys,
                                                              command):
    """At p = 2 the gin of (x0^2, x1^2) in P^3 is itself, without x0*x1."""
    code, _, err = run_with_err(capsys, command, "--gens", "x0^2, x1^2",
                                "--n", "3", "--prime", "2")
    assert code == EXIT_COMPUTE
    assert "p=2" in err
    assert "not strongly stable" in err


def test_corpus_run_parses_only_the_named_entries(capsys, monkeypatch):
    parsed = []
    original = corpus.parse_entry

    def counting(text, name="entry"):
        parsed.append(name)
        return original(text, name=name)

    monkeypatch.setattr(corpus, "parse_entry", counting)
    code, _ = run(capsys, "corpus-run", "--entries", "twisted-cubic")
    assert code == 0
    assert parsed == ["twisted-cubic"]


@pytest.mark.parametrize("text", [
    "name: broken\ngens:\nx0\n",            # no n: header
    "name: other\nn: 2\ngens:\nx0\n",      # header names another entry
])
def test_corpus_run_bad_entry_file_is_parse_error(capsys, monkeypatch,
                                                   tmp_path, text):
    (tmp_path / "broken.ideal").write_text(text)
    monkeypatch.setattr(corpus, "DATA", tmp_path)
    code, _ = run(capsys, "corpus-run", "--entries", "broken")
    assert code == EXIT_PARSE


def test_corpus_run_unsaturated_entry_is_computation_error(capsys,
                                                         monkeypatch,
                                                         tmp_path):
    (tmp_path / "unsat.ideal").write_text(
        "name: unsat\nn: 2\ngens:\nx0^2\nx0*x1\nx0*x2\n")
    monkeypatch.setattr(corpus, "DATA", tmp_path)
    code, _ = run(capsys, "corpus-run", "--entries", "unsat")
    assert code == EXIT_COMPUTE


@pytest.mark.parametrize("option", ["--prime", "--forms", "--pmax"])
def test_corpus_run_has_no_single_value_options(capsys, option):
    with pytest.raises(SystemExit):
        main(["corpus-run", option, "1"])


def test_corpus_run_plain_output(capsys):
    code, out = run(capsys, "corpus-run", "--entries", "points-4-collinear")
    assert code == 0
    assert "[points-4-collinear]" in out
    assert "all_passed: true" in out


# ---------------------------------------------------------------------------
# the README's CLI examples

def readme_examples():
    """(argv, expected lines) for each ``gintools`` line of the CLI block.

    The ``# ...`` lines under a command are lines of its output; a trailing
    ``...`` marks an excerpt.
    """
    text = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n.*?```sh\n(.*?)```", text, re.S).group(1)
    examples = []
    for line in block.splitlines():
        if line.startswith("gintools "):
            command = line.split("#", 1)[0]
            examples.append((shlex.split(command)[1:], []))
        elif line.startswith("# "):
            examples[-1][1].append(line[2:].removesuffix(" ..."))
    return examples


README_EXAMPLES = readme_examples()
# a command's first example is named by the command, any later one by its
# whole command line, so that adding an example renames no test
_COMMANDS = [argv[0] for argv, _ in README_EXAMPLES]
README_IDS = [argv[0] if _COMMANDS.index(argv[0]) == i else " ".join(argv)
              for i, (argv, _) in enumerate(README_EXAMPLES)]


@pytest.mark.parametrize("argv,expected", README_EXAMPLES, ids=README_IDS)
def test_readme_examples_run(capsys, monkeypatch, argv, expected):
    monkeypatch.chdir(ROOT)
    code, out = run(capsys, *argv)
    assert code == 0
    for line in expected:
        assert line in out.splitlines()


def test_readme_lists_every_command():
    commands = {argv[0] for argv, _ in README_EXAMPLES}
    assert commands == {"gin", "check", "invariants", "borel", "slice",
                        "hilbert", "trace", "corpus-run"}
