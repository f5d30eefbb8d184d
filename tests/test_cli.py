import argparse
import hashlib
import json
import subprocess
import sys
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from wordcomplex import cli, verify
from wordcomplex.cli import main
from wordcomplex.words import (
    distinct_subwords,
    enumerate_canonical_words,
    format_word,
    parse_word,
)

from conftest import env_importing_the_package


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    return code, json.loads(out), err


def schema(name):
    path = resources.files("wordcomplex") / "schemas" / f"{name}.schema.json"
    return json.loads(path.read_text())


def validate(payload, name):
    jsonschema.validate(payload, schema(name))


# -- usage errors ----------------------------------------------------------------


def test_invalid_letters_exit_2(capsys):
    code, _, err = run(capsys, "analyze", "aB1")
    assert code == 2
    assert "a-z" in err


def test_empty_word_exit_2(capsys):
    code, out, err = run(capsys, "analyze", "")
    assert code == 2 and out == ""
    assert err == "usage error: the word must be nonempty\n"


def test_long_word_requires_force(capsys):
    code, _, err = run(capsys, "analyze", "a" * 15)
    assert code == 2 and "--force" in err
    code, out, _ = run(capsys, "analyze", "a" * 15, "--force")
    assert code == 0


def test_unknown_command_exit_2(capsys):
    assert main(["frobnicate"]) == 2


def test_sweep_max_len_zero_exit_2(capsys):
    code, _, err = run(capsys, "sweep", "--max-len", "0")
    assert code == 2 and "--max-len" in err


def test_sweep_alphabet_zero_exit_2(capsys):
    code, _, err = run(capsys, "sweep", "--alphabet", "0")
    assert code == 2 and "--alphabet" in err


def test_sweep_refuses_large_bounds_before_sweeping(capsys, monkeypatch):
    def never(*args):
        raise AssertionError("swept before the size guard")

    monkeypatch.setattr("wordcomplex.verify.sweep", never)
    # 2^40 - 1 words, bounded by sum_n 2^(n-1) (2^n - 1) cells
    code, out, err = run(capsys, "sweep", "--max-len", "40", "--alphabet", "2")
    assert code == 2 and out == "" and "--force" in err
    code, _, err = run(capsys, "sweep", "--max-len", "16", "--alphabet", "2")
    assert code == 2 and "more than 1000000000 cells" in err
    # a 27th letter cannot be written, whatever the size
    for alphabet in ("27", "30"):
        code, _, err = run(capsys, "sweep", "--max-len", "27", "--alphabet", alphabet, "--force")
        assert code == 2 and "26 letters" in err


def test_sweep_admits_bounds_within_the_guard(capsys, monkeypatch):
    # the guard's largest admitted sweeps run only as a one-letter stand-in
    swept, one_letter = [], verify.sweep(1, 1)
    monkeypatch.setattr(
        "wordcomplex.verify.sweep", lambda *args: swept.append(args) or one_letter
    )
    for max_len, alphabet, *force in (
        ("14", "2"), ("10", "10"), ("3", "100"), ("40", "2", "--force")
    ):
        code, _, _ = run(capsys, "sweep", "--max-len", max_len, "--alphabet", alphabet, *force)
        assert code == 0, (max_len, alphabet)
    assert swept == [(14, 2, False), (10, 10, False), (3, 100, False), (40, 2, False)]


def test_subdivide_negative_times_exit_2(capsys):
    code, _, err = run(capsys, "subdivide", "a", "--times", "-3")
    assert code == 2 and "--times" in err


def test_subdivide_refuses_large_prediction(capsys, monkeypatch):
    def never(X):
        raise AssertionError("subdivided before the size guard")

    monkeypatch.setattr("wordcomplex.complexes.barycentric_subdivide", never)
    code, _, err = run(capsys, "subdivide", "abcabcabcabc")
    assert code == 2 and "56065499788 cells" in err and "--force" in err
    code, _, err = run(capsys, "subdivide", "abab", "--times", "4")
    assert code == 2 and "sd^4 would have 1455521 cells" in err


def test_subdivide_bounds_the_cells_of_all_stages(capsys, monkeypatch):
    # a point's stages never grow, and aa's stages 0 to 15 have 2 to 65,536
    # cells each but 131,070 together; every stage is built, so all of them
    # count against the bound
    def never(X):
        raise AssertionError("subdivided before the size guard")

    monkeypatch.setattr("wordcomplex.complexes.barycentric_subdivide", never)
    assert sum(2 ** (k + 1) for k in range(16)) == 131_070 > cli.MAX_SUBDIVISION_CELLS
    for argv, total in [
        (("a", "--times", "100000"), 100_001),
        (("a", "--times", str(10**9)), 100_001),
        (("aa", "--times", "15"), 131_070),
    ]:
        code, _, err = run(capsys, "subdivide", *argv)
        assert code == 2, argv
        assert f"would have {total} cells together" in err and "--force" in err, argv


def test_plain_words_refuse_large_complexes(capsys, monkeypatch):
    def never(word):
        raise AssertionError("built a complex before the size guard")

    monkeypatch.setattr("wordcomplex.complexes.build", never)
    code, _, err = run(capsys, "homology", "abcdabcdabcdab")
    assert code == 2 and "11503 cells" in err and "--force" in err
    # analyze counts its cells without building the complex
    code, payload, _ = run_json(capsys, "analyze", "abc" * 10, "--force")
    assert code == 0 and sum(payload["f_vector"]) == 117_897_839


# -- the parser ------------------------------------------------------------------


def test_main_builds_its_parser_once(capsys, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        if kwargs.get("prog") == "wordcomplex":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    assert run(capsys, "analyze", "aba")[0] == 0
    assert run(capsys, "homology", "aba")[0] == 0
    assert len(built) == 1


def test_a_reused_parser_answers_as_a_fresh_one(capsys, monkeypatch):
    # calls in a row in this process, after a usage error and an unknown
    # command, each against the same call made first in a fresh process
    monkeypatch.setenv("COLUMNS", "80")  # the usage text wraps to the terminal
    probe = "import sys; from wordcomplex.cli import main; sys.exit(main(sys.argv[1:]))"
    calls = [
        ["sweep", "--max-len", "0"],
        ["analyze", "abcab", "--json"],
        ["homology", "abcab", "--json"],
        ["frobnicate"],
        ["analyze", "abcab", "--json"],
    ]
    codes = []
    for argv in calls:
        fresh = subprocess.run(
            [sys.executable, "-c", probe, *argv], env=env_importing_the_package(),
            capture_output=True, text=True, timeout=60,
        )
        got = run(capsys, *argv)
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        codes.append(got[0])
    assert codes == [2, 0, 0, 2, 0]


# -- analysis --------------------------------------------------------------------


def test_analyze_text(capsys):
    code, out, _ = run(capsys, "analyze", "aba")
    assert code == 0
    assert "S^1" in out
    assert "(2, 3, 1)" in out


def test_analyze_names_a_decomposition(capsys):
    code, out, _ = run(capsys, "analyze", "ab")
    assert code == 0
    assert "decomposable:        a | b\n" in out
    code, payload, _ = run_json(capsys, "analyze", "ab")
    assert code == 0
    validate(payload, "analyze")
    assert payload["decomposition"] == ["a", "b"]


def test_analyze_json_schema(capsys):
    code, payload, _ = run_json(capsys, "analyze", "aba")
    assert code == 0
    validate(payload, "analyze")
    assert payload["euler"] == -1
    assert payload["classification"]["circular"] is True

    code, payload, _ = run_json(capsys, "analyze", "aaa")
    assert code == 0
    validate(payload, "analyze")
    assert payload["homotopy"] == "contractible"

    code, payload, _ = run_json(capsys, "analyze", "ababab")
    assert payload["homotopy"] == "S^3"
    validate(payload, "analyze")


def test_homology_command(capsys):
    code, payload, _ = run_json(capsys, "homology", "aaaa")
    assert code == 0
    validate(payload, "homology")
    assert payload["groups"][3] == {"dim": 3, "betti": 1, "torsion": []}

    code, out, _ = run(capsys, "homology", "aa")
    assert "H~_1 = Z" in out


def test_homology_command_refuses_a_block_with_no_unit_entry(capsys, doubled_d2):
    # the doubled top map of aba would give Z/2; the library refuses it
    code, out, err = run(capsys, "homology", "aba")
    assert code == 1 and out == ""
    assert err.startswith("error: no unit entry is left")
    assert err.count("\n") == 1


def test_morse_command(capsys):
    code, payload, _ = run_json(capsys, "morse", "aabb")
    assert code == 0
    validate(payload, "morse")
    assert payload["critical"] == ["aabb"]
    assert payload["collapsing_order_valid"] is True

    code, out, _ = run(capsys, "morse", "aabb")
    assert code == 0
    assert out.splitlines() == [
        "matching on the complex of aabb:",
        "            bb <-> abb          (dim 1)",
        "            aa <-> aab          (dim 1)",
        "             b <-> ab           (dim 0)",
        "             - <-> a            (dim -1)",
        "critical cells: ['aabb']",
        "checks: {'partition': True, 'dims': True, 'incidence': True, "
        "'locality': True}, collapsing order valid: True",
    ]

    code, out, err = run(capsys, "morse", "abb")
    assert code == 1 and out == ""
    assert err == "error: all run exponents before the last must be even\n"


def test_collapse_command_modes(capsys):
    code, payload, _ = run_json(capsys, "collapse", "abab")
    assert code == 0
    validate(payload, "collapse")
    assert payload["mode"] == "alternating"

    code, payload, _ = run_json(capsys, "collapse", "abaa")
    assert code == 0
    validate(payload, "collapse")
    assert payload["mode"] == "reduction"
    assert payload["reduction"]["terminal"] == "a"

    code, out, _ = run(capsys, "collapse", "abaa")
    assert code == 0
    assert out == (
        "reduction of abaa:\n"
        "  delete    abaa -> aaa\n"
        "  contract  aaa -> a\n"
        "terminal: a\n"
    )

    # an alternating word in other letters: every cell named, in JSON and
    # in text, is a subword of the word given, not of its canonical form
    for text, core in (("cdc", "cc"), ("baba", None)):
        subwords = {format_word(u) for u in distinct_subwords(parse_word(text))}
        code, payload, _ = run_json(capsys, "collapse", text)
        assert code == 0
        validate(payload, "collapse")
        alternating = payload["alternating"]
        assert alternating["word"] == text and alternating["core"] == core
        named = [u for s in alternating["steps"] for u in (s["sigma"], s["tau"])]
        named += alternating["terminal_cells"] + [text] + [core] * bool(core)
        assert named and set(named) <= subwords, (text, named)

        code, out, _ = run(capsys, "collapse", text)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"alternating collapse of {text}:"
        for line in lines[1:-1]:
            cells = line.split("(")[1].split(")")[0].split(", ")
            assert set(cells) <= subwords, (text, line)
        assert lines[-1] == f"terminal: {core or 'point'}"


def test_subdivide_command(capsys):
    code, payload, _ = run_json(capsys, "subdivide", "aa", "--times", "2")
    assert code == 0
    assert payload["f_vectors"] == [[1, 1], [2, 2], [4, 4]]
    assert payload["simplicial"] is True

    code, out, _ = run(capsys, "subdivide", "aaa")
    assert code == 0
    assert out == (
        "sd^0 f-vector: (1, 1, 1)\n"
        "sd^1 f-vector: (3, 8, 6)\n"
        "reduced Euler characteristic: 0\n"
        "simplicial: False\n"
    )


def test_export_formats(capsys):
    code, payload, _ = run(capsys, "export", "aba", "--format", "json")
    assert code == 0
    validate(json.loads(payload), "complex")

    code, out, _ = run(capsys, "export", "aba", "--format", "dot")
    assert code == 0 and out.startswith("digraph")

    code, out, _ = run(capsys, "export", "aba", "--format", "csv")
    assert code == 0 and "# boundary matrix 1" in out


def test_export_takes_no_json_option(capsys):
    # the format is chosen by --format alone; JSON is the default
    code, out, err = run(capsys, "export", "aba", "--json")
    assert code == 2 and out == "" and "--json" in err
    code, out, _ = run(capsys, "export", "aba")
    assert code == 0
    assert out == run(capsys, "export", "aba", "--format", "json")[1]
    validate(json.loads(out), "complex")


def test_export_csv_pinned(capsys):
    # sha256 of each word and its CSV export, over the 63 canonical words
    # of length <= 5 over 3 letters, computed when the boundary matrices
    # were still built dense
    digest = hashlib.sha256()
    words = list(enumerate_canonical_words(5, 3))
    for word in words:
        code, out, _ = run(capsys, "export", format_word(word), "--format", "csv")
        assert code == 0
        digest.update(f"{format_word(word)}\n{out}".encode())
    assert len(words) == 63
    assert digest.hexdigest() == (
        "49e8b838ed800133bcabe912b3b232b1b3529fd1de499b98c9eee28477997dc1"
    )


def test_tables_command(capsys):
    # exit code 1: the enumeration disagrees with the published length-5
    # table (15 classes found, 13 listed), and the command surfaces that
    code, payload, _ = run_json(capsys, "tables")
    assert code == 1
    validate(payload, "tables")
    assert payload["length_at_most_4"]["count"] == 9
    assert payload["length_at_most_4"]["ok"] is True
    assert payload["length_5"]["count"] == 15
    assert payload["length_5"]["unlisted"] == ["abcab", "abcba"]

    code, out, _ = run(capsys, "tables")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "indecomposable words, length <= 4: 9"
    assert lines[2] == "indecomposable words, length 5: 15"
    assert "not in the published table: abcab abcba" in lines
    assert lines[-1] == "MISMATCH with the published tables"


def test_tables_command_names_a_published_word_never_found(capsys, monkeypatch):
    # abcde splits into ab and cde, so no enumeration of indecomposable
    # words finds it
    monkeypatch.setattr(verify, "TABLE_LENGTH_5", verify.TABLE_LENGTH_5 + ("abcde",))
    code, out, _ = run(capsys, "tables")
    assert code == 1
    assert "published but never found: abcde" in out.splitlines()


def test_sweep_command(capsys, tmp_path, monkeypatch):
    reports = tmp_path / "reports"
    monkeypatch.setenv("WORDCOMPLEX_REPORT_DIR", str(reports))
    code, out, _ = run(capsys, "sweep", "--max-len", "3", "--alphabet", "3", "--json")
    assert code == 0
    payload = json.loads(out)
    validate(payload, "sweep")
    assert payload["ok"] is True
    # report.json is the --json output byte for byte, report.csv the CSV
    assert (reports / "report.json").read_text(encoding="utf-8") == out
    csv_text = (reports / "report.csv").read_text(encoding="utf-8")
    assert csv_text == verify.sweep(3, 3).to_csv()


def test_write_reports(capsys, tmp_path, monkeypatch):
    # without --json the reports are written all the same, into a directory
    # the sweep makes, and the text output names them
    reports = tmp_path / "out"
    monkeypatch.setenv("WORDCOMPLEX_REPORT_DIR", str(reports))
    code, out, _ = run(capsys, "sweep", "--max-len", "2", "--alphabet", "2")
    assert code == 0
    json_path, csv_path = reports / "report.json", reports / "report.csv"
    assert f"reports written to {json_path} and {csv_path}" in out
    data = json.loads(json_path.read_text(encoding="utf-8"))
    assert data["ok"] is True
    assert csv_path.read_text(encoding="utf-8") == verify.sweep(2, 2).to_csv()


def test_sweep_refuses_an_unusable_report_dir_before_sweeping(
    capsys, tmp_path, monkeypatch
):
    def never(*args):
        raise AssertionError("swept before the report directory was made")

    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("WORDCOMPLEX_REPORT_DIR", str(blocker / "reports"))
    monkeypatch.setattr("wordcomplex.verify.sweep", never)
    code, out, err = run(capsys, "sweep", "--max-len", "3", "--alphabet", "3")
    assert code == 1 and out == "" and err.startswith("error:"), err


def test_sweep_text_output(capsys):
    code, out, _ = run(capsys, "sweep", "--max-len", "2", "--alphabet", "2")
    assert code == 0
    assert "ok" in out


def test_sweep_text_lists_failures(capsys, monkeypatch):
    # a law that raises fails every word with a note; the text output lists
    # the first 20 failures, counts the rest, and the sweep exits 1
    def broken(X):
        raise RuntimeError("no pseudomanifold check today")

    monkeypatch.delenv("WORDCOMPLEX_REPORT_DIR", raising=False)
    monkeypatch.setattr("wordcomplex.complexes.is_pseudomanifold", broken)
    code, out, _ = run(capsys, "sweep", "--max-len", "4", "--alphabet", "3")
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "swept 22 words (max length 4, alphabet 3)"
    assert lines[1] == "  FAIL a: pseudomanifold_law"
    assert sum(line.startswith("  FAIL ") for line in lines) == 20
    assert lines[-2:] == ["  ... and 2 more failures", "22 failures"]
