import argparse
import hashlib
import json
import subprocess
import sys
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from wordcomplex import cli
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


def test_morse_command(capsys):
    code, payload, _ = run_json(capsys, "morse", "aabb")
    assert code == 0
    validate(payload, "morse")
    assert payload["critical"] == ["aabb"]
    assert payload["collapsing_order_valid"] is True

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


def test_export_formats(capsys):
    code, payload, _ = run(capsys, "export", "aba", "--format", "json")
    assert code == 0
    validate(json.loads(payload), "complex")

    code, out, _ = run(capsys, "export", "aba", "--format", "dot")
    assert code == 0 and out.startswith("digraph")

    code, out, _ = run(capsys, "export", "aba", "--format", "csv")
    assert code == 0 and "# boundary matrix 1" in out


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


def test_sweep_command(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("WORDCOMPLEX_REPORT_DIR", str(tmp_path / "reports"))
    code, payload, _ = run_json(capsys, "sweep", "--max-len", "3", "--alphabet", "3")
    assert code == 0
    validate(payload, "sweep")
    assert payload["ok"] is True
    written = json.loads((tmp_path / "reports" / "report.json").read_text())
    assert written == payload
    assert (tmp_path / "reports" / "report.csv").exists()


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
