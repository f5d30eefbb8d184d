import dataclasses
import hashlib
import json
import multiprocessing
import subprocess
import sys
import textwrap
from importlib import resources

import pytest

from wordcomplex import complexes, homology, morse, verify, words
from wordcomplex.verify import check_tables, examine_word, sweep
from wordcomplex.words import format_word, parse_word

from conftest import env_importing_the_package


def test_sweep_single_letter():
    report = sweep(1, 1)
    assert len(report.rows) == 1
    assert report.rows[0].word == "a"
    assert report.rows[0].predicted == "contractible"
    assert report.ok


def test_sweep_length_three():
    report = sweep(3, 3)
    assert report.ok
    by_word = {r.word: r for r in report.rows}
    assert by_word["abc"].predicted == "contractible"
    assert by_word["aab"].predicted == "contractible"
    assert by_word["aba"].predicted == "S^1"
    assert by_word["aaa"].predicted == "contractible"
    assert by_word["aa"].predicted == "S^1"
    assert by_word["aba"].homology[1] == (1, ())


def test_sweep_checks_cover_all_names():
    report = sweep(4, 4)
    assert report.ok
    for row in report.rows:
        assert set(row.checks) == set(verify.CHECK_NAMES)
        assert all(v in ("pass", "fail", "skip") for v in row.checks.values())


def test_sweep_skip_semantics():
    report = sweep(3, 3)
    by_word = {r.word: r for r in report.rows}
    # abc has an odd run before the last, so the matching law does not apply
    assert by_word["abc"].checks["matching_law"] == "skip"
    assert by_word["aab"].checks["free_pair_law"] == "skip"
    assert by_word["aa"].checks["matching_law"] == "pass"


def test_sweep_deterministic():
    a = sweep(4, 3)
    b = sweep(4, 3)
    assert json.dumps(a.to_json(), sort_keys=True) == json.dumps(
        b.to_json(), sort_keys=True
    )


def test_sweep_csv_shape():
    report = sweep(2, 2)
    lines = report.to_csv().strip().splitlines()
    assert lines[0].startswith("word,f_vector,euler")
    assert len(lines) == 1 + len(report.rows)


def test_examine_word_failure_is_data_not_exception():
    row = examine_word(parse_word("abab"))
    assert row.checks["homotopy_match"] == "pass"


def test_each_chain_verdict_reads_its_own_check(monkeypatch):
    def refuse(data):
        raise ArithmeticError("certificate M V = U_inv D fails")

    monkeypatch.setattr(homology, "check_certificates", refuse)
    row = examine_word(parse_word("abab"))
    assert row.checks["boundary_squares_to_zero"] == "pass"
    assert row.checks["snf_certificates"] == "fail"
    assert row.checks["homotopy_match"] == "pass"


def test_boundaries_that_do_not_compose_fail_both_verdicts(monkeypatch):
    exact = homology.boundary_matrix

    def flipped(X, n):
        M = exact(X, n)
        if n == 2:  # one sign of d_2 flipped, at row 0 of its first column there
            j = next(j for j, col in enumerate(M) if 0 in col)
            M[j][0] = -M[j][0]
        return M

    monkeypatch.setattr(homology, "boundary_matrix", flipped)
    row = examine_word(parse_word("abcab"))
    assert row.checks["boundary_squares_to_zero"] == "fail"
    assert row.checks["snf_certificates"] == "fail"
    assert any("compose to zero" in note for note in row.notes)
    # the profile is still read from the one reduction
    assert len(row.homology) == len(row.f_vector)


def test_a_law_that_raises_fails_with_its_message(monkeypatch):
    def refuse(X):
        raise RuntimeError("is_pseudomanifold refused")

    monkeypatch.setattr(complexes, "is_pseudomanifold", refuse)
    row = examine_word(parse_word("aabb"))
    assert row.checks["pseudomanifold_law"] == "fail"
    assert "is_pseudomanifold refused" in row.notes
    others = set(verify.CHECK_NAMES) - {"pseudomanifold_law"}
    assert {row.checks[name] for name in others} == {"pass"}


def test_a_failing_reduction_fails_each_law_that_reads_it(monkeypatch):
    # the chain data is computed in the laws that read it, so an error
    # there fails those laws, noted once, and the sweep goes on
    def refuse(M, m, upper=None):
        raise ArithmeticError("no unit entry is left")

    monkeypatch.setattr(homology, "smith_normal_form", refuse)
    row = examine_word(parse_word("aabb"))
    reads = {
        "boundary_squares_to_zero",
        "snf_certificates",
        "torsion_free",
        "homotopy_match",
        "h1_law",
        "matching_law",
    }
    assert {name for name, v in row.checks.items() if v == "fail"} == reads
    assert set(row.checks.values()) == {"pass", "fail"}
    assert row.notes == ("no unit entry is left",)
    assert row.homology == ()
    failures = tuple((row.word, name) for name in verify.CHECK_NAMES if name in reads)
    payload = json.loads(json.dumps(verify.SweepReport(4, 2, (row,), failures).to_json()))
    assert payload["rows"][0]["homology"] == []
    jsonschema = pytest.importorskip("jsonschema")
    path = resources.files("wordcomplex") / "schemas" / "sweep.schema.json"
    jsonschema.validate(payload, json.loads(path.read_text()))


def test_a_failing_euler_check_notes_its_four_values(monkeypatch):
    word = parse_word("abab")
    exact = examine_word(word)
    recursive = words.euler_recursive
    monkeypatch.setattr(words, "euler_recursive", lambda u: recursive(u) + 1)
    row = examine_word(word)
    assert row.checks["euler_agreement"] == "fail"
    assert row.notes == ("euler: direct 0, recursive 1, f-vector 0, theorem 0",)
    others = set(verify.CHECK_NAMES) - {"euler_agreement"}
    assert {name: row.checks[name] for name in others} == {
        name: exact.checks[name] for name in others
    }
    assert row.euler == exact.euler


def test_the_matching_law_reads_the_homology(monkeypatch):
    # aabb is S^3 with one critical cell, aabb itself: with every Betti
    # number read as zero, that cell sits in no Betti degree
    def acyclic(data):
        return homology.HomologyProfile(tuple((0, ()) for _ in data))

    assert examine_word(parse_word("aabb")).checks["matching_law"] == "pass"
    monkeypatch.setattr(homology, "profile_of", acyclic)
    row = examine_word(parse_word("aabb"))
    assert row.checks["matching_law"] == "fail"
    assert any("critical in dimensions [3], Betti in []" in note for note in row.notes)


def test_a_row_has_the_report_keys_in_schema_order():
    path = resources.files("wordcomplex") / "schemas" / "sweep.schema.json"
    keys = json.loads(path.read_text())["properties"]["rows"]["items"]["required"]
    fields = tuple(f.name for f in dataclasses.fields(verify.WordReport))
    assert fields == tuple(keys)


def test_sweep_builds_each_word_once(monkeypatch, tmp_path):
    # every process that builds appends to the log, the pool's workers too
    log = tmp_path / "built"
    exact = complexes.build

    def logging_build(word):
        with log.open("a", encoding="utf-8") as fh:
            fh.write(format_word(word) + "\n")
        return exact(word)

    for module in (verify, morse, complexes):
        if hasattr(module, "build"):
            monkeypatch.setattr(module, "build", logging_build)
    report = sweep(6, 4)
    assert report.ok
    assert sorted(log.read_text(encoding="utf-8").split()) == sorted(
        row.word for row in report.rows
    )


@pytest.mark.parametrize(
    "bounds, dedup_reversal", [((5, 3), False), ((4, 4), True)]
)
def test_pooled_sweep_reports_the_in_process_bytes(monkeypatch, bounds, dedup_reversal):
    alone = sweep(*bounds, dedup_reversal=dedup_reversal)
    assert len(alone.rows) < verify.POOL_MIN_WORDS  # the in-process route

    built_here = []
    exact = complexes.build

    def counting_build(word):
        built_here.append(word)
        return exact(word)

    monkeypatch.setattr(complexes, "build", counting_build)
    monkeypatch.setattr(verify, "POOL_MIN_WORDS", 1)
    monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
    pooled = sweep(*bounds, dedup_reversal=dedup_reversal)
    assert built_here == []  # every word was examined by a worker
    assert json.dumps(pooled.to_json(), sort_keys=True) == json.dumps(
        alone.to_json(), sort_keys=True
    )
    assert pooled.to_csv() == alone.to_csv()
    assert multiprocessing.active_children() == []


def test_unguarded_pooled_sweep_runs(tmp_path):
    # forked workers inherit the script as it stands and run none of it
    # again, so a script needs no __main__ guard around a pooled sweep
    script = tmp_path / "unguarded.py"
    script.write_text(textwrap.dedent("""\
        import hashlib
        import json
        import multiprocessing

        from wordcomplex import verify

        verify.POOL_MIN_WORDS = 1
        verify.usable_cpus = lambda: 2
        try:
            report = verify.sweep(3, 3)
        finally:
            print("workers left:", len(multiprocessing.active_children()))
        text = json.dumps(report.to_json(), sort_keys=True)
        print(hashlib.sha256(text.encode()).hexdigest())
    """))
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env_importing_the_package(),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    alone = json.dumps(sweep(3, 3).to_json(), sort_keys=True)
    assert proc.stdout.splitlines() == [
        "workers left: 0",
        hashlib.sha256(alone.encode()).hexdigest(),
    ]


def test_pooled_workers_run_the_callers_code(monkeypatch):
    # the workers inherit a law patched in this process, so a pooled sweep
    # reports the same failure and note as the in-process one
    step = morse.reduce_step

    def refusing_step(word):
        if format_word(word) == "abcab":
            raise RuntimeError("reduce_step refused abcab")
        return step(word)

    monkeypatch.setattr(morse, "reduce_step", refusing_step)
    alone = sweep(5, 3)
    assert len(alone.rows) < verify.POOL_MIN_WORDS  # the in-process route
    assert alone.failures == (("abcab", "reduction_law"),)

    monkeypatch.setattr(verify, "POOL_MIN_WORDS", 1)
    monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
    pooled = sweep(5, 3)
    assert json.dumps(pooled.to_json(), sort_keys=True) == json.dumps(
        alone.to_json(), sort_keys=True
    )
    assert multiprocessing.active_children() == []


def test_a_warm_memo_of_reduction_plans_changes_no_sweep(monkeypatch):
    # a plan depends on its word alone, so a sweep reports the same whether
    # morse's memo starts empty or holds the plans of every one of its words,
    # in this process and in the workers it forks
    def report():
        return json.dumps(sweep(5, 3).to_json(), sort_keys=True)

    def warm():
        for word in words.enumerate_canonical_words(5, 3):
            morse.reduce_to_core(complexes.build(word))
        hits = morse._plan.cache_info().hits
        morse._plan(parse_word("abcab"))
        assert morse._plan.cache_info().hits == hits + 1  # abcab's plan is kept

    morse._plan.cache_clear()
    cold = report()
    warm()
    assert report() == cold
    monkeypatch.setattr(verify, "POOL_MIN_WORDS", 1)
    monkeypatch.setattr(verify, "usable_cpus", lambda: 2)
    morse._plan.cache_clear()
    assert report() == cold
    warm()
    assert report() == cold
    assert multiprocessing.active_children() == []


def test_failing_reduction_step_is_reported(monkeypatch):
    # a delete step that raises is a failure that the reduction passes on:
    # it is never retried or read as the end of the reduction
    step = morse.reduce_step
    calls = []

    def failing_step(word):
        calls.append(word)
        if len(calls) > 3:
            pytest.fail("reduce_to_core retried a failing step")
        step(word)
        raise ValueError("bad step")

    monkeypatch.setattr(morse, "reduce_step", failing_step)
    row = examine_word(parse_word("abaa"))
    assert row.checks["reduction_law"] == "fail"
    assert calls == [parse_word("abaa")]


def test_dedup_reversal_sweep():
    full = sweep(4, 4)
    deduped = sweep(4, 4, dedup_reversal=True)
    assert deduped.ok
    assert len(deduped.rows) < len(full.rows)


def test_check_tables():
    report = check_tables()
    assert report.ok_le_4
    assert len(report.found_le_4) == 9
    assert "abab" in report.found_le_4
    assert "abca" in report.found_le_4
    # The published length-5 table lists 13 classes but the exhaustive
    # enumeration finds 15: abcab and abcba are indecomposable (their first
    # and last letters force every split to share a letter) yet match no
    # table entry up to renaming and reversal. The report surfaces exactly
    # that discrepancy rather than agreeing with the table.
    assert len(report.found_5) == 15
    assert not report.ok_5 and not report.ok
    assert report.unlisted_5 == ("abcab", "abcba")
    assert report.missing_5 == ()
    for text in ("ababa", "abacb", "abcda"):
        assert text in report.found_5

