"""Command-line surface: analysis, homology, matchings, collapses, exports,
and the verification sweep.

Exit codes: 0 on success, 1 on computation or verification failure, 2 on
usage errors. Set WORDCOMPLEX_REPORT_DIR to also write sweep reports to
disk.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import complexes, homology, morse, verify, words

MAX_PLAIN_LENGTH = 14  # cell counts grow exponentially; longer needs --force
MAX_PLAIN_CELLS = 10**4  # predicted cells of the word's complex; more needs --force
MAX_SUBDIVISION_CELLS = 10**5  # predicted cells of sd^k; more needs --force

USAGE_ERROR = 2
FAILURE = 1


class UsageError(Exception):
    pass


def _parse_word_arg(text: str, force: bool) -> words.Word:
    try:
        word = words.parse_word(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if not word:
        raise UsageError("the word must be nonempty")
    if len(word) > MAX_PLAIN_LENGTH and not force:
        raise UsageError(
            f"words longer than {MAX_PLAIN_LENGTH} letters need --force"
        )
    if not force:
        cells = sum(words.subword_counts(word))
        if cells > MAX_PLAIN_CELLS:
            raise UsageError(
                f"the complex of {text} would have {cells} cells, more than "
                f"{MAX_PLAIN_CELLS}; it needs --force"
            )
    return word


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _emit_json(payload) -> None:
    json.dump(payload, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _analyze_payload(word: words.Word) -> dict:
    f_vector = words.subword_counts(word)
    cls = words.classify(word)
    rf = words.reduced_form(word)
    payload = {
        "word": words.format_word(word),
        "letters": list(word),
        "length": len(word),
        "support": len(set(word)),
        "reduced_form": [
            {"letter": words.format_word((a,)), "exponent": e} for a, e in rf.runs
        ],
        "classification": {
            "circular": cls.is_circular,
            "conical": cls.is_conical,
            "spherical": cls.is_spherical,
            "circular_factors": [words.format_word(f) for f in cls.circular_factors],
            "spherical_prefix": (
                words.format_word(cls.spherical_prefix)
                if cls.spherical_prefix is not None
                else None
            ),
            "conical_tail": (
                words.format_word(cls.conical_tail)
                if cls.conical_tail is not None
                else None
            ),
        },
        "fundamental_subword": (
            words.format_word(words.fundamental_subword(word))
            if cls.is_spherical
            else None
        ),
        "euler": sum((-1) ** d * f for d, f in enumerate(f_vector)) - 1,
        "homotopy": str(words.predict_homotopy(word)),
        "f_vector": list(f_vector),
        "decomposition": None,
    }
    split = words.is_decomposable(word)
    if split:
        payload["decomposition"] = [words.format_word(p) for p in split]
    return payload


def cmd_analyze(args) -> int:
    word = _parse_word_arg(args.word, args.force)
    payload = _analyze_payload(word)
    if args.json:
        _emit_json(payload)
        return 0
    print(f"word:                {payload['word']}")
    print(f"length / support:    {payload['length']} / {payload['support']}")
    runs = " ".join(f"{r['letter']}^{r['exponent']}" for r in payload["reduced_form"])
    print(f"reduced form:        {runs}")
    cls = payload["classification"]
    kinds = [k for k in ("circular", "conical", "spherical") if cls[k]]
    print(f"classification:      {', '.join(kinds) if kinds else 'none'}")
    if cls["spherical"]:
        print(f"circular factors:    {' '.join(cls['circular_factors']) or '(none)'}")
        print(f"fundamental subword: {payload['fundamental_subword']}")
    else:
        print(
            "splits as:           "
            f"{cls['spherical_prefix'] or '(empty)'} + {cls['conical_tail']}"
        )
    if payload["decomposition"]:
        print(f"decomposable:        {' | '.join(payload['decomposition'])}")
    print(f"reduced Euler char:  {payload['euler']}")
    print(f"homotopy type:       {payload['homotopy']}")
    print(f"f-vector:            {tuple(payload['f_vector'])}")
    return 0


def cmd_homology(args) -> int:
    word = _parse_word_arg(args.word, args.force)
    profile = homology.reduced_homology(complexes.build(word))
    payload = {
        "word": words.format_word(word),
        "groups": profile.to_json(),
        "predicted": str(words.predict_homotopy(word)),
    }
    if args.json:
        _emit_json(payload)
        return 0
    print(f"reduced integral homology of the complex of {payload['word']}:")
    for entry in payload["groups"]:
        parts = []
        if entry["betti"]:
            parts.append(f"Z^{entry['betti']}" if entry["betti"] > 1 else "Z")
        parts.extend(f"Z/{d}" for d in entry["torsion"])
        print(f"  H~_{entry['dim']} = {' + '.join(parts) if parts else '0'}")
    print(f"predicted: {payload['predicted']}")
    return 0


def cmd_morse(args) -> int:
    word = _parse_word_arg(args.word, args.force)
    matching = morse.full_matching(word)
    X = complexes.build(word)
    report = morse.matching_report(X, matching)
    order_valid = report["dims"] and report["incidence"] and report["locality"]
    payload = matching.to_json()
    payload["matching_checks"] = report
    payload["collapsing_order_valid"] = order_valid
    if args.json:
        _emit_json(payload)
    else:
        print(f"matching on the complex of {payload['word']}:")
        for p in payload["pairs"]:
            print(f"  {p['sigma']:>12} <-> {p['tau']:<12} (dim {p['dim']})")
        print(f"critical cells: {payload['critical'] or 'none'}")
        print(f"checks: {report}, collapsing order valid: {order_valid}")
    ok = all(report.values())
    return 0 if ok else FAILURE


def cmd_collapse(args) -> int:
    word = _parse_word_arg(args.word, args.force)
    run = trace = None
    if morse.is_alternating(word):
        run = morse.alternating_collapse(word)
    else:
        trace = morse.reduce_to_core(complexes.build(word))
    payload = {
        "word": words.format_word(word),
        "mode": "alternating" if run else "reduction",
        "alternating": run and run.to_json(),
        "reduction": trace and trace.to_json(),
    }
    if args.json:
        _emit_json(payload)
    elif run:
        print(f"alternating collapse of {payload['word']}:")
        for s in payload["alternating"]["steps"]:
            print(f"  collapse ({s['sigma']}, {s['tau']}) by rule {s['rule']}")
        print(f"terminal: {payload['alternating']['core'] or 'point'}")
    else:
        print(f"reduction of {payload['word']}:")
        for s in trace.steps:
            print(
                f"  {s.kind:<9} {words.format_word(s.before)} -> "
                f"{words.format_word(s.after)}"
            )
        print(f"terminal: {words.format_word(trace.terminal)}")
    return 0


def cmd_subdivide(args) -> int:
    word = _parse_word_arg(args.word, args.force)
    X = complexes.build(word)
    if not args.force:
        f = X.f_vector()
        for k in range(1, args.times + 1):
            f = complexes.subdivision_f_vector(f)
            if sum(f) > MAX_SUBDIVISION_CELLS:
                raise UsageError(
                    f"sd^{k} would have {sum(f)} cells, more than "
                    f"{MAX_SUBDIVISION_CELLS}; it needs --force"
                )
    stages = [X.f_vector()]
    for _ in range(args.times):
        X = complexes.barycentric_subdivide(X)
        stages.append(X.f_vector())
    payload = {
        "word": words.format_word(word),
        "times": args.times,
        "f_vectors": [list(f) for f in stages],
        "reduced_euler": X.reduced_euler(),
        "simplicial": complexes.is_simplicial(X),
    }
    if args.json:
        _emit_json(payload)
    else:
        for i, f in enumerate(stages):
            print(f"sd^{i} f-vector: {f}")
        print(f"reduced Euler characteristic: {payload['reduced_euler']}")
        print(f"simplicial: {payload['simplicial']}")
    return 0


def cmd_export(args) -> int:
    word = _parse_word_arg(args.word, args.force)
    X = complexes.build(word)
    if args.format == "json":
        _emit_json(complexes.to_json_dict(X, word))
    elif args.format == "dot":
        sys.stdout.write(complexes.to_dot(X))
    else:  # csv: boundary matrices, augmentation included
        for n in range(X.dim + 1):
            sys.stdout.write(f"# boundary matrix {n}\n")
            M = homology.boundary_matrix(X, n)
            sys.stdout.write(homology.matrix_to_csv(M, homology.boundary_rows(X, n)))
    return 0


def cmd_sweep(args) -> int:
    directory = os.environ.get("WORDCOMPLEX_REPORT_DIR")
    if directory:
        os.makedirs(directory, exist_ok=True)  # an unusable one fails before the sweep
    report = verify.sweep(args.max_len, args.alphabet, args.dedup_reversal)
    written = verify.write_reports(report, directory) if directory else None
    if args.json:
        _emit_json(report.to_json())
    else:
        print(
            f"swept {len(report.rows)} words "
            f"(max length {args.max_len}, alphabet {args.alphabet})"
        )
        for word, check in report.failures[:20]:
            print(f"  FAIL {word}: {check}")
        if len(report.failures) > 20:
            print(f"  ... and {len(report.failures) - 20} more failures")
        if written:
            print(f"reports written to {written[0]} and {written[1]}")
        print("ok" if report.ok else f"{len(report.failures)} failures")
    return 0 if report.ok else FAILURE


def cmd_tables(args) -> int:
    report = verify.check_tables()
    if args.json:
        _emit_json(report.to_json())
    else:
        print(f"indecomposable words, length <= 4: {len(report.found_le_4)}")
        print(f"  {' '.join(report.found_le_4)}")
        print(f"indecomposable words, length 5: {len(report.found_5)}")
        print(f"  {' '.join(report.found_5)}")
        if report.unlisted_5:
            print(f"not in the published table: {' '.join(report.unlisted_5)}")
        if report.missing_5:
            print(f"published but never found: {' '.join(report.missing_5)}")
        print("ok" if report.ok else "MISMATCH with the published tables")
    return 0 if report.ok else FAILURE


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused by every
    later main call in the process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="wordcomplex",
        description="Complexes of words: analysis, homology, collapses, sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def word_command(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("word", help="word over a-z")
        p.add_argument("--json", action="store_true", help="machine output")
        p.add_argument("--force", action="store_true", help="allow long words")
        p.set_defaults(func=func)
        return p

    word_command("analyze", cmd_analyze, "reduced form, classification, homotopy type")
    word_command("homology", cmd_homology, "reduced integral homology")
    word_command("morse", cmd_morse, "the collapsing matching and its validation")
    word_command("collapse", cmd_collapse, "alternating collapse or word reduction")
    p = word_command("subdivide", cmd_subdivide, "barycentric subdivision")
    p.add_argument("--times", type=_int_at_least(0), default=1, metavar="N")
    p = word_command("export", cmd_export, "export the complex")
    p.add_argument("--format", choices=("json", "dot", "csv"), default="json")

    p = sub.add_parser(
        "sweep",
        help="exhaustive verification sweep",
        description="Examine every canonical word within the bounds. A sweep "
        f"of at least {verify.POOL_MIN_WORDS} words runs on one forked worker "
        "process per usable CPU (taskset -c 0 keeps it in one process); the "
        "report is the same either way.",
    )
    p.add_argument("--max-len", type=_int_at_least(1), default=8)
    p.add_argument("--alphabet", type=_int_at_least(1), default=4)
    p.add_argument("--json", action="store_true")
    p.add_argument("--dedup-reversal", action="store_true")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("tables", help="check the indecomposable-word tables")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_tables)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else USAGE_ERROR
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ValueError, RuntimeError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE


if __name__ == "__main__":
    sys.exit(main())
