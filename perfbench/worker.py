"""One workload in its own single-threaded process.

Sets up (imports `wordcomplex` from the checkout's `src` and makes the
seeded inputs), runs whole rounds of operations until the time is up,
then checks every output against the oracles and prints one JSON object.
With `--trace 1` it alternates an untraced and a traced round instead and
reports the per-layer figures; with `--setup-only` it stops after set-up
and prints how long that took.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Callable, NamedTuple  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import inputs  # noqa: E402
import oracles  # noqa: E402
import pace  # noqa: E402


class Op(NamedTuple):
    label: str
    run: Callable[[], object]
    words: Callable[[object], int]  # words an output covers
    check: Callable[[object], list]  # problems with an output


def sweep_ops() -> list[Op]:
    from wordcomplex import verify

    max_len, alphabet = inputs.SWEEP_BOUNDS

    def run():
        return verify.sweep(max_len, alphabet)

    def check(report):
        return oracles.check_sweep(report.to_json(), max_len, alphabet)

    return [Op(f"sweep({max_len},{alphabet})", run, lambda r: len(r.rows), check)]


def cli_ops(command: str, words: list[str], checker) -> list[Op]:
    """`wordcomplex <command> <word> --json --force`, in-process."""
    from wordcomplex import cli

    def op(word: str) -> Op:
        argv = [command, word, "--json", "--force"]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"exit code {code}: {err.getvalue().strip()}")
            return out.getvalue()

        def check(text):
            try:
                payload = json.loads(text)
            except json.JSONDecodeError as exc:
                return [f"output is not JSON: {exc}"]
            return checker(word, payload)

        return Op(word, run, lambda r: 1, check)

    return [op(w) for w in words]


def make_ops(workload: str, seed: int) -> list[Op]:
    if workload == "sweep":
        return sweep_ops()
    words = inputs.round_words(workload, seed)
    if workload == "hard_homology":
        return cli_ops("homology", words, oracles.check_homology)
    return cli_ops("analyze", words, oracles.check_analyze)


class Outcome(NamedTuple):
    op: int
    seconds: float  # wall time
    paced: float  # wall time at the reference pace (see pace.py)
    result: object  # None when the operation raised
    error: str


def keep_once(store: list, result):
    """The stored output equal to result, storing result if there is none.
    Repeated outputs are dropped, so memory does not grow with the rounds."""
    for prior in store:
        if prior == result:
            return prior
    store.append(result)
    return result


def run_round(ops: list[Op], runs: list[Callable[[], object]], store: list[list]) -> list[Outcome]:
    # The pace is read before the round and after each operation; the
    # round's times are scaled by the median reading.
    paces = [pace.pace_s()]
    done = []
    for i, run in enumerate(runs):
        # Start each operation from a collected heap, as a fresh command
        # would, so that its time does not depend on what ran before it.
        gc.collect()
        t = time.perf_counter()
        try:
            result, error = run(), ""
        except Exception as exc:  # a failed operation is data; keep measuring
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t
        paces.append(pace.pace_s())
        done.append((i, seconds, None if error else keep_once(store[i], result), error))
    scale = pace.REFERENCE_S / statistics.median(paces)
    return [Outcome(i, seconds, seconds * scale, result, error)
            for i, seconds, result, error in done]


def judge(ops: list[Op], outcomes: list[Outcome]) -> tuple[int, int, list[str]]:
    """(failed, wrong, problems): an operation fails when it raises or when
    its output is wrong; wrong counts only the second kind."""
    failed = wrong = 0
    problems: list[str] = []
    verdicts: dict[int, list[str]] = {}  # by id of a stored output
    for o in outcomes:
        if o.error:
            found = [o.error]
        else:
            if id(o.result) not in verdicts:
                verdicts[id(o.result)] = ops[o.op].check(o.result)
            found = verdicts[id(o.result)]
        if found:
            failed += 1
            wrong += not o.error
            problems += [f"{ops[o.op].label}: {p}" for p in found[:3]]
    return failed, wrong, problems


def words_done(ops: list[Op], outcomes: list[Outcome]) -> int:
    return sum(ops[o.op].words(o.result) for o in outcomes if not o.error)


def timed(ops: list[Op], seconds: float) -> tuple[list[Outcome], dict]:
    """Whole rounds of the closed loop until `seconds` have passed."""
    runs = [op.run for op in ops]
    store: list[list] = [[] for _ in ops]
    rounds: list[list[Outcome]] = []
    start = time.perf_counter()
    while True:
        rounds.append(run_round(ops, runs, store))
        if time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    outcomes = [o for r in rounds for o in r]
    latencies = sorted(o.paced for o in outcomes)
    # the median round's rate, so that a passing slow spell moves it less
    rates = [words_done(ops, r) / sum(o.paced for o in r) for r in rounds]
    wall_rates = [words_done(ops, r) / sum(o.seconds for o in r) for r in rounds]
    metrics = {
        "words_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "peak_rss_mb": peak_rss_mb,
    }
    per_op: dict[str, list[float]] = {}
    for o in outcomes:
        per_op.setdefault(ops[o.op].label, []).append(o.paced * 1e3)
    detail = {
        "samples": len(latencies),
        "rounds": len(rounds),
        "round_words_per_s": rates,
        "op_median_ms": {k: statistics.median(v) for k, v in per_op.items()},
        # the same figures in plain wall time, and the pace they were scaled by
        "wall_words_per_s": statistics.median(wall_rates),
        "wall_latency_p50_ms": statistics.median(o.seconds for o in outcomes) * 1e3,
        "pace_ratio": statistics.median(o.seconds / o.paced for o in outcomes),
        "wall_s": wall,
    }
    # a tail percentile is reported only with at least ten samples beyond it
    if len(latencies) >= 100:
        detail["latency_p90_ms"] = statistics.quantiles(latencies, n=10)[-1] * 1e3
    return outcomes, {"metrics": metrics, "detail": detail}


def traced(ops: list[Op], seconds: float, spans_path: Path) -> tuple[list[Outcome], dict]:
    """Pairs of one untraced and one traced round until `seconds` have
    passed; per-layer figures are medians over the traced rounds."""
    import tracer

    tr = tracer.Tracer()
    plain = [op.run for op in ops]
    wrapped = [tr.wrap(op.run, f"op {op.label}") for op in ops]
    store: list[list] = [[] for _ in ops]
    outcomes: list[Outcome] = []
    walls = {"untraced": [], "traced": []}  # timed seconds per round
    rounds = []  # (first span, end span, counts, words)
    start = time.perf_counter()
    while True:
        got = run_round(ops, plain, store)
        walls["untraced"].append(sum(o.seconds for o in got))
        outcomes += got

        lo = len(tr)
        tr.counts.clear()
        tr.install()
        got = run_round(ops, wrapped, store)
        tr.uninstall()
        walls["traced"].append(sum(o.seconds for o in got))
        outcomes += got
        rounds.append((lo, len(tr), dict(tr.counts), words_done(ops, got)))
        if time.perf_counter() - start >= seconds:
            break

    per_round = [tr.layer_metrics(lo, hi, counts, words) for lo, hi, counts, words in rounds]
    metrics = {}
    unsteady = []
    for name in per_round[0]:
        values = [m[name] for m in per_round]
        if name.endswith("_s"):
            metrics[name] = statistics.median(values)
        else:
            metrics[name] = values[0]
            if any(v != values[0] for v in values):
                unsteady.append(f"count {name} differs between rounds: {values}")
    metrics["trace.overhead_s"] = statistics.median(walls["traced"]) - statistics.median(
        walls["untraced"]
    )
    tr.write(str(spans_path))
    detail = {
        "rounds": len(rounds),
        "untraced_round_s": walls["untraced"],
        "traced_round_s": walls["traced"],
        "spans": len(tr),
        "spans_file": spans_path.name,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "unsteady": unsteady,
    }
    return outcomes, {"metrics": metrics, "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=inputs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    ops = make_ops(args.workload, args.seed)
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if args.trace:
        spans = HERE / "results" / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        spans.parent.mkdir(exist_ok=True)
        outcomes, out = traced(ops, args.seconds, spans)
    else:
        outcomes, out = timed(ops, args.seconds)
    failed, wrong, problems = judge(ops, outcomes)
    problems += out["detail"].get("unsteady", [])
    out["detail"].update(setup_s=setup_s, words=[op.label for op in ops], problems=problems[:20])
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    out.update(
        correct=wrong == 0 and not out["detail"].get("unsteady"),
        attempted=len(outcomes),
        failed=failed,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
