"""Spans around the public functions of `wordcomplex`, recorded from outside.

`Tracer.install` replaces every binding of a public function of the six
modules (`words`, `complexes`, `homology`, `morse`, `verify`, `cli`) with a
wrapper that records a span: its name, start, end and the span that called
it. Names imported into other modules (`morse.build`,
`complexes.distinct_subwords`, ...) are bindings of their own and are
replaced too, as are the methods `DeltaComplex.validate` and
`SmithNormalForm.check`. Spans stay in memory until the run ends.

Generator functions are wrapped like any other, so their span covers only
the creation of the generator; the time spent iterating them is the
consumer's.
"""

from __future__ import annotations

import csv
import functools
import gzip
import importlib
import time
import types
from array import array
from collections import Counter

PACKAGE = "wordcomplex"
MODULES = ("words", "complexes", "homology", "morse", "verify", "cli")
METHODS = (("complexes", "DeltaComplex", "validate"), ("homology", "SmithNormalForm", "check"))

# A per-layer time is the self time of its functions' spans: a span's time
# minus that of the traced spans it called. A function with no metric of
# its own (left_shifted, deletion_sign, incidence, identity_matrix, ...) is
# counted in the metric of the nearest caller that has one. Every function
# of `verify` and `cli` counts in that module's metric.
TIME_METRICS = {
    "words.distinct_subwords_s": ("words.distinct_subwords",),
    "words.p_shifted_s": ("words.p_shifted",),
    "words.euler_s": ("words.euler_direct", "words.euler_recursive"),
    "words.classify_s": ("words.classify",),
    "complexes.build_s": ("complexes.build",),
    "complexes.checks_s": (
        "complexes.DeltaComplex.validate",
        "complexes.is_pseudomanifold",
        "complexes.free_pairs",
    ),
    "homology.reduced_homology_s": ("homology.reduced_homology", "homology.chain_data"),
    "homology.boundary_matrix_s": ("homology.boundary_matrix",),
    "homology.snf_s": ("homology.smith_normal_form",),
    "homology.certify_s": ("homology.SmithNormalForm.check", "homology.matmul"),
    "morse.reduce_to_core_s": ("morse.reduce_to_core",),
    "morse.reduce_step_s": ("morse.reduce_step",),
    "morse.validate_collapsing_order_s": ("morse.validate_collapsing_order",),
    "morse.matching_s": (
        "morse.full_matching",
        "morse.matching_report",
        "morse.skeleton_for_matching",
    ),
}
MODULE_METRICS = {"verify": "verify.self_s", "cli": "cli.self_s"}
CALL_METRICS = {
    "words.distinct_subwords_calls": "words.distinct_subwords",
    "words.p_shifted_calls": "words.p_shifted",
    "complexes.build_calls": "complexes.build",
    "homology.snf_calls": "homology.smith_normal_form",
}


def _count_subwords(counts, args, result):
    # masks is 2^n - 1 for the argument's length n, not the work the
    # enumerator did: it moves only with the calls or the words, and so
    # does the yield, found / masks.
    counts["words.subword_masks"] += (1 << len(args[0])) - 1
    counts["words.subwords_found"] += len(result)


def _count_cells(counts, args, result):
    counts["complexes.cells_built"] += result.n_cells


def _count_entries(counts, args, result):
    M = args[0]
    counts["homology.snf_entries"] += len(M) * (len(M[0]) if M else 0)


def _count_steps(counts, args, result):
    counts["morse.reduction_steps"] += len(result.steps)


# Sizes are read from the arguments and results the wrappers see.
HOOKS = {
    "words.distinct_subwords": _count_subwords,
    "complexes.build": _count_cells,
    "homology.smith_normal_form": _count_entries,
    "morse.reduce_to_core": _count_steps,
}
SIZE_METRICS = (
    "words.subword_masks",
    "words.subwords_found",
    "complexes.cells_built",
    "homology.snf_entries",
    "morse.reduction_steps",
)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object, object]] = []
        wrappers: dict[object, object] = {}
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
        for owner in [importlib.import_module(PACKAGE), *modules]:
            for attr, value in vars(owner).items():
                if attr.startswith("_") or not isinstance(value, types.FunctionType):
                    continue
                module = value.__module__.rpartition(".")[2]
                if value.__module__ != f"{PACKAGE}.{module}" or module not in MODULES:
                    continue
                if value not in wrappers:
                    wrappers[value] = self.wrap(value, f"{module}.{value.__qualname__}")
                self._patches.append((owner, attr, value, wrappers[value]))
        for module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{module}"), cls_name)
            fn = vars(cls)[attr]
            self._patches.append((cls, attr, fn, self.wrap(fn, f"{module}.{fn.__qualname__}")))

    def _name_id(self, qualname: str) -> int:
        if qualname not in self._name_ids:
            self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_ids[qualname]

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def wrap(self, fn, qualname: str):
        """A function that runs fn inside a span named qualname."""
        nid = self._name_id(qualname)
        start, end, names, parents, stack = (
            self.start, self.end, self.name, self.parent, self.stack
        )
        clock = time.perf_counter
        hook = HOOKS.get(qualname)
        counts = self.counts

        # Every array gets its entry before fn runs, so a span's index is
        # the same in all four and a caller's index is below its callees'.
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def __len__(self) -> int:
        return len(self.name)

    def layer_metrics(self, lo: int, hi: int, counts: dict, words: int) -> dict:
        """Per-layer figures for the spans lo..hi-1, which are whole rounds."""
        label_of_name = {}
        for metric, names in TIME_METRICS.items():
            for n in names:
                label_of_name[n] = metric
        for n in self.names:
            module = n.partition(".")[0]
            if module in MODULE_METRICS:
                label_of_name[n] = MODULE_METRICS[module]
        name_label = [label_of_name.get(n) for n in self.names]

        start, end, name, parent = self.start, self.end, self.name, self.parent
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = parent[i]
            if p >= lo:
                child[p - lo] += end[i] - start[i]
        labels: list = [None] * (hi - lo)
        credit: Counter = Counter()
        calls: Counter = Counter()
        for i in range(lo, hi):
            nid = name[i]
            calls[nid] += 1
            label = name_label[nid]
            if label is None:
                p = parent[i]
                label = labels[p - lo] if p >= lo else "bench"
            labels[i - lo] = label
            credit[label] += end[i] - start[i] - child[i - lo]

        out = {m: credit[m] for m in TIME_METRICS}
        out.update({m: credit[m] for m in MODULE_METRICS.values()})
        for metric, fname in CALL_METRICS.items():
            # a function the program no longer has was called zero times
            out[metric] = calls[self._name_ids[fname]] if fname in self._name_ids else 0
        out.update({m: counts.get(m, 0) for m in SIZE_METRICS})
        masks = out["words.subword_masks"]
        out["words.subword_yield"] = out["words.subwords_found"] / masks if masks else 0.0
        out["complexes.builds_per_word"] = out["complexes.build_calls"] / words
        return out

    def write(self, path: str) -> None:
        """Every span as CSV: index, caller's index (-1 at the root), name,
        start and end in seconds of the benchmark's clock."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("span", "parent", "name", "start_s", "end_s"))
            names = [self.names[n] for n in self.name]
            out.writerows(zip(range(len(names)), self.parent, names, self.start, self.end))
