"""Spans and counts at rackqm's layer boundaries, for the traced run only.

The tracer wraps public functions where their callers look them up across
module boundaries -- ``rackqm.quasimorphism.sample_element``,
``rackqm.free_product.factorize`` and so on -- and counts calls of a few
hot methods.  Each span records its name, start, end and parent span.
Spans stay in memory and are written out when the run ends (the worker keeps
those of the first ``SPAN_ROUNDS`` traced rounds only); the per-round
aggregates (counts, self times) become the per-layer metrics.  A span's
self time is its duration minus the time of the spans inside it; the time
the tracer spends in its own hooks is charged to no layer.

``install`` patches rackqm's modules and ``uninstall`` restores them, so the
untraced rounds of the same process run rackqm unchanged.
"""

from __future__ import annotations

import gzip
import json
from collections import Counter
from time import perf_counter_ns


class Tracer:
    def __init__(self, rq):
        self.rq = rq
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.keep_spans = True  # False: aggregate only, keep no more spans
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self._stack: list[list] = []  # [span id, ns covered by children, name]
        self._next_id = 1
        self._sampling = 0  # depth inside adjoint sample_value
        self._patches: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> list:
        frame = [self._next_id, 0, name]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, name: str, frame: list, start: int, end: int) -> None:
        stack = self._stack
        stack.pop()
        duration = end - start
        self.self_ns[name] += duration - frame[1]
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[1] += duration
        if self.keep_spans:
            self.spans.append((frame[0], parent[0] if parent else 0, name, start, end))

    def _hide(self, start: int) -> None:
        """Charge the time since ``start`` to no layer: the enclosing span
        counts it as covered by a child."""
        if self._stack:
            self._stack[-1][1] += perf_counter_ns() - start

    def span(self, name: str, fn, before=None, after=None):
        """``fn`` wrapped in a span; ``before(args)`` may replace the
        arguments and ``after(args, result)`` records counts."""
        counts = self.counts
        calls = name + ".calls"

        def wrapper(*args, **kwargs):
            if before is not None:
                t = perf_counter_ns()
                args = before(args)
                self._hide(t)
            counts[calls] += 1
            frame = self._open(name)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(name, frame, start, perf_counter_ns())
            if after is not None:
                t = perf_counter_ns()
                after(args, result)
                self._hide(t)
            return result

        return wrapper

    def span_iter(self, name: str, fn, item_key: str):
        """A generator function whose every resumption is one span."""

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                start = perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    self._close(name, frame, start, perf_counter_ns())
                    return
                self._close(name, frame, start, perf_counter_ns())
                self.counts[item_key] += 1
                yield item

        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that count work at a boundary ---------------------------------

    def _factorize_args(self, args):
        parent, items = args
        items = list(items)
        self.counts["free_product.factorize.syllables_in"] += len(items)
        return parent, items

    def _factorize_done(self, args, word):
        self.counts["free_product.factorize.syllables_out"] += len(word.syllables)

    def _rack_op_done(self, args, result):
        kept = _common_prefix(args[0].tail.syllables, result.tail.syllables)
        self.counts["free_product.rack_op.unchanged"] += kept
        self.counts["free_product.rack_op.syllables_out"] += len(result.tail.syllables)

    def _concat_done(self, args, word):
        out = word.syllables
        first, last = args[1].syllables, args[-1].syllables
        head = _common_prefix(first, out)
        tail = _common_prefix(last[::-1], out[::-1])
        self.counts["free_product.concat_words.unchanged"] += min(head + tail, len(out))
        self.counts["free_product.concat_words.syllables_out"] += len(out)

    def _rolli_args(self, args):
        self.counts["quasimorphism.rolli_qm.syllables"] += len(args[1].syllables)
        return args

    def _rank_done(self, args, rank):
        matrix = args[0]
        self.counts["linalg.exact_rank.rows"] += len(matrix)
        self.counts["linalg.exact_rank.cols"] += len(matrix[0]) if len(matrix) else 0
        self.counts["linalg.exact_rank.nonzeros"] += sum(
            1 for row in matrix for v in row if v
        )
        self.counts["linalg.exact_rank.rank"] += rank

    def _coboundary_done(self, args, matrix):
        entries = sum(map(len, matrix.entries))  # what the matrix holds
        self.counts["cochain.coboundary.entries"] += entries
        # called from quandle_coboundary: the entries it slices its own from
        if self._stack and self._stack[-1][2] == "cochain.quandle_coboundary":
            self.counts["cochain.quandle_coboundary.built"] += entries

    def _quandle_done(self, args, result):
        self.counts["cochain.quandle_coboundary.kept"] += sum(map(len, result[2]))

    def _witness_element(self, fn):
        def wrapper(*args, **kwargs):
            self.counts["certify.witness_syllables"] += len(args[3].syllables)
            return fn(*args, **kwargs)

        return wrapper

    def _sample_value(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts["adjoint.sample_value.calls"] += 1
            self._sampling += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._sampling -= 1

        return wrapper

    def _abelian_built(self, fn):
        counts = self.counts

        def wrapper(word):
            counts["words.AbelianWord.built"] += 1
            if self._sampling:
                counts["adjoint.sample_value.draws"] += 1
            fn(word)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, make) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install_setup(self) -> None:
        """Spans around the finite-rack builders the set-up calls."""
        for attr in (
            "trivial_rack",
            "dihedral_quandle",
            "conjugation_rack",
            "cyclic_group",
            "symmetric_group",
            "validate_rack",
        ):
            self._patch(self.rq.racks, attr, lambda f: self.span("racks.build", f))

    def install(self) -> None:
        rq = self.rq
        qm, fp, sm, ad, ce, co = rq.qm, rq.fp, rq.sampling, rq.adjoint, rq.certify, rq.cochain
        spans = [  # (module, attribute, span name, before hook, after hook)
            (qm, "rack_defect_estimate", "quasimorphism.rack_defect_estimate", None, None),
            (qm, "group_defect_estimate", "quasimorphism.group_defect_estimate", None, None),
            (qm, "witness_growth_table", "quasimorphism.witness_growth_table", None, None),
            (qm, "sample_element", "sampling.sample_element", None, None),
            (qm, "sample_syllable_word", "sampling.sample_syllable_word", None, None),
            (sm, "sample_syllable_word", "sampling.sample_syllable_word", None, None),
            (qm, "rack_op", "free_product.rack_op", None, self._rack_op_done),
            (qm, "concat_words", "free_product.concat_words", None, self._concat_done),
            (qm, "rolli_qm", "quasimorphism.rolli_qm", self._rolli_args, None),
            (fp, "reduce_element", "free_product.reduce_element", None, None),
            (fp, "factorize", "free_product.factorize", self._factorize_args, self._factorize_done),
            (ce, "independence_certificate", "certify.independence_certificate", None, None),
            (ce, "exact_rank", "linalg.exact_rank", None, self._rank_done),
            (co, "cohomology_dims", "cochain.cohomology_dims", None, None),
            (co, "coboundary", "cochain.coboundary", None, self._coboundary_done),
            (co, "quandle_coboundary", "cochain.quandle_coboundary", None, self._quandle_done),
            (co, "nondegenerate_indices", "cochain.nondegenerate_indices", None, None),
            (co, "exact_rank", "linalg.exact_rank", None, self._rank_done),
        ]
        for owner, attr, name, before, after in spans:
            self._patch(owner, attr, lambda f, n=name, b=before, a=after: self.span(n, f, b, a))
        counters = [(qm.LambdaFamily, "value", "quasimorphism.LambdaFamily.value.calls")]
        for model in (ad.TrivialRackModel, ad.FreeRackFactorModel):
            counters.append((model, "multiply", "adjoint.multiply.calls"))
            counters.append((model, "contains_value", "adjoint.contains_value.calls"))
            self._patch(model, "sample_value", self._sample_value)
        for owner, attr, key in counters:
            self._patch(owner, attr, lambda f, k=key: self.counter(k, f))
        self._patch(
            qm,
            "enumerate_syllable_words",
            lambda f: self.span_iter(
                "sampling.enumerate_syllable_words", f, "sampling.enumerate_syllable_words.words"
            ),
        )
        self._patch(rq.words.AbelianWord, "__post_init__", self._abelian_built)
        self._patch(ce, "FreeProductElement", self._witness_element)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- rounds and output ---------------------------------------------------

    def take(self) -> tuple[Counter, Counter]:
        """The counts and self times since the last ``take``."""
        counts, self_ns = Counter(self.counts), Counter(self.self_ns)
        self.counts.clear()
        self.self_ns.clear()
        return counts, self_ns

    def write(self, path: str) -> None:
        with gzip.open(path, "wt") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")


def _common_prefix(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n


# The per-layer metrics, per traced round.  ``<layer>.self_ms`` is the
# layer's self time, a ``_share`` is the ratio of two counts in ``SHARES``,
# and any other name is a count.
LAYER_METRICS = (
    "sampling.sample_element.calls",
    "sampling.sample_element.self_ms",
    "sampling.sample_syllable_word.self_ms",
    "sampling.enumerate_syllable_words.words",
    "sampling.enumerate_syllable_words.self_ms",
    "adjoint.sample_value.calls",
    "adjoint.sample_value.accepted_share",
    "adjoint.multiply.calls",
    "adjoint.contains_value.calls",
    "words.AbelianWord.built",
    "free_product.rack_op.calls",
    "free_product.rack_op.self_ms",
    "free_product.rack_op.unchanged_share",
    "free_product.concat_words.calls",
    "free_product.concat_words.unchanged_share",
    "free_product.factorize.calls",
    "free_product.factorize.self_ms",
    "free_product.factorize.syllables_in",
    "free_product.factorize.syllables_out",
    "free_product.reduce_element.self_ms",
    "quasimorphism.rolli_qm.calls",
    "quasimorphism.rolli_qm.self_ms",
    "quasimorphism.rolli_qm.syllables",
    "quasimorphism.rolli_qm.ns_per_syllable",
    "quasimorphism.LambdaFamily.value.calls",
    "certify.independence_certificate.self_ms",
    "certify.witness_syllables",
    "cochain.coboundary.calls",
    "cochain.coboundary.self_ms",
    "cochain.coboundary.entries",
    "cochain.quandle_coboundary.kept_share",
    "cochain.nondegenerate_indices.self_ms",
    "linalg.exact_rank.calls",
    "linalg.exact_rank.self_ms",
    "linalg.exact_rank.rows",
    "linalg.exact_rank.cols",
    "linalg.exact_rank.nonzeros",
    "linalg.exact_rank.rank",
)

SHARES = {
    "adjoint.sample_value.accepted_share": (
        "adjoint.sample_value.calls",
        "adjoint.sample_value.draws",
    ),
    "free_product.rack_op.unchanged_share": (
        "free_product.rack_op.unchanged",
        "free_product.rack_op.syllables_out",
    ),
    "free_product.concat_words.unchanged_share": (
        "free_product.concat_words.unchanged",
        "free_product.concat_words.syllables_out",
    ),
    "cochain.quandle_coboundary.kept_share": (
        "cochain.quandle_coboundary.kept",
        "cochain.quandle_coboundary.built",
    ),
}


def unit(name: str) -> str:
    if name.endswith(".self_ms"):
        return "ms"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith(".ns_per_syllable"):
        return "ns"
    return "count"


def layer_values(counts: Counter, self_ns: Counter) -> dict[str, float]:
    """The metrics of one traced round from its counts and self times."""
    values = {}
    for name in LAYER_METRICS:
        if name.endswith(".self_ms"):
            values[name] = self_ns[name.removesuffix(".self_ms")] / 1e6
        elif name in SHARES:
            part, whole = SHARES[name]
            values[name] = counts[part] / counts[whole] if counts[whole] else 0.0
        elif name == "quasimorphism.rolli_qm.ns_per_syllable":
            syllables = counts["quasimorphism.rolli_qm.syllables"]
            values[name] = self_ns["quasimorphism.rolli_qm"] / syllables if syllables else 0.0
        else:
            values[name] = counts[name]
    return values
