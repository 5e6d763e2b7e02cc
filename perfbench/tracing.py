"""Spans and counters recorded around the package's public entry points.

`instrument` rebinds each traced function, wherever an `invsemi` module
holds a reference to it, to a wrapper that records a span (name, parent,
start, end) and updates the layer's counters.  Spans stay in memory; the
worker writes them out when its pass ends.  Nothing under `src/`
changes, and without `instrument` nothing is wrapped.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = "op"  # one span per op; its self time is glue no layer claims


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self.compose_calls = [0]
        self._stack: list[int] = []

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, perf_counter(), 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                error = exc
                raise
            finally:
                span[3] = perf_counter()
                stack.pop()
                if count is not None:
                    count(counts, args, result, error)

        return traced

    def totals(self) -> tuple[dict, dict]:
        """Per span name: inclusive time (outermost spans of that name
        only, so recursion is not counted twice) and self time."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        inclusive: defaultdict[str, float] = defaultdict(float)
        own: defaultdict[str, float] = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(self.spans):
            own[name] += end - start - child[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][1]
            if p < 0:
                inclusive[name] += end - start
        return inclusive, own


def _add(key, amount):
    def count(counts, args, result, error):
        counts[key] += amount(args, result, error)
    return count


def _hausdorff(counts, args, result, error):
    counts["criterion.hausdorff.calls"] += 1
    if error is None:
        counts["criterion.hausdorff.jset_total"] += len(result.j_set)


def _germs(counts, args, result, error):
    counts["germs.pairs"] += len(args[0].table)
    if error is None:
        counts["germs.classes"] += len(result)


def _completeness(counts, args, result, error):
    counts["criterion.completeness.calls"] += 1
    if error is None:
        counts["criterion.completeness.decided"] += 1
        counts["criterion.completeness.subsets"] += result.subsets_checked
    elif hasattr(error, "budget"):
        counts["criterion.completeness.subsets"] += error.budget


def instrument(tracer: Tracer) -> None:
    """Wrap every traced entry point of the already importable package."""
    import invsemi.cli  # noqa: F401  (imports every module that gets wrapped)
    from invsemi import action, criterion, formats, germs, report, semigroup
    from invsemi.partial_bijection import PartialBijection
    from invsemi.symbolic import atomflip, graphs, munn

    def everywhere(fn, name, count=None):
        wrapped = tracer.wrap(name, fn, count)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "invsemi" or modname.startswith("invsemi.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    def method(cls, attr, name, count=None):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), count))

    size = _add("formats.bytes", lambda a, r, e: Path(a[0]).stat().st_size)
    everywhere(formats.load_semigroup, "formats.load", size)
    everywhere(formats.load_action, "formats.load", size)
    everywhere(semigroup.close, "semigroup.close",
               _add("semigroup.close.elements", lambda a, r, e: 0 if e else r.order))
    method(semigroup.FiniteInverseSemigroup, "__init__", "semigroup.derive",
           _add("semigroup.derive.cells", lambda a, r, e: 0 if e else a[0].order ** 2))
    everywhere(semigroup.verify_inverse_semigroup, "semigroup.verify",
               _add("semigroup.verify.calls", lambda a, r, e: 1))
    everywhere(criterion.hausdorff_criterion, "criterion.hausdorff", _hausdorff)
    everywhere(criterion.is_complete_and_distributive, "criterion.completeness",
               _completeness)
    everywhere(criterion.ideal_cover_agrees_with_order_cover, "criterion.oracle")
    everywhere(action.left_translation_action, "action.left_translation")
    method(action.FiniteAction, "validate", "action.validate",
           _add("action.validate.pairs", lambda a, r, e: a[0].semigroup.order ** 2))
    everywhere(germs.build_germs, "germs.build", _germs)
    for attr in ("isotropy", "is_principal", "is_effective", "is_essentially_principal"):
        method(germs.GermGroupoid, attr, "germs.props")
    method(report.RunReport, "render_structured", "report.render")
    method(report.RunReport, "render_text", "report.render")
    everywhere(atomflip.truncation, "symbolic.truncation")
    for family in (atomflip, graphs, munn):
        everywhere(family.criterion, "symbolic.criterion")

    compose, calls = PartialBijection.compose, tracer.compose_calls

    def counted_compose(self, other):
        calls[0] += 1
        return compose(self, other)

    PartialBijection.compose = PartialBijection.__mul__ = counted_compose


def layer_metrics(tracer: Tracer) -> dict:
    """The per-layer metrics of one traced pass, by the names in BENCHMARK.json."""
    inclusive, own = tracer.totals()
    c = tracer.counts
    compose = tracer.compose_calls[0]
    pairs, classes = c["germs.pairs"], c["germs.classes"]
    elements = c["semigroup.close.elements"]
    completeness = c["criterion.completeness.calls"]
    return {
        "formats.load.self_s": own["formats.load"],
        "formats.bytes": c["formats.bytes"],
        "semigroup.close.s": inclusive["semigroup.close"],
        "semigroup.close.elements": elements,
        "partial_bijection.compose.calls": compose,
        "semigroup.close.yield": elements / compose if compose else 0.0,
        "semigroup.derive.s": inclusive["semigroup.derive"],
        "semigroup.derive.cells": c["semigroup.derive.cells"],
        "semigroup.verify.s": inclusive["semigroup.verify"],
        "semigroup.verify.calls": c["semigroup.verify.calls"],
        "criterion.hausdorff.s": inclusive["criterion.hausdorff"],
        "criterion.hausdorff.calls": c["criterion.hausdorff.calls"],
        "criterion.hausdorff.jset_total": c["criterion.hausdorff.jset_total"],
        "criterion.completeness.s": inclusive["criterion.completeness"],
        "criterion.completeness.subsets": c["criterion.completeness.subsets"],
        "criterion.completeness.decided": (c["criterion.completeness.decided"] / completeness
                                           if completeness else 0.0),
        "criterion.oracle.s": inclusive["criterion.oracle"],
        "action.left_translation.s": inclusive["action.left_translation"],
        "action.validate.s": inclusive["action.validate"],
        "action.validate.pairs": c["action.validate.pairs"],
        "germs.build.s": inclusive["germs.build"],
        "germs.pairs": pairs,
        "germs.classes": classes,
        "germs.classes_per_pair": classes / pairs if pairs else 0.0,
        "germs.props.s": inclusive["germs.props"],
        "report.render.s": inclusive["report.render"],
        "symbolic.truncation.self_s": own["symbolic.truncation"],
        "symbolic.criterion.s": inclusive["symbolic.criterion"],
        "trace.layers_self_s": sum(v for k, v in own.items() if k != ROOT),
        "trace.unattributed_s": own[ROOT],
    }
