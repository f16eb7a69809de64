"""Outside-in tracer for the hyperproj modules.

The tracer wraps public functions of the package from outside; the
package itself is not edited. Two kinds of hook exist:

* span hooks record one span per call: name, start, end, parent span and
  run id. They sit on coarse calls such as ``training.train``.
* hot hooks sit on calls made per example or per batch, such as
  ``dataset.sample_negative``. Each call is aggregated into a count and a
  total time under its parent span, so the trace stays small.

A hook whose target no longer exists is reported in ``missing`` and
leaves the run untouched. Spans and aggregates are kept in memory and
written out by the caller when the run ends.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable

PACKAGE = "hyperproj"


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: str
    start: float
    end: float = float("nan")


@dataclass
class HookStats:
    """Totals for one hook over a traced run; ``extra`` holds derived counters."""

    calls: int = 0
    seconds: float = 0.0
    extra: dict[str, float] = field(default_factory=lambda: defaultdict(float))


Observer = Callable[[dict, tuple, dict, object], None]


@dataclass(frozen=True)
class Hook:
    """A function to wrap: ``attr`` may be ``Class.method``.

    ``observe(extra, args, kwargs, result)`` adds derived counters after
    each successful call.
    """

    name: str
    module: str
    attr: str
    hot: bool = False
    observe: Observer | None = None


class Tracer:
    """Collects spans and hot-hook aggregates for one traced run."""

    def __init__(self, run: str):
        self.run = run
        self.spans: list[Span] = []
        self.stats: dict[str, HookStats] = defaultdict(HookStats)
        # (hook name, parent span id) -> [calls, seconds]
        self.hot: dict[tuple[str, int | None], list[float]] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._hot_depth = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        """Record a span around a block; used for hooks and for the benchmark's own steps."""
        sp = Span(len(self.spans), name, self._stack[-1] if self._stack else None,
                  self.run, perf_counter())
        self.spans.append(sp)
        self._stack.append(sp.id)
        try:
            yield sp
        finally:
            self._stack.pop()
            sp.end = perf_counter()

    def _wrap(self, hook: Hook, fn):
        stats = self.stats[hook.name]

        if hook.hot:
            def wrapper(*args, **kwargs):
                self._hot_depth += 1
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    self._hot_depth -= 1
                stats.calls += 1
                stats.seconds += dt
                if self._hot_depth == 0:  # nested hot time is already inside its caller
                    key = (hook.name, self._stack[-1] if self._stack else None)
                    agg = self.hot.setdefault(key, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dt
                if hook.observe is not None:
                    hook.observe(stats.extra, args, kwargs, result)
                return result
        else:
            def wrapper(*args, **kwargs):
                with self.span(hook.name) as sp:
                    result = fn(*args, **kwargs)
                stats.calls += 1
                stats.seconds += sp.end - sp.start
                if hook.observe is not None:
                    hook.observe(stats.extra, args, kwargs, result)
                return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation --------------------------------------------------------

    def install(self, hooks: list[Hook]) -> None:
        """Wrap every hook target, replacing each reference the package holds."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for hook in hooks:
            owner = sys.modules.get(f"{PACKAGE}.{hook.module}")
            *owner_path, attr = hook.attr.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.missing.append(hook.name)
                continue
            wrapper = self._wrap(hook, original)
            if owner_path:  # a method: the class attribute is the only reference
                self._patch(owner, attr, wrapper)
                continue
            for mod in modules:  # `from x import f` copies the reference
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    @contextmanager
    def installed(self, hooks: list[Hook]):
        self.install(hooks)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per span or hot-hook name.

        A span's self time is its duration minus the time of its child
        spans and of the hot calls made directly under it.
        """
        child = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child[sp.parent] += sp.end - sp.start
        out: dict[str, float] = defaultdict(float)
        for (name, parent), (_, secs) in self.hot.items():
            out[name] += secs
            if parent is not None:
                child[parent] += secs
        for sp in self.spans:
            out[sp.name] += (sp.end - sp.start) - child[sp.id]
        return dict(out)

    def time_under(self, hook_name: str, ancestor: str) -> float:
        """Hot time of ``hook_name`` spent anywhere below a span named ``ancestor``."""
        inside: dict[int | None, bool] = {None: False}
        for sp in self.spans:  # parents precede children in creation order
            inside[sp.id] = sp.name == ancestor or inside[sp.parent]
        return sum(secs for (name, parent), (_, secs) in self.hot.items()
                   if name == hook_name and inside[parent])

    def to_json(self) -> dict:
        return {
            "run": self.run,
            "missing_hooks": self.missing,
            "spans": [vars(sp) for sp in self.spans],
            "hot": [{"name": n, "parent": p, "calls": c, "seconds": s}
                    for (n, p), (c, s) in self.hot.items()],
            "hooks": {n: {"calls": s.calls, "seconds": s.seconds, **s.extra}
                      for n, s in self.stats.items()},
        }


# ---------------------------------------------------------------------------
# the hyperproj hooks
# ---------------------------------------------------------------------------


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _observe_neighbors(extra, args, kwargs, result) -> None:
    table = _arg(args, kwargs, 0, "table")
    rows, dim = table.vectors.shape
    extra["flops_computed"] += 2 * rows * dim  # the scoring GEMV
    extra["bytes_computed"] += 8 * rows * dim  # float64 table streamed once
    extra["rows_sorted"] += rows
    extra["entries_returned"] += len(result.entries)


def _observe_negative(extra, args, kwargs, result) -> None:
    extra["fallbacks"] += result == _arg(args, kwargs, 1, "source")


def _observe_kmeans(extra, args, kwargs, result) -> None:
    extra["iters"] += len(result.inertia_trace) - 1  # one entry per Lloyd step plus the final


def _observe_evaluate(extra, args, kwargs, result) -> None:
    extra["pairs"] += result.n_pairs


HOOKS = [
    Hook("embeddings.load_embeddings", "embeddings", "load_embeddings"),
    Hook("embeddings.save_embeddings_text", "embeddings", "save_embeddings_text"),
    Hook("embeddings.nearest_neighbors", "embeddings", "nearest_neighbors", hot=True,
         observe=_observe_neighbors),
    Hook("embeddings.EmbeddingTable.rows", "embeddings", "EmbeddingTable.rows", hot=True),
    Hook("dataset.sample_negative", "dataset", "sample_negative", hot=True,
         observe=_observe_negative),
    Hook("dataset.read_split_dir", "dataset", "read_split_dir"),
    Hook("dataset.load_relations", "dataset", "load_relations"),
    Hook("dataset.lexical_split", "dataset", "lexical_split"),
    Hook("clustering.fit_kmeans", "clustering", "fit_kmeans", observe=_observe_kmeans),
    Hook("clustering.assign_cluster", "clustering", "assign_cluster", hot=True),
    Hook("projection.loss_terms_and_gradient", "projection", "loss_terms_and_gradient",
         hot=True),
    Hook("projection.save_model", "projection", "save_model"),
    Hook("projection.load_model", "projection", "load_model"),
    Hook("training.train", "training", "train"),
    Hook("training.adam_step", "training", "adam_step", hot=True),
    # validation-based model selection is the only caller of hit_at
    Hook("training.validation", "evaluation", "hit_at"),
    Hook("evaluation.evaluate", "evaluation", "evaluate", observe=_observe_evaluate),
    Hook("evaluation.predict_candidates", "evaluation", "predict_candidates"),
    Hook("cli.Manifest.add_input", "cli", "Manifest.add_input", hot=True),
]

LAYERS = ("embeddings", "dataset", "clustering", "projection", "training", "evaluation", "cli")
