"""Per-layer tracing from outside the package.

:meth:`Tracer.install` replaces the package's entry points with timing
wrappers, each where its callers look the name up, and
:meth:`Tracer.uninstall` puts the originals back. Nothing under ``src/``
knows about it.

Calls that happen a few thousand times per pass (examples, training and
scoring calls, experiment phases) are kept as individual spans: name,
start, end, parent span and example id. The hot calls (featurization,
the kernels, call assembly, ``invoke``, state construction and reads;
about a million per pass) only add to a count, a total and a self time
per (name, caller) pair. Everything stays in memory until the run ends.

A name's self time is its total time minus the time of the wrapped calls
nested in it, so the self times of all names add up to the traced time
without counting anything twice.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter

from nlinstruct import evaluation, features, kb, kernels, parser, training
from nlinstruct.errors import DomainLogicError, ExecutionError

LAYERS = ("parser", "features", "kernels", "logic", "domains", "kb", "training", "evaluation")


def _analyze_outcome(tracer, parent, args, result, exc):
    if exc is None:
        tracer.counts["survivors"] += len(result)
        if not result and parent == "training.adagrad":
            tracer.counts["parse_failure_skips"] += 1


def _roots_outcome(tracer, parent, args, result, exc):
    if exc is None:
        tracer.counts["roots"] += len(result)


def _assembly_outcome(tracer, parent, args, result, exc):
    if exc is None:
        tracer.counts["assembled_calls"] += 1
    elif isinstance(exc, ExecutionError):
        tracer.counts["assembly_errors"] += 1


def _invoke_outcome(tracer, parent, args, result, exc):
    if exc is None:
        if result == args[1]:
            tracer.counts["noop_calls"] += 1
    elif isinstance(exc, DomainLogicError):
        tracer.counts["logic_errors"] += 1


def _gradient_outcome(tracer, parent, args, result, exc):
    if exc is None and result is None:
        tracer.counts["no_gold_skips"] += 1


# (owner, attribute, traced name, layer, kept as spans, outcome hook).
# Module-level names are patched in the module their callers read them
# from: the parser imported execute_to_call and invoke into its own
# namespace, evaluation imported gmdp and tune_hyperparameters, while
# kernels.* is read at call time.
ENTRY_POINTS = (
    (parser.Pipeline, "analyze", "parser.analyze", "parser", True, _analyze_outcome),
    (parser, "generate_candidates", "parser.generate_candidates", "parser", True, _roots_outcome),
    (features.UtteranceContext, "__init__", "features.context", "features", False, None),
    (features.UtteranceContext, "features", "features.features", "features", False, None),
    (kernels, "dot", "kernels.dot", "kernels", False, None),
    (kernels, "add_scaled", "kernels.add_scaled", "kernels", False, None),
    (kernels, "adagrad_update", "kernels.adagrad_update", "kernels", False, None),
    (parser, "execute_to_call", "logic.execute_to_call", "logic", False, _assembly_outcome),
    (parser, "invoke", "domains.invoke", "domains", False, _invoke_outcome),
    (kb.State, "__init__", "kb.state_build", "kb", False, None),
    (kb.State, "_build_indexes", "kb.index_build", "kb", False, None),
    (kb.State, "objects", "kb.read", "kb", False, None),
    (kb.State, "subjects", "kb.read", "kb", False, None),
    (kb.State, "subjects_matching", "kb.read", "kb", False, None),
    (kb.State, "pairs", "kb.read", "kb", False, None),
    (kb.State, "entities_of_type", "kb.read", "kb", False, None),
    (training, "example_log_likelihood", "training.gradient", "training", False, _gradient_outcome),
    (training, "adagrad", "training.adagrad", "training", True, None),
    (evaluation, "gmdp", "training.gmdp", "training", True, None),
    (evaluation, "tune_hyperparameters", "evaluation.tune", "evaluation", True, None),
    (evaluation, "score_example", "evaluation.score_example", "evaluation", True, None),
)

LAYER_OF = {name: layer for _, _, name, layer, _, _ in ENTRY_POINTS}
LAYER_OF["run_experiment"] = "evaluation"  # the benchmark's own call


def layer_of(name: str) -> str | None:
    """The layer a traced name belongs to; None for the benchmark's own
    spans, whose self time is the residual."""
    if name.startswith("phase."):
        return "evaluation"
    return LAYER_OF.get(name)


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent span index, example id)
        self.calls: dict[tuple[str, str], list] = {}  # (name, caller) -> [count, total_s, self_s]
        self.counts: Counter = Counter()
        self.example_id: str | None = None
        # open frames: [name, time of nested traced calls, nearest span index]
        self._stack: list[list] = [["root", 0.0, -1]]
        self._saved: list[tuple] = []

    # -- frames --------------------------------------------------------------

    def _open(self, name: str, keep: bool):
        parent = self._stack[-1]
        if keep:
            index = len(self.spans)
            self.spans.append(None)
        else:
            index = parent[2]
        frame = [name, 0.0, index]
        self._stack.append(frame)
        return parent, frame

    def _close(self, parent, frame, keep: bool, start: float, end: float) -> None:
        self._stack.pop()
        total = end - start
        parent[1] += total
        key = (frame[0], parent[0])
        rec = self.calls.get(key)
        if rec is None:
            rec = self.calls[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += total
        rec[2] += total - frame[1]
        if keep:
            self.spans[frame[2]] = (frame[0], start, end, parent[2], self.example_id)

    def _wrap(self, name, keep, hook, fn):
        if keep or hook is not None:
            return self._wrap_general(name, keep, hook, fn)
        # the hot path: no span, no hook, frame handling inlined
        clock = time.perf_counter
        stack = self._stack
        calls = self.calls

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0, parent[2]]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                total = clock() - start
                stack.pop()
                parent[1] += total
                key = (name, parent[0])
                rec = calls.get(key)
                if rec is None:
                    rec = calls[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += total
                rec[2] += total - frame[1]

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_general(self, name, keep, hook, fn):
        clock = time.perf_counter
        is_analyze = name == "parser.analyze"

        def wrapper(*args, **kwargs):
            outer = self.example_id
            if is_analyze:
                self.example_id = args[1].id
            parent, frame = self._open(name, keep)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                self._close(parent, frame, keep, start, clock())
                self.example_id = outer
                if hook is not None:
                    hook(self, parent[0], args, result, exc)

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, example_id: str | None = None):
        """A span around one of the benchmark's own calls."""
        outer = self.example_id
        if example_id is not None:
            self.example_id = example_id
        parent, frame = self._open(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(parent, frame, True, start, time.perf_counter())
            self.example_id = outer

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, _, keep, hook in ENTRY_POINTS:
            own = attr in vars(owner)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original, own))
            setattr(owner, attr, self._wrap(name, keep, hook, original))
        registry = evaluation.InstrumentedRegistry
        in_phase = registry.in_phase
        self._saved.append((registry, "in_phase", in_phase, True))
        tracer = self

        @contextlib.contextmanager
        def traced_phase(instance, phase):
            with tracer.span(f"phase.{phase}"), in_phase(instance, phase):
                yield

        registry.in_phase = traced_phase

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, own = self._saved.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
