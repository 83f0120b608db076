"""One benchmark run: set up a workload, measure it, check its outputs
and turn the measurements into the metrics ``BENCHMARK.json`` names.

An untraced run (``trace=False``) repeats passes until ``seconds`` have
gone by (at least ``MIN_PASSES``) and reports the end-to-end metrics from
each operation's cost in reference loops (see :func:`costs`). A traced run
makes one untraced pass and then one traced pass over the same inputs,
reports the per-layer metrics, and fails when the two passes disagree on
any output.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from nlinstruct import kernels
from nlinstruct.synthetic import CORPUS_DOMAINS

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 5
#: Fewest passes of an untraced run, whatever ``seconds`` says.
MIN_PASSES = 3

END_TO_END = {
    "setup_s": "s",
    "parse_cost": "ref",
    "parse_p90_cost": "ref",
    "experiment_cost": "ref",
    "peak_rss_mb": "MB",
}


@dataclass
class RunResult:
    workload: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> {"value", "unit"}
    record: dict = field(default_factory=dict)  # everything else worth keeping
    report: list[str] = field(default_factory=list)  # human-readable lines

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        })


def git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without running git; None
    outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "kernels_backend": kernels.BACKEND,
        "git_commit": git_commit(),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _metric(value, unit: str) -> dict:
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"non-finite metric value {value!r}")
    return {"value": value, "unit": unit}


def setup(workload, seed: int, repeats: int = SETUP_REPEATS):
    """Set the workload up ``repeats`` times. Returns the last inputs, the
    set-up and corpus times, and whether every repetition made the same
    inputs."""
    times, corpus, prints = [], [], set()
    inputs = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        inputs = workloads.make_inputs(workload, seed)
        times.append(time.perf_counter() - t0)
        corpus.append(inputs.corpus_s)
        prints.add(inputs.fingerprint())
    return inputs, times, corpus, len(prints) == 1


def _totals(passes, sample_field: str, experiment_field: str):
    """Per operation, in pass order, the sum over the passes of one of its
    figures: one per parsed example and one per experiment. Every pass
    visits the same operations in the same order."""
    parse = [sum(getattr(p.samples[i], sample_field) for p in passes)
             for i in range(len(passes[0].samples))]
    experiments = [sum(getattr(p, experiment_field)[i] for p in passes)
                   for i in range(len(passes[0].experiment_s))]
    return parse, experiments


def costs(passes) -> tuple[list[float], list[float]]:
    """Each operation's cost in reference loops: its seconds summed over
    the passes, over the seconds of the reference loops timed around it
    (per pass, the median of the loops just before and just after it)
    summed the same way.

    The machine's speed swings by up to 2x within milliseconds and its mix
    of slow and fast moments drifts over minutes, with whatever else shares
    the host. Those swings slow the reference loop next to an operation as
    much as the operation, so the ratio holds still where seconds do not.
    A ratio of sums, rather than a median of per-pass ratios, because
    single ratios are skewed by how often the machine's speed flips."""
    parse_s, experiment_s = _totals(passes, "seconds", "experiment_s")
    parse_ref, experiment_ref = _totals(passes, "ref_s", "experiment_ref_s")
    return ([s / r for s, r in zip(parse_s, parse_ref)],
            [s / r for s, r in zip(experiment_s, experiment_ref)])


def mean_seconds(passes) -> tuple[list[float], list[float]]:
    """Each operation's mean seconds over the passes, as :func:`costs`."""
    parse_s, experiment_s = _totals(passes, "seconds", "experiment_s")
    return [s / len(passes) for s in parse_s], [s / len(passes) for s in experiment_s]


def percentiles(values: list[float], prefix: str) -> dict:
    """Median and 90th percentile of per-example figures, with their count."""
    p90 = values[0] if len(values) == 1 else statistics.quantiles(
        values, n=10, method="inclusive")[-1]
    return {f"{prefix}p50": statistics.median(values), f"{prefix}p90": p90,
            f"{prefix}samples": len(values)}


def end_to_end_metrics(workload, passes, import_s: float, setup_times) -> dict:
    parse_cost, experiment_cost = costs(passes)
    values = {
        "setup_s": import_s + statistics.median(setup_times),
        "parse_cost": statistics.mean(parse_cost),
        "parse_p90_cost": percentiles(parse_cost, "")["p90"],
        "experiment_cost": (statistics.mean(experiment_cost) if workload.kind == "experiment"
                            else sum(parse_cost)),
        "peak_rss_mb": peak_rss_mb(),
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END.items()}


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced pass
# ---------------------------------------------------------------------------

def _unit(name: str) -> str:
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _workload_time(tracer: tracing.Tracer) -> float:
    """Traced time of the benchmark's top-level operations (examples and
    experiments), the traced counterpart of an untraced pass's time."""
    return sum(end - start for name, start, end, parent, _ in tracer.spans if parent == -1)


def layer_times(tracer: tracing.Tracer) -> dict:
    out = {layer: 0.0 for layer in tracing.LAYERS}
    for (name, _), (_, _, self_s) in tracer.calls.items():
        layer = tracing.layer_of(name)
        if layer is not None:
            out[layer] += self_s
    return out


def per_layer_metrics(tracer, traced: workloads.PassResult, untraced: workloads.PassResult,
                      inputs: workloads.Inputs) -> dict:
    calls = tracer.calls
    counts = tracer.counts

    def total(name, caller=None):
        return sum(rec[1] for (n, c), rec in calls.items()
                   if n == name and (caller is None or c == caller))

    def self_time(name):
        return sum(rec[2] for (n, _), rec in calls.items() if n == name)

    def ncalls(name):
        return sum(rec[0] for (n, _), rec in calls.items() if n == name)

    def ratio(num, den):
        return num / den if den else 0.0

    layers = layer_times(tracer)
    traced_s = _workload_time(tracer)
    untraced_s = untraced.parse_s + sum(untraced.experiment_s)
    analyze_s = total("parser.analyze")
    chart_s = self_time("parser.generate_candidates")
    dot_chart_s = total("kernels.dot", "parser.generate_candidates")
    features_s = total("features.features") + total("features.context")

    per_domain: dict[str, list[float]] = {d: [] for d in CORPUS_DOMAINS}
    for name, start, end, _, example_id in tracer.spans:
        if name == "parser.analyze":
            per_domain[example_id.rsplit("-", 1)[0]].append(end - start)

    values = {f"{layer}.self_s": layers[layer] for layer in tracing.LAYERS}
    values.update({
        "parser.chart_self_s": chart_s,
        "parser.derivations": ncalls("features.features"),
        "parser.roots": counts["roots"],
        "parser.chart_features_dot_pct": 100.0 * ratio(chart_s + features_s + dot_chart_s, analyze_s),
        "features.s": features_s,
        "features.contexts_built": ncalls("features.context"),
        "kernels.dot_chart_s": dot_chart_s,
        "kernels.dot_grad_s": total("kernels.dot", "training.gradient"),
        "kernels.dot_calls": ncalls("kernels.dot"),
        "kernels.add_scaled_s": total("kernels.add_scaled"),
        "kernels.adagrad_update_s": total("kernels.adagrad_update"),
        "logic.execute_to_call_s": total("logic.execute_to_call"),
        "logic.assembly_errors": counts["assembly_errors"],
        "domains.invoke_s": total("domains.invoke"),
        "domains.invoke_calls": ncalls("domains.invoke"),
        "domains.logic_errors": counts["logic_errors"],
        "filter.s": analyze_s - total("parser.generate_candidates", "parser.analyze"),
        "filter.noop_calls": counts["noop_calls"],
        "filter.survivor_ratio": ratio(counts["survivors"], counts["roots"]),
        "filter.invoke_reuse_ratio": 1.0 - ratio(ncalls("domains.invoke"), counts["assembled_calls"]),
        "kb.state_builds": ncalls("kb.state_build"),
        "kb.index_builds": ncalls("kb.index_build"),
        "kb.index_s": total("kb.index_build"),
        "kb.reads": ncalls("kb.read"),
        "kb.read_s": total("kb.read"),
        "training.gradient_s": self_time("training.gradient"),
        "training.no_gold_skips": counts["no_gold_skips"],
        "training.parse_failure_skips": counts["parse_failure_skips"],
        "evaluation.tune_s": total("evaluation.tune"),
        "evaluation.train_s": total("training.gmdp"),
        "evaluation.score_s": sum(rec[1] for (n, c), rec in calls.items()
                                  if n == "evaluation.score_example" and c != "evaluation.tune"),
        "evaluation.registry_accesses": sum(e["registry_accesses"] for e in traced.experiments),
        "synthetic.corpus_s": inputs.corpus_s,
        "accuracy_pct": traced.accuracy_pct,
        "trace.traced_s": traced_s,
        "trace.untraced_s": untraced_s,
        "trace.overhead_s": traced_s - untraced_s,
        "trace.overhead_pct": 100.0 * ratio(traced_s - untraced_s, untraced_s),
        "trace.residual_s": traced_s - sum(layers.values()),
    })
    values.update({f"parse.{d}_s": statistics.mean(v) if v else 0.0 for d, v in per_domain.items()})
    p = percentiles(mean_seconds([untraced])[0], "parse.")
    values.update({"parse.p50_s": p["parse.p50"], "parse.p90_s": p["parse.p90"]})
    return {name: _metric(values[name], _unit(name)) for name in sorted(values)}


def layer_report(metrics: dict, tracer: tracing.Tracer) -> list[str]:
    traced_s = metrics["trace.traced_s"]["value"]
    lines = [
        f"traced {traced_s:.3f} s, untraced {metrics['trace.untraced_s']['value']:.3f} s, "
        f"tracing overhead {metrics['trace.overhead_s']['value']:.3f} s "
        f"({metrics['trace.overhead_pct']['value']:.1f}%)",
        f"{'layer':<12}{'self s':>10}{'share':>9}",
    ]
    rows = [(layer, metrics[f"{layer}.self_s"]["value"]) for layer in tracing.LAYERS]
    rows.append(("residual", metrics["trace.residual_s"]["value"]))
    for layer, seconds in rows:
        share = 100.0 * seconds / traced_s if traced_s else 0.0
        lines.append(f"{layer:<12}{seconds:>10.3f}{share:>8.1f}%")
    for name, m in metrics.items():
        if not name.endswith(".self_s"):
            lines.append(f"  {name} = {m['value']:.6g} {m['unit']}")
    return lines


# ---------------------------------------------------------------------------
# A run
# ---------------------------------------------------------------------------


def run(workload_name: str, seed: int, seconds: float, trace: bool, import_s: float = 0.0,
        workload=None, setup_repeats: int = SETUP_REPEATS) -> RunResult:
    """Set up, measure and check one workload. ``workload`` replaces the
    named definition (the self-test runs shrunken copies)."""
    workload = workload or workloads.WORKLOADS[workload_name]
    inputs, setup_times, corpus_times, same_inputs = setup(workload, seed, setup_repeats)
    problems = [] if same_inputs else ["repeated set-ups made different inputs"]

    passes = []
    start = time.perf_counter()
    while True:
        passes.append(workloads.run_pass(workload, inputs))
        if trace or (len(passes) >= MIN_PASSES and time.perf_counter() - start >= seconds):
            break
    traced = tracer = None
    if trace:
        tracer = tracing.Tracer()
        with tracer:
            traced = workloads.run_pass(workload, inputs, tracer)
        if traced.digest != passes[0].digest:
            problems.append("the traced pass and the untraced pass disagree on the outputs")
    digests = {p.digest for p in passes}
    if len(digests) != 1:
        problems.append("repeated passes over the same inputs disagree on the outputs")
    for p in passes:
        problems.extend(p.problems)

    measured = passes + ([traced] if traced else [])
    parse_cost, experiment_cost = costs(passes)
    parse_s, experiment_s = mean_seconds(passes)
    summary = {
        "parse_s_per_example": statistics.mean(parse_s),
        "experiment_s": statistics.mean(experiment_s) if experiment_s else None,
        "reference_loop_s": statistics.median(
            [s.ref_s for p in passes for s in p.samples] + [r for p in passes for r in p.experiment_ref_s]),
        **percentiles(parse_cost, "parse_cost."),
        **percentiles(parse_s, "parse_s."),
    }
    if trace:
        metrics = per_layer_metrics(tracer, traced, passes[0], inputs)
    else:
        metrics = end_to_end_metrics(workload, passes, import_s, setup_times)
    result = RunResult(
        workload=workload.name, seed=seed, trace=trace,
        correct=not problems,
        attempted=sum(p.attempted for p in measured),
        failed=sum(p.failed for p in measured),
        metrics=metrics,
    )
    result.record = {
        "workload": workload.name,
        "seed": seed,
        "seeds": workloads.sub_seeds(workload, seed),
        "trace": trace,
        "environment": environment(),
        "config": workload.describe(),
        "import_s": import_s,
        "setup_s": setup_times,
        "corpus_s": corpus_times,
        "passes": [{
            "parse_s": p.parse_s,
            "experiment_s": p.experiment_s,
            "experiment_ref_s": p.experiment_ref_s,
            "accuracy_pct": p.accuracy_pct,
            "digest": p.digest,
            "samples": [[s.example_id, s.seconds, s.ref_s, s.credit] for s in p.samples],
        } for p in passes],
        "accuracy_pct": passes[0].accuracy_pct,
        "parse_cost": parse_cost,
        "experiment_cost": experiment_cost,
        "summary": summary,
        "digest": passes[0].digest,
        "failures": [f for p in measured for f in p.failures],
        "problems": problems,
        "metrics": metrics,
    }
    result.report = [
        f"{workload.name} seed {seed} ({'traced' if trace else 'untraced'}, "
        f"{len(passes)} untraced pass{'es' if len(passes) != 1 else ''}): "
        f"accuracy {passes[0].accuracy_pct:.2f}%, digest {passes[0].digest[:16]}, "
        f"{result.attempted} operations, {result.failed} failed",
    ]
    result.report += problems
    if trace:
        result.report += layer_report(metrics, tracer)
        result.record["tracing"] = {
            "traced_digest": traced.digest,
            "spans": tracer.spans,
            "calls": [[n, c, *rec] for (n, c), rec in sorted(tracer.calls.items())],
            "counts": dict(tracer.counts),
        }
    else:
        result.report += [f"  {n} = {m['value']:.6g} {m['unit']}" for n, m in metrics.items()]
        result.report += [f"  ({n} = {v:.6g})" for n, v in summary.items() if v is not None]
    return result


def write_record(result: RunResult) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{result.workload}-seed{result.seed}-trace{int(result.trace)}.json"
    path.write_text(json.dumps(result.record, indent=1))
    return path
