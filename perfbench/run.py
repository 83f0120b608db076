"""Run the nlinstruct benchmark.

    python3 perfbench/run.py --workload parse-test-large --seed 5 --seconds 40 --trace 0
    python3 perfbench/run.py --seconds 40     # every workload, default seeds

Run from the root of a source checkout: the package is imported from its
``src/`` directory, never from an installed copy. Progress and a readable
report go to standard output; the last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``). A
JSON record of the run, with its environment, configuration, samples and
(when traced) spans, is written under ``.perfbench/``.

Exit status: 0 for a correct run, 1 when an output check failed (for
example a traced pass that disagrees with the untraced one), 2 when the
benchmark cannot run here at all.
"""

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package():
    """Import the package from this checkout; seconds taken, or an error."""
    if not (SRC / "nlinstruct" / "__init__.py").is_file():
        return None, f"no package source at {SRC / 'nlinstruct'}"
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import nlinstruct

    import harness  # imports every package module the benchmark uses

    seconds = time.perf_counter() - t0
    where = Path(nlinstruct.__file__).resolve()
    if SRC.resolve() not in where.parents:
        return None, f"nlinstruct was imported from {where}, not from {SRC}"
    return seconds, harness


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: each workload's documented seed)")
    ap.add_argument("--seconds", type=float, default=40.0,
                    help="minimum measuring time of an untraced run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_s, harness = _import_package()
    if import_s is None:
        print(f"perfbench: {harness}", file=sys.stderr)
        return 2
    names = list(harness.workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in harness.workloads.WORKLOADS]
    if unknown:
        print(f"perfbench: unknown workload {unknown[0]!r}; choose from "
              f"{', '.join(harness.workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    results = []
    for name in names:
        workload = harness.workloads.WORKLOADS[name]
        seed = workload.default_seed if args.seed is None else args.seed
        result = harness.run(name, seed, args.seconds, bool(args.trace), import_s)
        path = harness.write_record(result)
        print("\n".join(result.report))
        print(f"record: {path.relative_to(ROOT)}", flush=True)
        results.append(result)

    if len(results) == 1:
        print(results[0].line())
    else:
        print(json.dumps({
            "correct": all(r.correct for r in results),
            "attempted": sum(r.attempted for r in results),
            "failed": sum(r.failed for r in results),
            "metrics": {f"{r.workload}/{n}": m for r in results for n, m in r.metrics.items()},
        }))
    return 0 if all(r.correct for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
