"""The repository's benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload fig6-cell --seed 0 --seconds 25 --trace 0

``--workload`` is one of ``fig6-cell``, ``eval-deploy`` and
``serve-open-loop`` (see ``perfbench/README.md``).  The seed picks the
case, ``seed mod 32``, and the case makes every input, so every seed is
checked against a committed reference entry; ``--seconds`` is how long
the timed part runs.  ``--trace 0`` measures the end-to-end metrics with
tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The run exits with status 1 when an output
differs from the committed reference (``perfbench/reference.json``) or
the case has no entry there, and 2 when the program's source is
missing.  Metric names and units come from ``BENCHMARK.json`` at the
repository root.

Outputs (result with host fingerprint, spans, telemetry) go to
``.perfbench_out/`` under the current directory.  ``--write-reference``
stores this case's checked results as the new reference.
"""

import os

# One BLAS thread per process, set before numpy loads.  With the bundled
# OpenBLAS's default of one thread per CPU, each pool worker's BLAS
# threads spin against the other worker's on the small per-layer GEMMs,
# and identical Fig. 6 cells take 2x-10x as long from one repetition to
# the next; no bound can tell a regression from that noise.  The
# fingerprint records the setting.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SPEC = HERE.parent / "BENCHMARK.json"
REFERENCE = HERE / "reference.json"
#: Cases per budget: the committed reference has an entry for each.
CASES = {"full": 32, "tiny": 1}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fig6-cell", "eval-deploy", "serve-open-loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--budget", choices=("full", "tiny"), default="full",
                        help="work per repetition; 'tiny' is for the benchmark's own tests")
    parser.add_argument("--reference", type=Path, default=REFERENCE)
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--out", type=Path, default=Path(".perfbench_out"))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    # The program runs at its defaults: knobs from the environment are
    # recorded in the fingerprint and then removed.
    repro_env = {k: os.environ.pop(k) for k in sorted(os.environ) if k.startswith("REPRO_")}

    import eval_deploy
    import fig6_cell
    import serve_open_loop
    from common import median, peak_rss_mb
    from host import fingerprint
    from spans import Tracer

    workloads = {"fig6-cell": fig6_cell, "eval-deploy": eval_deploy,
                 "serve-open-loop": serve_open_loop}
    case = args.seed % CASES[args.budget]
    references = json.loads(args.reference.read_text(encoding="utf-8"))
    committed = references.get(args.budget, {}).get(args.workload, {}).get(str(case))
    expected = None if args.write_reference else committed

    out_dir = args.out / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    tracer = Tracer(bool(args.trace))
    host = fingerprint()
    host["repro_env_removed"] = repro_env

    outcome = workloads[args.workload].run(case, args.seconds, tracer, args.budget,
                                           expected, out_dir, SRC)
    if outcome.produced is not None and expected is None and not args.write_reference:
        outcome.check(f"committed reference entry for case {case}", None, "present")

    if args.trace:
        # A traced run reports every layer: the layers another workload
        # exercises are measured on a tiny pass of that workload.
        layers: Dict[str, float] = {}
        for name, module in workloads.items():
            if name != args.workload:
                other = module.run(0, 0.0, Tracer(True), "tiny",
                                   references["tiny"].get(name, {}).get("0"),
                                   out_dir / "tiny" / name, SRC)
                layers.update(other.layers)
                outcome.attempted += other.attempted
                outcome.failed += other.failed
                outcome.mismatches += [f"tiny {name}: {m}" for m in other.mismatches]
                outcome.report.append(f"layers of {name}: measured on its tiny pass")
        layers.update(outcome.layers)
        metrics = {m["name"]: (layers.get(m["name"], 0.0), m["unit"]) for m in spec["per_layer"]}
    else:
        values = {"setup_s": median(outcome.setup_seconds) * outcome.scale(),
                  "peak_rss_mb": peak_rss_mb(),
                  **outcome.metrics}
        metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    correct = outcome.failed == 0 and outcome.attempted > 0

    print(f"perfbench {args.workload} seed={args.seed} case={case} seconds={args.seconds:g} "
          f"trace={args.trace} budget={args.budget}")
    print("host: " + json.dumps(host, sort_keys=True))
    print("setup_s samples: " + ", ".join(f"{s:.4f}" for s in outcome.setup_seconds))
    for line in outcome.report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    reference_note = ("reference written" if args.write_reference else
                      f"committed reference for case {case}" if expected is not None else
                      "served actions against act_single" if outcome.produced is None else
                      f"NO committed reference for case {case}")
    print(f"correctness: {outcome.attempted} checked, {outcome.failed} failed "
          f"(failed_ratio = {outcome.failed / max(outcome.attempted, 1):.6g}; {reference_note})")
    for mismatch in outcome.mismatches:
        print(f"MISMATCH {mismatch}", file=sys.stderr)

    if args.write_reference and correct and outcome.produced:
        references.setdefault(args.budget, {}).setdefault(args.workload, {})[
            str(case)] = outcome.produced
        args.reference.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    (out_dir / f"result-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "host": host, "report": outcome.report,
                    "setup_seconds": outcome.setup_seconds}, indent=1) + "\n",
        encoding="utf-8")
    if tracer.enabled:
        tracer.write(out_dir / f"spans-seed{args.seed}.jsonl")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
