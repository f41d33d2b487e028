"""The noethops benchmark: one workload, timed, checked against goldens.

    python3 perfbench/run.py --workload colon_3var --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src/``.
Each pass is a closed loop of one: a fresh import of ``noethops``, set-up
(building the inputs from the seed), then every result of the workload,
produced and checked.  Passes repeat, single-threaded, until the next one
would end after ``--seconds``; at least one always runs.

Reported times are rescaled to a fixed host speed (``hostspeed.py``): the
host this was written on changes speed by up to 2x within seconds.
``wall_s`` is the median over passes of the time from the end of set-up to
the last result checked; ``setup_s`` the median set-up time (import plus
inputs) over the passes and a few extra set-up-only rounds; ``peak_rss_mb``
the process's peak resident memory.  The measured times and the host speed
are printed too.

``--trace 0`` reports the end-to-end metrics (``BENCHMARK.json``).
``--trace 1`` alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (``tracer.py``); the spans are written to
``.perfbench/spans-<workload>.jsonl``.  The last line of standard output is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass

import hostspeed
import tracer
import workloads

clock = time.perf_counter
SETUP_ROUNDS = 10  # set-up-only rounds per run, on top of each pass's own set-up
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Pass:
    marks: tuple  # sampler marks: start, end of set-up, end of the pass
    outputs: dict | None
    attempted: int
    failed: list[str]
    trace: tracer.PassTrace | None
    # filled in by `measure`, at the sampled host speed
    setup_s: float = 0.0
    wall_s: float = 0.0
    speed: float = 1.0


def setup(workload, seed: int, draw: int, trace: tracer.PassTrace | None = None):
    """Fresh import plus inputs; returns (modules, inputs)."""
    modules = workloads.import_program()
    if trace is not None:
        tracer.install(trace, modules)
    return modules, workload.build(modules, workloads.seeded_rng(seed, draw))


def one_pass(
    workload, seed: int, golden: dict, traced: bool, draw: int = 0, sampler: hostspeed.SpeedSampler | None = None
) -> Pass:
    gc.collect()
    trace = tracer.PassTrace() if traced else None
    mark = sampler.mark if sampler is not None else lambda: (clock(), 0.0)
    if sampler is not None and trace is not None:
        sampler.listener = trace.charge_bookkeeping  # sampling is not work of any layer
    m0 = mark()
    modules, inputs = setup(workload, seed, draw, trace)
    m1 = mark()
    outputs = workload.run(modules, inputs)
    attempted, failed = workload.check(outputs, golden)
    m2 = mark()
    if trace is not None:
        trace.finish()
    if sampler is not None:
        sampler.listener = None
    return Pass((m0, m1, m2), outputs, attempted, failed, trace)


def measure(workload, seed: int, seconds: float, golden: dict, traced: bool):
    """Passes until the next would end after `seconds`; with `traced`, each
    step is an untraced pass followed by a traced one on the same inputs.
    Returns the set-up times of the set-up-only rounds, and the passes."""
    start = clock()
    setup_marks = []
    passes: list[Pass] = []
    with hostspeed.SpeedSampler() as sampler:
        for draw in range(SETUP_ROUNDS):
            gc.collect()
            m0 = sampler.mark()
            setup(workload, seed, draw)
            setup_marks.append((m0, sampler.mark()))
        for draw in itertools.count():
            for p in passes:
                p.outputs = None  # only the last pass's outputs are printed
            step_start = clock()
            passes.append(one_pass(workload, seed, golden, False, draw, sampler))
            if traced:
                passes.append(one_pass(workload, seed, golden, True, draw, sampler))
            now = clock()
            if now + (now - step_start) > start + seconds:
                break
    for p in passes:
        m0, m1, m2 = p.marks
        p.setup_s = sampler.rescale(m0, m1)[0]
        p.wall_s = sampler.rescale(m1, m2)[0]
        p.speed = sampler.rescale(m0, m2)[1]
    return [sampler.rescale(a, b)[0] for a, b in setup_marks], passes


def main(argv=None) -> int:
    all_workloads = workloads.all_workloads()
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(all_workloads))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    workload = all_workloads[args.workload]
    golden = workloads.load_goldens()[workload.name]
    setups, passes = measure(workload, args.seed, args.seconds, golden, bool(args.trace))

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failed]
    untraced = [p for p in passes if p.trace is None]
    traced = [p for p in passes if p.trace is not None]
    wall_s = statistics.median(p.wall_s for p in untraced)
    print(f"# {workload.name} seed {args.seed}: {len(untraced)} untraced and {len(traced)} traced passes")
    raw_wall = statistics.median((p.marks[2][0] - p.marks[1][0]) - (p.marks[2][1] - p.marks[1][1]) for p in untraced)
    speeds = ", ".join(f"{p.speed:.3f}" for p in passes)
    print(f"# measured wall time {raw_wall:.4f} s; host speed per pass (1 = reference): {speeds}")
    for line in workload.summary(passes[-1].outputs):
        print(f"#   {line}")
    for failure in failures[:20]:
        print(f"# FAILED {failure}")

    if traced:
        values = tracer.summarize(
            [p.trace for p in traced], [p.speed for p in traced], [p.wall_s for p in traced], [p.wall_s for p in untraced]
        )
        tracer.write_spans(workloads.ROOT / ".perfbench" / f"spans-{workload.name}.jsonl", [p.trace for p in traced])
        units = tracer.LAYER_METRICS
        top = sorted((v, k) for k, v in values.items() if units[k] == "s")[::-1][:5]
        print("# top self time: " + ", ".join(f"{k} {v:.3f} s" for v, k in top))
    else:
        colon_tests = workload.colon_tests(passes[-1].outputs)
        values = {
            "wall_s": wall_s,
            "setup_s": statistics.median(setups + [p.setup_s for p in passes]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END
        if colon_tests:
            print(f"# colon_tests_per_s {colon_tests / wall_s:.4f} 1/s ({colon_tests} tests per pass)")
    print(f"# failed_frac {len(failures) / attempted:.4f} ({len(failures)} of {attempted} results)")
    for name, value in values.items():
        print(f"# {name} {value} {units[name]}")

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
