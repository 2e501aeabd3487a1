#!/usr/bin/env python3
"""One benchmark for both pipelines of the Meta-CDN reproduction.

    python3 perfbench/run.py --workload engine-release --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced,
                                        # each in a fresh process

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` is the separate traced run that reports the per-layer
metrics (and the tracing overhead against an untraced pass of the same
run).  Every metric is printed by name with its unit, timings with
their sample count, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result with the host record goes to ``perfbench/out/``, next to the
traced runs' spans.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

from metrics import SPEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    import host

    OUT.mkdir(exist_ok=True)
    started = time.perf_counter()
    if name == "serve-mixed":
        import serve_bench

        result = serve_bench.run(seconds, traced, seed, OUT)
    else:
        import engine_bench

        result = engine_bench.run(name, seconds, traced, OUT)
        result["placement"] = {
            "bench": host.placement("serial engine (workers=1)"),
        }
    result.update(
        workload=name,
        trace=int(traced),
        seed=seed,
        seconds=seconds,
        wall_s=time.perf_counter() - started,
        host=host.record(ROOT, seed),
    )
    result["correct"] = result["failed"] == 0 and not result["problems"]
    path = OUT / _result_name(name, traced, seed)
    path.write_text(json.dumps(result, indent=1, sort_keys=True, default=str))
    return result


def _result_name(name: str, traced: bool, seed: int) -> str:
    return f"{name}-trace{int(traced)}-seed{seed}.json"


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def _timing_line(label: str, unit: str, figures: dict) -> str:
    line = f"  {label:<34} mean {_fmt(figures['mean'])} {unit}, p50 {_fmt(figures['p50'])} {unit}"
    for p in ("p90", "p99"):
        if figures[f"{p}_valid"]:
            line += f", {p} {_fmt(figures[p])} {unit}"
    if figures.get("tail_p") is not None:
        line += (
            f", rule tail p{figures['tail_p']:g} {_fmt(figures['tail'])} {unit} "
            f"({figures['tail_beyond']} beyond)"
        )
    return line + f"  [n={figures['n']}]"


def render(result: dict) -> str:
    from metrics import unit_of

    traced = bool(result["trace"])
    lines = [
        f"== {result['workload']}  trace={result['trace']}  seed={result['seed']}  "
        f"seconds={result['seconds']}  wall={result['wall_s']:.1f}s",
        f"host: {result['host']['cpus']} cpus, python {result['host']['python']}, "
        f"commit {result['host']['commit']}, src {result['host']['source_sha256'][:12]}",
    ]
    for role, place in result.get("placement", {}).items():
        lines.append(f"placement: {role}: {place}")
    lines.append("metrics:")
    for name in _names(result):
        lines.append(
            f"  {name:<46} {_fmt(result['metrics'].get(name, 0.0))} {unit_of(name)}"
        )
    detail = result.get("detail", {})
    if not traced:
        timings = (
            ("setup (setup_s is the p50)", "setup_s", "s"),
            ("steps_per_s", "steps_per_s", "1/s"),
            ("tick latency", "tick_ms", "ms"),
            ("summary_s", "summary_s", "s"),
            ("req latency (req_p50/p99_ms)", "req_ms", "ms"),
            ("dns latency (dns_p50/p99_ms)", "dns_ms", "ms"),
        )
        speed = detail["host_speed"]
        lines.append(
            f"host speed: calibration chunk {speed['chunk_us']:.1f} us over "
            f"{speed['chunks']} samples, reference {speed['reference_chunk_us']:.0f} us, "
            f"timings scaled by {speed['factor']:.4f}"
        )
        for heading, figures in (
            ("by pipeline, at reference speed (timings with sample counts):", detail),
            ("raw, unscaled:", detail["raw"]),
        ):
            lines.append(heading)
            for label, key, unit in timings:
                if key in figures:
                    lines.append(_timing_line(label, unit, figures[key]))
        if "requests" in detail:
            lines.append(f"  req_per_s                          "
                         f"{_fmt(result['metrics']['throughput_per_s'])} 1/s "
                         f"(raw {_fmt(detail['raw']['req_per_s'])})  "
                         f"[n={detail['requests']}]")
    error_rate = result["failed"] / result["attempted"] if result["attempted"] else 0.0
    lines.append(
        f"  error_rate                         {_fmt(error_rate)} "
        f"({result['failed']} of {result['attempted']} attempted)"
    )
    for error in result["errors"][:10]:
        lines.append(f"FAILED: {error}")
    for problem in result["problems"]:
        lines.append(f"CHECK: {problem}")
    lines.append(f"correct: {result['correct']}")
    return "\n".join(lines)


def _names(result: dict) -> list[str]:
    """The metrics a run reports: per-layer when traced, else end-to-end."""
    from metrics import END_TO_END, PER_LAYER

    return list(PER_LAYER if result["trace"] else END_TO_END)


def contract_line(results: list[dict]) -> str:
    """The last line: one JSON object in the benchmark's contract.

    With several runs (``--workload all``) metric names are prefixed
    with the workload.
    """
    from metrics import metric_block

    if len(results) == 1:
        metrics = metric_block(results[0]["metrics"], _names(results[0]))
    else:
        metrics = {
            f"{result['workload']}/{name}": block
            for result in results
            for name, block in metric_block(result["metrics"], _names(result)).items()
        }
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def run_apart(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """One workload in a fresh interpreter, so its peak RSS and heap are its own."""
    child = subprocess.run(
        [sys.executable, __file__, "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        stdout=subprocess.PIPE, text=True,
    )
    lines = child.stdout.splitlines()
    print("\n".join(lines[:-1]), flush=True)
    if child.returncode != 0:
        raise SystemExit(f"perfbench: {name} trace={int(traced)} exited {child.returncode}")
    return json.loads((OUT / _result_name(name, traced, seed)).read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics; 1: per-layer metrics "
                             "(default with --workload all: both)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    modes = (args.trace,) if args.trace is not None else (
        (0, 1) if args.workload == "all" else (0,)
    )
    runs = [(name, bool(mode)) for name in workloads for mode in modes]
    if len(runs) == 1:
        result = run_workload(runs[0][0], args.seed, args.seconds, runs[0][1])
        print(render(result), flush=True)
        results = [result]
    else:
        results = [run_apart(name, args.seed, args.seconds, traced)
                   for name, traced in runs]
    print(contract_line(results), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
