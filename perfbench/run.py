"""textloop benchmark: replay one workload, check its outputs, report metrics.

    python3 perfbench/run.py --workload corridor-long --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  Each workload is a closed loop with one
client: sensor records go in log order, each handed over when the previous
call has returned, so per-frame times are service times (the sensor runs at
10 Hz, so a frame slower than 100 ms falls behind real time).  A pass runs
the workload's stages one after another, each in a process of its own
(``stage.py``).  Passes run side by side in rounds, one pass per CPU on at
most MAX_LANES CPUs, each pass pinned to its CPU.  Pass k replays the inputs
of seed ``episode_seed(seed, k)``; a run makes rounds until it has the
workload's ``episodes`` passes and ``--seconds`` have gone by, and every
metric is the median over its passes.  The work a replay does varies from
seed to seed (which detections the sensor model drops decides how many
candidates reach ICP), so more passes per run average that variation out.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs an untraced
pass and a traced pass on the same inputs, side by side, and prints the
per-layer metrics, the tracing overhead among them.  Every run writes its
full record (environment, parameters, digests, metrics) under
``.perfbench_out/`` and prints, as its last line, ``{"correct",
"attempted", "failed", "metrics"}``.  A failed output check prints its
reason and makes the exit status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
OUT_ROOT = os.path.join(ROOT, ".perfbench_out")

sys.path.insert(0, HERE)
import speed  # noqa: E402
from workloads import DEMO_INI, QUICK_CLI, WORKLOADS  # noqa: E402

# a run must end within 180 s; stage processes get what is left of this
RUN_DEADLINE_S = 170.0
EPISODE_STRIDE = 100_003
# passes run side by side, one per CPU, on at most this many CPUs
MAX_LANES = 2
SETUP_SAMPLES = 5
FRAME_BUDGET_MS = 100.0
# stage processes pin themselves to one CPU (speed.py), so native thread
# pools get one thread each instead of contending for it
THREAD_LIMITS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "setup_s": "s",
    "simulate_s": "s",
    "detect_s": "s",
    "pipeline_s": "s",
    "frame_ms_mean": "ms",
    "frame_ms_p99": "ms",
    "text_frame_ms_p50": "ms",
    "detect_rss_mb": "MB",
    "simulate_rss_mb": "MB",
    "precision": "ratio",
    "recall": "ratio",
}

# reported in the table but not in the result line: they do not apply to
# every workload (signdense does not optimize) or are zero on a good run
REPORTED_ONLY = {
    "optimize_s": "s",
    "evaluate_s": "s",
    "ate_reduction": "ratio",
    "failed_frac": "ratio",
}

PER_LAYER = {
    "logio.read_log.s": "s",
    "logio.read_log.records": "count",
    "logio.read_log.bytes": "bytes",
    "logio.write_log.s": "s",
    "logio.write_log.bytes": "bytes",
    "logio.simulation_to_records.s": "s",
    "logio.read_trajectory.s": "s",
    "simulator.simulate.s": "s",
    "entities.extract_entities.s": "s",
    "entities.extract_entities.calls": "count",
    "entities.extract_entities.self_s": "s",
    "entities.fit_plane_ransac.s": "s",
    "entities.fit_plane_ransac.calls": "count",
    "entities.points_in_region.s": "s",
    "entities.accumulate_local_cloud.s": "s",
    "entities.yield": "ratio",
    "database.observations": "count",
    "database.insert.calls": "count",
    "association.build_ltem.s": "s",
    "association.build_ltem.calls": "count",
    "association.verify_candidate.s": "s",
    "association.verify_candidate.calls": "count",
    "association.verify_candidate.accept_ratio": "ratio",
    "association.solve_consistent_set.s": "s",
    "association.solve_consistent_set.calls": "count",
    "association.graph_size.max": "count",
    "association.relaxed.calls": "count",
    "loop_closure.process_frame.s": "s",
    "loop_closure.process_frame.calls": "count",
    "loop_closure.process_frame.self_s": "s",
    "loop_closure.icp_verify.s": "s",
    "loop_closure.icp_verify.calls": "count",
    "loop_closure.icp_verify.accept_ratio": "ratio",
    "loop_closure.constraints": "count",
    "loop_closure.cloud_points": "count",
    "pose_graph.optimize.s": "s",
    "pose_graph.iterations": "count",
    "pose_graph.edges": "count",
    "pose_graph.cost.s": "s",
    "pose_graph.cost.calls": "count",
    "pose_graph.edge_jacobians.calls": "count",
    "evaluation.make_report.s": "s",
    "stage.detect.s": "s",
    "stage.detect.self_s": "s",
    "trace.overhead_s": "s",
}

RATIOS = {
    "entities.yield": ("entities.extracted", "entities.offered"),
    "association.verify_candidate.accept_ratio": (
        "association.verify_candidate.accepted",
        "association.verify_candidate.calls",
    ),
    "loop_closure.icp_verify.accept_ratio": (
        "loop_closure.icp_verify.accepted",
        "loop_closure.icp_verify.calls",
    ),
}


class CheckFailed(Exception):
    """An output of the program is wrong; the message says which and why."""


def stage_plan(name: str) -> list[str]:
    if WORKLOADS[name]["kind"] == "cli":
        return ["simulate", "detect", "optimize", "evaluate"]
    return ["simulate", "detect"]


def lanes() -> list[int]:
    """The CPUs passes run on, one pass per CPU at a time."""
    return sorted(os.sched_getaffinity(0))[:MAX_LANES]


def child_env(cpu: int) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("TEXTLOOP_")}
    env.update(THREAD_LIMITS, PYTHONPATH=SRC)
    env[speed.CPU_ENV] = str(cpu)
    return env


def run_stage(spec: dict, cpu: int, deadline: float) -> dict:
    """Run one stage process; raise CheckFailed with its stderr if it fails."""
    out = os.path.join(spec["work"], f"result-{spec['stage']}.json")
    spec = dict(spec, out=out)
    left = deadline - time.monotonic()
    if left <= 0:
        raise CheckFailed(f"no time left for stage {spec['stage']}")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "stage.py"), json.dumps(spec)],
            env=child_env(cpu),
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise CheckFailed(f"stage {spec['stage']} did not finish in {left:.0f} s") from exc
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-6:])
        raise CheckFailed(f"stage {spec['stage']} exited with {proc.returncode}:\n{tail}")
    with open(out, "r", encoding="utf-8") as handle:
        return json.load(handle)


def side_by_side(jobs: list, cpus: list[int]) -> list:
    """Run jobs in rounds of len(cpus), each job(cpu) in a thread of its own.

    The threads only wait for stage processes.  Returns each job's result,
    or the CheckFailed it raised, in job order; any other exception is
    raised once its round has ended.
    """
    outcomes: list = [None] * len(jobs)

    def call(index: int, cpu: int) -> None:
        try:
            outcomes[index] = jobs[index](cpu)
        except BaseException as exc:  # recorded, and re-raised below unless a CheckFailed
            outcomes[index] = exc

    for first in range(0, len(jobs), len(cpus)):
        threads = [
            threading.Thread(target=call, args=(index, cpu))
            for index, cpu in zip(range(first, len(jobs)), cpus)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for outcome in outcomes[first:first + len(cpus)]:
            if isinstance(outcome, BaseException) and not isinstance(outcome, CheckFailed):
                raise outcome
    return outcomes


def episode_seed(seed: int, k: int) -> int:
    """Input seed of pass k; pass 0 replays the run's own seed."""
    return seed + EPISODE_STRIDE * k


def run_pass(args, seed: int, work: str, cpu: int, deadline: float, spans_path: str | None = None) -> dict:
    """One replay of the workload on one CPU, every stage in its own process.

    The pass keeps its files in a directory of its own under work, removed
    at the end.  With spans_path the stages run traced and their spans are
    written there.
    """
    pass_work = os.path.join(work, f"pass-{seed}-{'traced' if spans_path else 'plain'}")
    os.makedirs(pass_work)
    try:
        return _run_pass(args, seed, pass_work, os.path.join(work, "demo.ini"), cpu, deadline, spans_path)
    finally:
        shutil.rmtree(pass_work, ignore_errors=True)


def _run_pass(args, seed, work, config, cpu, deadline, spans_path) -> dict:
    workload = WORKLOADS[args.workload]
    scenario, laps = workload["scenario"], workload["laps"]
    if args.quick and workload["kind"] == "cli":
        scenario, laps = QUICK_CLI["scenario"], QUICK_CLI["laps"]
    base = {
        "workload": args.workload,
        "kind": workload["kind"],
        "scenario": scenario,
        "laps": laps,
        "seed": seed,
        "quick": args.quick,
        "optimize": workload["optimize"],
        "work": work,
        "config": config,
        "trace": spans_path is not None,
    }
    results = {}
    for stage in stage_plan(args.workload):
        spans = os.path.join(work, f"spans-{stage}.jsonl")
        results[stage] = run_stage(dict(base, stage=stage, spans=spans), cpu, deadline)
    if spans_path is not None:
        # one file for the pass: each span tagged with the process that made it
        with open(spans_path, "w", encoding="utf-8") as merged:
            for stage in results:
                with open(os.path.join(work, f"spans-{stage}.jsonl"), "r", encoding="utf-8") as part:
                    for line in part:
                        merged.write(json.dumps([stage] + json.loads(line)) + "\n")
    return results


def percentile(values, q: int) -> float:
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[q - 1]


def frame_metrics(latencies: list, text_flags: list) -> dict:
    """Per-frame service times in ms: mean and p99 over all frames, p50 over text frames."""
    text = [x for x, is_text in zip(latencies, text_flags) if is_text]
    return {
        "frame_ms_mean": statistics.fmean(latencies),
        "frame_ms_p99": percentile(latencies, 99),
        "text_frame_ms_p50": statistics.median(text) if text else None,
    }


def pass_metrics(results: dict) -> dict:
    """End-to-end figures of one pass, with the raw counts behind them."""
    seconds: dict[str, float] = {}
    wall_seconds: dict[str, float] = {}
    for result in results.values():
        for name, value in result["seconds"].items():
            seconds[name] = seconds.get(name, 0.0) + value
        for name, value in result["wall_seconds"].items():
            wall_seconds[name] = wall_seconds.get(name, 0.0) + value
    detect = results["detect"]
    latencies = [1000.0 * x for x in detect["latencies"]]
    report = (results.get("evaluate") or detect)["report"]
    m = {
        "simulate_s": seconds["simulate"],
        "detect_s": seconds["detect"],
        "optimize_s": seconds.get("optimize"),
        "evaluate_s": seconds["evaluate"],
        "pipeline_s": sum(seconds.values()),
        **frame_metrics(latencies, detect["text_frames"]),
        "detect_rss_mb": detect["peak_rss_mb"],
        "simulate_rss_mb": results["simulate"]["peak_rss_mb"],
        "precision": report["precision"],
        "recall": report["recall"],
        "ate_reduction": report.get("ate_reduction"),
    }
    info = {
        "latencies_ms": latencies,
        "text_flags": detect["text_frames"],
        "frames_over_budget": sum(1 for x in latencies if x > FRAME_BUDGET_MS),
        "constraints": detect["constraints"],
        "nodes": (results.get("optimize") or detect).get("nodes"),
        "loops_digest": detect["loops_digest"],
        "traj_digest": (results.get("optimize") or detect).get("traj_digest"),
        "report": report,
        "setup_samples": [r["setup_s"] for r in results.values()],
        "wall_seconds": wall_seconds,
        "speed": {stage: r["speed"] for stage, r in results.items()},
    }
    return {"metrics": m, "info": info}


def check_pass(args, one: dict, same_input: dict | None) -> None:
    """Output checks of one pass; raise CheckFailed naming the first that fails.

    same_input is an earlier pass over the same inputs, whose outputs this
    one must reproduce byte for byte.
    """
    info, report = one["info"], one["info"]["report"]
    if info["constraints"] < 1 and not args.quick:
        raise CheckFailed("detect produced no loop constraints")
    frames = len(info["latencies_ms"])
    if info["nodes"] is not None and info["nodes"] != frames:
        raise CheckFailed(f"optimized trajectory has {info['nodes']} poses for {frames} frames")
    for key in ("tp", "fp", "fn"):
        if not isinstance(report[key], int) or report[key] < 0:
            raise CheckFailed(f"report field {key} is {report[key]!r}")
    if same_input is not None:
        for key in ("loops_digest", "traj_digest"):
            if info[key] != same_input["info"][key]:
                raise CheckFailed(f"{key} differs between passes on identical inputs")
    if not WORKLOADS[args.workload]["gated"] or args.quick:
        return
    # the acceptance contract: no false constraint on any seed, and the
    # backend reduces the odometry error (the >= 0.5 median reduction of
    # the contract is taken over seeds, so one run reports its own value)
    if report["fp"] != 0 or report["precision"] != 1.0:
        raise CheckFailed(
            f"precision {report['precision']} with fp {report['fp']}; the contract is 1.0 with fp 0"
        )
    if not report["ate_reduction"] > 0.0:
        raise CheckFailed(f"ate_reduction {report['ate_reduction']} is not positive")


def measure_setup(work: str, samples: list, cpu: int, deadline: float) -> None:
    """Top up the set-up samples of the stage processes with set-up-only ones."""
    while len(samples) < SETUP_SAMPLES:
        spec = {"stage": "setup", "work": work, "config": os.path.join(work, "demo.ini")}
        samples.append(run_stage(spec, cpu, deadline)["setup_s"])


def median_of(passes: list, name: str):
    values = [p["metrics"][name] for p in passes if p["metrics"].get(name) is not None]
    return (statistics.median(values), len(values)) if values else (None, 0)


def layer_metrics(traced: dict, untraced: dict) -> dict:
    """Per-layer figures from the traced pass; absent layers report 0."""
    merged: dict[str, float] = {}
    for result in traced.values():
        for name, value in result.get("layers", {}).items():
            if name.endswith(".max"):
                merged[name] = max(merged.get(name, value), value)
            else:
                merged[name] = merged.get(name, 0) + value
    for name, (num, den) in RATIOS.items():
        merged[name] = merged.get(num, 0) / merged[den] if merged.get(den) else 0.0
    merged["trace.overhead_s"] = traced["detect"]["seconds"]["detect"] - untraced["detect"]["seconds"]["detect"]
    return {name: merged.get(name, 0) for name in PER_LAYER}


def environment(args, cpus: list[int]) -> dict:
    workload = WORKLOADS[args.workload]
    return {
        "nproc": os.cpu_count(),
        "lanes": cpus,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "quick": args.quick,
        "params": dict(workload, quick_cli=QUICK_CLI if args.quick else None, config=DEMO_INI),
        "stage_env": THREAD_LIMITS,
        "speed_reference": {
            "kernel_tree_points": speed.KERNEL_TREE_POINTS,
            "kernel_query_points": speed.KERNEL_QUERY_POINTS,
            "reference_cost_s": speed.REFERENCE_COST_S,
            "period_s": speed.PERIOD_S,
            "frame_window_s": speed.FRAME_WINDOW_S,
        },
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="tiny inputs, for the benchmark's own tests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "textloop", "__init__.py")):
        print(f"error: no textloop package under {SRC}; run from a textloop checkout", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_DEADLINE_S
    os.makedirs(OUT_ROOT, exist_ok=True)
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        with open(os.path.join(work, "demo.ini"), "w", encoding="utf-8") as handle:
            handle.write(DEMO_INI)
        return measure(args, work, tag, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_table(table: dict, passes: list) -> None:
    frames = [len(p["info"]["latencies_ms"]) for p in passes]
    text = [sum(p["info"]["text_flags"]) for p in passes]
    p99 = [round(p["metrics"]["frame_ms_p99"], 1) for p in passes]
    late = [p["info"]["frames_over_budget"] for p in passes]
    print(
        f"passes {len(passes)} (seeds {[p['seed'] for p in passes]})  frames/pass {frames}  "
        f"text frames/pass {text}  p99 ms/pass {p99}  frames over {FRAME_BUDGET_MS:.0f} ms {late}"
    )
    for name, row in table.items():
        value = "n/a" if row["value"] is None else f"{row['value']:.6g}"
        print(f"  {name:20s} {value:>12s} {row['unit']:6s} (n={row['samples']})")
    for p in passes:
        walls = "  ".join(f"{k} {v:.3f} s" for k, v in p["info"]["wall_seconds"].items())
        scales = "  ".join(f"{k} {v:.3f}" for k, v in p["info"]["speed"].items())
        print(f"  unscaled wall: {walls}; speed scale: {scales}")


def measure(args, work: str, tag: str, deadline: float) -> int:
    cpus = lanes()
    env = environment(args, cpus)
    print("env " + json.dumps(env, sort_keys=True))
    passes: list = []
    failures: list[str] = []
    layers = None

    def checked_pass(seed: int, cpu: int) -> dict:
        one = pass_metrics(run_pass(args, seed, work, cpu, deadline))
        one["seed"] = seed
        check_pass(args, one, None)
        return one

    if args.trace:
        spans = os.path.join(OUT_ROOT, f"spans-{tag}.jsonl")
        # the same inputs in both passes: tracing must not change outputs
        untraced, traced = side_by_side(
            [
                lambda cpu: run_pass(args, args.seed, work, cpu, deadline),
                lambda cpu: run_pass(args, args.seed, work, cpu, deadline, spans),
            ],
            cpus,
        )
        try:
            if isinstance(untraced, CheckFailed):
                raise untraced
            one = pass_metrics(untraced)
            one["seed"] = args.seed
            check_pass(args, one, None)
            passes.append(one)
            if isinstance(traced, CheckFailed):
                raise CheckFailed(f"traced pass: {traced}")
            check_pass(args, pass_metrics(traced), one)
            layers = layer_metrics(traced, untraced)
        except CheckFailed as exc:
            failures.append(f"seed {args.seed}: {exc}")
            print(f"FAILED on seed {args.seed}: {exc}", file=sys.stderr)
    else:
        episodes = WORKLOADS[args.workload]["episodes"]
        start = time.monotonic()
        while True:
            round_start = time.monotonic()
            seeds = [episode_seed(args.seed, len(passes) + k) for k in range(len(cpus))]
            jobs = [lambda cpu, seed=seed: checked_pass(seed, cpu) for seed in seeds]
            for seed, outcome in zip(seeds, side_by_side(jobs, cpus)):
                if isinstance(outcome, CheckFailed):
                    failures.append(f"seed {seed}: {outcome}")
                    print(f"FAILED pass on seed {seed}: {outcome}", file=sys.stderr)
                else:
                    passes.append(outcome)
            now = time.monotonic()
            if failures or (len(passes) >= episodes and now - start >= args.seconds):
                break
            if deadline - now < 1.5 * (now - round_start):
                # another round would not end before the deadline
                print(f"stopping after {len(passes)} passes: no time for another round", file=sys.stderr)
                break
    setup = [s for p in passes for s in p["info"]["setup_samples"]]
    try:
        measure_setup(work, setup, cpus[0], deadline)
    except CheckFailed as exc:
        failures.append(str(exc))
        print(f"FAILED setup: {exc}", file=sys.stderr)
    attempted = len(passes) + len(failures)
    table = {}
    for name, unit in {**END_TO_END, **REPORTED_ONLY}.items():
        value, count = median_of(passes, name)
        table[name] = {"value": value, "unit": unit, "samples": count}
    # frame figures pool the frames of every pass
    latencies = [x for p in passes for x in p["info"]["latencies_ms"]]
    text_flags = [t for p in passes for t in p["info"]["text_flags"]]
    if latencies:
        for name, value in frame_metrics(latencies, text_flags).items():
            count = sum(text_flags) if name.startswith("text_") else len(latencies)
            table[name] = {"value": value, "unit": END_TO_END[name], "samples": count}
    table["setup_s"] = {
        "value": statistics.median(setup) if setup else None, "unit": "s", "samples": len(setup),
    }
    table["failed_frac"] = {"value": len(failures) / attempted, "unit": "ratio", "samples": attempted}
    print_table(table, passes)
    if layers is not None:
        for name, unit in PER_LAYER.items():
            print(f"  {name:44s} {layers[name]:>14.6g} {unit}")
    correct = not failures and all(table[name]["value"] is not None for name in END_TO_END)
    if args.trace:
        metrics = {name: {"value": (layers or {}).get(name, 0), "unit": u} for name, u in PER_LAYER.items()}
    else:
        metrics = {name: {"value": table[name]["value"] or 0.0, "unit": u} for name, u in END_TO_END.items()}
    record = {"env": env, "failures": failures, "table": table, "layers": layers, "passes": passes}
    with open(os.path.join(OUT_ROOT, f"result-{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
