"""rbturan benchmark harness.

Runs one workload in a closed loop: one program run at a time, each a fresh
``python -m rbturan`` process (the ladder cache is process-global, so a
repeat inside one process would time a warm cache no user sees), until the
next repetition would overrun ``--seconds``.  Every report is checked for
correctness.  The last stdout line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions); with ``--trace 1`` untraced and traced repetitions alternate
and the metrics are the per-layer ones from the traced runs.  The lines
before the result hold the full report: machine context, seed, input
hashes, sample counts, minima and maxima.

    python3 bench/run.py --workload refute9 --seed 3 --seconds 60 --trace 0
    python3 bench/run.py --workload all            # every workload, both modes

Exit status: 0 correct, 1 some run failed its check, 2 cannot run here.
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
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
DEADLINE_S = 170.0  # one workload's run must end well within 180 s
START_SAMPLES = 5  # set-up samples before the first repetition; one more after each
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))  # metric names, units
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


class Proc:
    """Exit code, wall time, CPU time and peak RSS of one finished program run
    (its whole process tree), measured by ``launch.py``."""

    def __init__(self, argv: list[str], stdout: Path, stderr: Path, deadline: float):
        # no RBTURAN_ overrides; bytecode caching on, as in an installed package
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("RBTURAN_") and k != "PYTHONDONTWRITEBYTECODE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        limit = max(1.0, deadline - time.perf_counter())
        launcher = [sys.executable, str(BENCH / "launch.py"), str(limit), str(stdout), str(stderr)]
        done = subprocess.run(launcher + argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=limit + 10)
        try:
            used = json.loads(done.stdout)
        except ValueError:
            raise workloads.SetupError(f"launcher failed: {done.stderr.strip()}") from None
        self.returncode = used["returncode"]
        self.wall, self.cpu, self.rss_mb = used["wall_s"], used["cpu_s"], used["rss_mb"]
        self.stdout = stdout.read_text(encoding="utf-8", errors="replace")


def cli_argv(*args: str) -> list[str]:
    return [sys.executable, "-m", "rbturan", *args]


def setup_sample(deadline: float) -> float:
    """Interpreter start, ``import rbturan.cli`` and argument parsing."""
    p = Proc(cli_argv("--version"), WORK / "version.out", WORK / "version.err", deadline)
    if p.returncode != 0:
        raise workloads.SetupError(f"`rbturan --version` exited {p.returncode}")
    return p.wall


def run_once(workload, tag: str, traced: bool, deadline: float) -> dict:
    """One repetition: every step of the workload, each a fresh process."""
    wall = cpu = rss = 0.0
    problems: list[str] = []
    spans: list[list] = []
    steps: list[float] = []
    for i, step in enumerate(workload.steps):
        stem = WORK / f"{tag}-{i}"
        if traced:
            spans_path = stem.with_suffix(".spans")
            argv = [sys.executable, str(BENCH / "tracing.py"), str(spans_path), *step.args]
        else:
            argv = cli_argv(*step.args)
        p = Proc(argv, stem.with_suffix(".out"), stem.with_suffix(".err"), deadline)
        wall, cpu, rss = wall + p.wall, cpu + p.cpu, max(rss, p.rss_mb)
        steps.append(p.wall)
        problems += [f"{step.kind}: {m}" for m in check.problems(step.kind, p.returncode,
                                                                  p.stdout, step.input_edges)]
        if traced:
            spans += tracing.load(spans_path)
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": rss, "step_walls": steps,
            "problems": problems, "spans": spans}


def summary(values: list[float], unit: str) -> dict:
    return {"median": statistics.median(values), "min": min(values), "max": max(values),
            "samples": len(values), "unit": unit}


def machine(workload) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit or "unknown (not a git checkout)",
            "jobs": workload.jobs}


def bench(name: str, seed: int, seconds: float, traced: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (full report, result line)."""
    t_setup = time.perf_counter()
    deadline = t_setup + DEADLINE_S
    workload = workloads.build(name, seed, WORK)
    setup_sample(deadline)  # writes the bytecode cache
    setup_walls = [setup_sample(deadline) for _ in range(START_SAMPLES)]
    start = time.perf_counter()
    plain: list[dict] = []
    layers: list[dict] = []
    slowest = 0.0
    while not plain or time.perf_counter() - start + slowest <= seconds:
        t0 = time.perf_counter()
        plain.append(run_once(workload, f"{name}-p{len(plain)}", False, deadline))
        if traced:
            run = run_once(workload, f"{name}-t{len(layers)}", True, deadline)
            run["metrics"] = tracing.layer_metrics(
                run["spans"], run["wall_s"], statistics.median(r["wall_s"] for r in plain))
            layers.append(run)
        setup_walls.append(setup_sample(deadline))  # spread over the run, like the runs
        slowest = max(slowest, time.perf_counter() - t0)
    runs = plain + layers
    failed = sum(1 for r in runs if r["problems"])
    e2e = {key: summary([r[key] for r in plain], UNITS[key])
           for key in ("wall_s", "cpu_s", "peak_rss_mb")}
    e2e["setup_s"] = summary(setup_walls, UNITS["setup_s"])
    report = {
        "workload": name, "seed": seed, "seed_note": workload.seed_note,
        "trace": int(traced), "seconds": seconds, "machine": machine(workload),
        "commands": [" ".join(["rbturan", *s.args]) for s in workload.steps],
        "inputs_sha256": workload.inputs,
        "bench_setup_s": start - t_setup,
        "attempted": len(runs), "failed": failed, "fail_ratio": failed / len(runs),
        "problems": [m for r in runs for m in r["problems"]][:20],
        "end_to_end": e2e,
        "run_walls_s": [r["wall_s"] for r in plain],
        "step_wall_s": {  # median wall of each step: [untraced, traced]
            step.args[0]: [statistics.median(r["step_walls"][i] for r in reps) if reps else None
                           for reps in (plain, layers)]
            for i, step in enumerate(workload.steps)},
    }
    if traced:
        per_layer = {key: statistics.median(r["metrics"][key] for r in layers)
                     for key in layers[0]["metrics"]}
        report["per_layer"] = per_layer
        report["traced_samples"] = len(layers)
        metrics = {m["name"]: {"value": per_layer[m["name"]], "unit": m["unit"]}
                   for m in SPEC["per_layer"]}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]]["median"], "unit": m["unit"]}
                   for m in SPEC["end_to_end"]}
    result = {"correct": failed == 0, "attempted": len(runs), "failed": failed,
              "metrics": metrics}
    return report, result


def table(report: dict) -> str:
    """Untraced end-to-end medians beside the traced per-layer numbers."""
    rows = [f"== {report['workload']} (seed {report['seed']}, jobs {report['machine']['jobs']}, "
            f"{report['attempted']} runs, {report['failed']} failed)"]
    for key, s in report["end_to_end"].items():
        rows.append(f"  {key:<28}{s['median']:>14.4f} {s['unit']:<6} "
                    f"(n={s['samples']}, {s['min']:.4f}..{s['max']:.4f})")
    for key, value in report.get("per_layer", {}).items():
        rows.append(f"  {key:<28}{value:>14.4f} {UNITS[key]}")
    return "\n".join(rows)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="rbturan benchmark")
    ap.add_argument("--workload", required=True, help="certify, refute9 or all")
    ap.add_argument("--seed", type=int, default=0, help="input seed; 0 keeps the natural inputs")
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="measuring time per run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write every report and the result here")
    args = ap.parse_args(argv)
    if args.workload == "all":
        plan = [(name, traced) for name in workloads.WORKLOADS for traced in (False, True)]
    elif args.workload in workloads.WORKLOADS:
        plan = [(args.workload, bool(args.trace))]
    else:
        raise workloads.SetupError(f"unknown workload {args.workload!r}")
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    reports = []
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name, traced in plan:
        report, result = bench(name, args.seed, args.seconds, traced)
        reports.append(report)
        print(json.dumps(report, indent=1))
        print(table(report), file=sys.stderr)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        prefix = f"{name}." if len(plan) > 1 else ""
        merged["metrics"].update({prefix + k: v for k, v in result["metrics"].items()})
    if args.out:
        args.out.write_text(json.dumps({"reports": reports, "result": merged}, indent=1) + "\n")
    print(json.dumps(merged))
    return 0 if merged["correct"] else 1


def cannot_run(why: str) -> None:
    print(f"bench: {why}", file=sys.stderr)
    sys.exit(2)


if __name__ == "__main__":
    if not (SRC / "rbturan" / "__main__.py").is_file():
        cannot_run(f"no rbturan sources at {SRC}; run from a full checkout")
    import check  # noqa: E402
    import rbturan  # noqa: E402
    import tracing  # noqa: E402
    import workloads  # noqa: E402

    if not Path(rbturan.__file__).resolve().is_relative_to(SRC):
        cannot_run(f"rbturan was imported from outside {SRC}")
    try:
        sys.exit(main())
    except workloads.SetupError as exc:
        cannot_run(str(exc))
