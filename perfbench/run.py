"""qclab benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload converge_large --seed 1 --seconds 30 --trace 0

Run from the root of a qclab checkout. Each workload runs in fresh
single-threaded Python processes (OpenBLAS/OpenMP pools pinned to one
thread, one process at a time): SETUP_RUNS processes measure set-up, then
one more sets up and runs studies for --seconds. With --trace 0 the result
holds the end-to-end metrics; with --trace 1 it holds the per-layer metrics
of BENCHMARK.json. Times are medians rescaled to the reference machine speed
of speed.py; the raw wall medians are per-layer metrics. The line before the
result carries the details: versions, CPU model, every sample with its speed
factor, fitted slopes and failure causes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 5
TIME_LIMIT_S = 170.0
WORKLOADS = ("converge_large", "certify_wide_m", "lab_mixed_small")
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def spawn(args, root: Path, env, deadline: float, setup_only: bool) -> dict:
    """Run one workload process and return its JSON record."""
    t0 = time.monotonic()
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--t0", repr(t0), "--src", str(root / "src"),
    ] + (["--setup-only"] if setup_only else [])
    proc = subprocess.run(
        argv, cwd=root, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - t0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def normalized(samples) -> float:
    """Median of [wall, speed factor] samples at the reference speed."""
    return statistics.median(wall * f for wall, f in samples)


def end_to_end(main: dict, setups: list) -> dict:
    return {
        "setup_s": {"value": normalized([s["setup_s"], s["speed"]] for s in setups), "unit": "s"},
        "study_s": {"value": normalized(main["studies"]), "unit": "s"},
        "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        "ops_ok_frac": {"value": 1.0 - main["failed"] / main["attempted"], "unit": "fraction"},
    }


def per_layer(main: dict, setups: list) -> dict:
    metrics = dict(main["layers"])
    for key in ("import_s", "inputs_s", "warmup_s"):
        metrics[f"setup.{key}"] = {
            "value": normalized([s[key], s["speed"]] for s in setups), "unit": "s",
        }
    metrics["setup.wall_s"] = {
        "value": statistics.median(s["setup_s"] for s in setups), "unit": "s",
    }
    untraced = normalized(main["studies"])
    metrics["study.samples"] = {"value": len(main["studies"]), "unit": "count"}
    metrics["study.wall_s"] = {
        "value": statistics.median(w for w, _ in main["studies"]), "unit": "s",
    }
    metrics["machine.speed"] = {
        "value": speed.REFERENCE_S / statistics.median(main["kernel_s"]), "unit": "ratio",
    }
    metrics["trace.overhead_s"] = {
        "value": normalized(main["traced_studies"]) - untraced, "unit": "s",
    }
    metrics["trace.self_sum_s"] = {"value": main["self_sum_s"], "unit": "s"}
    metrics["trace.absent_spans"] = {"value": len(main["absent"]), "unit": "count"}
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "qclab" / "__init__.py").is_file():
        print(f"no qclab sources under {root / 'src'}; run from a qclab checkout",
              file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_ENV)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [spawn(args, root, env, deadline, True)["setup"] for _ in range(SETUP_RUNS)]
        result = spawn(args, root, env, deadline, False)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "versions": result["versions"],
        "cpu_model": cpu_model(),
        "env": PINNED_ENV,
        "setup_samples": [[s["setup_s"], s["speed"]] for s in setups],
        "study_process_setup": result["setup"],
        "study_samples": result["studies"],
        "traced_study_samples": result.get("traced_studies", []),
        "kernel_samples": result["kernel_s"],
        "self_sum_s": result.get("self_sum_s"),
        "absent_spans": result.get("absent", []),
        "summary": result["summary"],
        "failure_causes": result["causes"],
    }
    if args.trace:
        metrics = per_layer(result, setups)
        self_times = sorted(
            ((m["value"], name) for name, m in metrics.items()
             if name.endswith(".self_s") and name.count(".") == 2),
            reverse=True,
        )
        details["top_self_s"] = [[name, value] for value, name in self_times[:3]]
        details["self_sum_minus_untraced_s"] = (
            metrics["trace.self_sum_s"]["value"] - normalized(result["studies"])
        )
    else:
        metrics = end_to_end(result, setups)
    final = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    record = out / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"details": details, "result": final}, indent=1))
    print(json.dumps(details))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
