"""One workload process: set up, run studies for a time budget, report JSON.

Started by run.py with the thread pools pinned and PYTHONPATH set to the
checkout's src/. Set-up is `import qclab`, input generation from the seed and
one warm-up operation; it ends when the process is ready to run a study. The
start-up kernel of speed.py brackets it (its own first pass is subtracted).
With --trace 1 untraced and traced studies alternate, so both see the same
machine state. The calibration kernel of speed.py runs before the first study and
after every segment of a study; each segment is rescaled by the kernel
timings around it, and each study is reported as [wall seconds, speed factor].
The last stdout line is one JSON object.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import speed

OUT = Path(__file__).resolve().parent / "out"
IMPORTS = {"certify_wide_m": ("qclab", "qclab.cli")}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--src", required=True, help="the checkout's src/ directory")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    startup_before = speed.startup_kernel_s()
    args = parse_args(argv)
    t = time.perf_counter()
    for name in IMPORTS.get(args.workload, ("qclab",)):
        importlib.import_module(name)
    import_s = time.perf_counter() - t
    qclab = sys.modules["qclab"]
    src = Path(args.src).resolve()
    if src not in Path(qclab.__file__).resolve().parents:
        print(f"qclab was imported from {qclab.__file__}, not from {src}", file=sys.stderr)
        return 3

    import numpy
    import scipy

    from tracer import Tracer, layer_metrics, self_sum
    from workloads import WORKLOADS, Tally

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        t = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        inputs_s = time.perf_counter() - t
        t = time.perf_counter()
        workload.warmup()
        warmup_s = time.perf_counter() - t
        ready = time.monotonic()
        startup_after = speed.startup_kernel_s()
        setup = {
            "setup_s": ready - args.t0 - startup_before,
            "import_s": import_s,
            "inputs_s": inputs_s,
            "warmup_s": warmup_s,
            "speed": speed.scale(startup_before, startup_after, speed.STARTUP_REFERENCE_S),
        }
        if args.setup_only:
            print(json.dumps({"setup": setup}))
            return 0

        speed.kernel_s()        # first pass pays for page faults; not a sample
        cal = [speed.kernel_s()]

        tally = Tally()
        tracer = Tracer() if args.trace else None
        untraced, traced, per_study = [], [], []
        start = time.perf_counter()
        while True:
            tracing = tracer is not None and len(untraced) > len(traced)
            if tracing:
                tracer.install()
            wall = at_reference = 0.0
            try:
                for segment in workload.segments(tally):
                    t = time.perf_counter()
                    segment()
                    dt = time.perf_counter() - t
                    cal.append(speed.kernel_s())
                    wall += dt
                    factor = speed.scale(cal[-2], cal[-1]) ** workload.SPEED_EXPONENT
                    at_reference += dt * factor
            finally:
                if tracing:
                    tracer.uninstall()
            sample = [wall, at_reference / wall]
            if tracing:
                traced.append(sample)
                per_study.append(tracer.take())
            else:
                untraced.append(sample)
            elapsed = time.perf_counter() - start
            typical = statistics.median(w for w, _ in untraced + traced)
            if elapsed + typical > args.seconds and (tracer is None or traced):
                break

    result = {
        "setup": setup,
        "studies": untraced,
        "kernel_s": cal,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "causes": tally.causes,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "summary": workload.summary(),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "qclab": qclab.__version__,
        },
    }
    if tracer is not None:
        scales = [f for _, f in traced]
        result["traced_studies"] = traced
        result["layers"] = layer_metrics(tracer.names, per_study, scales)
        result["self_sum_s"] = self_sum(per_study, scales)
        result["absent"] = tracer.absent
        spans_file = OUT / f"spans-{args.workload}-{args.seed}.json"
        spans_file.write_text(json.dumps({
            "layers": tracer.names,
            "fields": ["layer", "start", "end", "parent", "size", "raised"],
            "last_study_spans": tracer.last_spans,
        }))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
