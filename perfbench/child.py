"""One benchmark sample in a fresh interpreter.

    python3 perfbench/child.py WORKLOAD SEED TRACE [SPANS_PATH]

WORKLOAD is a key of ``workloads.BUILDERS``, or ``setup`` to stop once
the package is ready.  TRACE is 0 or 1.  ``run.py`` starts this with
``src`` on ``PYTHONPATH`` and prints one JSON object on standard output.
"""

import sys
import time

import speed  # builtin modules only, so the package's import is timed whole

kernel_s = speed.kernel_times(speed.SETUP_KERNELS)
t_start = time.perf_counter()
import nfoldsusy  # noqa: E402
import nfoldsusy.cli  # noqa: E402,F401  (loads every module a command uses)

workload, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
tracer = None
if trace:
    import layers

    tracer = layers.Tracer()
    tracer.install()
nfoldsusy.goldens.corpus()
setup_s = time.perf_counter() - t_start
kernel_s += speed.kernel_times(speed.SETUP_KERNELS)
setup_ref_s = setup_s * speed.KERNEL_REF_S / speed.median(kernel_s)

import json  # noqa: E402
import resource  # noqa: E402
from contextlib import nullcontext  # noqa: E402


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> None:
    result = {"setup_s": setup_s, "setup_ref_s": setup_ref_s, "package": nfoldsusy.__file__}
    if workload == "setup":
        print(json.dumps(result))
        return
    import workloads

    paused = tracer.paused if tracer else nullcontext
    expected = workloads.load_expected()
    with paused():
        ops = workloads.build(workload, seed, expected)

    # The speed probe runs in untraced samples only, so that it adds
    # nothing to the layers' self times.
    probe = None if tracer else speed.Probe()
    outputs: dict[str, object] = {}
    bounds: list[tuple[float, float]] = []
    if probe:
        probe.start()
    t_loop = time.perf_counter()
    for op in ops:
        t0 = time.perf_counter()
        with tracer.op(op.label) if tracer else nullcontext():
            try:
                outputs[op.label] = op.run()
            except (Exception, SystemExit) as exc:  # counted as a failed op
                outputs[op.label] = exc
        bounds.append((t0, time.perf_counter()))
    wall_s = time.perf_counter() - t_loop
    if probe:
        probe.stop()
    rss = peak_rss_mb()

    failures = {}
    with paused():
        for op in ops:
            out = outputs[op.label]
            if isinstance(out, BaseException):
                failures[op.label] = f"raised {type(out).__name__}: {out}"
                continue
            try:
                err = op.check(out)
            except Exception as exc:  # a check that cannot run is a failure
                err = f"check raised {type(exc).__name__}: {exc}"
            if err:
                failures[op.label] = err
        sample_error = workloads.final_check(workload, outputs, expected)

    result.update({
        "wall_s": wall_s,
        "ops": [op.label for op in ops],
        "op_s": [t1 - t0 for t0, t1 in bounds],
        "failures": failures,
        "sample_error": sample_error,
        "peak_rss_mb": rss,
    })
    if probe:
        result["op_ref_s"] = [probe.reference_s(t0, t1) for t0, t1 in bounds]
        result["probe"] = probe.stats()
    if tracer:
        result["layers"] = tracer.summary()
        if len(sys.argv) > 4:
            tracer.write_spans(sys.argv[4])
    print(json.dumps(result))


main()
