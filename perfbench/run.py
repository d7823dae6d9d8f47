"""End-to-end and per-layer benchmark of the moodlyrics pipeline.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``desk-train``, ``paper-len-train`` and
``zipf-infer``. The seed makes the corpus; the package only sees it as a CSV
file read by ``load_corpus``. One run sets up, then repeats identical
measured cycles (every pipeline stage, with its correctness checks) while the
next cycle still fits in ``--seconds``, then checks the whole test split.

``--trace 0`` reports the end-to-end metrics listed in ``BENCHMARK.json``.
A stage's time is the median of all its calls in the run; throughputs divide
the songs a call handles by it. ``setup_s`` is the median wall time of three
fresh set-up processes (interpreter start, imports, corpus generation, CSV
load, split and a warm-up step at the workload's shapes), so work moved into
set-up shows there. The warm-up step takes the first BLAS calls and
allocations, so the first measured cycle is no slower than later ones and is
kept. Predict latency is p50/p90 over every call of a closed loop with one
caller; a run makes at least ``MIN_PREDICT_SAMPLES`` of them, so that p90
has ten or more beyond it.

``--trace 1`` alternates untraced and traced cycles and reports the per-layer
metrics: medians over traced cycles of each layer's figures per cycle (see
``Tracer.layer_metrics``), ``trace.overhead_share`` (traced cycle time over
untraced cycle time, minus one) and counts labelled ``_computed`` that follow
from tensor shapes. Those counts are compared with ``shapes.json``, recorded
from traced runs, to show a drifted workload shape. Spans are written to
``.perfbench_runs/traces/``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. ``fail_ratio`` (failed over
attempted) is printed above it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
RUNS = ROOT / ".perfbench_runs"
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 120
MIN_PREDICT_SAMPLES = 100

# One BLAS thread: the host is shared and small, and a fixed thread count
# keeps run-to-run spread down. Must be set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _import_package() -> None:
    src = ROOT / "src"
    if not (src / "moodlyrics" / "__init__.py").is_file():
        sys.exit(f"error: no moodlyrics package under {src}; run from a full checkout")
    sys.path[:0] = [str(src), str(HERE)]


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: run set-up only, in a fresh process timed by the parent
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment(seed: int) -> dict:
    import ctypes
    import platform

    import numpy as np

    from moodlyrics import _kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads if threads is not None else os.environ["OPENBLAS_NUM_THREADS"],
        "kernels_mode": _kernels.MODE,
        "kernel_backends": _kernels.selected_backends(),
        "cpu_count": os.cpu_count(),
        "seed": seed,
    }


def _setup_seconds(args) -> list[float]:
    """Wall time of fresh processes that only set up, start to exit."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.DEVNULL) as probe:
            # wait() with a timeout polls in sleeps of up to 50 ms, which
            # would round the time; a watchdog thread bounds it instead
            watchdog = threading.Timer(PROBE_TIMEOUT_S, probe.kill)
            watchdog.start()
            try:
                code = probe.wait()
            finally:
                watchdog.cancel()
        times.append(time.perf_counter() - start)
        if code != 0:
            raise subprocess.CalledProcessError(code, command)
    return times


def _median(values) -> float:
    return statistics.median(values) if values else float("nan")


def _end_to_end(st, rec, setup_times) -> dict[str, float]:
    from moodlyrics.cli import EVAL_BATCH
    from workloads import _head

    wl = st.workload
    med = {stage: _median(values) for stage, values in rec.durations.items()}
    nan = float("nan")
    predict_ms = [1e3 * s for s in rec.durations.get("predict", [])]
    sample = len(_head(st.songs, wl.sample_songs))
    return {
        "setup_s": _median(setup_times),
        "train_examples_per_s": len(_head(st.train, wl.train_songs)) * wl.epochs
        / med.get("train", nan),
        "eval_examples_per_s": len(_head(st.test, EVAL_BATCH)) / med.get("eval", nan),
        "predict_ms_p50": _median(predict_ms),
        "predict_ms_p90": statistics.quantiles(predict_ms, n=10)[8] if len(predict_ms) > 1 else nan,
        "vocab_train_s": med.get("vocab", nan),
        "encode_songs_per_s": sample / med.get("encode", nan),
        "nb_train_s": med.get("nb_train", nan),
        "nb_predict_per_s": len(st.test) / med.get("nb_predict", nan),
        "analyze_songs_per_s": sample / med.get("analyze", nan),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


# pad efficiency moves a little with the seed's corpus
PAD_EFFICIENCY_TOLERANCE = 0.03


def _check_shape(st, rec, expected: dict, layer: dict | None) -> None:
    """Corpus and split sizes must match ``shapes.json``. Computed counts
    that differ from it are printed as drift, not failed: a change to the
    program may move them on purpose."""
    for key, want in expected["corpus"].items():
        got = st.shape.get(key)
        rec.check(f"workload shape {key} = {want} (got {got})", got == want)
    if layer is None:
        return
    drifted = [
        (key, want, layer[key]) for key, want in expected["computed"].items() if layer[key] != want
    ]
    pad = layer["tokenizer.pad_efficiency"]
    if abs(pad - expected["pad_efficiency"]) > PAD_EFFICIENCY_TOLERANCE:
        drifted.append(("tokenizer.pad_efficiency", expected["pad_efficiency"], pad))
    for key, want, got in drifted:
        print(f"# shape drift: {key} recorded {want}, measured {got}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_package()
    from workloads import WORKLOADS, setup

    if args.workload not in WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = RUNS / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.setup_probe:
            setup(WORKLOADS[args.workload], args.seed, workdir)
        else:
            _measure(args, WORKLOADS[args.workload], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def _run_cycles(args, st, tracer):
    """Repeat cycles while the next one is expected to end within
    ``--seconds``, and at least until ``MIN_PREDICT_SAMPLES`` predicts have
    been timed. With a tracer, every second cycle is traced."""
    from workloads import Recorder, check_whole_split, run_cycle

    rec = Recorder()
    min_cycles = math.ceil(MIN_PREDICT_SAMPLES / st.workload.calls["predict"])
    cycle_s: dict[bool, list[float]] = {False: [], True: []}
    windows = []
    served = None
    started = time.perf_counter()
    cycles = 0
    while True:
        traced = tracer is not None and cycles % 2 == 1
        if traced:
            tracer.reset()
            tracer.cycle = cycles
            tracer.install()
        cycle_start = time.perf_counter()
        try:
            served = run_cycle(st, rec)
        except Exception:
            rec.attempted += 1
            rec.failed += 1
            traceback.print_exc()
            break
        finally:
            if traced:
                tracer.uninstall()
        cycle_s[traced].append(time.perf_counter() - cycle_start)
        if traced:
            windows.append(tracer.layer_metrics())
        cycles += 1
        elapsed = time.perf_counter() - started
        need_traced = tracer is not None and not cycle_s[True]
        if cycles < min_cycles or need_traced:
            continue
        if elapsed * (cycles + 1) / cycles > args.seconds:
            break
    print(f"# cycles {cycles} ({len(cycle_s[True])} traced) in {time.perf_counter() - started:.1f} s")
    predicts = len(rec.durations.get("predict", []))
    rec.check(
        f"{predicts} predicts timed, at least {MIN_PREDICT_SAMPLES}",
        predicts >= MIN_PREDICT_SAMPLES,
    )
    if served is not None:
        check_whole_split(st, rec, *served)
    return rec, cycle_s, windows


def _measure(args, workload, workdir) -> None:
    from workloads import setup

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = json.loads((HERE / "shapes.json").read_text(encoding="utf-8"))[workload.name]
    setup_times = _setup_seconds(args)
    print("# env " + json.dumps(_environment(args.seed), sort_keys=True))

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    st = setup(workload, args.seed, workdir)
    if tracer is not None:
        tracer.uninstall()
        setup_layers = tracer.layer_metrics()
    print("# workload " + json.dumps({"name": workload.name, **st.shape}, sort_keys=True))

    rec, cycle_s, windows = _run_cycles(args, st, tracer)
    if tracer is None:
        values = _end_to_end(st, rec, setup_times)
        wanted = spec["end_to_end"]
        _check_shape(st, rec, expected, None)
    else:
        values = {key: _median([w[key] for w in windows]) for key in windows[0]} if windows else {}
        for key in ("corpus.load_s", "corpus.split_s"):
            values[key] = setup_layers[key]
        values["trace.overhead_share"] = (
            _median(cycle_s[True]) / _median(cycle_s[False]) - 1.0
            if cycle_s[True] and cycle_s[False] else float("nan")
        )
        wanted = spec["per_layer"]
        _check_shape(st, rec, expected, values if windows else None)
        tracer.dump(RUNS / "traces" / f"{args.workload}-{args.seed}.json")

    metrics = {}
    for entry in wanted:
        value = values.get(entry["name"], float("nan"))
        if not math.isfinite(value):
            rec.failed += 1
            print(f"# metric {entry['name']} was not measured", file=sys.stderr)
            value = 0.0
        metrics[entry["name"]] = {"value": float(value), "unit": entry["unit"]}
        print(f"# {entry['name']:<42} {value:>16.6g} {entry['unit']}")
    print(f"# fail_ratio {rec.failed / max(rec.attempted, 1):.6g} ({rec.failed}/{rec.attempted})")
    result = {
        "correct": rec.failed == 0,
        "attempted": max(rec.attempted, 1),
        "failed": rec.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
