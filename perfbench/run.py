"""End-to-end benchmark of the pspinlab command line.

    python3 perfbench/run.py --workload shatter --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35

Run from the root of a checkout; pspinlab is imported from its ``src``.
Each run calls ``pspinlab.cli.main`` in this process, repeatedly and with
the same inputs (made from ``--seed``), for about ``--seconds`` seconds,
checks every output, and prints a table followed by one JSON result line.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median wall time
of one ``cli.main`` run), ``setup_s`` (median time for a fresh interpreter
to import pspinlab and resolve the config), both scaled to a fixed host
speed (see ``reference_work``), and ``peak_rss_mb`` (peak resident memory
of this process). ``--trace 1`` alternates untraced and
traced runs and reports the per-layer metrics of :mod:`spans`, the
tracing overhead and the peak memory one run allocates. The exit status is nonzero when any check fails.
"""

import os

# one BLAS thread: the single-threaded baseline, and steadier timings;
# set before numpy is first imported, and inherited by the set-up probes
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPANS_DIR = ROOT / ".bench_build" / "perfbench"
SETUP_REPEATS = 5
# wall_s and setup_s are scaled to a host on which reference_work takes
# REFERENCE_S seconds (about its time on the 2-core host the baseline was
# measured on, when that host ran slow); see reference_work
REFERENCE_S = 0.045
REFERENCE_LOOPS = 2500
# what every command-line run pays before its work starts: interpreter
# start, package import, argument parsing and config resolution
SETUP_PROBE = ("import sys\n"
               "from pspinlab import cli\n"
               "cli._resolve_config(cli._build_parser().parse_args(sys.argv[1:]))\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pspinlab" / "__init__.py").is_file():
        print(f"error: no pspinlab sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import pspinlab
    if Path(pspinlab.__file__).resolve().parent != SRC / "pspinlab":
        print(f"error: imported pspinlab from {pspinlab.__file__}",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)} or all")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    workload = WORKLOADS[args.workload]
    run = Run(workload, workload.argv(args.seed))
    if args.trace:
        metrics = run.traced(args.seconds)
    else:
        metrics = run.untraced(args.seconds)
    run.expect(set(units) == set(metrics),
               "metrics differ from those BENCHMARK.json declares")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"argv: pspinlab {' '.join(run.argv)}")
    print(f"{'metric':40s} {'unit':>6s} {'median':>16s} {'n':>4s}")
    for name, (value, n) in metrics.items():
        print(f"{name:40s} {units.get(name, '?'):>6s} {value:16.6g} {n:4d}")
    if args.trace:
        print_references(workload.name, metrics)
    else:
        print("unscaled medians: " + ", ".join(
            f"{k} {v:.6g} s" for k, v in run.unscaled.items()))
    print(f"checks: {run.attempted - run.failed}/{run.attempted} passed")
    for msg in run.failures[:20]:
        print("FAILED: " + msg)
    correct = run.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")}
                    for k, (v, _) in metrics.items()},
    }))
    return 0 if correct else 1


class Run:
    """Runs one workload's command line, checks its outputs, and keeps the
    tally of checks attempted and failed."""

    def __init__(self, workload, argv: list[str]):
        from pspinlab import cli
        from workloads import parse_csv
        self.cli = cli
        self.parse_csv = parse_csv
        self.workload = workload
        self.argv = argv
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.reference: str | None = None  # CSV of the first run
        self.unscaled: dict[str, float] = {}

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(message)

    def once(self) -> tuple[float, dict]:
        """Wall time and resolved config of one checked run."""
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            status = self.cli.main(self.argv)
        wall = time.perf_counter() - t0
        text = buf.getvalue()
        self.expect(status == 0, f"pspinlab exited with status {status}")
        try:
            config, rows = self.parse_csv(text)
            attempted, failures = self.workload.check(config, rows)
        except (ValueError, KeyError) as exc:
            raise SystemExit(f"error: unreadable CSV output: {exc!r}")
        self.attempted += attempted
        self.failed += len(failures)
        self.failures += failures
        if self.reference is None:
            self.reference = text
        else:  # the same inputs must give the same bytes, traced or not
            self.expect(text == self.reference,
                        "CSV differs from the first run's CSV")
        return wall, config

    def untraced(self, seconds: float) -> dict:
        """End-to-end metrics. Each set-up probe and each run is timed
        between two calls of reference_work and scaled by REFERENCE_S over
        their mean, because the host's speed drifts within a run."""
        refs = [reference_work()]
        setup: list[tuple[float, float]] = []  # (seconds, scaled seconds)
        walls: list[tuple[float, float]] = []

        def timed(measure, out):
            t = measure()
            refs.append(reference_work())
            out.append((t, t * REFERENCE_S / (0.5 * (refs[-2] + refs[-1]))))

        for _ in range(SETUP_REPEATS):
            timed(self.setup_once, setup)
        self.repeat(seconds, lambda: timed(lambda: self.once()[0], walls))
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        self.unscaled = {"wall_s": statistics.median(t for t, _ in walls),
                         "setup_s": statistics.median(t for t, _ in setup),
                         "reference_work_s": statistics.median(refs)}
        return {  # name: (median, samples)
            "wall_s": (statistics.median(s for _, s in walls), len(walls)),
            "setup_s": (statistics.median(s for _, s in setup), len(setup)),
            "peak_rss_mb": (peak_mb, 1),
        }

    def traced(self, seconds: float) -> dict:
        from spans import Tracer
        tracer = Tracer()
        plain, traced, layers = [], [], []

        def pair():
            plain.append(self.once()[0])
            tracer.reset()
            tracer.install()
            try:
                wall, config = self.once()
            finally:
                tracer.uninstall()
            traced.append(wall)
            layers.append(tracer.layer_metrics(*self.workload.tensor(config)))
            for name, want in self.workload.expected_counts(config).items():
                got = layers[-1][name]
                self.expect(got == want, f"{name} = {got}, expected {want} "
                                         "from the config")
            for name in self.workload.nonzero:
                self.expect(layers[-1][name] > 0, f"{name} = 0: a binding "
                                                  "the wrappers missed?")

        t0 = time.perf_counter()
        pair()  # also keeps first-call imports and caches out of the peak
        alloc_mb = self.alloc_peak_mb()
        self.repeat(seconds - (time.perf_counter() - t0), pair)
        tracer.write(SPANS_DIR / f"{self.workload.name}-spans.npz")
        metrics = {name: (statistics.median(m[name] for m in layers),
                          len(layers)) for name in layers[0]}
        # pairs run back to back, so their difference sees one host speed
        metrics["trace.overhead_s"] = (
            statistics.median(t - p for t, p in zip(traced, plain)),
            len(traced))
        metrics["cli.alloc_peak_mb"] = (alloc_mb, 1)
        return metrics

    def alloc_peak_mb(self) -> float:
        """Peak memory allocated during one untraced run, Python objects and
        numpy buffers alike, as tracemalloc counts it. Unlike peak_rss_mb it
        leaves out the interpreter and the libraries, so a cache of n^p
        tensors shows in it. tracemalloc slows the run several times; its
        wall time is not reported."""
        tracemalloc.start()
        try:
            self.once()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    @staticmethod
    def repeat(seconds: float, step) -> None:
        """Call ``step`` once, then again while one more call as long as the
        last still ends within ``seconds`` of the start."""
        t0 = time.perf_counter()
        while True:
            t = time.perf_counter()
            step()
            now = time.perf_counter()
            if now - t0 + (now - t) > seconds:
                return

    def setup_once(self) -> float:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, *self.argv],
                              cwd=ROOT, env=env, capture_output=True,
                              timeout=60)
        wall = time.perf_counter() - t0
        self.expect(proc.returncode == 0, "set-up probe failed: "
                    + proc.stderr.decode(errors="replace")[-300:])
        return wall


def reference_work() -> float:
    """Wall time of a fixed computation that does not touch pspinlab: small
    tensor contractions like the lab's, vector operations like the solver's,
    and the Python calls around them.

    The host is shared: on the 2-core host the baseline was measured on,
    the same work ran at speeds up to 1.7x apart, switching within seconds,
    for set-up and compute alike, so unscaled medians of runs minutes apart
    spread by up to 36%. Timed before and after every sample, this
    reference measures the host's speed around it; a change to pspinlab
    does not move it.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    tensor = rng.standard_normal((16, 16, 16))
    vec, x = rng.standard_normal(16), rng.random(512)
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(REFERENCE_LOOPS):
        acc += float(tensor @ vec @ vec @ vec)
        acc += i * float(np.log1p(np.cumsum(x)).sum())
    return time.perf_counter() - t0


def print_references(workload: str, metrics: dict) -> None:
    """Per-call figures beside the seed-commit medians and the figures
    measured before the benchmark existed, so that a mismatch gets
    explained instead of silently replaced."""
    with open(HERE / "baseline.json", encoding="utf-8") as fh:
        baseline = json.load(fh)
    for ref in baseline["references"]:
        if ref["workload"] != workload:
            continue
        name = ref["metric"]
        seed = baseline["per_layer"].get(workload, {}).get(name)
        seed_text = "not recorded" if seed is None else f"{seed:.4g}"
        print(f"reference {name} ({ref['unit']}): now {metrics[name][0]:.4g}, "
              f"seed commit {seed_text}, earlier {ref['figure']}; "
              f"{ref['note']}")


def run_all(args, names: list[str]) -> int:
    """Run every workload in its own process and print one summary table."""
    results = {}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        last = (proc.stdout.strip().splitlines() or [""])[-1]
        results[name] = json.loads(last) if last.startswith("{") else None
        if proc.returncode != 0 or not results[name] \
                or not results[name]["correct"]:
            status = 1
    print("\nsummary")
    for name, res in results.items():
        if res is None:
            print(f"{name:10s} no result")
            continue
        print(f"{name:10s} checks {res['attempted'] - res['failed']}"
              f"/{res['attempted']} passed")
        for metric, m in res["metrics"].items():
            print(f"{name:10s} {metric:40s} {m['value']:16.6g} {m['unit']}")
    return status


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": _src_digest(),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict:
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            out[f"L{level} {kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return out


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None  # an exported checkout: src_sha256 identifies the code
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
