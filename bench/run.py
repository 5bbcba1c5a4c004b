"""The ecomplex benchmark: one command, checked outputs.

    python3 bench/run.py --workload {trade_cli,model_cli,kernels_warm} \
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --write-spec

Run it from anywhere inside a checkout; it builds nothing, putting the
checkout's ``src/`` on PYTHONPATH for every process it starts. Inputs come
from --seed. A run, set-up included, ends about --seconds after it starts.
Scratch files go under ``.bench_work/`` in the checkout, and a record of
each run (metadata, every metric and every pass) is kept in
``.bench_work/results/``.

With --trace 0 the run measures the end-to-end metrics; with --trace 1 it
runs the same work under the outside-in tracer (tracer.py) and reports
the per-layer metrics (layers.py) and the tracing overhead. Either way
every output is checked (checks.py) and the last line of stdout is one
JSON object: correct, attempted, failed, metrics.

The workloads and metrics are defined here and in layers.py only.
``--write-spec`` writes them to ``BENCHMARK.json``; a run refuses to start
when that file is missing or says anything else.

Load shape: a closed loop with one client. Each CLI subcommand runs in a
fresh interpreter, as a user runs it, and starts only after the previous
one exits. BLAS is pinned to one thread per process; with more, timings
on a small shared machine spread by a factor of two. NOTES.md says why
each workload exists and which layers it stresses or bypasses.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

BLAS_THREADS = 1
# Set before numpy is imported here, and inherited by every child.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import checks  # noqa: E402
import fixtures  # noqa: E402
from layers import PER_LAYER, layer_metrics, parse_importtime  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

K_FIT = "221"
WARM_WORKERS = 4  # kernels_warm workers per run, each a set-up and a share of the passes
STEP_TIMEOUT = 120.0
PASS_DEADLINE = 100.0  # no pass starts later than this into a run

# What BENCHMARK.json says; --write-spec writes it from these tables.
RUN_SECONDS = 38
WORKLOADS = {
    "trade_cli": "the paper's data path as a user runs it: ingest, metrics, validate, fit-tau "
                 "on a 230x5000 trade CSV; cold imports, CSV parsing, matrix file I/O, dense kernels",
    "model_cli": "the model's path: 100k-sample MC simulate, metrics on the 1.5M-entry world, "
                 "fit-tau; the MC loop and matrix file I/O, through the fitness-underflow path",
    "kernels_warm": "one process, imported and loaded once, runs RCA filter, metrics, "
                    "regressions and tau fit in a loop; bypasses import and file I/O",
}
# name -> (unit, better, bound). Every workload reports all of them in its JSON.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "cpu_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.25),
}
# Step times, printed and recorded where the workload has the step. They
# stay out of the JSON: some workloads lack them, and a single step's time
# spreads too widely between runs here to gate on. wall_s sums them.
STEP_TIMES = ("ingest_s", "simulate_s", "metrics_s", "validate_s", "fit_tau_s")


def spec() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better, "bound": bound}
                       for name, (unit, better, bound) in END_TO_END.items()],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, (unit, better) in PER_LAYER.items()],
    }


TRADE_STEPS = {
    "ingest": ["ingest", "trade.csv"],
    "metrics": ["metrics", "ingest/matrix.txt", "--filter", "rca"],
    "validate": ["validate", "ingest/matrix.txt", "income.csv", "--filter", "rca"],
    "fit_tau": ["fit-tau", "metrics/products.csv", "--K", K_FIT],
}


def model_steps(seed: int) -> dict[str, list[str]]:
    return {
        "simulate": ["simulate", "--mode", "mc", "--K", K_FIT, "--tau", "0.07",
                     "--samples", "100000", "--seed", str(seed)],
        "metrics": ["metrics", "simulate/world.txt"],
        "fit_tau": ["fit-tau", "metrics/products.csv", "--K", K_FIT],
    }


def child_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


class Step:
    """One finished child process: exit code, wall, CPU and peak RSS."""

    def __init__(self, exit_code: int, wall: float, cpu: float, rss_mb: float):
        self.exit_code, self.wall, self.cpu, self.rss_mb = exit_code, wall, cpu, rss_mb


def run_timed(argv: list[str], cwd: Path, log: Path) -> Step:
    """Run argv to completion; stdout/stderr go to log.out/log.err."""
    with open(log.with_suffix(".out"), "wb") as out, open(log.with_suffix(".err"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(STEP_TIMEOUT, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Step(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def cli_argv(args: list[str], out_dir: str, spans: Path | None = None,
             pass_id: str = "") -> list[str]:
    if spans is None:
        return [sys.executable, "-P", "-c", "from ecomplex.cli import entry; entry()",
                *args, "--out-dir", out_dir]
    return [sys.executable, "-X", "importtime", str(BENCH / "tracer.py"), str(spans),
            pass_id, "--", *args, "--out-dir", out_dir]


def cold_import(work: Path, tag: str) -> float:
    """Wall time of one fresh ``python -c "import ecomplex"``: the CLI set-up."""
    step = run_timed([sys.executable, "-P", "-c", "import ecomplex"], work, work / "logs" / tag)
    if step.exit_code != 0:
        raise RuntimeError("import ecomplex failed; see .bench_work logs")
    return step.wall


def dir_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.iterdir() if p.is_file()) if directory.is_dir() else 0


class Ops:
    """Attempted and failed operations, with the reason for each failure,
    and the timings of every pass for the run record."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []
        self.passes: list[dict] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.problems.append(f"{label}: {'; '.join(problems)}")

    @property
    def failed(self) -> int:
        return len(self.problems)


def run_cli(work: Path, steps: dict[str, list[str]], deadline: float, trace: bool,
            content_checks) -> tuple[dict, dict | None, Ops]:
    """Run the pipeline in passes until ``deadline`` (a ``time.time()``);
    return end-to-end and per-layer metrics.

    An untraced run times one cold import before each pass and one after
    the last, so ``setup_s`` samples the same stretch of time as the passes.
    """
    ops = Ops()
    setup = []
    passes = []  # (pass_id, traced, {step: Step})
    traced_procs = []
    begun = time.time()
    while True:
        started = time.time()
        pass_id = f"p{len(passes) + 1}"
        if not trace:
            setup.append(cold_import(work, f"{pass_id}-import"))
        traced = trace and len(passes) % 2 == 1  # a traced run alternates, untraced first
        for name in steps:
            shutil.rmtree(work / name, ignore_errors=True)
        results, digests, written = {}, {}, {}
        for name, args in steps.items():
            spans = work / "logs" / f"{pass_id}-{name}.spans.json" if traced else None
            log = work / "logs" / f"{pass_id}-{name}"
            results[name] = run_timed(cli_argv(args, name, spans, pass_id), work, log)
            digests[name] = checks.file_digests(work / name)
            written[name] = dir_bytes(work / name)
            if traced:
                traced_procs.append({"spans": _load_spans(spans).get("spans", []),
                                     "importtime": parse_importtime(log.with_suffix(".err").read_text()),
                                     "bytes_written": {pass_id: written[name]}})
        passes.append((pass_id, traced, results))
        ops.passes.append({"pass": pass_id, "traced": traced, "setup_s": setup[-1] if setup else None,
                           "steps": {name: vars(step) for name, step in results.items()}})
        if len(passes) == 1:
            first_problems = content_checks()
            first_digests = digests
        for name, step in results.items():
            problems = list(first_problems[name])
            if step.exit_code != 0:
                problems.append(f"exit {step.exit_code}")
            if digests[name] != first_digests[name]:
                problems.append("outputs differ from the first pass")
            ops.record(f"{pass_id} {name}", problems)
        now = time.time()
        # Start another pass only if at least half of one like the last fits,
        # so a run overruns --seconds by at most half a pass.
        if len(passes) >= (2 if trace else 1) and (now + (now - started) / 2 > deadline
                                                   or now - begun > PASS_DEADLINE):
            break
    if not trace:
        setup.append(cold_import(work, "last-import"))

    untraced = [p for p in passes if not p[1]]
    e2e = {"setup_s": statistics.median(setup) if setup else 0.0}
    per_pass = []
    for _, _, results in untraced:
        row = {f"{name}_s": step.wall for name, step in results.items()}
        row.update(wall_s=sum(s.wall for s in results.values()),
                   cpu_s=sum(s.cpu for s in results.values()),
                   peak_rss_mb=max(s.rss_mb for s in results.values()))
        per_pass.append(row)
    for key in per_pass[0]:
        e2e[key] = statistics.median(row[key] for row in per_pass)

    layers = None
    if trace:
        pass_walls = {p[0]: sum(s.wall for s in p[2].values()) for p in passes if p[1]}
        layers = layer_metrics(traced_procs, pass_walls, [row["wall_s"] for row in per_pass])
    return e2e, layers, ops


def _load_spans(path: Path) -> dict:
    """What a traced process wrote; empty when it died before writing."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return {}


def run_warm_worker(work: Path, deadline: float, tag: str, spans: Path | None = None):
    """Run one kernels_warm worker until ``deadline``; return
    (set-up seconds, its JSON, problems)."""
    argv = [sys.executable]
    if spans is not None:
        argv += ["-X", "importtime"]
    argv += [str(BENCH / "warm.py"), "ingest/matrix.txt", "income.csv", repr(deadline)]
    if spans is not None:
        argv.append(str(spans))
    err_path = work / "logs" / f"{tag}.err"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=work, env=child_env(), stdout=subprocess.PIPE,
                                stderr=err, text=True)
        killer = threading.Timer(STEP_TIMEOUT, proc.kill)
        killer.start()
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - start
            rest = proc.stdout.read()
            proc.wait()
        finally:
            killer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
    if ready.strip() != "ready" or proc.returncode != 0:
        return setup, None, [f"worker exit {proc.returncode}, see {err_path.name}"]
    return setup, json.loads(rest.strip().splitlines()[-1]), []


def run_warm(work: Path, deadline: float, trace: bool) -> tuple[dict, dict | None, Ops]:
    """Split the time left until ``deadline`` evenly between workers run one
    after another. Untraced, there are WARM_WORKERS of them, so ``setup_s``
    samples the same stretch of time as the passes; traced, one untraced
    worker and then one traced worker."""
    ops = Ops()
    prep = run_timed(cli_argv(TRADE_STEPS["ingest"], "ingest"), work, work / "logs" / "prep-ingest")
    if prep.exit_code != 0:
        raise RuntimeError(f"ingest of the kernels_warm input failed with exit {prep.exit_code}")

    spans = work / "logs" / "warm.spans.json"
    n_workers = 2 if trace else WARM_WORKERS
    workers = []  # (setup, payload, problems, traced)
    for i in range(n_workers):
        traced = trace and i == 1
        share = (deadline - time.time()) / (n_workers - i)
        workers.append((*run_warm_worker(work, time.time() + share, f"worker{i}",
                                         spans if traced else None), traced))

    reference = None
    for i, (setup, payload, problems, traced) in enumerate(workers):
        if payload is None:
            ops.record(f"worker {i} set-up", problems)
            continue
        warmup = payload["warmup"]
        ops.passes.append({"worker": i, "traced": traced, "setup_s": setup,
                           "passes": [{k: v for k, v in p.items() if k != "facts"}
                                      for p in [warmup, *payload["passes"]]]})
        reference = reference or warmup["digest"]
        first = checks.warm_checks(warmup, fixtures.N_COUNTRIES)
        if warmup["digest"] != reference:
            first.append("warm-up pass differs from the first worker's")
        ops.record(f"worker {i} warm-up", first)
        for k, p in enumerate(payload["passes"]):
            problems = [p["error"]] if not p["ok"] else []
            if p["ok"] and p["digest"] != reference:
                problems.append("pass differs from the warm-up pass")
            ops.record(f"worker {i} pass {k + 1}", problems)

    def passes_of(traced: bool) -> list[dict]:
        return [p for _, payload, _, t in workers if payload and t == traced
                for p in payload["passes"] if p["ok"]]

    untraced = passes_of(False)
    setups = [w[0] for w in workers if w[1] is not None and not w[3]]
    e2e = {"setup_s": statistics.median(setups) if setups else 0.0}
    for key in ("wall_s", "cpu_s", "peak_rss_mb", "metrics_s", "validate_s", "fit_tau_s"):
        e2e[key] = statistics.median(p[key] for p in untraced) if untraced else 0.0

    layers = None
    if trace:
        payload = _load_spans(spans)
        proc = {"spans": payload.get("spans", []), "bytes_written": {},
                "importtime": parse_importtime((work / "logs" / "worker1.err").read_text())}
        pass_walls = {p["pass"]: p["wall_s"] for p in payload.get("passes", [])}
        layers = layer_metrics([proc], pass_walls, [p["wall_s"] for p in untraced])
    return e2e, layers, ops


def run_metadata() -> dict:
    import numpy

    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = done.stdout.strip() or commit
    return {
        "commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": metadata.version("scipy"),
        "blas_threads": BLAS_THREADS,
        "src_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted(SRC.rglob("*.py"))),
    }


def check_spec() -> str | None:
    """Why BENCHMARK.json does not match spec(), or None when it does."""
    try:
        on_disk = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return f"cannot read BENCHMARK.json ({exc}); write it with --write-spec"
    if on_disk != spec():
        return "BENCHMARK.json differs from bench/; rewrite it with --write-spec"
    return None


def print_table(title: str, values: dict, units: dict) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:<40} {value:>16.6g} {units[name]}")


def _exit_on_sigterm(signum, frame):
    # Unwinds through run_timed/run_warm_worker, which stop their child.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    begun = time.time()
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write-spec", action="store_true",
                        help="write BENCHMARK.json from this code's tables and exit")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n", encoding="utf-8")
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    if not (SRC / "ecomplex" / "__init__.py").is_file():
        print(f"error: no ecomplex package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    mismatch = check_spec()
    if mismatch:
        print(f"error: {mismatch}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    deadline = begun + args.seconds
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    try:
        if args.workload == "model_cli":
            e2e, layers, ops = run_cli(work, model_steps(args.seed), deadline, trace,
                                       lambda: checks.model_checks(work))
        else:
            facts = fixtures.write_trade_fixtures(work, args.seed)
            if args.workload == "trade_cli":
                def trade_content():
                    sys.path.insert(0, str(SRC))
                    from ecomplex import estimate_tau

                    return checks.trade_checks(work, facts["countries"], estimate_tau)

                e2e, layers, ops = run_cli(work, TRADE_STEPS, deadline, trace, trade_content)
            else:
                e2e, layers, ops = run_warm(work, deadline, trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    meta = run_metadata()
    error_rate = ops.failed / ops.attempted if ops.attempted else 1.0
    units = {**{k: u for k, (u, _, _) in END_TO_END.items()}, **{k: "s" for k in STEP_TIMES},
             "error_rate": "ratio", **{k: u for k, (u, _) in PER_LAYER.items()}}
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for problem in ops.problems:
        print(f"failed: {problem}")
    if trace:
        print_table("per-layer (traced run; 0 = layer not exercised)", layers, units)
        reported = {name: layers[name] for name in PER_LAYER}
    else:
        print_table("end-to-end (median over passes; setup_s over set-ups)",
                    {**e2e, "error_rate": error_rate}, units)
        reported = {name: e2e[name] for name in END_TO_END}

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta, "end_to_end": e2e, "per_layer": layers,
              "attempted": ops.attempted, "failed": ops.failed, "problems": ops.problems,
              "passes": ops.passes}
    results = WORK_ROOT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{work.name}.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
