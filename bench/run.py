"""Benchmark of hostguest scenario runs, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload {spin,shipped,sweeps} --seed N --seconds S --trace {0,1}

The seed generates the workload's job list (see jobs.py); each job is a
generated config that is loaded and run in this process through
``hostguest.scenarios.run_scenario``, as ``hostguest run`` does, and its
outputs are checked (see checks.py). The job list is run in passes until
``--seconds`` have gone by. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics; with ``--trace 1`` the
passes alternate between untraced and traced (see tracer.py) and the object
holds the per-layer metrics. Work files and a detailed record of each run go
to ``.bench_out/`` in the checkout.
"""

import os

# All load comes from one single-threaded process: pin the BLAS pools
# before numpy is loaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import hashlib
import json
import platform
from importlib import metadata
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import numpy as np
import scipy

import checks
import jobs
import tracer

ROOT = Path.cwd()
WORK = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
SETUP_REPEATS = 5
SETUP_CHILD = """
import sys, time
t0 = time.perf_counter()
import hostguest, hostguest.cli
t1 = time.perf_counter()
from hostguest.scenarios import load_config, validate_config
validate_config(load_config(sys.argv[1]))
print(t1 - t0)
"""

END_TO_END_UNITS = {
    "wall_s": "s",
    "job_p50_s": "s",
    "job_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "scenarios.validate_config.calls": "count",
    "scenarios.validate_config.s": "s",
    "scenarios.run_scenario.s": "s",
    "scenarios.run_scenario.self_s": "s",
    "scenarios.artifact_bytes": "bytes",
    "spin.crot_gate.s": "s",
    "kernel.eigh.calls": "count",
    "spin.odmr_spectrum.s": "s",
    "spin.build_spin_hamiltonian.calls": "count",
    "spin.build_spin_hamiltonian.s": "s",
    "spin.diagonalize.calls": "count",
    "spin.diagonalize.s": "s",
    "vibronic.emission_spectrum.s": "s",
    "vibronic.debye_waller.calls": "count",
    "vibronic.quad.calls": "count",
    "dynamics.evolve.s": "s",
    "dynamics.g2_correlation.s": "s",
    "dynamics.steady_state.calls": "count",
    "dynamics.steady_state.s": "s",
    "dynamics.liouvillian.calls": "count",
    "dynamics.solve_ivp.nfev": "count",
    "dynamics.odmr_contrast.s": "s",
    "protocols.raman_memory_efficiency.s": "s",
    "protocols.solve_ivp.nfev": "count",
    "protocols.cavity_response.calls": "count",
    "protocols.cavity_response.s": "s",
    "relaxation.two_phonon_rate.s": "s",
    "screening.ingest.s": "s",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "host.probe_s": "s",
}


def _digest(job: dict) -> str:
    text = json.dumps({"config": job["config"], "files": job["files"]}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def prepare(keys: list[str], run_dir: Path) -> list[dict]:
    """Write each job's generated config (and input files) to its own directory."""
    prepared = []
    for i, key in enumerate(keys):
        job = jobs.make_job(key)
        job["dir"] = run_dir / f"{i:03d}"
        job["dir"].mkdir(parents=True)
        for name, text in job["files"].items():
            (job["dir"] / name).write_text(text)
        (job["dir"] / "config.json").write_text(json.dumps(job["config"], indent=2))
        job["id"] = f"{i:03d}:{key}"
        job["digest"] = _digest(job)
        prepared.append(job)
    return prepared


def run_job(job: dict) -> tuple[float, str | None]:
    """Load and run one config as ``hostguest run`` does; (latency, error)."""
    from hostguest import scenarios

    start = time.perf_counter()
    try:
        config = scenarios.load_config(job["dir"] / "config.json")
        scenarios.run_scenario(config, config_dir=job["dir"])
        error = None
    except Exception as exc:  # a failing job is counted, and the run goes on
        error = f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - start, error


def host_probe() -> float:
    """Seconds for a fixed numpy and interpreter workload. It shows host
    drift between passes and never rescales a metric."""
    a = np.linspace(0.0, 1.0, 256 * 256).reshape(256, 256)
    start = time.perf_counter()
    for _ in range(30):
        a @ a
    sum(i * i for i in range(500_000))
    return time.perf_counter() - start


def run_pass(prepared, references, expected=None, traced_by=None) -> dict:
    """Run every job once, checking each one's outputs after its timer stops.

    ``expected`` holds the manifest digests of an earlier pass; every job
    must write the same bytes again.
    """
    record = {"traced": traced_by is not None, "probe_s": host_probe(), "latencies": [], "manifests": [], "bytes": 0, "failures": []}
    if traced_by:
        traced_by.install()
    try:
        for job in prepared:
            if traced_by:
                traced_by.job = job["id"]
            latency, error = run_job(job)
            problems, manifest = [error] if error else [], None
            if not error:
                files = checks.read_outputs(job["dir"] / "out")
                ref = references.get(job["key"])
                if ref and ref["digest"] != job["digest"]:
                    problems.append("generated config differs from the one the reference was recorded for")
                problems += checks.check_job(job["kind"], files, ref)
                manifest = hashlib.sha256(files.get("manifest.json", b"")).hexdigest()
                record["bytes"] += sum(len(d) for d in files.values())
            i = len(record["manifests"])
            if expected and manifest != expected[i]:
                problems.append("artifacts differ from the first pass")
            record["latencies"].append(latency)
            record["manifests"].append(manifest)
            if problems:
                record["failures"].append({"job": job["id"], "problems": problems})
    finally:
        if traced_by:
            traced_by.restore()
    record["wall_s"] = sum(record["latencies"])
    return record


def measure_setup(config_path: Path) -> tuple[list[float], list[float]]:
    """Cold starts in a child process: (wall seconds, import seconds) each."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    walls, imports = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, str(config_path)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        walls.append(time.perf_counter() - start)
        imports.append(float(out.stdout.split()[-1]))
    return walls, imports


def _blas_threads() -> dict[str, int]:
    """Thread count of each OpenBLAS bundled with numpy and scipy."""
    threads = {}
    for package in (np, scipy):
        libs = Path(package.__file__).resolve().parent.parent / f"{package.__name__}.libs"
        for lib in sorted(libs.glob("*openblas*")):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
                fn = getattr(handle, symbol, None)
                if fn is not None:
                    threads[lib.name] = int(fn())
                    break
    return threads


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    branch = ROOT / ".git" / ref[len("ref: "):]
    return branch.read_text().strip() if branch.is_file() else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "jsonschema": metadata.version("jsonschema"),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "commit": _git_commit(),
    }


def end_to_end(passes, setup_walls) -> dict:
    """Each job's latency is its median over the passes; a pass's wall time
    is the sum of its jobs' latencies."""
    latencies = [median(per_job) for per_job in zip(*(p["latencies"] for p in passes))]
    return {
        "wall_s": sum(latencies),
        "job_p50_s": median(latencies),
        "job_max_s": max(latencies),
        "setup_s": median(setup_walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(plain, traced, tracers, import_times) -> dict:
    totals = [t.layer_totals() for t in tracers]
    values = {}
    for name, unit in PER_LAYER_UNITS.items():
        value = median([t.get(name, 0) for t in totals])
        values[name] = round(value) if unit == "count" and value == round(value) else value
    values["scenarios.artifact_bytes"] = round(median([p["bytes"] for p in traced]))
    values["cli.import_s"] = median(import_times)
    values["trace.overhead_s"] = median([p["wall_s"] for p in traced]) - median([p["wall_s"] for p in plain])
    values["host.probe_s"] = median([p["probe_s"] for p in plain + traced])
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hostguest" / "__init__.py").is_file() or not (ROOT / "scenarios").is_dir():
        print("bench: no src/hostguest or scenarios/ here; run from the root of a checkout", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"bench: missing {REFERENCE.name}; run bench/record_reference.py", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import hostguest

    if not Path(hostguest.__file__).resolve().is_relative_to((ROOT / "src").resolve()):
        print(f"bench: hostguest imported from {hostguest.__file__}, not from this checkout", file=sys.stderr)
        return 2
    references = json.loads(REFERENCE.read_text())["entries"]

    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    keys = jobs.job_keys(args.workload, args.seed)
    prepared = prepare(keys, run_dir / "jobs")
    warmup = prepare(jobs.warmup_keys(keys), run_dir / "warmup")

    setup_walls, import_times = measure_setup(prepared[0]["dir"] / "config.json")
    warm = run_pass(warmup, references)

    plain, traced, tracers, restored = [], [], [], True
    # Start another pass (or untraced and traced pair) only while it is
    # expected to end within --seconds.
    start = time.perf_counter()
    while not plain or (time.perf_counter() - start) * (len(plain) + 1) / len(plain) <= args.seconds:
        expected = plain[0]["manifests"] if plain else None
        plain.append(run_pass(prepared, references, expected))
        if args.trace:
            tracers.append(tracer.Tracer())
            before = tracer.snapshot()
            traced.append(run_pass(prepared, references, plain[0]["manifests"], tracers[-1]))
            restored = restored and tracer.unchanged(before)

    passes = plain + traced
    attempted = sum(len(p["latencies"]) for p in passes + [warm])
    failures = warm["failures"] + [f for p in passes for f in p["failures"]]
    failed = len(failures)
    if args.trace:
        metrics = per_layer(plain, traced, tracers, import_times)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end(plain, setup_walls)
        units = END_TO_END_UNITS

    env = environment()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": env,
        "jobs": keys,
        "setup_walls_s": setup_walls,
        "import_s": import_times,
        "passes": [
            {k: p[k] for k in ("traced", "wall_s", "probe_s", "latencies", "bytes")} for p in passes
        ],
        "failures": failures,
        "wrappers_restored": restored,
        "metrics": metrics,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{name}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = {
            "fields": ["name", "start", "end", "parent", "job"],
            "passes": [{"spans": t.spans, "job_counts": t.job_counts()} for t in tracers],
        }
        (results / f"{name}-spans.json").write_text(json.dumps(spans))
    shutil.rmtree(run_dir, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs/pass {len(prepared)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("probe_s per pass " + " ".join(f"{p['probe_s']:.4f}" for p in passes))
    for key, value in metrics.items():
        print(f"  {key:40s} {value:.6g} {units[key]}")
    # failed_ratio is carried by "failed" and "attempted" in the JSON line;
    # a JSON metric must never read 0.
    print(f"  {'failed_ratio':40s} {failed / attempted:.6g} ratio ({failed} of {attempted} jobs)")
    for failure in failures[:10]:
        print(f"FAILED {failure['job']}: {'; '.join(failure['problems'])}")
    if not restored:
        print("FAILED: a traced function was not restored after a traced pass")
    result = {
        "correct": failed == 0 and restored,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
