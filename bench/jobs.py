"""Seeded job lists for the three benchmark workloads.

Every job is a variant of a shipped config under ``scenarios/``. Variants
come from a fixed pool: variant ``v`` of a kind is drawn from a
``random.Random`` seeded with the pool key, and variant 0 is the shipped
config itself where the workload allows it. ``record_reference.py`` ran every
pool entry once and stored its outputs in ``reference.json``, so each job can
be checked against a recorded reference whatever the run seed.

The run seed picks the variant of every job slot and the order of the jobs.
The slots themselves (kinds, grid sizes, sweep lengths) are fixed per
workload, so the work in one pass barely depends on the seed.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

SCENARIOS = Path("scenarios")
WORKLOADS = ("spin", "shipped", "sweeps")

POOL = 6  # variants per kind and size
CROT_POOL = 4  # crot variants cost 4-5 s each to record

# shipped workload: (kind, size field, sizes); two jobs per size, so six
# per kind. Kinds without a size field list the size 0 three times.
SHIPPED_SLOTS = (
    ("spin_spectrum", "grid.points", (1801, 3601, 7201)),
    ("emission_spectrum", "grid.points", (4001, 8001, 16001)),
    ("cavity_interface", "grid.points", (1201, 2401, 4801)),
    ("lindblad", "times.points", (501, 1001, 2001)),
    ("g2", "taus.points", (401, 801, 1601)),
    ("screening", "rows", (100, 1000, 4000)),
    ("odmr", None, (0, 0, 0)),
    ("optomech", None, (0, 0, 0)),
    ("relaxation_classify", None, (0, 0, 0)),
    ("raman_memory", None, (0, 0, 0)),
)
JOBS_PER_SIZE = 2

# sweeps workload: kind -> (swept path, point count, value range). The
# optomech and cavity_interface lengths are the smallest that still show
# the per-point re-validation of the whole sweep list (quadratic in length)
# and the per-point artifacts that are rendered and discarded.
SWEEP_SLOTS = {
    "optomech": ("g0.value", 400, (50.0, 150.0)),
    "cavity_interface": ("g.value", 200, (0.1, 0.6)),
    "emission_spectrum": ("model.temperature.value", 16, (2.0, 40.0)),
    "lindblad": ("system.rabi.value", 32, (1.0, 10.0)),
    "g2": ("system.decay.value", 32, (2.0, 10.0)),
    "raman_memory": ("storage_hold.value", 24, (1e-7, 5e-6)),
}

# spin workload: crot plus ODMR spectra with this many I = 1/2 nuclei
# (dimension 3 * 2**n = 48, 192, 384). Dimension 768 takes about 17 s per
# spectrum at the commit that defined the benchmark and is left out.
SPIN_NUCLEI = (4, 6, 7)


def shipped_config(kind: str) -> dict:
    return json.loads((SCENARIOS / f"{kind}.json").read_text())


def _scale(node: dict, rng: random.Random, lo: float, hi: float) -> None:
    node["value"] = node["value"] * rng.uniform(lo, hi)


def _vary_spin_spectrum(p, rng):
    s = p["spin_system"]
    _scale(s["zfs_d"], rng, 0.9, 1.1)
    _scale(s["zfs_e"], rng, 0.5, 1.0)
    s["magnetic_field_tesla"] = [rng.uniform(-5e-4, 5e-4) for _ in range(3)]
    _scale(p["linewidth"], rng, 0.8, 1.2)


def _hyperfine_nuclei(p, rng, count):
    s = p["spin_system"]
    s["magnetic_field_tesla"] = [
        rng.uniform(-1e-3, 1e-3),
        rng.uniform(-1e-3, 1e-3),
        rng.uniform(1e-3, 3e-3),
    ]
    nuclei = []
    for _ in range(count):
        perp, par = rng.uniform(0.2, 2.0), rng.uniform(2.0, 10.0)
        t = [[perp, 0.0, 0.0], [0.0, perp * rng.uniform(0.8, 1.2), 0.0], [0.0, 0.0, par]]
        for i, j in ((0, 1), (0, 2), (1, 2)):
            t[i][j] = t[j][i] = rng.uniform(-0.3, 0.3)
        nuclei.append({"spin": "1/2", "hyperfine_tensor": t, "hyperfine_unit": "MHz"})
    s["nuclei"] = nuclei


def _vary_crot(p, rng):
    # The drive frequency and duration fix the Magnus step count, so every
    # variant costs the same as the shipped gate.
    nucleus = p["spin_system"]["nuclei"][0]
    perp = 0.5 * rng.uniform(0.8, 1.2)
    nucleus["hyperfine_tensor"] = [
        [perp, 0.0, 0.0],
        [0.0, perp, 0.0],
        [0.0, 0.0, 4.0 * rng.uniform(0.99, 1.01)],
    ]
    _scale(p["rabi_frequency"], rng, 0.95, 1.05)
    p["drive_axis"] = [1.0, rng.uniform(-0.1, 0.1), 0.0]


def _vary_emission_spectrum(p, rng):
    m = p["model"]
    _scale(m["zpl_frequency"], rng, 0.998, 1.002)
    _scale(m["radiative_rate"], rng, 0.8, 1.2)
    m["temperature"]["value"] = rng.uniform(2.0, 20.0)
    mode = m["vibron_modes"][0]
    _scale(mode["frequency"], rng, 0.9, 1.1)
    mode["huang_rhys"] *= rng.uniform(0.7, 1.3)
    _scale(mode["relaxation_rate"], rng, 0.8, 1.2)
    d = m["phonon_density"]
    d["coupling_weight"] *= rng.uniform(0.8, 1.2)
    _scale(d["peak_frequency"], rng, 0.8, 1.2)
    _scale(d["cutoff_frequency"], rng, 0.9, 1.1)
    _scale(m["extra_linewidth"], rng, 0.8, 1.2)


def _vary_cavity_interface(p, rng):
    _scale(p["g"], rng, 0.8, 1.2)
    _scale(p["kappa"], rng, 0.9, 1.1)
    p["kappa_in"]["value"] = p["kappa_out"]["value"] = 0.5 * p["kappa"]["value"]
    _scale(p["gamma"], rng, 0.8, 1.2)


def _vary_two_level(s, rng):
    _scale(s["rabi"], rng, 0.9, 1.1)
    s["detuning"]["value"] = rng.uniform(-1.0, 1.0)
    _scale(s["decay"], rng, 0.9, 1.1)


def _vary_lindblad(p, rng):
    _vary_two_level(p["system"], rng)
    p["system"]["dephasing"]["value"] = rng.uniform(0.0, 1.0)
    p["initial_state"] = rng.choice(["ground", "excited"])


def _vary_g2(p, rng):
    _vary_two_level(p["system"], rng)


def _vary_screening(p, rng):
    p["criteria"] = {"min_t1_ev": rng.uniform(1.5, 2.2), "max_s1_ev": rng.uniform(3.0, 3.8)}


def _vary_odmr(p, rng):
    for item in p["network"]["rates"]:
        _scale(item["rate"], rng, 0.8, 1.2)
    _scale(p["mw_mixing_rate"], rng, 0.8, 1.2)


def _vary_optomech(p, rng):
    for name in ("g0", "omega_v", "kappa_v", "gamma0"):
        _scale(p[name], rng, 0.8, 1.2)
    p["temperature"]["value"] = rng.uniform(4.0, 300.0)
    p["n_bar"] = rng.uniform(0.5, 2.0)


def _vary_relaxation_classify(p, rng):
    _scale(p["vibron_frequency"], rng, 0.9, 1.1)
    rm = p["rate_model"]
    rm["coupling"] *= rng.uniform(0.8, 1.2)
    rm["temperature"]["value"] = rng.uniform(200.0, 400.0)
    _scale(rm["density"]["peak_frequency"], rng, 0.8, 1.2)
    _scale(rm["density"]["cutoff_frequency"], rng, 0.9, 1.1)


def _vary_raman_memory(p, rng):
    _scale(p["gamma0"], rng, 0.9, 1.1)
    p["detuning"]["value"] = rng.uniform(-5.0, 5.0)
    for pulse in (p["signal_pulse"], p["control_pulse"]):
        _scale(pulse["peak_rabi"], rng, 0.9, 1.1)
        _scale(pulse["width"], rng, 0.9, 1.1)
    _scale(p["storage_hold"], rng, 0.5, 2.0)


_VARY = {
    "spin_spectrum": _vary_spin_spectrum,
    "crot": _vary_crot,
    "emission_spectrum": _vary_emission_spectrum,
    "cavity_interface": _vary_cavity_interface,
    "lindblad": _vary_lindblad,
    "g2": _vary_g2,
    "screening": _vary_screening,
    "odmr": _vary_odmr,
    "optomech": _vary_optomech,
    "relaxation_classify": _vary_relaxation_classify,
    "raman_memory": _vary_raman_memory,
}


def _molecules_csv(rows: int, rng: random.Random) -> str:
    """A screening table of `rows` perturbed copies of the shipped molecules;
    about one row in fifty is malformed so that rejection is exercised."""
    lines = (SCENARIOS / "molecules.csv").read_text().strip().splitlines()
    header, base = lines[0], [line.split(",") for line in lines[1:]]
    out = [header]
    for i in range(rows):
        name, carbons, s1, t1, centro = rng.choice(base)
        if rng.random() < 0.02:
            out.append(f"{name}-{i},{carbons},not-a-number,{t1},{centro}")
            continue
        s1 = float(s1) + rng.uniform(-0.2, 0.2)
        t1 = float(t1) + rng.uniform(-0.2, 0.2)
        out.append(f"{name}-{i},{carbons},{s1!r},{t1!r},{centro}")
    return "\n".join(out) + "\n"


def _set(tree: dict, dotted: str, value) -> None:
    *head, leaf = dotted.split(".")
    for tok in head:
        tree = tree[tok]
    tree[leaf] = value


def make_job(key: str) -> dict:
    """The job for one pool key.

    Keys are ``shipped/<kind>/v<v>/n<size>``, ``sweeps/<kind>/v<v>``,
    ``spin/crot/v<v>`` and ``spin/spin_spectrum/v<v>/nuclei<n>``. Returns
    ``{"key", "kind", "config", "files"}``, where ``files`` holds extra input
    files to write beside the config.
    """
    workload, kind, variant, *rest = key.split("/")
    v = int(variant[1:])
    rng = random.Random(key)
    config = shipped_config(kind)
    params = config["parameters"]
    files = {}
    if workload == "spin" and kind == "spin_spectrum":
        _hyperfine_nuclei(params, rng, int(rest[0][len("nuclei"):]))
    elif v:
        _VARY[kind](params, rng)
    if workload == "shipped" and rest:
        size = int(rest[0][1:])
        if kind == "screening":
            files["molecules.csv"] = _molecules_csv(size, random.Random(key))
        else:
            field = dict((k, f) for k, f, _ in SHIPPED_SLOTS)[kind]
            _set(params, field, size)
    if workload == "sweeps":
        path, count, (lo, hi) = SWEEP_SLOTS[kind]
        sweep_rng = random.Random(key)
        config["sweep"] = {
            "parameter": path,
            "values": sorted(sweep_rng.uniform(lo, hi) for _ in range(count)),
        }
    config["output_dir"] = "out"
    return {"key": key, "kind": kind, "config": config, "files": files}


def _shipped_keys(kind, size, variants):
    suffix = f"/n{size}" if size else ""
    return [f"shipped/{kind}/v{v}{suffix}" for v in variants]


def pool_keys() -> list[str]:
    """Every key a job list can contain, for any seed."""
    keys = [f"spin/crot/v{v}" for v in range(CROT_POOL)]
    keys += [
        f"spin/spin_spectrum/v{v}/nuclei{n}" for n in SPIN_NUCLEI for v in range(POOL)
    ]
    for kind, _, sizes in SHIPPED_SLOTS:
        for size in sorted(set(sizes)):
            keys += _shipped_keys(kind, size, range(POOL))
    keys += [f"sweeps/{kind}/v{v}" for kind in SWEEP_SLOTS for v in range(POOL)]
    return keys


def job_keys(workload: str, seed: int) -> list[str]:
    """The fixed job list of one run: a variant per slot, in seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spin":
        keys = [f"spin/crot/v{rng.randrange(CROT_POOL)}"]
        keys += [
            f"spin/spin_spectrum/v{rng.randrange(POOL)}/nuclei{n}" for n in SPIN_NUCLEI
        ]
    elif workload == "shipped":
        keys = []
        for kind, _, sizes in SHIPPED_SLOTS:
            for size in sizes:
                for v in rng.sample(range(POOL), JOBS_PER_SIZE):
                    keys += _shipped_keys(kind, size, [v])
    elif workload == "sweeps":
        keys = [f"sweeps/{kind}/v{rng.randrange(POOL)}" for kind in SWEEP_SLOTS]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(keys)
    return keys


def warmup_keys(keys: list[str]) -> list[str]:
    """One cheap job per kind in the list, run before timing starts: the
    shipped config at its smallest size. crot is left out; it costs seconds
    at any size and shares its kernels with spin_spectrum."""
    kinds = sorted({key.split("/")[1] for key in keys} - {"crot"})
    sizes = {kind: min(s) for kind, _, s in SHIPPED_SLOTS}
    return [f"shipped/{kind}/v0" + (f"/n{sizes[kind]}" if sizes[kind] else "") for kind in kinds]
