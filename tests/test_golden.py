"""Golden fixture: the artifacts of every shipped scenario, pinned by SHA-256.

Criterion 12 only checks that two runs in one process agree; this test
checks that they agree with the recorded outputs, so a refactor that
changes any byte of any artifact fails here. Artifacts are pinned, not
manifest bytes, so provenance fields in the manifest may change freely. A
change that alters outputs on purpose updates the hashes below and says so
in CHANGES.md.

Sweeps are pinned too: each case sweeps one parameter of a shipped config
and pins the bytes of its ``sweep.csv``. The swept values cover each kind
of sweep cell (int, float, string, bool) and the scalar columns cover
floats, bools and strings.
"""

import hashlib
from pathlib import Path

import pytest

from hostguest.scenarios import load_config, run_scenario

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "scenarios"

GOLDEN = {
    "cavity_interface": {
        "response.csv": "99e875e435ede9914a764be0382f7710953b633ba2c19f05ec8a05271bd72860",
        "result.json": "1bedc03080a8c39681befffc7f7cd4aa6dfaf18ae67350d20423a8f01f1b2aa6",
    },
    "crot": {
        "result.json": "b8921a4a8268f446a8c3684ddba81a5f5b0bc1c7e02ee04c7f668d8dc1c44b09",
        "unitary.csv": "96d6c11300aea54f8691edd2b6ec357e01bf3e98e523ca164537e7ea12e3fffa",
    },
    "emission_spectrum": {
        "result.json": "13cdab359a24da3f9e372e05699c6a4e65732c095115da71260ca81ab2c7f717",
        "spectrum.csv": "39892eee9cc069722329b01decee9ddf06e1125657f4a93f36eff2681f3a6b12",
    },
    "g2": {
        "g2.csv": "1935e3bc69ce172c509190c6384ebb9e14fdd1b838fd94b462673d6f4b25190c",
        "result.json": "20b1145158125b0ee572a378683d1d83bcc49cdff1c916ba10e63007a0d56023",
    },
    "lindblad": {
        "result.json": "286f50493aabbd12083afe40b1dedc3efa144f2a98e0bab2200d42a62967ce8a",
        "trajectory.csv": "d7822c24379a88aedabdff4dcf6074c0acfd3f09d208794eb4ef27a31a04d5ab",
    },
    "odmr": {
        "result.json": "5c3aa0949b9479fff69107686631eeb77e32719f7a21474affca3adfb1e377e7",
    },
    "optomech": {
        "result.json": "e9036fc21f554c1d2bd41b202684c5cb5842aca83062f6bc6b455550c76718a8",
    },
    "raman_memory": {
        "result.json": "575b6ab4d6afb50cba06bdd96c5c7b2d7db3c289d610fc0fb649fba249f6c7b2",
    },
    "relaxation_classify": {
        "result.json": "d70465e5364f8a4d8658ae5ff714b575ce5dcb0edcf19bf30f2eac230f995c32",
    },
    "screening": {
        "candidates.csv": "b234b3029b7ecd48b1e7c39c5c44a242f8181bb123234bc6dc6bee3ae850da29",
        "result.json": "9e19f393a7e44a0d242fdb1e586445813cddcf654768166af693f7ba50dfb4be",
    },
    "spin_spectrum": {
        "levels.csv": "05154ae09dba743a8644eb1e3485631f3067a18e2efab77b55ccc226cc5c80f5",
        "result.json": "08141a6c1b25bb1e033124324341ab1fbf3081a827b715d370e92abc274714dd",
        "spectrum.csv": "e750bf444cbd68f1689397be552bd2a24fa9edac263b0f00e26a17484e4a0975",
    },
}


def test_every_shipped_scenario_is_pinned():
    assert sorted(p.stem for p in SCENARIO_DIR.glob("*.json")) == sorted(GOLDEN)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shipped_artifacts_match_golden_hashes(name, tmp_path):
    path = SCENARIO_DIR / f"{name}.json"
    out = run_scenario(load_config(path), SCENARIO_DIR, output_dir=tmp_path / "out")
    hashes = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
        if p.name != "manifest.json"
    }
    assert hashes == GOLDEN[name]


SWEEPS = {
    "cavity_interface_g": (
        "cavity_interface",
        "g.value",
        [0.1, 0.33541019662496846, 1.0],
        "c6f6d5e5c41379f874faeab01292938f6b2b5216db7b7f0024ed2a2cd7189a38",
    ),
    "cavity_interface_emitter_coupled": (
        "cavity_interface",
        "emitter_coupled",
        [True, False],
        "50956252e99f285a31280a4ab35c419548476db63ce01b418396c675b012a504",
    ),
    "optomech_g0": (
        "optomech",
        "g0.value",
        [50, 75.5, 100],
        "a86cd6be54219bb634fa44cb9217a3757451e89ae2faa8573c9087670fa6bd04",
    ),
    "relaxation_classify_vibron_frequency": (
        "relaxation_classify",
        "vibron_frequency.value",
        [0.5, 1.5, 2.5],
        "71276a3bd597a6e8b1e83e67b2c15fd19819413acbaeb9fd424eb48c8c3a7fde",
    ),
    "lindblad_rabi": (
        "lindblad",
        "system.rabi.value",
        [1, 5.0, 20.5],
        "6dd97694072964e6b1514b54fbda5412bf662a051a1215e8a2aba8b5025095cb",
    ),
    "lindblad_initial_state": (
        "lindblad",
        "initial_state",
        ["ground", "excited"],
        "f75c8699ae2d5a4b1a8496d9db77741066b431e468972e5fa9474abe23697cf4",
    ),
    "lindblad_times_points": (
        "lindblad",
        "times.points",
        [101, 501],
        "77a3aa6be7b11ea25dbcf25ae00794238c4209ac2d9e90130d1fde659e9d9b89",
    ),
    "g2_decay": (
        "g2",
        "system.decay.value",
        [2.0, 5.0, 9.5],
        "339d42a24dfd2725acdeb20072f8543bbc8e1277b3d2cc603cc593882be28dd1",
    ),
    "raman_memory_storage_hold": (
        "raman_memory",
        "storage_hold.value",
        [0.0, 1e-6, 1e-4, 1e-3],
        "d0a87714efa7cde9bc1ae58563828c0f6f78e7dea033f8dec9d7cf41a15d5a06",
    ),
    "raman_memory_detuning": (
        "raman_memory",
        "detuning.value",
        [-120.0, 0.0, 37.5],
        "077d6bce80c53561ca8e1c1106d06e8c7ed611ab7843b52f2363555f7c275bad",
    ),
    "spin_spectrum_linewidth": (
        "spin_spectrum",
        "linewidth.value",
        [1, 5, 20],
        "302efe08782b0e8e8d2a90ff94ef0da5139ba5362395bd17de8769e5d9c8fd76",
    ),
    "odmr_mw_mixing_rate": (
        "odmr",
        "mw_mixing_rate.value",
        [0, 1e6, 1e8],
        "7e87ef20387a56f0cad8e9f58a735ddb98ede39c311edbb53816e8f0a91ee835",
    ),
    "g2_taus_points": (
        "g2",
        "taus.points",
        [101, 401],
        "8d3b1afd70475d8a5839743d6ece0123eeefa62d9a59e5ca7fe180e56dfac1f7",
    ),
    "crot_duration": (
        "crot",
        "duration.value",
        [1.6666666666666667e-06, 8.333333333333333e-07],
        "34ee9edb77c38bf8315f8051535747f1df516857319cc89175ab0a1a93f8d5ac",
    ),
}


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_csv_matches_golden_hash(case, tmp_path):
    kind, parameter, values, digest = SWEEPS[case]
    config = load_config(SCENARIO_DIR / f"{kind}.json")
    config["sweep"] = {"parameter": parameter, "values": values}
    out = run_scenario(config, SCENARIO_DIR, output_dir=tmp_path / "out")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "sweep.csv"]
    assert hashlib.sha256((out / "sweep.csv").read_bytes()).hexdigest() == digest
