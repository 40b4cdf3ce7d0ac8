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
        "result.json": "7e498bc110f404080f12bc4f3f237d5ee5f6b8d337e1d5e9db605c9825eaa158",
        "unitary.csv": "2254cbe733f85b621ee53f106b0fc41c266bf0c8f27a5e9d2050de7071c9cb0f",
    },
    "emission_spectrum": {
        "result.json": "13cdab359a24da3f9e372e05699c6a4e65732c095115da71260ca81ab2c7f717",
        "spectrum.csv": "39892eee9cc069722329b01decee9ddf06e1125657f4a93f36eff2681f3a6b12",
    },
    "g2": {
        "g2.csv": "52b2b1e36b4eaa9582a374768e5621e486c98b79062be468b534b6e1651bee66",
        "result.json": "dbcbd229d9f7289ca1092f7d19f77f4b6f9ed5911d9135dad56d488beed590f0",
    },
    "lindblad": {
        "result.json": "653dcac02e581d186cee37d80f5ac3940b1ee5774eb56022eb0680651dcc4837",
        "trajectory.csv": "d7822c24379a88aedabdff4dcf6074c0acfd3f09d208794eb4ef27a31a04d5ab",
    },
    "odmr": {
        "result.json": "691759ab72f6ca4d300bffd1f121de818fbb447d8a9f021d139294df4a6b55ab",
    },
    "optomech": {
        "result.json": "e9036fc21f554c1d2bd41b202684c5cb5842aca83062f6bc6b455550c76718a8",
    },
    "raman_memory": {
        "result.json": "7a863d1f3d802518c75545ec74bff33822045ed04dd1a2fa5a93195c0164414e",
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
        "spectrum.csv": "a5ed17f910c4114cf79e5eb023e0585a7b1ea0985175d2948ccb003eef30b92c",
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
        "484c101d16394c5f46ed60e7e8acd5e0cacc3c872eb4ca92652a05427bff4dcb",
    ),
    "lindblad_initial_state": (
        "lindblad",
        "initial_state",
        ["ground", "excited"],
        "66f3c61b54b0ef8b72059ed9d75c234f2b43b83cd176779f3ede5482f76dc3bf",
    ),
    "raman_memory_storage_hold": (
        "raman_memory",
        "storage_hold.value",
        [0.0, 1e-6, 1e-4, 1e-3],
        "6d239ba73e164521ae4e8641450715eb686b7c0052a321c0b7ee65c5dcdf3234",
    ),
    "raman_memory_detuning": (
        "raman_memory",
        "detuning.value",
        [-120.0, 0.0, 37.5],
        "5b43d442fec55148ea1261e00db4c1367cec93afe816b6e62878bad363c2d07f",
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
