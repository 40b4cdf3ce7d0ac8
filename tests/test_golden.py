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
        "result.json": "1f66918455649d97a8c8b537263f62c7980ace5ae899e4643469f73afca619b0",
        "unitary.csv": "174ac359f5f0a4911f6dba0d1aad40b5f9959bbd0d671d3da86e2793ef2fdc6c",
    },
    "emission_spectrum": {
        "result.json": "13cdab359a24da3f9e372e05699c6a4e65732c095115da71260ca81ab2c7f717",
        "spectrum.csv": "fa8fa3ce132f07eb4cbea100eb329617e361f470e98cdaf2e1babc9ba02bbe0f",
    },
    "g2": {
        "g2.csv": "5409ce7fd96ae5dfece3dc6242eb3177baaf99af4237b5b8cd44e953545f42db",
        "result.json": "3a29c61824c895e9ebee84ff534d9bf72c2e72f157486771df0d949f05260003",
    },
    "lindblad": {
        "result.json": "417a81c181fb65880f2e32482cfcce93cd20a1ba2634a5808b6904dce18471ea",
        "trajectory.csv": "a12a7c66113d110f122fada9aa9726df467b934eea8ae9ad70391c121e72d333",
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
        "result.json": "246135926c797eae048c76f06235efa106cd3fcfb2d899d4aa24d48b7623f9bc",
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
        "1bc2edd018d582f19ad6b1208a20dc2473c651bd4ce39123b03fa35d7a287f4e",
    ),
    "lindblad_rabi": (
        "lindblad",
        "system.rabi.value",
        [1, 5.0, 20.5],
        "fed95c176a5bdbd24b3e0ad5c3ad95d8bdda8ac0ca8010c7ad149e189c920ae0",
    ),
    "lindblad_initial_state": (
        "lindblad",
        "initial_state",
        ["ground", "excited"],
        "901c4a2798577f4127dcc25a3d42145c3fbf776c3203f9754c95ce182bf9ba6a",
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
