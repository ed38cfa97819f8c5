"""Golden outputs of the CLI: exit code and sha256 of stdout and stderr per call.

Each call runs ``main(argv)`` in a directory holding the specs below, so file
names in messages are relative and stable.  A changed digest means a changed
output byte: update it only for a deliberate change of the CLI's output.
"""

import hashlib
import json

import pytest

from quantum_replicator.cli import main

SPECS = {
    "case_a.json": {"game": {"a": 1, "b": -1, "c": -1, "d": 1},
                    "weights": [0.3, 0.4, 0.1, 0.2]},
    "case_c.json": {"game": {"a": 1, "b": 3, "c": -2, "d": -1},
                    "weights": {"w11": 0.25, "w12": 0.6, "w21": 0.05, "w22": 0.1}},
    "classical_c.json": {"game": {"a": 1, "b": 3, "c": -2, "d": -1},
                         "weights": [1, 0, 0, 0]},
    "full.json": {"game": {"a11": 0.5, "a12": 1, "a21": 2, "a22": -1,
                           "b11": 0, "b12": 3, "b21": 4, "b22": 0.25},
                  "weights": [0.3, 0.4, 0.1, 0.2]},
    "raw.json": {"game": {"a": 2, "b": -1, "c": 1, "d": 3}, "weights": [3, 4, 1, 2]},
    "k_zero.json": {"game": {"a": 1, "b": 2, "c": 3, "d": 4},
                    "weights": [0.4, 0.3, 0.2, 0.1]},
    "tol.json": {"game": {"a": 1, "b": -1, "c": -1, "d": 1},
                 "weights": [0.3, 0.4, 0.1, 0.2], "options": {"tol": 0.5}},
    "started.json": {"game": {"a": 1, "b": -1, "c": -1, "d": 1},
                     "weights": [1, 0, 0, 0], "start": [0.8, 0.3],
                     "options": {"step": 0.05, "max_steps": 400, "tol": 1e-4}},
    "bad_sum.json": {"game": {"a": 1, "b": -1, "c": -1, "d": 1},
                     "weights": [0.3, 0.3, 0.2, 0.1]},
}


def sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


EMPTY = sha256("")

# argv -> (exit code, sha256 of stdout, sha256 of stderr)
GOLDEN = {
    "transform --spec case_a.json":
        (0, "b732d883f91ebfb5a8852795c9360bf273dd9e6c22b297b1953b703f55184cf6",
         EMPTY),
    "transform --spec case_c.json":
        (0, "ff3fc2bc3c6744e09b186a2e555277fd5ac49e5cc7695fdd6afda4558cf0a35b",
         EMPTY),
    "transform --spec full.json":
        (0, "bc720d1c3f542e62a3a94d1b03a8671430eea2a31523323b0baea1b45cabae68",
         EMPTY),
    "transform --spec raw.json --renormalize":
        (0, "e6b68d7a031ebfeba2e62c2070642e312818844616f5828b3360141ac8368926",
         EMPTY),
    "classify --spec case_a.json":
        (0, "dbbb7aa0b9ff78bee576d54a1eae6667f4a8c08c028f9b670f737188f36a5937",
         EMPTY),
    "classify --spec case_c.json":
        (0, "97351d365e0b292914d7a91ac4a36e3baec51c873dbc17ae33369f0db62993c7",
         EMPTY),
    "classify --spec classical_c.json":
        (0, "e005a7fc5c5682e8b83490b65b906a222a40dfec4f799451de7c42e81544d116",
         EMPTY),
    "classify --spec full.json":
        (0, "ede6395e013b9c2cbc02477d84e00dff9307af74aecc440a29d768aa8b1d15b8",
         EMPTY),
    "classify --spec raw.json --renormalize":
        (0, "f328a78af9ff20341b75902c355c1820932a39aaf211de8e0629ea94d32477f7",
         EMPTY),
    "classify --spec k_zero.json":
        (0, "68b98f9117785186903b0881a78db27298a559e5e1f2cd012bb911406639c0f2",
         EMPTY),
    "classify --spec tol.json":
        (0, "2f4229bdf297ed73d21c8402a70cf887823bcb33cbe978d004aa3cceffbfd3e7",
         EMPTY),
    "classify --spec case_a.json --tol 0.45":
        (0, "cdce8b62a756cfc8086e239c88311a6ddb2f9e8c7792e04c43e3ab3e33f19644",
         EMPTY),
    "ess --spec case_a.json":
        (0, "7f250665998cbf39e688193502f87f0d1c46bcf13eb560ef91244a955d984a5a",
         EMPTY),
    "ess --spec case_c.json":
        (0, "47c3b29ab7d58277d203e4b205c271d6b1d1947ce4968c502d01c21904aa7025",
         EMPTY),
    "ess --spec full.json":
        (0, "85ea25e9917c1be19ecd137beef6f3857689c52360624c071783ac813d0cbd6c",
         EMPTY),
    "ess --spec raw.json --renormalize":
        (0, "b700fda273af6c5fbc8faca54b7468e77fc1dd8221447b757006f5c1a186b4fc",
         EMPTY),
    "ess --spec tol.json":
        (0, "dfbe317a2d25668196cbe450fe11ed18710fabb4bc822b74088de4f5adae8fc5",
         EMPTY),
    "ess --spec case_a.json --tol 0.3":
        (0, "f230590bad82ed0ede9376c31ef423eceda9e207f25a9c0c6763b99fdd764984",
         EMPTY),
    "simulate --spec case_a.json --start 0.9,0.1 --max-steps 300":
        (0, "f130c70c4ca5d66c63d542867a886927a5098d436229d27a872f44f9bc152bbc",
         "094c7e820248ba02eb5e01872dd78efd94aef7b5f8fd9fb740221dcb54d0de64"),
    "simulate --spec full.json --start 0.5,0.5 --step 0.1 --max-steps 300":
        (0, "61be6c6e52c83c8e81d82dee2c09236a1ecb09b3dadb7cefba0748c355aee468",
         "094c7e820248ba02eb5e01872dd78efd94aef7b5f8fd9fb740221dcb54d0de64"),
    "simulate --spec started.json":
        (0, "6b046a2516e812317aabb83b2c35bc4089a299d34daba572722d183a15a05036",
         "a08d5a3d1b2e18c464e517edc3aca538edffa00153be1418034b0a6a2d1d3011"),
    "simulate --spec case_a.json":
        (2, EMPTY,
         "611bc94bf487149dd9f0958ecb0198b73e3491e718b6b463aff3b5979dbda8dc"),
    "portrait --spec case_a.json --grid 3 --max-steps 200":
        (0, "1b4599e35a7d874382145e655617418e13625fe8ca61d99ce731247f432938a3",
         EMPTY),
    "portrait --spec classical_c.json --grid 2 --max-steps 120 --step 0.1":
        (0, "87cd202e789e022a62501cc5d3653b77f262a8af185d60872a7892fcb2efd653",
         EMPTY),
    # Large enough (25 orbits x 2000 steps) to be split across worker processes
    # on a host with more than one usable CPU; pinned from one process.
    "portrait --spec case_a.json --grid 5 --max-steps 2000":
        (0, "89c8c5a46c0c8cd1e67004abf184d6518650c5d90b3f592780929a03a7e1925c",
         EMPTY),
    "scan --spec case_a.json --resolution 12":
        (0, "3a8321e5099a30c76a8d8b5316dafb4d131f2ec06180659286be2328017a6291",
         EMPTY),
    "scan --spec full.json --resolution 6":
        (0, "d438dac52107b933f2b28ae26e7643f2f45134585a4a13625d362bed3a4e4ad9",
         EMPTY),
    "scan --spec case_a.json --resolution 0":
        (2, EMPTY,
         "542dd04619127db197e793e5969e7d77fad894a268070ebffba4dd72f4942a37"),
    "demo a":
        (0, "d3a2f64b7239b28eee5cf0b546812ef92b783a6c271c5472661b86a0542fe341",
         EMPTY),
    "demo b":
        (0, "06fe1017803b43ca4ee839837cde4d1fc89168253f8b33326fc0705439f265db",
         EMPTY),
    "demo c":
        (0, "fb3f5e5a94d81039a3162e6e058b3f88ee6bb811d1effd2c654081c828256ae8",
         EMPTY),
    "transform --spec bad_sum.json":
        (2, EMPTY,
         "89ca8b65bf0478b3d7910f256ff33790d3ceddc7b19c13a7f351fa4dbf4d1429"),
    "demo a --out no_such_dir/out.json":
        (3, EMPTY,
         "3d26607ec884d7a8e5e46f19e74e141b3922e6464d3474b3070bffa14fd0ceb6"),
    "ess --spec missing.json":
        (3, EMPTY,
         "8f58d5173e245321da2923ceb5994376818fa306ea677075985e17f078f3158e"),
}


@pytest.fixture
def spec_dir(tmp_path, monkeypatch):
    for name, spec in SPECS.items():
        (tmp_path / name).write_text(json.dumps(spec), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_golden(argv, spec_dir, capsys):
    code = main(argv.split())
    captured = capsys.readouterr()
    assert (code, sha256(captured.out), sha256(captured.err)) == GOLDEN[argv]


@pytest.mark.parametrize("argv", ["transform --spec full.json",
                                  "classify --spec k_zero.json",
                                  "simulate --spec started.json",
                                  "portrait --spec case_a.json --grid 2 --max-steps 40",
                                  "scan --spec full.json --resolution 6", "demo c"])
def test_out_file_matches_stdout(argv, spec_dir, capsys):
    assert main(argv.split()) == 0
    stdout = capsys.readouterr()
    assert main(argv.split() + ["--out", "result.txt"]) == 0
    to_file = capsys.readouterr()
    assert (spec_dir / "result.txt").read_text(encoding="utf-8") == stdout.out
    assert to_file.out == "" and to_file.err == stdout.err
