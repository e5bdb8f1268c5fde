import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from schurkit.cli import run


def test_dims_table(capsys):
    assert run(["dims", "--d", "2", "--n", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1].split() == ["2", "3", "1"]
    assert out[2].split() == ["1,1", "1", "1"]


def test_partitions_listing(capsys):
    assert run(["partitions", "--d", "3", "--n", "4"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["4", "3,1", "2,2", "2,1,1"]


def test_gz_and_paths(capsys):
    assert run(["gz", "--lambda", "2,1", "--d", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1,1/2", "1,2/2"]
    assert run(["paths", "--lambda", "2,1"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split("\t") == ["1", "1,2"]
    assert out[1].split("\t") == ["2", "2,1"]


@pytest.mark.parametrize(
    "argv, text",
    [
        (["partitions", "--d", "3", "--n", "4"], '["4","3,1","2,2","2,1,1"]'),
        (["gz", "--lambda", "2,1", "--d", "2"], '["1,1/2","1,2/2"]'),
        (["paths", "--lambda", "2,1"], '[{"rank":1,"path":"1,2"},{"rank":2,"path":"2,1"}]'),
    ],
)
def test_listing_json(argv, text, tmp_path, capsys):
    path = tmp_path / "out.json"
    assert run(argv + ["--json", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text().strip() == text


def test_schur_show_rows(capsys):
    assert run(["schur", "--n", "3", "--d", "2", "--show-rows", "2"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [
        "  lambda=3 gz=1,1,1 path=1,1",
        "  lambda=3 gz=1,1,2 path=1,1",
    ]


def test_schur_identity(capsys):
    assert run(["schur", "--n", "1", "--d", "3"]) == 0
    out = capsys.readouterr().out
    assert "3 x 3" in out


def test_verify_ok(capsys):
    assert run(["verify", "--n", "3", "--d", "2", "--trials", "5", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert "ok" in out and "True" in out


def test_argument_error_exit_code(capsys):
    assert run(["gz", "--lambda", "1,2", "--d", "2"]) == 2
    err = capsys.readouterr().err
    assert "error" in err


@pytest.mark.parametrize("lam, d", [("3,2,1", "2"), ("2,1", "0"), ("", "0")])
def test_gz_lambda_must_fit_in_d_rows(lam, d, capsys):
    # cg rejects the same input; gz used to print nothing and exit 0.
    assert run(["gz", "--lambda", lam, "--d", d]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error" in captured.err


def test_wigner_mu_must_fit_in_d_rows(capsys):
    assert run(["wigner", "--mu", "3,2,1", "--mu-dprime", "1", "--d", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "mu=" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["cg", "--lambda", "", "--d", "0"],
        ["wigner", "--mu", "", "--mu-dprime", "", "--d", "0"],
        ["dims", "--d", "0", "--n", "2"],
    ],
)
def test_d_zero_is_an_argument_error(argv, capsys):
    # cg ended in a RecursionError, wigner exited 0, dims printed its header.
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "d must be >= 1" in captured.err


def test_unwritable_json_path_is_an_argument_error(tmp_path, capsys):
    # ended in a FileNotFoundError traceback with exit 1
    target = tmp_path / "missing" / "x.json"
    assert run(["dims", "--d", "2", "--n", "3", "--json", str(target)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "x.json" in err
    assert not target.exists()


def test_negative_show_rows_is_an_argument_error(capsys):
    # exited 0 and printed nothing for the rows
    assert run(["schur", "--n", "2", "--d", "2", "--show-rows", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--show-rows" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["schur", "--n", "2", "--d", "2", "--max-dim", "0"],
        ["schur", "--n", "2", "--d", "2", "--max-dim", "-1"],
        ["circuit", "--n", "2", "--d", "2", "--max-dim", "0"],
        ["circuit", "--n", "2", "--d", "2", "--decompose", "--max-dim", "-1"],
    ],
)
def test_non_positive_max_dim_is_an_argument_error(argv, capsys):
    # exited 3, "d^n = 4 exceeds the configured bound 0", a resource bound
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-dim must be >= 1" in captured.err


def test_resource_bound_exit_code(capsys):
    assert run(["schur", "--n", "12", "--d", "2", "--max-dim", "2048"]) == 3
    err = capsys.readouterr().err
    assert "4096" in err


def test_unknown_flag_exit_code(capsys):
    assert run(["dims", "--bogus"]) == 2
    capsys.readouterr()


def test_json_outputs_parse_and_are_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for target in (a, b):
        assert (
            run(
                [
                    "verify",
                    "--n",
                    "2",
                    "--d",
                    "2",
                    "--trials",
                    "3",
                    "--seed",
                    "11",
                    "--json",
                    str(target),
                ]
            )
            == 0
        )
        capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    report = json.loads(a.read_text())
    assert report["ok"] is True
    assert report["seed"] == 11


def test_json_schur_schema(tmp_path, capsys):
    path = tmp_path / "schur.json"
    assert run(["schur", "--n", "2", "--d", "2", "--json", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["n"] == 2 and data["d"] == 2
    assert len(data["matrix"]) == 4
    assert data["row_labels"][0]["lambda"] == "2"
    assert all(len(v) == 2 for row in data["matrix"] for v in row)


def test_json_cg_and_wigner_and_circuit(tmp_path, capsys):
    for args, key in [
        (["cg", "--lambda", "1", "--d", "2"], "matrix"),
        (["wigner", "--mu", "1", "--mu-dprime", "1", "--d", "2"], "matrix"),
        (["circuit", "--n", "4", "--d", "2"], "steps"),
    ]:
        path = tmp_path / f"{args[0]}.json"
        assert run(args + ["--json", str(path)]) == 0
        capsys.readouterr()
        assert key in json.loads(path.read_text())


def test_circuit_decompose(capsys):
    assert run(["circuit", "--n", "2", "--d", "2", "--decompose"]) == 0
    out = capsys.readouterr().out
    assert "two-level synthesis" in out


def test_circuit_decompose_over_the_bound_prints_nothing(capsys):
    assert run(["circuit", "--n", "13", "--d", "2", "--decompose"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "4096" in captured.err


def test_dense_json_is_pinned(tmp_path, capsys):
    """SHA-256 of the JSON files written by `schur` and `circuit --decompose`."""
    pins = {
        ("schur", 3, 2): "4bd1c38960093ae2bc093046689ca7f95dde78a5466f7448c7d9cb35e30ba5d3",
        ("schur", 3, 3): "9391acb549dd60ef301592f7b84aa48b137ddbccae9c2dd1ae90a17315a30b2b",
        ("schur", 5, 2): "5c75deed56e0439c0a58b3c2045bc7a1a5a22721bc78910480803339f08440bb",
        ("circuit", 4, 2): "532d8b525213d0e2db0edded678d99d64a7f9998c1ec5ea862601334da02e5e3",
        ("circuit", 3, 3): "0a78a94113350024c7bd2c13d40f4b2e6f9bb6d7fef2e0e00926c5637d83fa3b",
        ("circuit", 6, 2): "0a93579505fe9a886abaa39cab8d3fc8ef8dc1aba829d6e7dd06859600c7ad1f",
        # a Givens update over columns >= c alone writes -0 where this has 0
        # at (3, 2) and (8, 2); at the other sizes its bytes are the same
        ("circuit", 3, 2): "8c65f32167a6255b20687102fb153341f9be03a563d9e302f73671938f51bfc1",
        ("circuit", 8, 2): "88e0f45ae17652daf24ad5a57fdbc1381f50eb2e76c3726d0eb78aa293119a44",
        # the benchmark's sizes, 1384 and 2123 rotations
        ("circuit", 7, 2): "1a2d0f173b679b000e2109ff022b451fe15e8e517fecf4c7c9a33fcec3be3185",
        ("circuit", 5, 3): "ab4953bfb62a1c5868a00b92a22c883371731858f2ffc691dcbfa6f8996c093c",
    }
    for (command, n, d), digest in pins.items():
        path = tmp_path / f"{command}_{n}_{d}.json"
        argv = [command, "--n", str(n), "--d", str(d), "--json", str(path)]
        if command == "circuit":
            argv.append("--decompose")
        assert run(argv) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (command, n, d)


def test_cg_json_is_pinned(tmp_path, capsys):
    """SHA-256 of the JSON files written by `cg`: the benchmark's dense block
    and a 1440-wide block stored as weight sub-blocks."""
    pins = {
        ("2,2,1", 3): "57984694b6c180f8c33716554d0cfc90866a96ffa4a38426b0cce0a9bb1d431d",
        ("5,3,1", 4): "b79e3b07b3d511066e0a173fa9ee0ed5d2114937095c03a5d62ef570499c5bd3",
    }
    for (lam, d), digest in pins.items():
        path = tmp_path / f"cg_{d}.json"
        assert run(["cg", "--lambda", lam, "--d", str(d), "--json", str(path)]) == 0
        capsys.readouterr()
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, (lam, d)


def test_float_formatting_17_digits(tmp_path, capsys):
    path = tmp_path / "w.json"
    run(["wigner", "--mu", "1", "--mu-dprime", "1", "--d", "2", "--json", str(path)])
    capsys.readouterr()
    text = path.read_text()
    assert "0.70710678118654757" in text


def test_verify_zero_trials_is_an_argument_error(capsys):
    assert run(["verify", "--n", "2", "--d", "2", "--trials", "0"]) == 2
    assert "trials" in capsys.readouterr().err


def test_verify_exits_4_when_the_oracle_finds_an_inconsistency(monkeypatch, capsys):
    import schurkit.schur
    from schurkit.schur import SchurUnitary

    su = schurkit.schur.schur_unitary(3, 2)
    m = su.matrix.copy()
    m[[4, 7]] = m[[7, 4]]  # a (q,p) row swapped against a different q
    broken = SchurUnitary(su.n, su.d, m, su.row_labels, su.blocks)
    monkeypatch.setattr(schurkit.schur, "schur_unitary", lambda n, d, **kw: broken)
    assert run(["verify", "--n", "3", "--d", "2", "--trials", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "depends on the fixed" in captured.err


def test_gz_and_paths_deeper_than_the_recursion_limit(capsys):
    assert run(["gz", "--lambda", "1", "--d", "1000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1000 and out[0] == "1" and out[-1] == "1000"
    assert run(["paths", "--lambda", "1000"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["1\t" + ",".join(["1"] * 999)]


def _python_dash_m(module, *argv):
    """Run `python -m module argv...` in a fresh process, on this checkout's src."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    return subprocess.run(
        [sys.executable, "-m", module, *argv], capture_output=True, text=True, env=env, timeout=120
    )


@pytest.mark.parametrize("module", ["schurkit", "schurkit.cli"])
def test_python_dash_m_runs_the_cli(module):
    proc = _python_dash_m(module, "verify", "--n", "2", "--d", "2", "--trials", "1")
    assert proc.returncode == 0, proc.stderr
    assert "ok" in proc.stdout


@pytest.mark.parametrize(
    "argv, code, stream, text",
    [
        (["dims", "--d", "2", "--n", "-1"], 2, "stderr", "error: "),
        (["cg", "--lambda", "1,1,1", "--d", "2"], 2, "stderr", "error: "),
        (["circuit", "--n", "0", "--d", "2"], 2, "stderr", "error: "),
        (["wigner", "--mu", "2", "--mu-dprime", "1,1", "--d", "2"], 2, "stderr", "error: "),
        (["schur", "--n", "13", "--d", "2"], 3, "stderr", "error: "),
        (["--version"], 0, "stdout", "0.1.0\n"),
    ],
    ids=["dims", "cg", "circuit", "wigner", "schur-limit", "version"],
)
def test_python_dash_m_exit_codes(argv, code, stream, text):
    proc = _python_dash_m("schurkit", *argv)
    assert proc.returncode == code, proc.stderr
    assert getattr(proc, stream).startswith(text)
