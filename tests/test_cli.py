"""Command-line interface: exit codes, JSON output, determinism."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ohara
from ohara import cli
from ohara.cli import main
from ohara.curve import circle, load_curve, random_curve, random_field, save_curve
from ohara.kernels import EnergyParams
from ohara.norms import (
    gagliardo_seminorm,
    holder_seminorm,
    product_seminorm_check,
    sobolev_linf_norm,
)


@pytest.fixture(scope="module")
def circle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "circle.json"
    save_curve(circle(128), str(path))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_energy_json(capsys, circle_file):
    code, out, err = run_cli(capsys, "energy", "--curve", circle_file)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert set(doc) == {"E", "estimate", "alpha", "p", "M", "band", "L"}
    assert abs(doc["E"] - 4.0) < 1.0e-8
    assert doc["estimate"] < 1.0e-6
    assert doc["M"] == 128


def test_energy_deterministic_output(capsys, circle_file):
    _, out1, _ = run_cli(capsys, "energy", "--curve", circle_file)
    _, out2, _ = run_cli(capsys, "energy", "--curve", circle_file)
    assert out1 == out2  # bit-identical reruns


def test_energy_resample_flag(capsys, circle_file):
    code, out, _ = run_cli(capsys, "energy", "--curve", circle_file, "--M", "192")
    assert code == 0
    assert json.loads(out)["M"] == 192


def test_out_file_matches_stdout(capsys, tmp_path, circle_file):
    dest = tmp_path / "energy.json"
    code, out, _ = run_cli(
        capsys, "energy", "--curve", circle_file, "--out", str(dest)
    )
    assert code == 0
    assert dest.read_text() == out


def test_constraint_violation_exit_one(capsys, circle_file):
    code, out, err = run_cli(
        capsys, "energy", "--curve", circle_file, "--alpha", "3", "--p", "0.5"
    )
    assert code == 1
    assert out == ""
    assert err == "error: constraint 2 <= alpha*p < 2p+1 violated\n"


def test_missing_curve_exit_one(capsys):
    code, _, err = run_cli(capsys, "energy")
    assert code == 1
    assert err.startswith("error: this command requires --curve")


def test_unreadable_curve_exit_one(capsys):
    code, _, err = run_cli(capsys, "energy", "--curve", "/nonexistent/c.json")
    assert code == 1
    assert err.startswith("error:")


def test_unknown_subcommand_exit_one(capsys):
    assert main(["frobnicate"]) == 1


def test_unknown_flag_exit_one(capsys):
    assert main(["energy", "--frumious"]) == 1


def test_help_exit_zero(capsys):
    assert main(["--help"]) == 0
    for name in cli._COMMANDS:
        assert main([name, "--help"]) == 0


#: (subcommand, flag, value) for each flag that the subcommand does not read
IGNORED_FLAGS = [
    ("energy", "--beta", "0.5"),
    ("energy", "--phi", "synthetic:3"),
    ("energy", "--psi", "synthetic:3"),
    ("gradient", "--beta", "0.5"),
    ("gradient", "--psi", "/no/such/file"),
    ("hessian-form", "--beta", "0.5"),
    ("limits", "--band", "3"),
    ("norms", "--band", "3"),
    ("norms", "--psi", "synthetic:3"),
    ("flow", "--beta", "0.5"),
    ("flow", "--band", "5"),
    ("flow", "--phi", "/nope"),
    ("flow", "--psi", "synthetic:3"),
    ("flow", "--seed", "1"),
]


@pytest.mark.parametrize("command,flag,value", IGNORED_FLAGS)
def test_unread_flag_is_rejected(capsys, circle_file, command, flag, value):
    # a flag that the subcommand would ignore fails like any unknown flag
    code, out, err = run_cli(capsys, command, "--curve", circle_file, flag, value)
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: %s" % flag in err


def test_gradient_command(capsys, circle_file):
    code, out, _ = run_cli(
        capsys, "gradient", "--curve", circle_file, "--phi", "synthetic:4"
    )
    assert code == 0
    doc = json.loads(out)
    assert "delta_E" in doc
    assert np.isfinite(doc["delta_E"])


def test_hessian_command(capsys, circle_file):
    code, out, _ = run_cli(capsys, "hessian-form", "--curve", circle_file)
    assert code == 0
    doc = json.loads(out)
    assert "delta2_E" in doc


def test_density_csv_export(capsys, tmp_path, circle_file):
    dest = tmp_path / "grid.csv"
    code, out, _ = run_cli(
        capsys, "density", "--curve", circle_file, "--out", str(dest)
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["label"] == "M_alpha^p"
    lines = dest.read_text().strip().split("\n")
    assert lines[0].startswith("#")
    assert len(lines) == 1 + 128


def test_density_weighted_when_beta_given(capsys, circle_file):
    code, out, _ = run_cli(
        capsys, "density", "--curve", circle_file,
        "--alpha", "2.4", "--beta", "1.0",
    )
    assert code == 0
    assert json.loads(out)["label"].startswith("D^0.4")


def test_limits_command(capsys, circle_file):
    code, out, _ = run_cli(capsys, "limits", "--curve", circle_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["reports"]
    rep = doc["reports"][0]
    assert set(rep) == {"which", "s", "samples", "extrapolated", "reference", "gap"}


def test_norms_command(capsys, circle_file, tmp_path):
    code, out, _ = run_cli(capsys, "norms", "--curve", circle_file)
    assert code == 0
    doc = json.loads(out)
    assert "tau" in doc and "phi_deriv" in doc and "product_check" in doc
    # the one-pass report holds the bits of the one-seminorm functions
    path = tmp_path / "curve.json"
    save_curve(random_curve(3, M=64, n=3), str(path))
    cv = load_curve(str(path))
    phi = random_field(cv, seed=0, modes=6)
    for alpha, p in ((2.0, 1.0), (2.5, 1.5)):
        code, out, _ = run_cli(
            capsys, "norms", "--curve", str(path), "--alpha", str(alpha), "--p", str(p)
        )
        assert code == 0
        doc = json.loads(out)
        params = EnergyParams(alpha, p)
        sigma, q, beta = params.sigma, 2.0 * p, params.beta
        for key, u in (("tau", cv.tau_field), ("phi_deriv", phi.deriv)):
            assert doc[key] == {
                "gagliardo": gagliardo_seminorm(u, sigma, q),
                "holder": holder_seminorm(u, beta),
                "sobolev_linf": sobolev_linf_norm(u, sigma, q),
            }
        assert doc["product_check"] == product_seminorm_check(cv, phi)


def test_field_file_round_trip(capsys, tmp_path, circle_file):
    # a field supplied as JSON instead of synthetic noise
    vals = np.zeros((128, 2))
    vals[:, 0] = 0.01 * np.sin(3 * 2 * np.pi * np.arange(128) / 128)
    fpath = tmp_path / "phi.json"
    fpath.write_text(json.dumps({"values": vals.tolist()}))
    code, out, _ = run_cli(
        capsys, "gradient", "--curve", circle_file, "--phi", str(fpath)
    )
    assert code == 0
    assert np.isfinite(json.loads(out)["delta_E"])


def test_bad_field_spec(capsys, circle_file):
    code, _, err = run_cli(
        capsys, "gradient", "--curve", circle_file, "--phi", "synthetic:zero"
    )
    assert code == 1
    assert "synthetic" in err


def test_threads_flag_removed(capsys, circle_file):
    code, out, err = run_cli(
        capsys, "energy", "--curve", circle_file, "--threads", "1"
    )
    assert code == 1
    assert out == ""
    assert "unrecognized arguments: --threads 1" in err


BAD_INPUTS = {
    "csv-non-numeric-cell": ("curve.csv", "1.0, 0.0\n0.0, abc\n", "curve"),
    "csv-ragged-rows": ("curve.csv", "1.0 0.0\n0.0 1.0 2.0\n", "curve"),
    "json-ragged-points": (
        "curve.json", '{"points": [[1.0, 0.0], [0.0, 1.0, 2.0]]}', "curve",
    ),
    "json-text-dimension": (
        "curve.json", '{"dimension": "x", "points": [[1.0, 0.0], [0.0, 1.0]]}', "curve",
    ),
    "field-json-array": ("phi.json", "[[0.0, 1.0], [1.0, 0.0]]", "phi"),
    "field-json-non-numeric": ("phi.json", '{"values": [["a", "b"]]}', "phi"),
    "field-json-scalar": ("phi.json", '{"values": 3.0}', "phi"),
    # a file name of None passes the text itself: on the M = 128 circle,
    # modes 64 and up would fold onto lower ones
    "synthetic-modes-fold": (None, "synthetic:64", "phi"),
}


#: verify suites build their own curves at --M samples; --M 0 is a bad
#: sample count, not a missing option
ZERO_M_SUITES = ["verify-M-0-" + suite for suite in ("fd", "limits", "circle", "norms")]


@pytest.mark.parametrize("case", sorted(BAD_INPUTS) + ["negative-seed"] + ZERO_M_SUITES)
def test_bad_input_is_one_error_line(capsys, tmp_path, circle_file, case):
    command, opts = "gradient", {"--curve": circle_file}
    if case == "negative-seed":
        opts["--seed"] = "-1"
    elif case in ZERO_M_SUITES:
        command, opts = "verify", {"--suite": case.rsplit("-", 1)[1], "--M": "0"}
    else:
        name, text, role = BAD_INPUTS[case]
        if name is not None:
            path = tmp_path / name
            path.write_text(text)
            text = str(path)
        opts["--" + role] = text
    code, out, err = run_cli(capsys, command, *(t for kv in opts.items() for t in kv))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.endswith("\n") and err.count("\n") == 1


FIELD_JOBS = {
    "gradient": ["gradient"],
    "hessian-form": ["hessian-form"],
    "density-g": ["density", "--which", "g"],
    "density-h": ["density", "--which", "h"],
    "verify-fd": ["verify", "--suite", "fd"],
    "limits": ["limits"],
    "norms": ["norms"],
}


@pytest.mark.parametrize("layout", ["csv-one-column", "json-flat-values"])
@pytest.mark.parametrize("job", sorted(FIELD_JOBS))
def test_scalar_field_file_is_one_error_line(capsys, tmp_path, job, layout):
    # every command takes (M, n) vector fields; a field with one value per
    # sample is rejected before any computation
    curve_path = tmp_path / "curve.json"
    save_curve(circle(64, n=3), str(curve_path))
    vals = np.sin(2.0 * np.pi * np.arange(64) / 64)
    if layout == "csv-one-column":
        field_path = tmp_path / "phi.csv"
        field_path.write_text("".join("%r\n" % float(v) for v in vals))
    else:
        field_path = tmp_path / "phi.json"
        field_path.write_text(json.dumps({"values": vals.tolist()}))
    argv = FIELD_JOBS[job] + ["--curve", str(curve_path), "--phi", str(field_path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "(M, n) = (64, 3)" in err
    assert err.endswith("\n") and err.count("\n") == 1
    assert "Traceback" not in err


COMMAND_RUNS = {
    "energy": (["energy"], {"E", "estimate", "alpha", "p", "M", "band", "L"}),
    "gradient": (["gradient"], {"delta_E", "phi", "seed", "M"}),
    "hessian-form": (["hessian-form"], {"delta2_E", "phi", "psi", "seed", "M"}),
    "density": (["density"], None),
    "density-g": (["density", "--which", "g"], None),
    "density-h": (["density", "--which", "h"], None),
    "limits": (["limits"], {"reports"}),
    "norms": (["norms"], {"sigma", "q", "beta", "tau", "phi_deriv", "product_check"}),
    "flow": (["flow"], {
        "steps_accepted", "energy_initial", "energy_final", "halted",
        "diagnostic", "circle_distance", "trace",
    }),
    "verify-limits": (["verify", "--suite", "limits", "--M", "96"], {"limits"}),
    # below 96 samples the suite still builds its ellipse on 96
    "verify-limits-m64": (["verify", "--suite", "limits", "--M", "64"], {"limits"}),
    "verify-circle": (["verify", "--suite", "circle", "--M", "96"], {"circle"}),
    "verify-norms": (["verify", "--suite", "norms", "--M", "96"], {"norms"}),
}
GRID_KEYS = {
    "label", "sup", "l1", "flagged_pairs", "M", "band", "beta", "csv",
}


def test_command_runs_cover_every_subcommand():
    assert {argv[0] for argv, _ in COMMAND_RUNS.values()} == set(cli._COMMANDS)


@pytest.mark.parametrize("run", sorted(COMMAND_RUNS))
def test_every_subcommand_runs(capsys, circle_file, run):
    argv, keys = COMMAND_RUNS[run]
    if argv[0] != "verify":
        argv = argv + ["--curve", circle_file]
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert err == ""
    doc = json.loads(out)
    assert set(doc) == (GRID_KEYS if keys is None else keys)
    if argv[0] == "verify":
        assert doc[argv[2]]["pass"] is True


@pytest.mark.parametrize("job", ["energy", "gradient", "density"])
def test_unwritable_out_is_one_error_line(capsys, tmp_path, circle_file, job):
    dest = tmp_path / "missing" / "result.out"
    code, out, err = run_cli(capsys, job, "--curve", circle_file, "--out", str(dest))
    assert code == 1
    assert out == ""  # nothing printed before the failed write
    assert err.startswith("error: cannot write %s" % dest)
    assert err.endswith("\n") and err.count("\n") == 1
    assert not dest.parent.exists()


@pytest.mark.parametrize("case", ["under-a-file", "a-directory"])
def test_flow_unwritable_out_is_one_error_line(capsys, tmp_path, circle_file, case):
    # the snapshot directory cannot be made under a regular file; a trace
    # path that is a directory fails after the snapshots start, but before
    # the first step
    if case == "under-a-file":
        (tmp_path / "file").write_text("")
        dest = tmp_path / "file" / "trace.csv"
    else:
        dest = tmp_path / "trace.csv"
        dest.mkdir()
    code, out, err = run_cli(capsys, "flow", "--curve", circle_file, "--out", str(dest))
    assert code == 1
    assert out == ""
    assert err.startswith("error: cannot write %s" % dest)
    assert err.endswith("\n") and err.count("\n") == 1
    assert not (tmp_path / "trace.csv.steps" / "step_0001.json").exists()


def test_flow_out_in_missing_directory(capsys, tmp_path, circle_file):
    dest = tmp_path / "missing" / "trace.csv"
    code, out, err = run_cli(capsys, "flow", "--curve", circle_file, "--out", str(dest))
    assert code == 0, err
    doc = json.loads(out)
    assert doc["trace"] == str(dest)
    rows = dest.read_text().splitlines()
    assert rows[0] == "step,energy,grad_norm,dt"
    assert len(rows) == 2 + doc["steps_accepted"]
    assert (tmp_path / "missing" / "trace.csv.steps" / "step_0000.json").exists()


def test_verify_fd_suite(capsys):
    # default resolution: the suite's tolerances are calibrated for it
    code, out, _ = run_cli(capsys, "verify", "--suite", "fd")
    assert code == 0
    doc = json.loads(out)
    assert doc["fd"]["pass"] is True
    assert doc["fd"]["max_rel_gap"] < 1.0e-6


def test_verify_rejects_unknown_suite(capsys):
    assert main(["verify", "--suite", "bogus"]) == 1


@pytest.mark.skipif(
    shutil.which("ohara") is None,
    reason="no ohara executable on PATH; needs `pip install -e .`",
)
def test_console_script_installed(circle_file):
    # the installed entry point behaves like main()
    proc = subprocess.run(
        ["ohara", "energy", "--curve", circle_file],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert abs(doc["E"] - 4.0) < 1.0e-8


def _source_env():
    """This process's environment with the imported package's source
    directory put first on ``PYTHONPATH``, for child interpreters."""
    env = dict(os.environ)
    src = str(Path(ohara.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_closed_stdout_ends_quietly(circle_file):
    # ``ohara verify ... | head``: the reader has gone before the JSON is
    # written, which must not end in a BrokenPipeError traceback
    proc = subprocess.Popen(
        [sys.executable, "-m", "ohara.cli", "energy", "--curve", circle_file],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_source_env(),
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 0
    assert err == b""


def test_console_script_entry_point(circle_file, tmp_path):
    # the [project.scripts] entry, run in a fresh interpreter the way the
    # generated wrapper runs it, with the package importable from its source
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["ohara"]
    assert target == "ohara.cli:main"
    wrapper = "import sys; from ohara.cli import main; sys.exit(main())"
    env = _source_env()

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-c", wrapper, *argv],
            capture_output=True, text=True, timeout=120, env=env,
        )

    proc = run("energy", "--curve", circle_file)
    assert proc.returncode == 0, proc.stderr
    assert abs(json.loads(proc.stdout)["E"] - 4.0) < 1.0e-8
    proc = run("energy", "--curve", str(tmp_path / "missing.json"))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
