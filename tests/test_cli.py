"""Tests for the command-line interface and its file formats."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from subspace_limits import _g17, cli
from subspace_limits.cli import (
    EXIT_CONVERGES,
    EXIT_DOES_NOT_CONVERGE,
    EXIT_USAGE,
    REPORT_SCHEMA,
    TRACE_HEADER,
    ConfigError,
    ExperimentConfig,
    build_experiment,
    load_config,
    main,
    rotating_family,
    write_trace_csv,
)
from subspace_limits.convergence import CriterionTraces, criterion_traces, parity_split_example
from subspace_limits.linalg import RankDeficiencyError, orthonormalize


def write(path, text):
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# gap subcommand


def test_gap_identical_files(tmp_path, capsys):
    u = write(tmp_path / "u.txt", "1 0\n0 1\n")
    assert main(["gap", u, u]) == 0
    assert float(capsys.readouterr().out.strip()) == 0.0


def test_gap_orthogonal_lines(tmp_path, capsys):
    u = write(tmp_path / "u.txt", "1 0\n")
    v = write(tmp_path / "v.txt", "0 1\n")
    assert main(["gap", u, v]) == 0
    assert float(capsys.readouterr().out.strip()) == 1.0


def test_gap_diagonal_line_matches_closed_form(tmp_path, capsys):
    u = write(tmp_path / "u.txt", "1 0\n")
    v = write(tmp_path / "v.txt", "0.7071067811865476 0.7071067811865476\n")
    assert main(["gap", u, v]) == 0
    printed = float(capsys.readouterr().out.strip())
    assert printed == pytest.approx(math.sqrt(0.5), abs=1e-9)


def test_gap_accepts_comma_separated(tmp_path, capsys):
    u = write(tmp_path / "u.csv", "1,0,0\n0,1,0\n")
    v = write(tmp_path / "v.csv", "0,1,0\n0,0,1\n")
    assert main(["gap", u, v]) == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(1.0, abs=1e-12)


def test_gap_shape_mismatch_is_an_error(tmp_path, capsys):
    u = write(tmp_path / "u.txt", "1 0\n")
    v = write(tmp_path / "v.txt", "1 0 0\n")
    assert main(["gap", u, v]) > 2
    assert "error" in capsys.readouterr().err


def test_gap_rank_deficient_is_an_error(tmp_path, capsys):
    u = write(tmp_path / "u.txt", "1 0\n2 0\n")
    v = write(tmp_path / "v.txt", "1 0\n0 1\n")
    assert main(["gap", u, v]) > 2
    assert "rank" in capsys.readouterr().err.lower()


def test_gap_missing_file_is_an_error(tmp_path, capsys):
    v = write(tmp_path / "v.txt", "1 0\n")
    assert main(["gap", str(tmp_path / "absent.txt"), v]) > 2


@pytest.mark.parametrize("u_text, v_text, named", [
    ("", "1 0\n", "u.txt"),
    ("1 0\n", "# no rows\n\n", "v.txt"),
    ("", "", "u.txt"),
])
def test_gap_empty_file_is_a_usage_error_naming_it(tmp_path, capsys, u_text, v_text, named):
    # numpy warns on an empty file; the suite's filterwarnings = error
    # (pyproject.toml) turns a leaked warning into a failure here
    u = write(tmp_path / "u.txt", u_text)
    v = write(tmp_path / "v.txt", v_text)
    assert main(["gap", u, v]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: basis file {tmp_path / named} holds no vectors\n"


def test_gap_reads_utf8_and_names_a_file_that_is_not(tmp_path, capsys):
    # a leading BOM is dropped, as for configs; it used to fail the float parse
    u = tmp_path / "u.txt"
    u.write_bytes(b"\xef\xbb\xbf1 0\n")
    v = write(tmp_path / "v.txt", "0 1\n")
    assert main(["gap", str(u), v]) == 0
    assert float(capsys.readouterr().out) == 1.0
    u.write_bytes(b"1 0 # \xe9\n")
    assert main(["gap", str(u), v]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith(f"error: basis file {u} is not UTF-8 text: ")


@pytest.mark.parametrize("u_text, v_text, named", [
    ("nan 0\n", "1 0\n", "u.txt"),
    ("1 0\n", "0 inf\n", "v.txt"),
    ("1,0\n0,-inf\n", "1,0\n0,1\n", "u.txt"),
    ("1 0\n", "nan nan\n", "v.txt"),
])
def test_gap_non_finite_entry_is_a_usage_error_naming_the_file(
    tmp_path, capsys, u_text, v_text, named
):
    u = write(tmp_path / "u.txt", u_text)
    v = write(tmp_path / "v.txt", v_text)
    assert main(["gap", u, v]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: basis file {tmp_path / named} has non-finite entries\n"


# ---------------------------------------------------------------------------
# analyze subcommand


def test_analyze_orthogonal_constant_density(tmp_path, capsys):
    code = main(
        [
            "analyze",
            "orthogonal-constant",
            "--ideal",
            "density",
            "--horizon",
            "1000",
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_DOES_NOT_CONVERGE
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["overall"] == "does_not_converge"
    assert doc["ideal"] == {"kind": "density", "tau": 0.01}
    trace = (tmp_path / "out" / "trace.csv").read_text().splitlines()
    assert trace[0] == TRACE_HEADER
    assert len(trace) == 1001
    assert trace[1].startswith("1,1,")


def test_analyze_parity_split_blocks(tmp_path):
    code = main(
        [
            "analyze",
            "parity-split",
            "--variant",
            "amended",
            "--ideal",
            "blocks",
            "--horizon",
            "2000",
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == EXIT_CONVERGES
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["overall"] == "converges"
    rows = doc["criteria"][0]["per_vector"][0]["per_epsilon"]
    assert all(row["mode"] == "exact" for row in rows)


def test_analyze_defaults_to_recommended_ideal(tmp_path):
    code = main(
        ["analyze", "parity-split", "--horizon", "2000", "--out-dir", str(tmp_path / "o")]
    )
    assert code == EXIT_CONVERGES  # block ideal is the built-in default
    doc = json.loads((tmp_path / "o" / "report.json").read_text())
    assert doc["ideal"]["kind"] == "blocks"


def test_analyze_constant_config(tmp_path):
    cfg = {
        "sequence": {
            "family": "rotating",
            "params": {
                "ambient_dim": 3,
                "k": 1,
                "seed": 5,
                "profile": {"kind": "constant", "value": 0.0},
            },
        },
        "ideal": {"kind": "finite"},
        "horizon": 200,
        "eps_grid": [0.5, 0.1, 0.01],
        "out_dir": str(tmp_path / "out"),
    }
    path = write(tmp_path / "config.json", json.dumps(cfg))
    assert main(["analyze", "--config", path]) == EXIT_CONVERGES


def test_analyze_variant_rejected_for_variantless_builtin(tmp_path, capsys):
    code = main(
        [
            "analyze",
            "orthogonal-constant",
            "--variant",
            "printed",
            "--out-dir",
            str(tmp_path / "o"),
        ]
    )
    assert code > 2
    assert "variant" in capsys.readouterr().err


def test_analyze_unknown_builtin(tmp_path, capsys):
    assert main(["analyze", "no-such-sequence"]) > 2
    assert "sequence.builtin" in capsys.readouterr().err


def test_analyze_malformed_config_names_field(tmp_path, capsys):
    cfg = {
        "sequence": {"builtin": "parity-split"},
        "ideal": {"kind": "blocks"},
        "horizon": 4,  # too small
        "eps_grid": [0.5, 0.1],
    }
    path = write(tmp_path / "config.json", json.dumps(cfg))
    assert main(["analyze", "--config", path]) > 2
    assert "config field 'horizon'" in capsys.readouterr().err


def test_analyze_increasing_eps_grid_rejected(tmp_path, capsys):
    cfg = {
        "sequence": {"builtin": "parity-split"},
        "ideal": {"kind": "blocks"},
        "horizon": 100,
        "eps_grid": [0.1, 0.5],
    }
    path = write(tmp_path / "config.json", json.dumps(cfg))
    assert main(["analyze", "--config", path]) > 2
    assert "eps_grid" in capsys.readouterr().err


PARITY_CONFIG = {
    "sequence": {"builtin": "parity-split", "variant": "amended"},
    "ideal": {"kind": "blocks"},
    "horizon": 500,
    "eps_grid": [0.5, 0.1],
}
PROFILE = {"kind": "power_decay", "scale": 0.5, "exponent": 2.0}
PARITY_PROFILE = {"kind": "parity", "odd_value": 0.5, "even_scale": 0.5, "even_exponent": 1.0}
ROTATING_PARAMS = {"ambient_dim": 4, "k": 1, "profile": PROFILE}


def rotating(**params):
    return {"sequence": {"family": "rotating", "params": {**ROTATING_PARAMS, **params}}}


@pytest.mark.parametrize(
    "flag, value, field",
    [
        ("--horizon", "40", "horizon"),
        ("--eps", "0.3", "eps_grid"),
        ("--ideal", "density", "ideal.kind"),
        ("--tau", "0.2", "ideal.tau"),
        ("--variant", "printed", "sequence.variant"),
    ],
)
def test_config_rejects_experiment_flags(tmp_path, capsys, flag, value, field):
    # a config file sets every experiment field; a flag beside it used to be
    # dropped without a word
    path = write(tmp_path / "c.json", json.dumps(PARITY_CONFIG))
    out = tmp_path / "o"
    assert main(["analyze", "--config", path, flag, value, "--out-dir", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"config field '{field}'" in err and flag in err
    assert not out.exists()


@pytest.mark.parametrize(
    "change, flags, field",
    [
        ({"ideal": {"kind": "cofinite"}}, None, "ideal.kind"),
        (
            {"ideal": {"kind": "density", "tau": 0.7}},
            ["parity-split", "--ideal", "density", "--tau", "0.7"],
            "ideal.tau",
        ),
        ({"ideal": {"kind": "density", "tau": "small"}}, None, "ideal.tau"),
        ({"sequence": {"builtin": "no-such"}}, ["no-such"], "sequence.builtin"),
        ({"sequence": {"builtin": "parity-split", "variant": "reprinted"}}, None, "sequence.variant"),
        (
            {"sequence": {"builtin": "orthogonal-constant", "variant": "printed"}},
            ["orthogonal-constant", "--variant", "printed"],
            "sequence.variant",
        ),
        ({"ideal": {"tau": 0.2}}, None, "ideal.kind"),
        # an unknown key at any level is an error, never a silent default
        ({"sequence": {"builtin": "parity-split", "varient": "printed"}}, None, "sequence.varient"),
        ({"ideal": {"kind": "density", "tua": 0.2}}, None, "ideal.tua"),
        (rotating(sed=3), None, "sequence.params.sed"),
        (rotating(profile={**PROFILE, "exponant": 3.0}), None, "sequence.params.profile.exponant"),
        (rotating(profile=[0.5]), None, "sequence.params.profile"),
        # NaN passes every `<`/`<=` test; unchecked, it fails later as a rule error (exit 4)
        (
            rotating(profile={"kind": "constant", "value": math.nan}),
            None,
            "sequence.params.profile.value",
        ),
        (
            rotating(profile={**PROFILE, "exponent": math.nan}),
            None,
            "sequence.params.profile.exponent",
        ),
        # a profile value is a real number (not a bool), or a list of them per vector;
        # a list exponent used to raise a TypeError with a traceback (exit 1)
        (
            rotating(profile={**PROFILE, "exponent": [1, 2]}),
            None,
            "sequence.params.profile.exponent",
        ),
        (rotating(profile={**PROFILE, "exponent": "x"}), None, "sequence.params.profile.exponent"),
        (rotating(profile={**PROFILE, "scale": "0.5"}), None, "sequence.params.profile.scale"),
        (rotating(profile={**PROFILE, "scale": [[0.5]]}), None, "sequence.params.profile.scale"),
        (
            rotating(profile={"kind": "constant", "value": True}),
            None,
            "sequence.params.profile.value",
        ),
        (
            rotating(profile={**PARITY_PROFILE, "odd_value": None}),
            None,
            "sequence.params.profile.odd_value",
        ),
        (
            rotating(profile={**PARITY_PROFILE, "even_scale": ["0.5"]}),
            None,
            "sequence.params.profile.even_scale",
        ),
        (
            rotating(profile={**PARITY_PROFILE, "even_exponent": False}),
            None,
            "sequence.params.profile.even_exponent",
        ),
        # a NaN eps makes every exceptional set empty: a wrong `converges`, exit 0
        (
            {"eps_grid": [0.5, math.nan]},
            ["parity-split", "--variant", "printed", "--ideal", "finite", "--eps", "nan"],
            "eps_grid",
        ),
        ({"eps_grid": [math.inf, 0.5]}, ["parity-split", "--eps", "inf,0.5"], "eps_grid"),
        # a bool is not a number: these used to run as eps = 1, k = 1, d = 4 and seed = 2
        ({"eps_grid": [True, 0.5]}, None, "eps_grid"),
        ({"eps_grid": ["0.5"]}, None, "eps_grid"),
        (rotating(k=True), None, "sequence.params.k"),
        (rotating(ambient_dim="4"), None, "sequence.params.ambient_dim"),
        (rotating(seed=2.9), None, "sequence.params.seed"),
        # numpy's own "expected non-negative integer" named no field
        (rotating(seed=-1), None, "sequence.params.seed"),
        # these used to exit 3 with a message that named no field, or (an unhashable
        # profile kind) to exit 1 with a traceback
        (rotating(profile={"kind": ["x"]}), None, "sequence.params.profile.kind"),
        (rotating(k=0), None, "sequence.params.k"),
        (rotating(k=-1), None, "sequence.params.k"),
        ({"limit_basis": [[0.0, math.inf, 0.0]]}, None, "limit_basis"),
        ({"limit_basis": [[0.0, 0.0, 0.0]]}, None, "limit_basis"),
        ({**rotating(), "limit_basis": [[math.nan, 0.0, 0.0, 0.0]]}, None, "limit_basis"),
        (
            {**rotating(k=2), "limit_basis": [[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]},
            None,
            "limit_basis",
        ),
        # tau changes only the density ideal's verdicts
        (
            {"ideal": {"kind": "blocks", "tau": 0.2}},
            ["parity-split", "--ideal", "blocks", "--tau", "0.2"],
            "ideal.tau",
        ),
        (
            {"ideal": {"kind": "finite", "tau": 0.01}},
            ["parity-split", "--ideal", "finite", "--tau", "0.01"],
            "ideal.tau",
        ),
    ],
    ids=[
        "kind-unknown",
        "tau-out-of-range",
        "tau-not-a-number",
        "builtin-unknown",
        "variant-unknown",
        "variant-not-taken",
        "kind-missing",
        "sequence-key-unknown",
        "ideal-key-unknown",
        "params-key-unknown",
        "profile-key-unknown",
        "profile-not-an-object",
        "profile-value-nan",
        "profile-exponent-nan",
        "profile-exponent-list",
        "profile-exponent-string",
        "profile-scale-string",
        "profile-scale-nested-list",
        "profile-value-bool",
        "profile-odd-value-null",
        "profile-even-scale-list-of-strings",
        "profile-even-exponent-bool",
        "eps-nan",
        "eps-inf",
        "eps-bool",
        "eps-string",
        "params-k-bool",
        "params-ambient-dim-string",
        "params-seed-float",
        "params-seed-negative",
        "profile-kind-unhashable",
        "params-k-zero",
        "params-k-negative",
        "limit-basis-inf-builtin",
        "limit-basis-dependent-builtin",
        "limit-basis-nan-rotating",
        "limit-basis-dependent-rotating",
        "tau-with-blocks",
        "tau-with-finite",
    ],
)
def test_bad_values_name_their_field(tmp_path, capsys, change, flags, field):
    path = write(tmp_path / "c.json", json.dumps({**PARITY_CONFIG, **change}))
    with pytest.raises(ConfigError) as excinfo:
        build_experiment(load_config(path))
    assert excinfo.value.field == field
    for args in [["--config", path]] + ([flags] if flags else []):
        assert main(["analyze", *args, "--out-dir", str(tmp_path / "o")]) == EXIT_USAGE
        assert f"config field '{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["builtin", "config"])
def test_empty_out_dir_is_rejected(tmp_path, monkeypatch, capsys, source):
    # --out-dir is checked like the file's out_dir on both paths; an empty
    # one used to write into the working directory or into out/
    path = write(tmp_path / "c.json", json.dumps(PARITY_CONFIG))
    args = ["parity-split"] if source == "builtin" else ["--config", path]
    monkeypatch.chdir(tmp_path)
    assert main(["analyze", *args, "--out-dir", ""]) == EXIT_USAGE
    assert "config field 'out_dir'" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json"]


def test_usage_error_exit_code_is_not_inconclusive(capsys):
    # argparse usage failures must not collide with the verdict exit codes
    assert main(["analyze", "--no-such-flag"]) == 3
    capsys.readouterr()


def test_verdict_exit_code_mapping():
    from subspace_limits import Verdict
    from subspace_limits.cli import _verdict_exit

    assert _verdict_exit(Verdict.CONVERGES) == 0
    assert _verdict_exit(Verdict.DOES_NOT_CONVERGE) == 1
    assert _verdict_exit(Verdict.INCONCLUSIVE) == 2


# ---------------------------------------------------------------------------
# suite subcommand


def test_suite_orthogonal_constant_agrees(tmp_path):
    code = main(
        [
            "suite",
            "orthogonal-constant",
            "--ideal",
            "density",
            "--horizon",
            "500",
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0  # all five criteria agree (on does_not_converge)
    doc = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    assert doc["agreement"]["consistent"] is True
    assert set(doc["agreement"]["overall_by_criterion"].values()) == {
        "does_not_converge"
    }
    assert doc["volume_check"]["subspace_overall"] == "does_not_converge"
    assert doc["volume_check"]["volume"]["overall"] == "converges"
    assert doc["volume_check"]["converse_falsified"] is True
    assert doc["volume_check"]["implication_holds"] is True


def test_suite_parity_split_blocks_all_converge(tmp_path):
    code = main(
        [
            "suite",
            "parity-split",
            "--ideal",
            "blocks",
            "--horizon",
            "2000",
            "--out-dir",
            str(tmp_path / "out"),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "out" / "suite_report.json").read_text())
    assert set(doc["agreement"]["overall_by_criterion"].values()) == {"converges"}
    matrix = doc["agreement"]["matrix"]
    assert all(all(cell for cell in row) for row in matrix)


def test_main_reuses_one_parser(tmp_path, capsys):
    # one parser serves every main() call of a process; each call must print
    # and exit as it does with a parser built for it alone
    out = str(tmp_path / "out")
    config = write(tmp_path / "config.json", json.dumps({**PARITY_CONFIG, "horizon": 300}))
    u = write(tmp_path / "u.txt", "1 0 0\n")
    v = write(tmp_path / "v.txt", "1 1 0\n")
    calls = [
        ["suite", "parity-split", "--horizon", "400", "--out-dir", out],
        ["analyze", "--config", config, "--out-dir", out],
        ["analyze", "parity-split", "--no-such-flag"],
        ["example", "parity-split"],
        ["gap", u, v],
        ["suite", "parity-split", "--horizon", "400", "--out-dir", out],
    ]

    def run(argv):
        code = main(argv)
        return code, *capsys.readouterr()

    cli.build_parser.cache_clear()
    reused = [run(argv) for argv in calls]
    assert cli.build_parser.cache_info().misses == 1
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [0, 0, EXIT_USAGE, 0, 0, 0]
    assert "unrecognized arguments: --no-such-flag" in reused[2][2]
    assert reused[5] == reused[0]


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "argparse.ArgumentParser.__init__ = lambda *a, **kw: built.append(1) or init(*a, **kw)\n"
        "import subspace_limits.cli as cli\n"
        "print(len(built), cli.build_parser.cache_info().currsize)\n"
        "cli.build_parser()\n"
        "print(len(built) > 0)\n"
    )
    assert run_fresh(code) == "0 0\nTrue\n"


def run_fresh(code: str, *flags: str, cwd=None) -> str:
    """Standard output of ``code`` run by a new interpreter that imports this package."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, *flags, "-c", code],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_runs_never_import_numpy_random(tmp_path):
    # a new interpreter, as pytest or hypothesis may already hold numpy.random here;
    # importing it loads ~6 MiB (secrets, hashlib, libcrypto) for the life of the process
    doc = {
        **rotating(ambient_dim=40, k=8, seed=0),
        "ideal": {"kind": "density", "tau": 0.01},
        "horizon": 2000,
        "eps_grid": [0.5, 0.1, 0.01],
    }
    write(tmp_path / "rotating.json", json.dumps(doc))
    code = (
        "import sys\n"
        "from subspace_limits import cli\n"
        "codes = [cli.main(['analyze', '--config', 'rotating.json', '--out-dir', 'rot']),\n"
        "         cli.main(['suite', 'parity-split', '--horizon', '2000', '--out-dir', 'par'])]\n"
        "print(codes, 'numpy.random' in sys.modules, 'subspace_limits.oracle' in sys.modules)\n"
    )
    out = run_fresh(code, cwd=tmp_path)
    # nor the oracle, a cross-check for tests that production runs never need
    assert out.splitlines()[-1] == "[0, 0] False False"


def test_cli_files_do_not_depend_on_the_locale(tmp_path, monkeypatch):
    # under these flags any text-mode open without an encoding raises
    argvs = [
        ["example", "parity-split", "--emit-config", "emitted.json"],
        ["analyze", "--config", "emitted.json", "--out-dir", "analyze"],
        ["suite", "parity-split", "--horizon", "2000", "--out-dir", "suite"],
        ["gap", "../u.txt", "../v.txt"],
    ]
    write(tmp_path / "u.txt", "1 0\n")
    write(tmp_path / "v.txt", "0.6 0.8\n")
    code = f"from subspace_limits import cli\nprint([cli.main(a) for a in {argvs!r}])\n"
    strict = tmp_path / "strict"
    strict.mkdir()
    out = run_fresh(code, "-X", "warn_default_encoding", "-W", "error::EncodingWarning", cwd=strict)
    assert out.splitlines()[-2:] == ["0.8", "[0, 0, 0, 0]"]
    plain = tmp_path / "plain"
    plain.mkdir()
    monkeypatch.chdir(plain)
    assert [main(a) for a in argvs] == [0, 0, 0, 0]
    files = sorted(p.relative_to(plain) for p in plain.rglob("*") if p.is_file())
    assert len(files) == 5
    for name in files:
        data = (strict / name).read_bytes()
        assert data == (plain / name).read_bytes(), name
        if name.suffix == ".json":  # what a text-mode write of the dumped document gave
            text = json.dumps(json.loads(data), indent=2, sort_keys=True) + "\n"
            assert data == text.encode("ascii"), name
    emitted = json.dumps(cli._builtin_config("parity-split"), indent=2, sort_keys=True) + "\n"
    assert (strict / "emitted.json").read_bytes() == emitted.encode("ascii")


# ---------------------------------------------------------------------------
# determinism and round-trips


def test_suite_runs_are_byte_identical(tmp_path):
    cfg = {
        "sequence": {"builtin": "parity-split", "variant": "amended"},
        "ideal": {"kind": "blocks"},
        "horizon": 500,
        "eps_grid": [0.5, 0.1, 0.01],
    }
    path = write(tmp_path / "config.json", json.dumps(cfg))
    assert main(["suite", "--config", path, "--out-dir", str(tmp_path / "a")]) == 0
    assert main(["suite", "--config", path, "--out-dir", str(tmp_path / "b")]) == 0
    for name in ("trace.csv", "suite_report.json"):
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_report_round_trip(tmp_path):
    out = tmp_path / "out"
    main(
        [
            "analyze",
            "parity-split",
            "--ideal",
            "blocks",
            "--horizon",
            "500",
            "--out-dir",
            str(out),
        ]
    )
    doc = json.loads((out / "report.json").read_text())
    assert doc["schema"] == REPORT_SCHEMA
    # re-serializing the parsed document reproduces the file exactly
    again = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert again == (out / "report.json").read_text()


def _cert(bound):
    return f"subset of blocks [1] | empty beyond {bound}"


def _unsettled(bound, kind):
    return (
        f"certificate ({_cert(bound)}) is consistent but does not settle "
        f"membership in the {kind} ideal"
    )


_EVERY_WINDOW = "members keep appearing at every dyadic checkpoint"
_DENSE = "density at least 2*tau at every dyadic checkpoint"
_NOT_IN = ("not_in_ideal", "empirical")
_IN_EXACT = ("in_ideal", "exact")

# The ideal block and every per-eps verdict of `analyze` on parity-split at
# horizon 64 under the default eps grid, pinned so that no change to how an
# ideal decides membership moves a report unnoticed. Evidence holds only
# integers and count/j ratios, so it is the same on every platform.
PINNED_REPORTS = {
    ("amended", "finite", None): ({"kind": "finite"}, [
        (*_NOT_IN, {"certificate_note": _unsettled(2, "finite"), "horizon": 64,
                    "last_member": 63, "member_count": 32, "note": _EVERY_WINDOW,
                    "window": 12}),
        (*_NOT_IN, {"certificate_note": _unsettled(10, "finite"), "horizon": 64,
                    "last_member": 63, "member_count": 35, "note": _EVERY_WINDOW,
                    "window": 12}),
        (*_NOT_IN, {"certificate_note": _unsettled(100, "finite"), "horizon": 64,
                    "last_member": 64, "member_count": 57, "note": _EVERY_WINDOW,
                    "window": 12}),
    ]),
    ("amended", "density", None): ({"kind": "density", "tau": 0.01}, [
        (*_NOT_IN, {"certificate_note": _unsettled(2, "density"),
                    "checkpoints": [[4, 0.5], [8, 0.5], [16, 0.5], [32, 0.5], [64, 0.5]],
                    "final_density": 0.5, "horizon": 64, "member_count": 32,
                    "note": _DENSE, "tau": 0.01}),
        (*_NOT_IN, {"certificate_note": _unsettled(10, "density"),
                    "checkpoints": [[4, 1.0], [8, 0.875], [16, 0.6875], [32, 0.59375],
                                    [64, 0.546875]],
                    "final_density": 0.546875, "horizon": 64, "member_count": 35,
                    "note": _DENSE, "tau": 0.01}),
        (*_NOT_IN, {"certificate_note": _unsettled(100, "density"),
                    "checkpoints": [[4, 1.0], [8, 1.0], [16, 1.0], [32, 0.9375],
                                    [64, 0.890625]],
                    "final_density": 0.890625, "horizon": 64, "member_count": 57,
                    "note": _DENSE, "tau": 0.01}),
    ]),
    ("amended", "blocks", None): ({"kind": "blocks"}, [
        (*_IN_EXACT, {"certificate": _cert(2), "horizon": 64, "member_count": 32}),
        (*_IN_EXACT, {"certificate": _cert(10), "horizon": 64, "member_count": 35}),
        (*_IN_EXACT, {"certificate": _cert(100), "horizon": 64, "member_count": 57}),
    ]),
    ("printed", "density", "0.05"): ({"kind": "density", "tau": 0.05}, [
        (*_NOT_IN, {"checkpoints": [[4, 1.0], [8, 0.875], [16, 0.75], [32, 0.78125],
                                    [64, 0.78125]],
                    "final_density": 0.78125, "horizon": 64, "member_count": 50,
                    "note": _DENSE, "tau": 0.05}),
        (*_NOT_IN, {"checkpoints": [[4, 1.0], [8, 1.0], [16, 1.0], [32, 0.96875],
                                    [64, 0.96875]],
                    "final_density": 0.96875, "horizon": 64, "member_count": 62,
                    "note": _DENSE, "tau": 0.05}),
        (*_NOT_IN, {"checkpoints": [[4, 1.0], [8, 1.0], [16, 1.0], [32, 0.96875],
                                    [64, 0.984375]],
                    "final_density": 0.984375, "horizon": 64, "member_count": 63,
                    "note": _DENSE, "tau": 0.05}),
    ]),
}


@pytest.mark.parametrize(
    "variant, kind, tau", list(PINNED_REPORTS), ids=lambda v: str(v)
)
def test_report_verdicts_are_pinned(tmp_path, variant, kind, tau):
    flags = ["--variant", variant, "--ideal", kind] + (["--tau", tau] if tau else [])
    out = tmp_path / "out"
    main(["analyze", "parity-split", *flags, "--horizon", "64", "--out-dir", str(out)])
    doc = json.loads((out / "report.json").read_text())
    ideal, rows = PINNED_REPORTS[variant, kind, tau]
    assert doc["ideal"] == ideal
    got = doc["criteria"][0]["per_vector"][0]["per_epsilon"]
    assert [e["epsilon"] for e in got] == [0.5, 0.1, 0.01]
    assert [(e["status"], e["mode"], e["evidence"]) for e in got] == rows


def test_trace_floats_have_full_precision(tmp_path):
    out = tmp_path / "out"
    main(["analyze", "parity-split", "--horizon", "100", "--out-dir", str(out)])
    rows = (out / "trace.csv").read_text().splitlines()[1:]
    n, g = rows[1].split(",")[:2]  # index 2, an even index with irrational gap
    assert n == "2"
    s = math.sin(2.0)
    assert float(g) == pytest.approx(abs(s) / math.sqrt(4.0 + s * s), abs=1e-15)


def per_row_trace(traces) -> bytes:
    """trace.csv as one %.17g template per row writes it, every field formatted."""
    residual = traces.residual.max(axis=1)
    rows = [
        "%d,%.17g,%.17g,%.17g,%.17g,%.17g"
        % (n, traces.gap[n - 1], residual[n - 1], traces.coefficient_mass[n - 1].min(),
           traces.projection_norm[n - 1].min(), residual[n - 1])
        for n in range(1, traces.horizon + 1)
    ]
    return "\n".join([TRACE_HEADER, *rows]).encode() + b"\n"


def test_trace_csv_keeps_the_per_row_template(tmp_path):
    # -0 and subnormals keep their text; the residual column fills two fields,
    # and the last row's gap equals its residual
    third = 1 / 3
    traces = CriterionTraces(
        horizon=6,
        k=2,
        gap=np.array([-0.0, 5e-324, 1.0, 0.1, third, 0.25]),
        residual=np.array(
            [[-0.0, -0.0], [5e-324, 0.0], [1.0, 0.1], [0.1, third], [third, 0.0], [0.25, 0.125]]
        ),
        coefficient_mass=np.array(
            [[1.0, 1.0], [-0.0, 0.1], [5e-324, 1.0], [third, 1.0], [0.1, 0.1], [1.0, 0.75]]
        ),
        projection_norm=np.array(
            [[third, 1.0], [1.0, 1.0], [0.1, 0.5], [-0.0, 1.0], [5e-324, 1.0], [1.0, 1.0]]
        ),
    )
    write_trace_csv(tmp_path / "trace.csv", traces)
    text = (tmp_path / "trace.csv").read_bytes()
    assert text == per_row_trace(traces)
    assert b"1,-0,-0,1,0.33333333333333331,-0\n" in text
    assert b"2,4.9406564584124654e-324,4.9406564584124654e-324,-0," in text
    assert b"6,0.25,0.25,0.75,1,0.25\n" in text


def line_traces(gap, residual) -> CriterionTraces:
    """k=1 traces with the given gap and residual columns."""
    gap, residual = np.array(gap, dtype=float), np.array(residual, dtype=float)
    h = len(gap)
    mass, projection = np.full((h, 1), 0.75), np.full((h, 1), 0.5)
    return CriterionTraces(h, 1, gap, residual.reshape(h, 1), mass, projection)


THIRD_UP = np.nextafter(1 / 3, 1.0)  # one ulp above 1/3


@pytest.mark.parametrize(
    "gap, residual, row",
    [
        # equal as floats, not as bits: each field keeps its own sign
        ([0.0, 0.25], [-0.0, 0.25], b"1,0,-0,0.75,0.5,-0\n"),
        ([-0.0, 0.25], [0.0, 0.25], b"1,-0,0,0.75,0.5,0\n"),
        ([math.nan, 0.25], [math.nan, 0.25], b"1,nan,nan,0.75,0.5,nan\n"),
        ([math.nan, 0.25], [0.25, 0.25], b"1,nan,0.25,0.75,0.5,0.25\n"),
        ([0.25, 0.5], [0.25, math.nan], b"2,0.5,nan,0.75,0.5,nan\n"),
        # one index apart by one ulp, the rest bit-equal
        ([0.5, 1 / 3, 0.25], [0.5, THIRD_UP, 0.25], b"2,0.33333333333333331,0.33333333333333337,"),
    ],
    ids=["+0-vs--0", "-0-vs-+0", "nan-both", "nan-gap", "nan-residual", "one-ulp"],
)
def test_trace_csv_gap_field_has_its_own_bits(tmp_path, gap, residual, row):
    traces = line_traces(gap, residual)
    write_trace_csv(tmp_path / "trace.csv", traces)
    text = (tmp_path / "trace.csv").read_bytes()
    assert text == per_row_trace(traces)
    assert row in text


def _rotating_traces(k, seed):
    profile = {"kind": "power_decay", "scale": 0.45, "exponent": 2.0}
    seq, V = rotating_family(40, k, profile, seed)
    return criterion_traces(seq, V, 2000)


@pytest.mark.parametrize(
    "make, share",
    [
        # parity-split's gap and residual columns agree bit for bit at every index
        (lambda: criterion_traces(*parity_split_example("amended")[:2], 3001), "all"),
        (lambda: criterion_traces(*parity_split_example("printed")[:2], 3001), "all"),
        # a rotating line agrees at about half its indices: the per-field path
        (lambda: _rotating_traces(1, 0), "some"),
        (lambda: _rotating_traces(8, 0), None),
    ],
    ids=["parity-amended", "parity-printed", "rotating-k1-d40", "rotating-k8-d40"],
)
def test_trace_csv_matches_the_per_row_template(tmp_path, make, share):
    traces = make()
    bits = traces.gap.view(np.uint64) == traces.residual.max(axis=1).view(np.uint64)
    if share == "all":
        assert bits.all()
    elif share == "some":
        assert 0.2 < bits.mean() < 0.8
    write_trace_csv(tmp_path / "trace.csv", traces)
    assert (tmp_path / "trace.csv").read_bytes() == per_row_trace(traces)


def g17_texts(values) -> list:
    """The trace writer's text of each value: _g17.format_floats, its leading "," dropped."""
    v = np.array(values, dtype=float).reshape(1, -1)
    out = np.zeros((1, _g17.WORDS, v.shape[1]), _g17.WORD)
    _g17.format_floats(v, out)
    rows = np.ascontiguousarray(out[0].T).view(np.uint8)
    return [bytes(row[row != 0])[1:] for row in rows]


def assert_g17(values):
    values = [float(x) for x in values]
    wrong = [
        (x, text) for x, text in zip(values, g17_texts(values)) if text != b"%.17g" % x
    ]
    assert not wrong, f"{len(wrong)} texts differ from %.17g, first {wrong[:3]}"


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=64))
def test_g17_matches_percent_format_on_any_double(values):
    # st.floats draws NaN, +-inf, +-0, subnormals and the extremes
    assert_g17(values)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_g17_matches_percent_format_on_random_bit_patterns(bits):
    assert_g17(np.array(bits, dtype=np.uint64).view(np.float64))


def test_g17_matches_percent_format_on_adversarial_values():
    values = [5e-324, 1.7976931348623157e308, 0.0, math.nan, math.inf]
    # 10^e and both neighbours; some nearest doubles lie just below 10^e and
    # round up into the next decade at 17 digits (1e-14, 1e-70, 1e-305)
    for e in range(-323, 309):
        x = float(f"1e{e}")
        values += [x, np.nextafter(x, 0.0), np.nextafter(x, math.inf)]
    # exact 17-digit ties, which round half to even: 16 integer digits and .25 or .75
    values += [2.0**50 + j + f for j in range(200) for f in (0.25, 0.75)]
    # about one part in 2^53 below each power of ten
    values += [float.fromhex("0x1.fffffffffffffp-1") * 10.0**e for e in range(-300, 17)]
    assert_g17(values + [-x for x in values])


def test_g17_indices_match_percent_d():
    for first, count, words in [(1, 5000, 1), (99_999_990, 20, 2), (10**15 - 5, 10, 2)]:
        rows = np.ascontiguousarray(_g17.format_indices(first, count, words)).view(np.uint8)
        assert [bytes(row[row != 0]) for row in rows] == [
            b"%d" % n for n in range(first, first + count)
        ]


@pytest.mark.parametrize(
    "make",
    [
        lambda: criterion_traces(*parity_split_example("amended")[:2], 10_000),
        lambda: criterion_traces(*parity_split_example("printed")[:2], 10_000),
        lambda: _rotating_traces(1, 0),
        lambda: _rotating_traces(8, 0),
    ],
    ids=["parity-amended", "parity-printed", "rotating-k1-d40", "rotating-k8-d40"],
)
def test_production_traces_never_take_the_slow_path(tmp_path, monkeypatch, make):
    # a value that leaves the numpy path costs a Python "%.17g" call; these
    # traces must not, or the writer is silently back to the old speed
    def refuse(values):
        if values:
            raise AssertionError(f"values took the per-value fallback: {values[:5]}")
        return []

    monkeypatch.setattr(_g17, "_slow", refuse)
    traces = make()
    write_trace_csv(tmp_path / "trace.csv", traces)
    assert (tmp_path / "trace.csv").read_bytes() == per_row_trace(traces)


# ---------------------------------------------------------------------------
# example subcommand


def test_example_lists_builtins(capsys):
    assert main(["example"]) == 0
    out = capsys.readouterr().out
    assert "parity-split" in out and "orthogonal-constant" in out


def test_example_emits_runnable_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    assert main(["example", "parity-split", "--emit-config", str(cfg_path)]) == 0
    capsys.readouterr()
    cfg = load_config(cfg_path)
    cfg.out_dir = str(tmp_path / "out")
    seq, V, ideal = build_experiment(cfg)
    assert seq.k == 1 and V.ambient_dim == 3
    assert ideal.kind == "blocks"


EMITTED_CONFIGS = {
    "parity-split": """\
{
  "eps_grid": [
    0.5,
    0.1,
    0.01
  ],
  "horizon": 10000,
  "ideal": {
    "kind": "blocks"
  },
  "out_dir": "out",
  "sequence": {
    "builtin": "parity-split",
    "variant": "amended"
  }
}
""",
    "orthogonal-constant": """\
{
  "eps_grid": [
    0.5,
    0.1,
    0.01
  ],
  "horizon": 1000,
  "ideal": {
    "kind": "density"
  },
  "out_dir": "out",
  "sequence": {
    "builtin": "orthogonal-constant"
  }
}
""",
}


@pytest.mark.parametrize("name", sorted(EMITTED_CONFIGS))
def test_example_emitted_config_is_pinned(tmp_path, capsys, name):
    path = tmp_path / "cfg.json"
    assert main(["example", name, "--emit-config", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == EMITTED_CONFIGS[name]


@pytest.mark.parametrize("name", sorted(EMITTED_CONFIGS))
def test_builtin_without_flags_runs_its_emitted_config(tmp_path, capsys, name):
    # omitted flags take the built-in's defaults, horizon included
    cfg = write(tmp_path / "cfg.json", EMITTED_CONFIGS[name])
    by_name, by_config = tmp_path / "by_name", tmp_path / "by_config"
    code = main(["analyze", name, "--out-dir", str(by_name)])
    assert main(["analyze", "--config", cfg, "--out-dir", str(by_config)]) == code
    capsys.readouterr()
    for file in ("report.json", "trace.csv"):
        assert (by_name / file).read_bytes() == (by_config / file).read_bytes()


def test_example_unknown_name(capsys):
    assert main(["example", "nope"]) > 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# config machinery


def test_load_config_rejects_unknown_key(tmp_path):
    path = write(
        tmp_path / "c.json",
        json.dumps(
            {
                "sequence": {"builtin": "parity-split"},
                "ideal": {"kind": "blocks"},
                "horizon": 100,
                "eps_grid": [0.5],
                "horizont": 3,
            }
        ),
    )
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert "horizont" in str(excinfo.value)


@pytest.mark.parametrize("key", ["sequence", "ideal", "horizon", "eps_grid"])
def test_load_config_names_missing_required_key(tmp_path, key):
    doc = {k: v for k, v in PARITY_CONFIG.items() if k != key}
    with pytest.raises(ConfigError) as excinfo:
        load_config(write(tmp_path / "c.json", json.dumps(doc)))
    assert excinfo.value.field == key
    assert str(excinfo.value) == f"config field '{key}': is required"


def test_load_config_rejects_non_json(tmp_path):
    path = write(tmp_path / "c.json", "not json at all")
    with pytest.raises(ConfigError):
        load_config(path)


def test_load_config_rejects_undecodable_bytes(tmp_path):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"horizon": "\xff"}')
    with pytest.raises(ConfigError) as excinfo:
        load_config(path)
    assert excinfo.value.field == "<document>"
    assert "not UTF-8, UTF-16 or UTF-32 text" in str(excinfo.value)


@pytest.mark.parametrize("encoding", ["utf-8", "utf-8-sig", "utf-16", "utf-32-le"])
def test_load_config_reads_any_json_encoding(tmp_path, encoding):
    doc = {**PARITY_CONFIG, "out_dir": "\u00e9t\u00e9"}
    path = tmp_path / "c.json"
    path.write_bytes(json.dumps(doc, ensure_ascii=False).encode(encoding))
    assert load_config(path) == ExperimentConfig(**doc)


def test_config_requires_one_sequence_source():
    cfg = ExperimentConfig(
        sequence={},
        ideal={"kind": "finite"},
        horizon=100,
        eps_grid=[0.5],
        out_dir="out",
    )
    with pytest.raises(ConfigError) as excinfo:
        cfg.validate()
    assert "sequence" in str(excinfo.value)


def test_rotating_family_limit_override():
    limit = np.array([[0.0, 1.0, 0.0, 0.0]])
    seq, V = rotating_family(
        4, 1, {"kind": "power_decay", "scale": 0.5, "exponent": 2.0}, seed=3,
        limit_basis=limit,
    )
    np.testing.assert_allclose(V.basis, limit, atol=1e-12)
    U5 = seq.rule(5)
    assert U5.k == 1 and U5.ambient_dim == 4


def test_rotating_family_needs_room_for_companions():
    with pytest.raises(ConfigError):
        rotating_family(3, 2, {"kind": "constant", "value": 0.0})


def _reference_frame(v_rows: np.ndarray, d: int, rng: random.Random) -> np.ndarray:
    """Gram-Schmidt completion of ``v_rows`` to d rows, one drawn row at a time.

    Each new row is d uniforms ``2u - 1`` from the standard library stream,
    orthogonalized twice against the rows before it and normalized. This is
    the loop rotating_family ran before it called orthonormalize, drawing
    from the stream it reads now instead of NumPy's normal generator.
    """
    rows = [r for r in v_rows]
    while len(rows) < d:
        w = np.array([2.0 * rng.random() - 1.0 for _ in range(d)])
        for b in rows:
            w -= (w @ b) * b
        for b in rows:
            w -= (w @ b) * b
        norm = np.linalg.norm(w)
        if norm > 1e-6:
            rows.append(w / norm)
    return np.vstack(rows)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dk=st.integers(2, 40).flatmap(lambda d: st.tuples(st.just(d), st.integers(1, d // 2))),
    with_limit=st.booleans(),
)
def test_rotating_family_frame_matches_reference(seed, dk, with_limit):
    d, k = dk
    limit = np.random.default_rng(seed + 1).standard_normal((k, d)) if with_limit else None
    v_rows = orthonormalize(limit).basis if with_limit else np.empty((0, d))
    frame = _reference_frame(v_rows, d, random.Random(seed))
    # a constant sine of 1 turns every limit direction into its companion
    seq, V = rotating_family(d, k, {"kind": "constant", "value": 1.0}, seed, limit)
    assert np.array_equal(V.basis, frame[:k])
    assert np.array_equal(seq.rule(1).basis, frame[k : 2 * k])


def test_rotating_family_seed_is_an_integer():
    profile = {"kind": "constant", "value": 1.0}
    seq, V = rotating_family(12, 3, profile, 3)
    seq64, V64 = rotating_family(12, 3, profile, np.int64(3))
    assert np.array_equal(V64.basis, V.basis)
    assert np.array_equal(seq64.rule(1).basis, seq.rule(1).basis)
    with pytest.raises(TypeError):
        rotating_family(12, 3, profile, 2.9)


@pytest.mark.parametrize("with_limit", [False, True])
def test_rotating_family_orthonormalizes_only_the_rows_it_uses(monkeypatch, with_limit):
    d, k = 40, 8
    limit = np.random.default_rng(1).standard_normal((k, d)) if with_limit else None
    handed = []

    def recording(vectors):
        handed.append(np.array(vectors))
        return orthonormalize(vectors)

    monkeypatch.setattr(cli, "orthonormalize", recording)
    rotating_family(d, k, {"kind": "constant", "value": 0.5}, 4, limit)
    [rows] = handed
    assert rows.shape == (2 * k, d)
    if with_limit:
        assert np.array_equal(rows[:k], limit)


def test_rotating_limit_basis_is_orthonormalized_once(tmp_path, monkeypatch):
    # the rows go through Gram-Schmidt only as the first k of the 2k-row frame
    k, d = 3, 10
    limit = np.random.default_rng(5).standard_normal((k, d))
    shapes = []
    real = cli.orthonormalize
    monkeypatch.setattr(
        cli, "orthonormalize", lambda rows: shapes.append(np.shape(rows)) or real(rows)
    )
    doc = {
        **PARITY_CONFIG,
        **rotating(ambient_dim=d, k=k, seed=4),
        "ideal": {"kind": "finite"},
        "limit_basis": limit.tolist(),
    }
    path = write(tmp_path / "c.json", json.dumps(doc))
    _, V, _ = build_experiment(load_config(path))
    assert shapes == [(2 * k, d)]
    assert np.array_equal(V.basis, real(limit).basis)  # row i depends only on rows <= i


def test_rotating_family_rejects_bad_limit_basis():
    profile = {"kind": "constant", "value": 0.1}
    for rows in (1, 3):
        with pytest.raises(ConfigError) as excinfo:
            rotating_family(6, 2, profile, limit_basis=np.eye(6)[:rows])
        assert excinfo.value.field == "limit_basis"
    dependent = np.array([[1.0, 0, 0, 0, 0, 0], [2.0, 0, 0, 0, 0, 0]])
    with pytest.raises(RankDeficiencyError):
        rotating_family(6, 2, profile, limit_basis=dependent)
