import hashlib
import json
import os
import subprocess
import sys

from nfoldsusy.cli import main


def run_cli(*argv):
    import contextlib
    import io

    out = io.StringIO()
    code = None
    with contextlib.redirect_stdout(out):
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse errors
            code = exc.code
    return code, out.getvalue()


def test_derive_raw_text():
    code, out = run_cli("derive", "--n", "3", "--stage", "raw")
    assert code == 0
    assert out.splitlines()[0].startswith("I_3 = ")
    assert "displayed as 2*I_2" in out


def test_derive_transformed_paper():
    code, out = run_cli("derive", "--n", "2", "--stage", "transformed", "--preset", "paper")
    assert code == 0
    assert "Ibar_0" in out


def test_derive_bad_n_exits_2():
    code, _ = run_cli("derive", "--n", "0")
    assert code == 2
    code, _ = run_cli("derive", "--n", "9", "--stage", "raw")
    assert code == 2
    code, _ = run_cli("derive", "--n", "5", "--stage", "transformed")
    assert code == 2
    code, _ = run_cli("derive", "--n", "3", "--stage", "transformed", "--preset", "footnote-alt")
    assert code == 2


def test_derive_json_byte_stable():
    _, first = run_cli("derive", "--n", "3", "--stage", "eliminated", "--format", "json")
    _, second = run_cli("derive", "--n", "3", "--stage", "eliminated", "--format", "json")
    assert first == second
    payload = json.loads(first)
    assert payload["stage"] == "eliminated"
    assert [c["k"] for c in payload["conditions"]] == [1, 0]


def test_search_twofold():
    code, out = run_cli("search", "--n", "2", "--k", "1")
    assert code == 0
    assert "J_1" in out and "16*J_1" in out


def test_search_fourfold_degenerate():
    code, out = run_cli("search", "--n", "4", "--k", "1")
    assert code == 0
    assert "u0 = 2*C1" in out


def test_search_bad_k_exits_2():
    code, _ = run_cli("search", "--n", "2", "--k", "3")
    assert code == 2


def test_search_exhausted_exits_3():
    # a derivative bound of zero leaves no usable antiderivative basis
    code, _ = run_cli("search", "--n", "3", "--k", "1", "--deriv-bound", "0")
    assert code == 3


def test_emit(capsys):
    code, out = run_cli("emit", "--id", "2fC1")
    assert code == 0 and "w1''" in out
    code, out = run_cli("emit", "--id", "2fC1", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["prefactor"] == "16"
    code, _ = run_cli("emit", "--id", "nope")
    assert code == 2
    assert capsys.readouterr().err.endswith("nfoldsusy: error: no golden with id 'nope'\n")


def test_emit_latex():
    code, out = run_cli("emit", "--id", "2fc3pp", "--format", "latex")
    assert code == 0 and "w_{1}'''" in out


def test_verify_single_suite():
    code, out = run_cli("verify", "--suite", "jzero")
    assert code == 0
    assert "suite jzero: 10/10 passed" in out


def test_verify_json_shape():
    code, out = run_cli("verify", "--suite", "jzero", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["suites"][0]["suite"] == "jzero"


def test_out_file(tmp_path):
    target = tmp_path / "conditions.json"
    code, out = run_cli(
        "derive", "--n", "2", "--stage", "raw", "--format", "json", "--out", str(target)
    )
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["n"] == 2


def test_out_path_that_cannot_be_written_is_a_usage_error(tmp_path, capsys):
    for argv in (("derive", "--n", "3", "--out", str(tmp_path / "missing" / "x.txt")),
                 ("emit", "--id", "2fc3pp", "--out", str(tmp_path))):
        code, out = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2 and out == "", argv
        assert argv[-1] in err and "Traceback" not in err, argv


def test_console_script_entrypoint():
    proc = subprocess.run(
        [sys.executable, "-m", "nfoldsusy.cli", "derive", "--n", "2", "--stage", "raw"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("I_2")


def test_closed_stdout_exits_2_without_a_traceback():
    """The reader of stdout is gone before the command writes (``| head``,
    ``| true``): exit 2, as for an unwritable ``--out``, and no traceback."""
    for argv in (("derive", "--n", "3", "--stage", "raw"), ("emit", "--id", "2fc3pp")):
        proc = subprocess.Popen(
            [sys.executable, "-m", "nfoldsusy.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 2 and err == "", (argv, err)


def test_verify_all_json_is_byte_identical_to_the_recorded_digest():
    code, out = run_cli("verify", "--suite", "all", "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "b7e9097f0f631289f3af60f328bc58d01aba28d37082243b7764c42b417c4ad3"
    )


def run_cli_env(env, *argv):
    """Exit code and stderr of the CLI in a fresh interpreter, so that no
    memoized result hides the environment's derivative caps."""
    proc = subprocess.run(
        [sys.executable, "-m", "nfoldsusy.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, **env},
    )
    return proc.returncode, proc.stderr


def test_invalid_environment_caps_exit_2():
    code, err = run_cli_env({"NFOLDSUSY_MAX_DERIV": "abc"}, "derive", "--n", "3")
    assert code == 2
    assert "NFOLDSUSY_MAX_DERIV must be a non-negative integer" in err
    assert "Traceback" not in err
    code, err = run_cli_env({"NFOLDSUSY_DERIV_BOUND": "-3"}, "search", "--n", "3", "--k", "1")
    assert code == 2
    assert "NFOLDSUSY_DERIV_BOUND must be a non-negative integer" in err


def test_derivative_beyond_the_cap_exits_2():
    code, err = run_cli_env({"NFOLDSUSY_MAX_DERIV": "0"}, "derive", "--n", "2")
    assert code == 2
    assert " (NFOLDSUSY_MAX_DERIV=0)" in err and "Traceback" not in err
    code, err = run_cli_env({"NFOLDSUSY_MAX_DERIV": "3"}, "search", "--n", "3", "--k", "1")
    assert code == 2
    assert "NFOLDSUSY_MAX_DERIV=3" in err and "Traceback" not in err


def test_search_negative_deriv_bound_exits_2():
    code, _ = run_cli("search", "--n", "2", "--k", "1", "--deriv-bound", "-5")
    assert code == 2


def test_primes_beyond_the_cap_exit_2_like_any_derivative_beyond_it():
    env = {"NFOLDSUSY_MAX_DERIV": "2"}
    for argv in (("emit", "--id", "2fc3pp"), ("verify", "--suite", "integrals"),
                 ("verify", "--suite", "weights")):
        code, err = run_cli_env(env, *argv)
        assert code == 2, argv
        assert "NFOLDSUSY_MAX_DERIV=2" in err and "Traceback" not in err, argv


def test_every_accepted_derive_output_is_pinned():
    """One digest over stdout and exit code of the 63 accepted ``derive``
    commands: every format, raw and eliminated at N = 2..8, transformed at
    N = 2..4 for every preset.  It pins every scale note."""
    presets = {2: ("generic", "paper"), 3: ("generic", "paper"),
               4: ("generic", "paper", "footnote-alt")}
    digest = hashlib.sha256()
    for fmt in ("plain", "latex", "json"):
        argvs = [("derive", "--n", str(n), "--stage", stage, "--format", fmt)
                 for stage in ("raw", "eliminated") for n in range(2, 9)]
        argvs += [("derive", "--n", str(n), "--stage", "transformed", "--preset", p,
                   "--format", fmt) for n, names in presets.items() for p in names]
        for argv in argvs:
            code, out = run_cli(*argv)
            digest.update(f"{' '.join(argv)}\n{out}{code}\n".encode())
    assert digest.hexdigest() == (
        "b1aaf9d272d5453f1fbc58fac86e1cf081be9c8814ab45e3e7670fd2f65042a8"
    )


def test_every_accepted_search_output_is_pinned():
    """One digest over stdout and exit code of the 36 accepted ``search``
    commands: every (n, k, preset), both policies, plain and json.  It pins
    the order of every multiplier and of its terms."""
    cases = [(2, 1, "paper"), (3, 1, "paper"), (3, 2, "paper")]
    cases += [(4, k, p) for k in (1, 2, 3) for p in ("paper", "footnote-alt")]
    digest = hashlib.sha256()
    for n, k, preset in cases:
        for policy in ("multiplicative", "first-order"):
            for fmt in ("plain", "json"):
                argv = ("search", "--n", str(n), "--k", str(k), "--preset", preset,
                        "--policy", policy, "--format", fmt)
                code, out = run_cli(*argv)
                digest.update(f"{' '.join(argv)}\n{out}{code}\n".encode())
    assert digest.hexdigest() == (
        "08dc55ba693e972d3d70dfa9d084aa916c8634535e111d534fe40fa3b713a730"
    )
