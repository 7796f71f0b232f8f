import csv
import json
import math
import warnings
from pathlib import Path

import pytest

from aitax import cli, planner

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(autouse=True)
def in_tmp(tmp_path, monkeypatch):
    # default output paths are cwd-relative; keep them out of the repo
    monkeypatch.chdir(tmp_path)
    return tmp_path


def cfg(name: str) -> str:
    return str(CONFIGS / name)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "0.1.0" in capsys.readouterr().out


def test_check_assumptions_pass(tmp_path, capsys):
    out = tmp_path / "checks.json"
    rc = cli.main(["check-assumptions", cfg("regime_a.cfg"), "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["payload"]["all_pass"] is True
    assert doc["manifest"]["subcommand"] == "check-assumptions"
    assert "report written" in capsys.readouterr().out


def test_check_assumptions_failure_exit(tmp_path):
    out = tmp_path / "checks.json"
    rc = cli.main(["check-assumptions", cfg("cobb_douglas.cfg"), "--out", str(out)])
    assert rc == 1
    assert json.loads(out.read_text())["payload"]["all_pass"] is False


@pytest.mark.parametrize("flag,value,named", [
    ("--grid-factor", "nan", "grid factor"), ("--grid-factor", "inf", "grid factor"),
    ("--grid-points", "-3", "grid points"), ("--grid-factor", "1e80", "ratio derivatives"),
])
def test_check_assumptions_rejects_a_bad_grid(tmp_path, capsys, flag, value, named):
    """A NaN factor once passed every check on NaN derivatives, an infinite
    factor or a negative count failed inside numpy, and a factor of 1e80,
    whose far corners overflow the kernels, gave verdicts on NaN."""
    out = tmp_path / "checks.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["check-assumptions", cfg("regime_a.cfg"), flag, value, "--out", str(out)])
    assert rc == 2
    assert f"{named} must" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_an_unwritable_out_is_an_argument_error(tmp_path, capsys, fmt):
    out = tmp_path / "missing" / f"sol.{fmt}"
    rc = cli.main(["solve", cfg("regime_a.cfg"), "--format", fmt, "--out", str(out)])
    assert rc == 2
    assert f"output error: [Errno 2] No such file or directory: '{out}'" in capsys.readouterr().err


def test_missing_config_is_a_config_error(capsys):
    rc = cli.main(["check-assumptions", "no/such/file.cfg"])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


def edited_cfg(tmp_path, name: str, key: str, value: str) -> str:
    """A copy of the bundled config ``name`` with ``key`` set to ``value``."""
    lines = [line for line in Path(cfg(name)).read_text().splitlines()
             if not line.startswith(f"{key} ")]
    path = tmp_path / "bad.cfg"
    path.write_text("\n".join([*lines, f"{key} = {value}"]) + "\n")
    return str(path)


@pytest.mark.parametrize("key,value", [
    ("agents.cognitive.z", "nan"), ("prefs.psi", "nan"), ("g", "nan"), ("tech.a", "inf"),
])
def test_solve_rejects_a_non_finite_value(tmp_path, capsys, key, value):
    path = edited_cfg(tmp_path, "symmetric.cfg", key, value)
    rc = cli.main(["solve", path, "--out", str(tmp_path / "sol.json")])
    assert rc == 2
    assert f"{key}: must be finite" in capsys.readouterr().err


def test_check_assumptions_validates_the_config(tmp_path, capsys):
    out = tmp_path / "checks.json"
    path = edited_cfg(tmp_path, "regime_a.cfg", "tech.rho_c", "nan")
    assert cli.main(["check-assumptions", path, "--out", str(out)]) == 2
    assert "tech.rho_c: must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key", ["prefs.beta", "agents.cognitive.pi", "tech.delta_k", "tech.rho_c"])
def test_a_non_finite_field_is_reported_once(tmp_path, capsys, key):
    # its range or ordering check would misjudge NaN and name the field again
    path = edited_cfg(tmp_path, "regime_a.cfg", key, "nan")
    assert cli.main(["check-assumptions", path, "--out", str(tmp_path / "checks.json")]) == 2
    err = capsys.readouterr().err
    assert f"{key}: must be finite, got nan" in err
    assert err.count(key) == 1


def test_oracle_verify_validates_the_config(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    out = tmp_path / "oracle.json"
    path = edited_cfg(tmp_path, "regime_a.cfg", "tech.rho_c", "nan")
    assert cli.main(["oracle-verify", path, "--solution", str(sol), "--out", str(out)]) == 2
    assert "tech.rho_c: must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_solve_symmetric(tmp_path, capsys):
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", cfg("symmetric.cfg"), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "regime: none_bind" in stdout
    doc = json.loads(out.read_text())
    assert doc["payload"]["regime"] == "none_bind"
    assert abs(doc["payload"]["wedges"]["tau_k_mult"]) <= 1e-6


def test_solve_regime_a_reports_verdicts(tmp_path, capsys):
    out = tmp_path / "sol.json"
    rc = cli.main(["solve", cfg("regime_a.cfg"), "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "regime: cognitive_binds" in stdout
    assert "P1: pass" in stdout and "P3: pass" in stdout
    assert "P1p: not_applicable" in stdout
    verdicts = json.loads(out.read_text())["payload"]["wedges"]["verdicts"]
    assert {k: v["verdict"] for k, v in verdicts.items()} == {
        "P1": "pass", "P2": "pass", "P3": "pass",
        "P1p": "not_applicable", "P2p": "not_applicable", "P3p": "not_applicable",
    }


def test_solve_csv_writes_sidecar(tmp_path):
    out = tmp_path / "sol.csv"
    rc = cli.main(["solve", cfg("regime_a.cfg"), "--format", "csv", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:4] == ["t", "c_c", "c_m", "l_c"]
    assert len(rows) == 2  # header + the stationary period
    sidecar = json.loads((tmp_path / "sol.csv.manifest.json").read_text())
    assert sidecar["payload"]["regime"] == "cognitive_binds"
    assert "allocation" not in sidecar["payload"]


def test_solve_finite_horizon_override(tmp_path):
    out = tmp_path / "path.csv"
    rc = cli.main(["solve", cfg("regime_a_t20.cfg"), "--T", "6",
                   "--format", "csv", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 7  # header + flow periods t = 0..T
    assert [r[0] for r in rows[1:]] == [str(t) for t in range(7)]


def test_solve_takes_the_horizon_from_the_command_line(tmp_path):
    # the config is judged with the overrides applied, so --T may replace a bad T
    path = edited_cfg(tmp_path, "regime_a_t20.cfg", "T", "0")
    assert cli.main(["solve", path, "--T", "3", "--out", str(tmp_path / "path.json")]) == 0


def test_sweep_with_threshold(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", cfg("threshold.cfg"), "--param", "a_AI",
                   "--lo", "0.1", "--hi", "1.0", "--points", "5", "--log",
                   "--threshold", "--tol", "5e-3", "--out", str(out)])
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 5
    regimes = [r[1] for r in rows[1:]]
    assert regimes[0] == "cognitive_binds" and regimes[-1] == "manual_binds"
    bracket = json.loads((tmp_path / "sweep.csv.bracket.json").read_text())["payload"]
    assert 0.1 < bracket["lo"] < bracket["hi"] < 1.0
    assert bracket["width"] <= 5e-3
    assert "threshold bracket" in capsys.readouterr().out


def test_sweep_rejects_single_point(capsys):
    rc = cli.main(["sweep", cfg("threshold.cfg"), "--param", "a_AI",
                   "--lo", "0.1", "--hi", "1.0", "--points", "1"])
    assert rc == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("hi", ["0", "-1"])
def test_sweep_log_rejects_nonpositive_hi(tmp_path, capsys, hi):
    out = tmp_path / "sweep.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning may leak before the error
        rc = cli.main(["sweep", cfg("threshold.cfg"), "--param", "a_AI",
                       "--lo", "0.1", "--hi", hi, "--points", "3", "--log",
                       "--out", str(out)])
    assert rc == 2
    assert "--log needs a positive --hi" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag,lo,hi", [("--lo", "nan", "10"), ("--hi", "0.1", "inf")])
def test_sweep_rejects_a_non_finite_end(tmp_path, capsys, flag, lo, hi):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["sweep", cfg("threshold.cfg"), "--param", "a_AI",
                       "--lo", lo, "--hi", hi, "--points", "3"])
    assert rc == 2
    assert f"{flag} must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_nonpositive_tol_before_solving(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", cfg("threshold.cfg"), "--param", "a_AI",
                   "--lo", "0.1", "--hi", "10", "--points", "25", "--log",
                   "--threshold", "--tol", "-1", "--out", str(out)])
    assert rc == 2
    assert "--tol must be positive" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_rejects_an_infinite_tol_before_solving(tmp_path, capsys):
    """An infinite --tol once took the first midpoint for a converged bracket."""
    rc = cli.main(["sweep", cfg("threshold.cfg"), "--param", "a_AI",
                   "--lo", "0.1", "--hi", "10", "--points", "3",
                   "--threshold", "--tol", "inf", "--out", str(tmp_path / "sweep.csv")])
    assert rc == 2
    assert "--tol must be positive and finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sweep_threshold_without_flip(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", cfg("threshold.cfg"), "--param", "a_AI",
                   "--lo", "1.0", "--hi", "10.0", "--points", "3", "--log",
                   "--threshold", "--out", str(out)])
    assert rc == 5
    assert "threshold error" in capsys.readouterr().err
    assert out.exists()  # the sweep table itself still gets written


def test_sweep_threshold_with_an_unsolved_end_is_no_flip(tmp_path, capsys, unsolved_end_economy):
    """Without a single flip the threshold search starts cold from the range
    ends; an end the sweep could not solve is named, not solved again."""
    economy = tmp_path / "economy.cfg"
    economy.write_text(unsolved_end_economy)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", str(economy), "--param", "z_c", "--lo", "0.5", "--hi", "4",
                   "--points", "25", "--log", "--threshold", "--out", str(out)])
    assert rc == 5
    err = capsys.readouterr().err
    assert "threshold error" in err and "range end z_c=4.0 did not solve" in err
    with open(out) as fh:
        assert sum(row["error"] != "" for row in csv.DictReader(fh)) == 20


def test_oracle_verify_fresh_solve(tmp_path):
    out = tmp_path / "oracle.json"
    rc = cli.main(["oracle-verify", cfg("regime_a.cfg"), "--grid-points", "6",
                   "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["source"] == "solve"
    assert payload["objective_ok"] is True
    assert payload["regime_ok"] is True


def test_oracle_verify_solution_file_round_trip(tmp_path):
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    out = tmp_path / "oracle.json"
    rc = cli.main(["oracle-verify", cfg("regime_a.cfg"), "--solution", str(sol),
                   "--grid-points", "6", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())["payload"]
    assert payload["source"] == "file"
    assert payload["kkt_ok"] is True


def test_a_symmetric_solution_a_few_ulps_off_verifies(tmp_path):
    """On the symmetric desk no incentive constraint binds, and at the
    grid's symmetric points both flow slacks are zero up to rounding.
    Moving l_c, l_m or c_c of a stored solution by 1 to 3 ulps (units in
    the last place) either way once flipped the oracle's regime to
    both_bind in 9 of these 18 files (exit 6).  A grid point now holds a
    constraint when its flow slack is at least -TOL_ICC (1 - beta), the
    margin the solver grants a slack one."""
    sol = tmp_path / "sym.json"
    assert cli.main(["solve", cfg("symmetric.cfg"), "--out", str(sol)]) == 0
    out = tmp_path / "oracle.json"
    for field in ("l_c", "l_m", "c_c"):
        for ulps in (-3, -2, -1, 1, 2, 3):
            doc = json.loads(sol.read_text())
            entry = doc["payload"]["allocation"][field]
            for _ in range(abs(ulps)):
                entry[0] = math.nextafter(entry[0], math.copysign(math.inf, ulps))
            moved = tmp_path / "moved.json"
            moved.write_text(json.dumps(doc))
            rc = cli.main(["oracle-verify", cfg("symmetric.cfg"), "--solution", str(moved),
                           "--out", str(out)])
            assert (field, ulps, rc) == (field, ulps, 0)
            assert json.loads(out.read_text())["payload"]["regime_oracle"] == "none_bind"


def test_oracle_verify_flags_corrupted_solution(tmp_path):
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["payload"]["allocation"]["c_c"][0] *= 1.15
    sol.write_text(json.dumps(doc))
    rc = cli.main(["oracle-verify", cfg("regime_a.cfg"), "--solution", str(sol),
                   "--grid-points", "6", "--out", str(tmp_path / "oracle.json")])
    assert rc == 6
    report = json.loads((tmp_path / "oracle.json").read_text())["payload"]
    assert report["kkt_ok"] is False


@pytest.mark.parametrize("value", [-0.5, float("nan")])
def test_oracle_verify_rejects_a_stored_value_outside_the_domain(tmp_path, capsys, value):
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["payload"]["allocation"]["c_c"] = [value]
    sol.write_text(json.dumps(doc))
    rc = cli.main(["oracle-verify", cfg("regime_a.cfg"), "--solution", str(sol),
                   "--out", str(tmp_path / "oracle.json")])
    assert rc == 2
    assert "c_c must be finite and strictly positive" in capsys.readouterr().err


def test_oracle_verify_refuses_a_solution_with_no_feasible_grid_point(tmp_path, capsys):
    """A stored solution whose oracle grid holds no feasible point fails
    re-verification with exit 6, like any other oracle disagreement."""
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    allocation = doc["payload"]["allocation"]
    for name in ("c_c", "c_m"):
        allocation[name] = [10 * v for v in allocation[name]]
    sol.write_text(json.dumps(doc))
    rc = cli.main(["oracle-verify", cfg("regime_a.cfg"), "--solution", str(sol),
                   "--out", str(tmp_path / "oracle.json")])
    assert rc == 6
    assert "no grid point satisfies stationary feasibility" in capsys.readouterr().err


def test_oracle_verify_fails_a_stored_value_that_overflows_quietly(tmp_path, capsys):
    """A stored l_c of 1e200 is in the domain but overflows the kernels.
    It once printed numpy RuntimeWarnings from the KKT map, the preferences
    and the oracle before exit 6, and stopped with a traceback under
    ``-W error``; now the non-finite values fail their checks quietly, and
    the oracle's refusal is the only line on stderr."""
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    capsys.readouterr()
    doc = json.loads(sol.read_text())
    doc["payload"]["allocation"]["l_c"] = [1e200]
    sol.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = cli.main(["oracle-verify", cfg("regime_a.cfg"), "--solution", str(sol),
                       "--out", str(tmp_path / "oracle.json")])
    assert rc == 6
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("oracle error: "), err


def test_oracle_verify_refuses_a_misshapen_solution(tmp_path, capsys):
    """An emptied multiplier once failed inside numpy, with exit 1."""
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["payload"]["multipliers"]["lam"] = []
    sol.write_text(json.dumps(doc))
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle-verify", cfg("regime_a.cfg"), "--solution", str(sol),
                     "--out", str(out)]) == 2
    assert "cannot load solution file" in capsys.readouterr().err
    assert not out.exists()


def test_a_stored_kkt_point_meets_the_newton_tolerance(tmp_path):
    """A stored multiplier moved by 1e-8 leaves a KKT residual of about
    1.5e-8, above the tolerance every solve stops at (``TOL_NEWTON``), so
    the file fails re-verification."""
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    multipliers = doc["payload"]["multipliers"]
    multipliers["lam"] = [v * (1.0 + 1e-8) for v in multipliers["lam"]]
    sol.write_text(json.dumps(doc))
    out = tmp_path / "oracle.json"
    assert cli.main(["oracle-verify", cfg("regime_a.cfg"), "--solution", str(sol),
                     "--out", str(out)]) == 6
    report = json.loads(out.read_text())["payload"]
    assert planner.TOL_NEWTON < report["kkt_residual"] < 1e-6
    assert report["kkt_ok"] is False
    assert report["objective_ok"] is True and report["regime_ok"] is True


def test_oracle_verify_checks_the_solution_against_config(tmp_path):
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    out = tmp_path / "oracle.json"
    rc = cli.main(["oracle-verify", cfg("symmetric.cfg"), "--solution", str(sol),
                   "--grid-points", "6", "--out", str(out)])
    assert rc == 6
    assert json.loads(out.read_text())["payload"]["kkt_ok"] is False


def test_oracle_verify_refuses_finite_horizon_solution(tmp_path, capsys):
    sol = tmp_path / "path.json"
    assert cli.main(["solve", cfg("regime_a_t20.cfg"), "--T", "3", "--out", str(sol)]) == 0
    rc = cli.main(["oracle-verify", cfg("regime_a_t20.cfg"), "--solution", str(sol),
                   "--grid-points", "6", "--out", str(tmp_path / "oracle.json")])
    assert rc == 2
    assert "stationary" in capsys.readouterr().err


def test_oracle_verify_recomputes_the_stored_objective(tmp_path, capsys):
    sol = tmp_path / "sol.json"
    assert cli.main(["solve", cfg("regime_a.cfg"), "--out", str(sol)]) == 0
    doc = json.loads(sol.read_text())
    doc["payload"]["objective"] += 5.0
    sol.write_text(json.dumps(doc))
    out = tmp_path / "oracle.json"
    rc = cli.main(["oracle-verify", cfg("regime_a.cfg"), "--solution", str(sol),
                   "--grid-points", "6", "--out", str(out)])
    assert rc == 6
    report = json.loads(out.read_text())["payload"]
    assert report["kkt_ok"] is True and report["regime_ok"] is True
    assert report["objective_ok"] is False
    assert "recomputed" in capsys.readouterr().err


def test_one_parser_serves_every_call(tmp_path, capsys):
    """``main`` builds its parser once per process.  Reused, it gives the
    same help text and usage error each time, and no option of one call
    leaks into the next."""
    assert cli.build_parser() is cli.build_parser()
    helps, errors = [], []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
        with pytest.raises(SystemExit) as exc:
            cli.main(["solve"])
        assert exc.value.code == 2
        errors.append(capsys.readouterr().err)
    assert helps[0] == helps[1] and "oracle-verify" in helps[0]
    assert errors[0] == errors[1] and "required: config" in errors[0]

    csv_out, json_out = tmp_path / "sol.csv", tmp_path / "sol.json"
    runs = [
        (["check-assumptions", cfg("cobb_douglas.cfg"), "--out", str(tmp_path / "cd.json")], 1),
        (["solve", cfg("regime_a.cfg"), "--format", "csv", "--out", str(csv_out)], 0),
        (["solve", cfg("regime_a.cfg"), "--out", str(json_out)], 0),
        (["check-assumptions", "no/such/file.cfg"], 2),
        (["check-assumptions", cfg("regime_a.cfg"), "--out", str(tmp_path / "ra.json")], 0),
    ]
    assert [cli.main(argv) for argv, _ in runs] == [rc for _, rc in runs]
    assert csv_out.read_text().startswith("t,")
    assert json.loads(json_out.read_text())["payload"]["regime"] == "cognitive_binds"
