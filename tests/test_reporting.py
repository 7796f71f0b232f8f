import csv
import enum
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_emitter
from aitax import Regime, cli, compute_wedge_report, foc_residuals
from aitax.economy import AgentKind, TechForm
from aitax.errors import ConfigError
from aitax.reporting import (
    RunManifest,
    dumps,
    load_solution,
    render_float,
    render_value,
    solution_payload,
    write_json,
    write_manifest_sidecar,
    write_solution_csv,
    write_sweep_csv,
)
from aitax.sweep import SweepPoint, SweepResult

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

class _Level(enum.Enum):
    """An enum that is no str: it renders as json.dumps of its value."""

    LOW = 1
    HALF = 0.5
    PAIR = (1, "two")


_TEXT = st.text(st.sampled_from(['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "a", " ",
                                 "\u00e9", "\u2028", "\u4e2d", "\U0001f600"]), max_size=6)
_FLOATS = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308]),
                    st.floats())
_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), _FLOATS, _TEXT,
    _FLOATS.map(np.float64), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans().map(np.bool_), _FLOATS.map(np.array),
    st.sampled_from([*Regime, *AgentKind, *TechForm, *_Level]),
    st.lists(_FLOATS, max_size=4).map(np.array),
    st.lists(_FLOATS, min_size=1, max_size=3).map(lambda v: np.array([v, v[::-1]])),
)
_PAYLOADS = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
    st.dictionaries(st.one_of(_TEXT, st.integers(), st.sampled_from([*Regime, *_Level])), inner,
                    max_size=4),
), max_leaves=12)


def _text_or_error(dump, payload) -> str:
    try:
        return dump(payload)
    except TypeError as exc:
        return f"TypeError: {exc}"


@given(_PAYLOADS)
def test_emitter_keeps_the_reference_bytes(payload):
    """``dumps`` gives the recursive reference emitter's text
    (``tests/reference_emitter.py``) byte for byte, or its TypeError (a
    numpy bool, say), on nested payloads of every kind a document holds."""
    assert _text_or_error(dumps, payload) == _text_or_error(reference_emitter.dumps, payload)


MANIFEST = RunManifest(
    config_digest="sha256:0000", subcommand="solve", parameters={"mode": "steady_state"},
    version="0.1.0", duration_s=0.25, outcome="ok",
)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_render_float_round_trips_exactly(x):
    assert float(render_float(x)) == x


def test_render_float_non_finite():
    assert render_float(math.nan) == "NaN"
    assert render_float(math.inf) == "Infinity"
    assert render_float(-math.inf) == "-Infinity"
    # json.loads understands all three spellings
    assert json.loads("[NaN, Infinity, -Infinity]")[1] == math.inf


def test_render_value_cells():
    assert render_value(None) == ""
    assert render_value(True) == "true"
    assert render_value(False) == "false"
    assert render_value(np.float64(0.5)) == "0.5"
    assert render_value(np.int64(7)) == "7"
    assert render_value(AgentKind.MANUAL) == "manual"


def test_dumps_is_valid_json():
    doc = {
        "a": [1, 2.5, None, True],
        "nested": {"empty_list": [], "empty_dict": {}, "s": 'quo"te'},
        "arr": np.array([0.1, 0.2]),
        "enum": AgentKind.COGNITIVE,
        "nan": math.nan,
    }
    parsed = json.loads(dumps(doc))
    assert parsed["a"] == [1, 2.5, None, True]
    assert parsed["nested"] == {"empty_list": [], "empty_dict": {}, "s": 'quo"te'}
    assert parsed["arr"] == [0.1, 0.2]
    assert parsed["enum"] == "cognitive"
    assert math.isnan(parsed["nan"])


def test_dumps_rejects_unknown_types():
    with pytest.raises(TypeError):
        dumps({"x": object()})


def test_csv_and_json_render_identical_text(tmp_path, regime_a_solution):
    sol = regime_a_solution
    json_path = tmp_path / "sol.json"
    csv_path = tmp_path / "sol.csv"
    write_json(json_path, MANIFEST, solution_payload(sol, compute_wedge_report(sol)))
    write_solution_csv(csv_path, sol)

    with open(csv_path, newline="") as fh:
        header, row = list(csv.reader(fh))
    cells = dict(zip(header, row))
    json_text = json_path.read_text()
    for column, value in (
        ("c_c", sol.allocation.c_c[0]),
        ("k", sol.allocation.k[0]),
        ("lam", sol.multipliers.lam[0]),
        ("w_m", sol.wages_m[0]),
    ):
        assert cells[column] == render_float(float(value))
        assert cells[column] in json_text


def test_solution_document_round_trip(tmp_path, regime_a_solution):
    sol = regime_a_solution
    path = tmp_path / "sol.json"
    write_json(path, MANIFEST, solution_payload(sol, compute_wedge_report(sol)))
    loaded = load_solution(path)

    assert loaded.config == sol.config
    assert loaded.regime is sol.regime
    assert loaded.manifest["subcommand"] == "solve"
    for field in ("c_c", "c_m", "l_c", "l_m", "k", "ai"):
        assert np.array_equal(getattr(loaded.allocation, field),
                              getattr(sol.allocation, field)), field
    assert np.array_equal(loaded.multipliers.lam, sol.multipliers.lam)
    # the KKT system must still hold on the re-ingested copy
    res = foc_residuals(loaded.config, loaded.allocation, loaded.multipliers)
    worst = max(float(np.max(np.abs(v))) for v in res.values())
    assert worst <= 1e-8


# edits of a solution document that load_solution refuses: (section, field,
# new value), each once raising IndexError, TypeError or ValueError later on,
# or, the c_m of two periods, re-verified as a steady state
BAD_FIELDS = [
    ("multipliers", "lam", []),
    ("multipliers", "mu_c", [0.1]),
    ("allocation", "k", [[1.1], [1.1]]),
    ("allocation", "c_c", []),
    ("allocation", "c_m", [0.25, 0.25]),
    (None, "objective", "-36.6"),
    (None, "objective", True),
]


def test_load_solution_rejects_bad_files(tmp_path, regime_a_solution):
    sol = regime_a_solution
    path = tmp_path / "sol.json"
    write_json(path, MANIFEST, solution_payload(sol, compute_wedge_report(sol)))
    for section, field, value in BAD_FIELDS:
        doc = json.loads(path.read_text())
        (doc["payload"][section] if section else doc["payload"])[field] = value
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="cannot load solution"):
            load_solution(edited)

    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    with pytest.raises(ConfigError, match="cannot load solution"):
        load_solution(garbled)

    hollow = tmp_path / "hollow.json"
    hollow.write_text('{"payload": {}}')
    with pytest.raises(ConfigError):
        load_solution(hollow)

    with pytest.raises(ConfigError):
        load_solution(tmp_path / "absent.json")


def test_manifest_sidecar_naming(tmp_path):
    target = tmp_path / "table.csv"
    side = write_manifest_sidecar(target, MANIFEST, {"regime": "none_bind"})
    assert side.name == "table.csv.manifest.json"
    doc = json.loads(side.read_text())
    assert doc["manifest"]["config_digest"] == "sha256:0000"
    assert doc["payload"]["regime"] == "none_bind"


# a sweep table whose cells are exact in 17 digits, with a failed point
# whose error the csv module must quote
SWEEP = SweepResult(param="a_AI", solutions=(None, None), points=(
    SweepPoint(0.5, "cognitive_binds", 0.25, -0.5, 0.0, 0.125, 2.0, -36.5),
    SweepPoint(4.0, error='no root, "x"'),
))
SWEEP_CSV = ("value,regime,tau_k,tau_ai,tau_y_c,tau_y_m,wage_ratio,objective,error\r\n"
             "0.5,cognitive_binds,0.25,-0.5,0,0.125,2,-36.5,\r\n"
             '4,,NaN,NaN,NaN,NaN,NaN,NaN,"no root, ""x"""\r\n')


def _output(writer: str, path: Path, sol):
    """The file ``writer`` writes for the output path ``path``, a call that
    writes it, and the bytes it must hold: the JSON text of ``dumps``, and
    CSV rows ended by CRLF, as the csv module ends them."""
    if writer == "write_json":
        payload = {"regime": "none_bind", "x": [0.5, math.nan]}
        return (path, lambda: write_json(path, MANIFEST, payload),
                dumps({"manifest": MANIFEST.to_dict(), "payload": payload}).encode())
    if writer == "write_manifest_sidecar":
        extra = {"regime": "none_bind"}
        return (Path(str(path) + ".manifest.json"),
                lambda: write_manifest_sidecar(path, MANIFEST, extra),
                dumps({"manifest": MANIFEST.to_dict(), "payload": extra}).encode())
    if writer == "write_solution_csv":
        a, lam = sol.allocation, sol.multipliers.lam
        row = (0, a.c_c[0], a.c_m[0], a.l_c[0], a.l_m[0], a.eff_l_c[0], a.eff_l_m[0],
               a.k[0], a.ai[0], a.k[1], a.ai[1], lam[0], sol.wages_c[0], sol.wages_m[0])
        text = ("t,c_c,c_m,l_c,l_m,eff_l_c,eff_l_m,k,ai,k_next,ai_next,lam,w_c,w_m\r\n"
                + ",".join(render_value(v) for v in row) + "\r\n")
        return path, lambda: write_solution_csv(path, sol), text.encode()
    return path, lambda: write_sweep_csv(path, SWEEP), SWEEP_CSV.encode()


WRITERS = ("write_json", "write_manifest_sidecar", "write_solution_csv", "write_sweep_csv")


@pytest.mark.parametrize("writer", WRITERS)
def test_a_rewritten_output_is_a_new_file(tmp_path, regime_a_solution, writer):
    """A handle open on the old output still reads the old bytes: the
    writer unlinked the old file and wrote its bytes to a new one."""
    target, write, expected = _output(writer, tmp_path / "out", regime_a_solution)
    target.write_bytes(b"old bytes\n")
    with open(target, "rb") as old:
        write()
        assert old.read() == b"old bytes\n"
    assert target.read_bytes() == expected
    assert not target.is_symlink()


@pytest.mark.parametrize("writer", WRITERS)
def test_a_symlinked_output_is_written_through(tmp_path, regime_a_solution, writer):
    target, write, expected = _output(writer, tmp_path / "out", regime_a_solution)
    real = tmp_path / "real"
    real.write_bytes(b"old bytes\n")
    target.symlink_to(real)
    write()
    assert target.is_symlink()
    assert real.read_bytes() == expected


@pytest.mark.parametrize("writer", WRITERS)
def test_a_hard_linked_output_is_rewritten_in_place(tmp_path, regime_a_solution, writer):
    target, write, expected = _output(writer, tmp_path / "out", regime_a_solution)
    target.write_bytes(b"old bytes\n")
    other = tmp_path / "other"
    os.link(target, other)
    write()
    assert os.path.samefile(target, other)
    assert target.read_bytes() == other.read_bytes() == expected


def test_an_output_that_cannot_be_unlinked_is_rewritten_in_place(tmp_path, monkeypatch):
    """An unlink that fails, as in a read-only directory, leaves the old
    file to be truncated and rewritten, so an open handle sees the new bytes."""
    def refuse(path):
        raise PermissionError(13, "Permission denied", str(path))
    target, write, expected = _output("write_json", tmp_path / "out", None)
    target.write_bytes(b"old bytes\n")
    monkeypatch.setattr(os, "unlink", refuse)
    with open(target, "rb") as old:
        write()
        assert old.read() == expected


# per writer, the command line that reaches it with ``out`` as its output
# path, and the path that is made a directory
_DIRECTORY_RUNS = {
    "write_json": (["check-assumptions", "regime_a.cfg"], ""),
    "write_manifest_sidecar": (["solve", "regime_a.cfg", "--format", "csv"], ".manifest.json"),
    "write_solution_csv": (["solve", "regime_a.cfg", "--format", "csv"], ""),
    "write_sweep_csv": (["sweep", "threshold.cfg", "--param", "a_AI", "--lo", "0.1",
                         "--hi", "10", "--points", "3", "--log"], ""),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_an_output_path_that_is_a_directory_exits_2(tmp_path, capsys, writer):
    (command, name, *rest), suffix = _DIRECTORY_RUNS[writer]
    out = tmp_path / "out"
    directory = Path(str(out) + suffix)
    directory.mkdir()
    (directory / "kept").write_text("kept")
    rc = cli.main([command, str(CONFIGS / name), *rest, "--out", str(out)])
    assert rc == 2
    assert f"output error: [Errno 21] Is a directory: '{directory}'" in capsys.readouterr().err
    assert (directory / "kept").read_text() == "kept"
