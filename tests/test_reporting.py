import csv
import enum
import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_emitter
from aitax import Regime, compute_wedge_report, foc_residuals
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
)

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
