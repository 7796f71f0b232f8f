"""Result serialization: JSON documents, CSV tables, and run manifests.

Both emitters render every float through the same 17-significant-digit
formatter, so a value appearing in a CSV cell and in the JSON payload of
the same run is textually identical and survives a text round-trip at
full double precision.  Non-finite values use the NaN / Infinity /
-Infinity spellings that ``json.loads`` accepts.

Solution JSON documents carry enough of the solve (config, allocation,
multipliers) to be re-ingested and re-checked: ``load_solution`` rebuilds
the dataclasses so KKT residuals can be recomputed on the loaded copy.
CSV outputs get a ``<path>.manifest.json`` sidecar holding the manifest
plus the scalar fields that do not fit a per-period table.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from json.encoder import encode_basestring_ascii as _quote
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .configio import config_from_dict, config_to_dict
from .economy import Allocation, EconomyConfig
from .errors import ConfigError
from .planner import Multipliers, PlannerSolution, Regime
from .production import AssumptionReport
from .sweep import SweepPoint, SweepResult, ThresholdResult
from .wedges import WedgeReport


def render_float(x: float) -> str:
    """17-significant-digit decimal rendering; bit-faithful for doubles."""
    if math.isfinite(x):
        return format(x, ".17g")
    if x != x:
        return "NaN"
    return "Infinity" if x > 0 else "-Infinity"


def render_value(v) -> str:
    """CSV cell rendering, sharing render_float with the JSON emitter."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return render_float(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, enum.Enum):
        return str(v.value)
    return str(v)


# a container renders its float entries, the common kind, without a dispatch
def _dict(obj: dict, pad: str) -> str:
    if not obj:
        return "{}"
    inner = pad + "  "
    entries = [f"{inner}{_quote(str(k))}: "
               f"{render_float(v) if type(v) is float else _emit(v, inner)}"
               for k, v in obj.items()]
    return "{\n" + ",\n".join(entries) + "\n" + pad + "}"


def _list(obj, pad: str) -> str:
    if not obj:
        return "[]"
    inner = pad + "  "
    entries = [render_float(v) if type(v) is float else _emit(v, inner) for v in obj]
    return "[\n" + inner + (",\n" + inner).join(entries) + "\n" + pad + "]"


# what a value of each kind renders as, at indentation ``pad``: the first
# kind a value belongs to decides, so a bool is no int, and a str enum
# (such as Regime) renders as a str
_KINDS = (
    (type(None), lambda obj, pad: "null"),
    (bool, lambda obj, pad: "true" if obj else "false"),
    ((float, np.floating), lambda obj, pad: render_float(float(obj))),
    ((int, np.integer), lambda obj, pad: str(int(obj))),
    (str, lambda obj, pad: _quote(obj)),
    (enum.Enum, lambda obj, pad: json.dumps(obj.value)),
    (np.ndarray, lambda obj, pad: _emit(obj.tolist(), pad)),
    (dict, _dict),
    ((list, tuple), _list),
)
# the renderer of each type _KINDS names, looked up by a value's exact type
_EXACT = {kind: render for kinds, render in _KINDS
          for kind in (kinds if isinstance(kinds, tuple) else (kinds,))}


def _emit(obj, pad: str) -> str:
    """The JSON text of ``obj``, its nested lines indented by ``pad`` and
    two spaces per level; a value of no kind raises TypeError."""
    render = _EXACT.get(type(obj))
    if render is None:
        render = next((fn for kinds, fn in _KINDS if isinstance(obj, kinds)), None)
        if render is None:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
    return render(obj, pad)


def _record(obj) -> dict:
    """A dataclass instance's fields by name, in declaration order."""
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


def dumps(obj) -> str:
    """Serialize to JSON text with the shared float rendering."""
    return _emit(obj, "") + "\n"


@dataclass(frozen=True)
class RunManifest:
    """Provenance record written next to (or inside) every output file."""

    config_digest: str
    subcommand: str
    parameters: dict
    version: str
    duration_s: float
    outcome: str

    def to_dict(self) -> dict:
        return _record(self)


def wedge_payload(report: WedgeReport) -> dict:
    return {
        "tau_k": {h.value: v for h, v in report.tau_k.items()},
        "tau_ai": {h.value: v for h, v in report.tau_ai.items()},
        "tau_y": {h.value: v for h, v in report.tau_y.items()},
        "tau_k_mult": report.tau_k_mult,
        "tau_ai_mult": report.tau_ai_mult,
        "verdicts": {
            key: {
                "description": c.description,
                "verdict": c.verdict,
                "margin": c.margin,
                "observed": c.observed,
            }
            for key, c in report.verdicts.items()
        },
    }


def assumption_payload(report: AssumptionReport) -> dict:
    return {
        "all_pass": report.all_pass,
        "checks": {
            c.name: {
                "verdict": c.verdict,
                "axis": c.axis,
                "worst_value": c.worst_value,
                "worst_point": list(c.worst_point),
            }
            for c in report.checks()
        },
    }


def solution_payload(solution: PlannerSolution, wedges: WedgeReport) -> dict:
    return {
        "config": config_to_dict(solution.config),
        "regime": solution.regime,
        "objective": solution.objective,
        "foc_residual": solution.foc_residual,
        "slack_c": solution.slack_c,
        "slack_m": solution.slack_m,
        "allocation": {"n_periods": solution.allocation.n_periods, **_record(solution.allocation)},
        "multipliers": _record(solution.multipliers),
        "wages_c": solution.wages_c,
        "wages_m": solution.wages_m,
        "wedges": wedge_payload(wedges),
        "assumptions": assumption_payload(solution.assumptions),
        "warnings": list(solution.warnings),
    }


def sweep_payload(result: SweepResult) -> dict:
    return {
        "param": result.param,
        "n_failures": result.n_failures,
        "threshold_bracket": list(result.threshold_bracket) if result.threshold_bracket else None,
        "points": [_record(p) for p in result.points],
    }


def threshold_payload(th: ThresholdResult) -> dict:
    return {
        "param": th.param,
        "lo": th.lo, "hi": th.hi, "width": th.width,
        "lo_regime": th.lo_regime, "hi_regime": th.hi_regime,
        "tol": th.tol, "converged": th.converged,
        "iterations": th.iterations,
        "trace": [list(entry) for entry in th.trace],
        "anomalies": [list(entry) for entry in th.anomalies],
    }


def write_json(path: str | Path, manifest: RunManifest, payload: dict) -> None:
    Path(path).write_text(dumps({"manifest": manifest.to_dict(), "payload": payload}))


def write_manifest_sidecar(path: str | Path, manifest: RunManifest, extra: dict) -> Path:
    side = Path(str(path) + ".manifest.json")
    side.write_text(dumps({"manifest": manifest.to_dict(), "payload": extra}))
    return side


_SOLUTION_COLUMNS = ("t", "c_c", "c_m", "l_c", "l_m", "eff_l_c", "eff_l_m",
                     "k", "ai", "k_next", "ai_next", "lam", "w_c", "w_m")


def write_solution_csv(path: str | Path, solution: PlannerSolution) -> None:
    """One row per period; carried-out stocks appear as k_next/ai_next."""
    a = solution.allocation
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SOLUTION_COLUMNS)
        for t in range(a.n_periods):
            row = (t, a.c_c[t], a.c_m[t], a.l_c[t], a.l_m[t],
                   a.eff_l_c[t], a.eff_l_m[t], a.k[t], a.ai[t],
                   a.k[t + 1], a.ai[t + 1], solution.multipliers.lam[t],
                   solution.wages_c[t], solution.wages_m[t])
            writer.writerow([render_value(v) for v in row])


def write_sweep_csv(path: str | Path, result: SweepResult) -> None:
    """One row per grid point, one column per SweepPoint field."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f.name for f in fields(SweepPoint)])
        for p in result.points:
            writer.writerow([render_value(v) for v in _record(p).values()])


@dataclass(frozen=True)
class LoadedSolution:
    """A solution document read back from disk, rebuilt as dataclasses."""

    config: EconomyConfig
    regime: Regime
    allocation: Allocation
    multipliers: Multipliers
    payload: dict
    manifest: dict


def _load_record(cls, data: dict, n: int):
    """Rebuild a record from its payload, checking each field's shape: n
    periods, one more for the stocks k and ai, and none for mu_c and mu_m."""
    record = {}
    for f in fields(cls):
        v = np.asarray(data[f.name], dtype=float)
        shape = () if f.name in ("mu_c", "mu_m") else (n + (f.name in ("k", "ai")),)
        if v.shape != shape:
            raise ValueError(f"{f.name} has shape {v.shape}, not {shape}")
        record[f.name] = v if v.ndim else float(v)
    return cls(**record)


def load_solution(path: str | Path) -> LoadedSolution:
    """Re-ingest a solution JSON document written by write_json, shapes checked."""
    try:
        doc = json.loads(Path(path).read_text())
        payload = doc["payload"]
        n = np.size(payload["allocation"]["c_c"])
        if n < 1:
            raise ValueError("the allocation has no period")
        if type(payload["objective"]) not in (int, float):
            raise ValueError(f"objective {payload['objective']!r} is not a number")
        return LoadedSolution(
            config=config_from_dict(payload["config"]),
            regime=Regime(payload["regime"]),
            allocation=_load_record(Allocation, payload["allocation"], n),
            multipliers=_load_record(Multipliers, payload["multipliers"], n),
            payload=payload,
            manifest=doc.get("manifest", {}),
        )
    except (OSError, KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"cannot load solution file {path}: {exc!r}") from None
