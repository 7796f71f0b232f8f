"""Seeded generator of valid economies around the bundled presets.

Each draw takes one of the four non-Cobb-Douglas desk configs in turn,
perturbs every economic parameter at random and keeps the draw only when
``validate_config`` accepts it; otherwise it draws again.  Draws are never
filtered by how they solve.  The economies are written as ``.cfg`` files,
so the program sees nothing but ordinary config files.

    python3 bench/fuzz.py --seed 0 --count 24 --out-dir bench/out/economies
"""

from __future__ import annotations

import argparse
import math
import random
import sys
from pathlib import Path

PRESETS = ("symmetric", "regime_a", "regime_b", "threshold")

# multiplicative spread for positive parameters: x * exp(U(-S, S))
LOG_SPREAD = 0.3
# additive spread for CES exponents, which may be negative
EXPONENT_SPREAD = 0.3

_SCALED = (
    "agents.cognitive.z", "agents.manual.z", "prefs.psi", "prefs.phi",
    "tech.a", "tech.mu_top", "tech.lambda_c", "tech.theta_m", "tech.a_ai",
    "tech.delta_k", "tech.delta_ai",
)
_SHIFTED = ("tech.sigma_top", "tech.rho_c", "tech.rho_m")


def read_cfg(path: Path) -> dict[str, str]:
    """Flat ``key = value`` pairs of a config file, comments dropped."""
    pairs = {}
    for raw in path.read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = (part.strip() for part in line.partition("="))
            pairs[key] = value
    return pairs


def render_cfg(pairs: dict[str, str]) -> str:
    return "".join(f"{key} = {value}\n" for key, value in pairs.items())


def perturb(base: dict[str, str], rng: random.Random) -> dict[str, str]:
    out = dict(base)
    scale = lambda v: float(v) * math.exp(rng.uniform(-LOG_SPREAD, LOG_SPREAD))
    pi_c = scale(base["agents.cognitive.pi"])
    out["agents.cognitive.pi"] = repr(pi_c)
    out["agents.manual.pi"] = repr(1.0 - pi_c)
    beta = float(base["prefs.beta"])
    out["prefs.beta"] = repr(1.0 - scale(1.0 - beta))
    for key in _SCALED:
        out[key] = repr(scale(base[key]))
    for key in _SHIFTED:
        out[key] = repr(float(base[key]) + rng.uniform(-EXPONENT_SPREAD, EXPONENT_SPREAD))
    return out


def draw_economies(config_dir: Path, seed: int, count: int) -> list[tuple[str, str]]:
    """``count`` (name, cfg text) pairs, each accepted by ``validate_config``."""
    from aitax.configio import parse_config
    from aitax.economy import validate_config

    rng = random.Random(seed)
    bases = {name: read_cfg(config_dir / f"{name}.cfg") for name in PRESETS}
    drawn = []
    for i in range(count):
        preset = PRESETS[i % len(PRESETS)]
        while True:
            text = render_cfg(perturb(bases[preset], rng))
            if validate_config(parse_config(text)).ok:
                break
        drawn.append((f"fuzz{i:02d}_{preset}", text))
    return drawn


def write_economies(config_dir: Path, out_dir: Path, seed: int, count: int) -> list[Path]:
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in draw_economies(config_dir, seed, count):
        path = out_dir / f"{name}.cfg"
        path.write_text(text)
        paths.append(path)
    return paths


def main() -> None:
    root = Path(__file__).resolve().parent.parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    parser.add_argument("--out-dir", type=Path, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(root / "src"))
    for path in write_economies(root / "configs", args.out_dir, args.seed, args.count):
        print(path)


if __name__ == "__main__":
    main()
