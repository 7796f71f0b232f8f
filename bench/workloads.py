"""The four workloads: their inputs, their operations and the checks on them.

A workload is prepared once (``prepare``), then runs rounds of operations
(``round``).  Every operation calls ``aitax.cli.main`` in-process with the
same arguments a user would type, and returns what the checks need; the
checks run outside the timed region.  ``check`` returns True when the
operation failed in the one way the benchmark keeps on purpose (a fuzz
economy refused with exit 3) and raises ``CheckError`` on anything else
that is wrong.
"""

from __future__ import annotations

import contextlib
import csv
import io
import random
from pathlib import Path

import reference as ref
from fuzz import read_cfg, write_economies
from reference import require

DESK = ("symmetric", "regime_a", "regime_b", "threshold", "cobb_douglas")
TRANSITION = "regime_a_t20"
THRESHOLD_LO, THRESHOLD_HI, THRESHOLD_POINTS = 0.1, 10.0, 25
THRESHOLD_ARGS = ("--param", "a_AI", "--lo", str(THRESHOLD_LO), "--hi", str(THRESHOLD_HI),
                  "--points", str(THRESHOLD_POINTS), "--log", "--threshold")
FUZZ_SEED = 0  # the drawn economies stay the same for every --seed
FUZZ_COUNT = 24
EXIT_SOLVER = 3


def cli(argv: list[str]) -> tuple[int, str]:
    """``aitax.cli.main(argv)`` with its console output captured."""
    import aitax.cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        rc = aitax.cli.main(argv)
    return rc, buf.getvalue()


class Workload:
    """Inputs under ``root/configs``, outputs under ``out``; ``seed`` orders the inputs."""

    # span names the traced run must record at least once
    required_spans = ("cli.main", "configio.load", "planner.solve", "newton", "planner.residual",
                      "production.evaluate", "production.ratio_grad", "reporting.write")

    def __init__(self, root: Path, out: Path, seed: int) -> None:
        self.root, self.out, self.seed = root, out, seed
        self.payloads: dict[str, str] = {}

    def config(self, name: str) -> Path:
        path = self.root / "configs" / f"{name}.cfg"
        require(path.is_file(), f"missing input {path}")
        return path

    def prepare(self) -> None:
        raise NotImplementedError

    def warm_up(self) -> None:
        """One untimed round, checked like the timed ones."""
        for op in self.round():
            self.check(op, self.run_op(op))

    def round(self) -> list:
        raise NotImplementedError

    def run_op(self, op):
        """Run one operation; returns what ``check`` needs."""
        raise NotImplementedError

    def check(self, op, outcome) -> bool:
        """Check one operation's outputs; True when it failed on purpose."""
        raise NotImplementedError

    def same_payload(self, key: str, path: Path) -> dict:
        """Read a document and require its payload to repeat byte for byte."""
        doc, payload = ref.read_doc(path)
        first = self.payloads.setdefault(key, payload)
        require(payload == first, f"{key}: payload differs from the first solve of the same input")
        return doc["payload"]


class Desk(Workload):
    required_spans = Workload.required_spans + (
        "production.assumptions", "planner.foc_residuals", "wedges.report", "oracle.grid",
        "reporting.load")

    def prepare(self) -> None:
        self.inputs = {name: (self.config(name), read_cfg(self.config(name))) for name in DESK}
        self.order = list(DESK)
        random.Random(self.seed).shuffle(self.order)

    def round(self) -> list:
        return [self.order]

    def run_op(self, op):
        codes = {}
        for name in op:
            cfg = str(self.inputs[name][0])
            sol = str(self.out / f"{name}.solution.json")
            codes[name] = (
                cli(["solve", cfg, "--out", sol])[0],
                cli(["oracle-verify", cfg, "--solution", sol, "--out", str(self.out / f"{name}.oracle.json")])[0],
                cli(["check-assumptions", cfg, "--out", str(self.out / f"{name}.assumptions.json")])[0],
            )
        return codes

    def check(self, op, codes) -> bool:
        for name, (rc_solve, rc_oracle, rc_assume) in codes.items():
            require(rc_solve == 0 and rc_oracle == 0, f"{name}: solve exit {rc_solve}, oracle-verify exit {rc_oracle}")
            payload = self.same_payload(name, self.out / f"{name}.solution.json")
            wedges = ref.check_solution(name, payload, self.inputs[name][1])
            ref.check_desk(name, payload, wedges)
            ref.check_oracle_doc(name, ref.read_doc(self.out / f"{name}.oracle.json")[0]["payload"])
            doc = ref.read_doc(self.out / f"{name}.assumptions.json")[0]
            ref.check_assumption_doc(name, doc["payload"], rc_assume)
        return False


class Transition(Workload):
    required_spans = Workload.required_spans + (
        "production.assumptions", "planner.foc_residuals", "wedges.report")

    def prepare(self) -> None:
        self.path = self.config(TRANSITION)
        self.cfg = read_cfg(self.path)
        self.solution = self.out / "transition.solution.json"

    def warm_up(self) -> None:
        steady = self.out / "steady.solution.json"
        rc, text = cli(["solve", str(self.path), "--mode", "steady", "--out", str(steady)])
        require(rc == 0, f"steady solve exit {rc}: {text}")
        self.steady = ref.read_doc(steady)[0]["payload"]
        ref.check_solution("steady", self.steady, self.cfg)
        super().warm_up()

    def round(self) -> list:
        return [TRANSITION]

    def run_op(self, op):
        return cli(["solve", str(self.path), "--out", str(self.solution)])

    def check(self, op, outcome) -> bool:
        rc, text = outcome
        require(rc == 0, f"transition solve exit {rc}: {text}")
        payload = self.same_payload(op, self.solution)
        ref.check_solution(op, payload, self.cfg)
        ref.check_transition(payload, self.cfg, self.steady)
        return False


class Threshold(Workload):
    required_spans = Workload.required_spans + (
        "production.assumptions", "planner.foc_residuals", "sweep.sweep", "sweep.threshold")

    def prepare(self) -> None:
        self.path = self.config("threshold")
        self.table = self.out / "sweep.csv"

    def round(self) -> list:
        return ["threshold"]

    def run_op(self, op):
        return cli(["sweep", str(self.path), *THRESHOLD_ARGS, "--out", str(self.table)])

    def check(self, op, outcome) -> bool:
        rc, text = outcome
        require(rc == 0, f"sweep exit {rc}: {text}")
        sidecar = self.same_payload("sweep", Path(f"{self.table}.manifest.json"))
        bracket = self.same_payload("bracket", Path(f"{self.table}.bracket.json"))
        with open(self.table, newline="") as fh:
            rows = list(csv.DictReader(fh))
        ref.check_threshold(sidecar, bracket, rows, THRESHOLD_LO, THRESHOLD_HI, THRESHOLD_POINTS)
        return False


class Fuzz(Workload):
    required_spans = Workload.required_spans + (
        "production.assumptions", "planner.foc_residuals", "wedges.report")

    def prepare(self) -> None:
        paths = write_economies(self.root / "configs", self.out / "economies", FUZZ_SEED, FUZZ_COUNT)
        self.inputs = {path.stem: (path, read_cfg(path)) for path in paths}
        self.order = sorted(self.inputs)
        random.Random(self.seed).shuffle(self.order)
        self.refused: dict[str, bool] = {}

    def round(self) -> list:
        return self.order

    def run_op(self, op):
        out = self.out / f"{op}.solution.json"
        out.unlink(missing_ok=True)
        return cli(["solve", str(self.inputs[op][0]), "--out", str(out)])

    def check(self, op, outcome) -> bool:
        rc, text = outcome
        require(rc in (0, EXIT_SOLVER), f"{op}: solve exit {rc}: {text}")
        refused = rc == EXIT_SOLVER
        first = self.refused.setdefault(op, refused)
        require(refused == first, f"{op}: refused in one round and solved in another")
        if not refused:
            payload = self.same_payload(op, self.out / f"{op}.solution.json")
            ref.check_solution(op, payload, self.inputs[op][1])
        return refused


WORKLOADS = {"desk": Desk, "transition": Transition, "threshold": Threshold, "fuzz": Fuzz}
