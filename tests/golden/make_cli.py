"""Golden answers of the command-line interface: stdout and exit code of each
subcommand over small fixtures, and of refused inputs, with their error
line.

    PYTHONPATH=src python3 tests/golden/make_cli.py

writes ``cli.json`` next to this script.  ``tests/test_golden.py`` recomputes
``compute()`` and compares it with the file.  The fixtures are written to a
temporary directory and the recorded argv names them by file name only.
``--format csv`` is left out: its ``runtime_ms`` column is wall-clock time.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from curvecount import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli.json"

PARABOLA = {"kind": "polynomial-graph", "dimension": 2,
            "coefficients": [["0", "0", "1"]], "domain": ["0", "1"]}
CUBIC = {"kind": "polynomial-parametric",
         "coefficients": [["0", "1"], ["1/3", "0", "-1", "2"]],
         "domain": ["1/8", "7/8"]}
CIRCLE = {"kind": "circle-arc", "domain": ["0", "1"]}
# points on and beside the parabola, every third one on it
POINTS = [[f"{i}/12", f"{i * i * 25 + (i % 3) * 144}/3600"] for i in range(13)]
GAP = {"type": "gap", "base": ["1/40", "0"],
       "generators": [["1/12", "1/90"], ["1/60", "1/10"]], "lengths": [9, 8]}
LATTICE = {"type": "lattice", "N": 24, "box": [["0", "1"], ["0", "1"]]}

FIXTURES = {
    "parabola.json": PARABOLA,
    "cubic.json": CUBIC,
    "circle.json": CIRCLE,
    "m3.json": [[1, 0], [0, 1], [1, 1], [0, 2]],
    "points.json": POINTS,
    "q_lattice.json": {"curve": "parabola.json",
                       "delta": {"d": "1", "N": 24, "n": 2},
                       "source": LATTICE},
    "q_circle.json": {"curve": CIRCLE, "delta": "1/50", "source": LATTICE},
    "q_points.json": {"curve": "parabola.json", "delta": "1/30",
                      "source": {"type": "points", "points": POINTS}},
    "q_gap.json": {"curve": PARABOLA, "delta": "1/40", "source": GAP},
    "exp_oncurve.json": {"experiment": "exponent", "curve": "parabola.json",
                         "schedule": {"squares_up_to": 64},
                         "delta": "on-curve", "monomials": [[1, 0], [0, 1]]},
    "exp_tube.json": {"experiment": "exponent", "curve": PARABOLA,
                      "schedule": [4, 8, 16], "delta": {"d": "3/2", "power": 2},
                      "box": [["0", "1/2"], ["0", "1"]],
                      "monomials": [[1, 0], [0, 1]]},
    "exp_energy.json": {"experiment": "energy", "curve": "parabola.json",
                        "schedule": [4, 8, 16], "delta": {"d": "1", "power": 2},
                        "energy_m": 2},
    # refused: a float coefficient and a float lattice box
    "bad_curve.json": {"kind": "polynomial-graph",
                       "coefficients": [[0, 0, 1.5]]},
    "bad_box.json": {"curve": "parabola.json", "delta": "1/10",
                     "source": {"type": "lattice", "N": 10,
                                "box": [[0.1, 1], [0, 1]]}},
}

COMMANDS = (
    ["wronskian", "--curve", "parabola.json", "--t", "1/3"],
    ["wronskian", "--curve", "cubic.json", "--grid", "4"],
    ["wronskian", "--curve", "parabola.json", "--monomials", "m3.json",
     "--t", "2/5"],
    ["certify", "--curve", "cubic.json", "--grid", "32"],
    ["certify", "--curve", "circle.json", "--grid", "32"],
    ["lift", "--curve", "parabola.json", "--monomials", "m3.json"],
    ["lift", "--curve", "circle.json", "--monomials", "m3.json"],
    ["exponent", "--s", "3"],
    ["exponent", "--monomials", "m3.json"],
    ["count", "--query", "q_lattice.json"],
    ["count", "--query", "q_lattice.json", "--oracle"],
    ["count", "--query", "q_circle.json"],
    ["count", "--query", "q_points.json"],
    ["count", "--query", "q_points.json", "--oracle"],
    ["count", "--query", "q_gap.json"],
    ["count", "--query", "q_gap.json", "--oracle"],
    ["energy", "--points", "points.json", "--m", "2"],
    ["hyperplanes", "--curve", "cubic.json", "--trials", "40", "--seed", "5"],
    ["--config", "exp_oncurve.json", "experiment"],
    ["--config", "exp_tube.json", "experiment"],
    ["--config", "exp_energy.json", "experiment"],
    ["check", "--kind", "lemma-2.4", "--seed", "3", "--trials", "6"],
    ["check", "--kind", "lipschitz", "--seed", "3", "--trials", "6"],
    ["wronskian", "--curve", "bad_curve.json", "--t", "1/2"],
    ["count", "--query", "bad_box.json"],
)


def _run(argv: list, folder: Path) -> dict:
    full = [str(folder / a) if a in FIXTURES else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(full)
    row = {"argv": argv, "exit": code, "stdout": out.getvalue()}
    if code:
        row["stderr"] = err.getvalue()
    return row


def compute() -> list:
    with tempfile.TemporaryDirectory() as tmp:
        folder = Path(tmp)
        for name, data in FIXTURES.items():
            (folder / name).write_text(json.dumps(data))
        return [_run(argv, folder) for argv in COMMANDS]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {GOLDEN} ({GOLDEN.stat().st_size} bytes)", file=sys.stderr)
