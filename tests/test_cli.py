"""CLI subcommands and exit codes."""

import json

import pytest

from curvecount import cli
from curvecount import serialization as ser
from curvecount.curves import parabola
from curvecount.experiments import CampaignResult
from curvecount.lifting import make_Ms


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


@pytest.fixture
def parabola_file(tmp_path):
    path = tmp_path / "parabola.json"
    path.write_text(json.dumps(ser.curve_to_dict(parabola())))
    return str(path)


def test_no_command_is_usage_error(capsys):
    code, _ = run_cli(capsys, )
    assert code == 1


def test_bad_flag_exits_one(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["count", "--nonsense"])
    assert exc.value.code == 1


def test_wronskian_command(parabola_file, capsys):
    code, out = run_cli(capsys, "wronskian", "--curve", parabola_file,
                        "--t", "1/2")
    assert code == 0
    data = json.loads(out)
    assert data["values"][0]["wronskian"] == 2.0


def test_wronskian_with_lift(parabola_file, tmp_path, capsys):
    mpath = tmp_path / "m.json"
    mpath.write_text("[[1,0],[0,1],[1,1]]")
    code, out = run_cli(capsys, "wronskian", "--curve", parabola_file,
                        "--monomials", str(mpath), "--t", "1/3")
    assert code == 0
    assert json.loads(out)["values"][0]["wronskian"] == 12.0


def test_wronskian_grid_sampling(parabola_file, capsys):
    code, out = run_cli(capsys, "wronskian", "--curve", parabola_file,
                        "--grid", "4")
    assert code == 0
    values = json.loads(out)["values"]
    assert len(values) == 5
    assert all(v["wronskian"] == 2.0 for v in values)


@pytest.mark.parametrize("grid", ["0", "-2"])
def test_wronskian_grid_below_one_is_a_usage_error(parabola_file, capsys, grid):
    code = cli.main(["wronskian", "--curve", parabola_file, "--grid", grid])
    out, err = capsys.readouterr()
    assert code == cli.USAGE_EXIT and out == ""
    assert err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["exponent"],
    ["exponent", "--s", "2", "--monomials", "m.json"],
    ["exponent", "--s", "0"],
    ["experiment"],
])
def test_missing_or_conflicting_options_print_one_error_line(argv, capsys):
    # neither or both of --monomials and --s, --s 0 (not "no --s"), and an
    # experiment without --config: exit 1 with one line on stderr
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert code == cli.USAGE_EXIT and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_certify_command(parabola_file, capsys):
    code, out = run_cli(capsys, "certify", "--curve", parabola_file,
                        "--c0", "0", "--grid", "64")
    assert code == 0
    data = json.loads(out)
    assert data["status"] == "certified" and data["exact"]


def test_lift_and_exponent_commands(parabola_file, tmp_path, capsys):
    mpath = tmp_path / "m2.json"
    mpath.write_text(json.dumps([[1, 0], [0, 1], [2, 0], [1, 1], [0, 2]]))
    code, out = run_cli(capsys, "lift", "--curve", parabola_file,
                        "--monomials", str(mpath))
    assert code == 0
    lifted = json.loads(out)
    assert lifted["kind"] == "lifted" and len(lifted["monomials"]) == 5

    code, out = run_cli(capsys, "exponent", "--s", "2")
    assert code == 0
    data = json.loads(out)
    assert data["exponent"] == "8/15"

    code, out = run_cli(capsys, "exponent", "--monomials", str(mpath))
    assert json.loads(out)["exponent"] == "8/15"


def test_lift_by_the_full_degree_5_set(parabola_file, tmp_path, capsys):
    mpath = tmp_path / "m5.json"
    mpath.write_text(json.dumps(ser.monomials_to_list(make_Ms(5))))
    code, out = run_cli(capsys, "lift", "--curve", parabola_file,
                        "--monomials", str(mpath))
    assert code == 0
    assert len(json.loads(out)["monomials"]) == 20


def test_exponent_refuses_a_fractional_exponent(tmp_path, capsys):
    # {y, x^1.5} used to be read as {y, x} and report e = 2/3
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps([[0, 1], [1.5, 0]]))
    assert cli.main(["exponent", "--monomials", str(mpath)]) == 1
    assert "must be an integer" in capsys.readouterr().err


def test_inexact_numbers_in_files_are_usage_errors(tmp_path, capsys):
    # a float or a bool is never read as a rational: exit 1, one error line
    ppath = tmp_path / "pts.json"
    for bad in (0.5, True):
        ppath.write_text(json.dumps([[bad, "0/1"], ["1/1", "0/1"]]))
        assert cli.main(["energy", "--points", str(ppath), "--m", "2"]) == 1
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "exact rational" in err


def test_count_command(parabola_file, tmp_path, capsys):
    query = {"curve": parabola_file,
             "delta": {"d": "1", "N": 8, "n": 2},
             "source": {"type": "lattice", "N": 8,
                        "box": [["0", "1"], ["0", "1"]]}}
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(query))
    code, out = run_cli(capsys, "count", "--query", str(qpath))
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"count", "certified", "arcs_examined"}
    code, out2 = run_cli(capsys, "count", "--query", str(qpath), "--oracle")
    assert code == 0
    assert json.loads(out2)["count"] == data["count"]


def test_energy_command(tmp_path, capsys):
    ppath = tmp_path / "pts.json"
    ppath.write_text(json.dumps([["0/1", "0/1"], ["1/1", "0/1"], ["2/1", "0/1"]]))
    code, out = run_cli(capsys, "energy", "--points", str(ppath), "--m", "2")
    assert code == 0
    assert json.loads(out)["energy"] == 19


def test_hyperplanes_command(parabola_file, capsys):
    code, out = run_cli(capsys, "hyperplanes", "--curve", parabola_file,
                        "--trials", "300", "--seed", "7")
    assert code == 0
    assert json.loads(out)["max_roots"] == 2


def test_experiment_command(parabola_file, tmp_path, capsys):
    cfg = {"experiment": "exponent", "curve": parabola_file,
           "schedule": {"squares_up_to": 100}, "delta": "on-curve"}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "--config", str(cpath), "experiment")
    assert code == 0
    data = json.loads(out)
    assert [r["count"] for r in data["rows"]] == [3, 4, 5, 6, 7, 8, 9, 10, 11]

    code, out = run_cli(capsys, "--config", str(cpath), "--format", "csv",
                        "experiment")
    assert code == 0
    assert out.splitlines()[0] == "N,delta,count,certified,runtime_ms"


def test_experiment_tube_delta_command(parabola_file, tmp_path, capsys):
    cfg = {"experiment": "exponent", "curve": parabola_file,
           "schedule": [4, 8, 16], "delta": {"d": "1", "power": 2},
           "monomials": [[1, 0], [0, 1]]}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "--config", str(cpath), "experiment")
    assert code == 0
    data = json.loads(out)
    assert data["mode"] == "tube"
    assert data["theoretical_exponent"] == "2/3"


def test_experiment_energy_command(parabola_file, tmp_path, capsys):
    cfg = {"experiment": "energy", "curve": parabola_file,
           "schedule": [4, 9, 16], "delta": "on-curve", "energy_m": 2}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    code, out = run_cli(capsys, "--config", str(cpath), "experiment")
    assert code == 0
    assert all(not r["skipped"] for r in json.loads(out)["rows"])


@pytest.mark.parametrize("field, value", [
    ("schedule", [4.7, 8.2, 16.9]), ("schedule", {"squares_up_to": 100.5}),
    ("delta", {"d": "1", "power": 2.9}), ("energy_m", 2.5),
])
def test_experiment_config_refuses_fractional_integers(parabola_file, tmp_path,
                                                       capsys, field, value):
    # each used to be truncated: N = 4, 8, 16 with δ = 1/N² exited 0
    cfg = {"experiment": "energy" if field == "energy_m" else "exponent",
           "curve": parabola_file, "schedule": [4, 8, 16],
           "delta": {"d": "1", "power": 2}, field: value}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(cpath), "experiment"]) == 1
    assert "must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("delta", ["1/10", ["1", 2], 3])
def test_experiment_delta_must_be_a_rule(parabola_file, tmp_path, capsys, delta):
    # a plain δ used to die with AttributeError and a traceback
    cfg = {"curve": parabola_file, "schedule": [4, 8], "delta": delta}
    cpath = tmp_path / "cfg.json"
    cpath.write_text(json.dumps(cfg))
    assert cli.main(["--config", str(cpath), "experiment"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith('error: experiment "delta"')


def test_check_command_passes(capsys):
    code, out = run_cli(capsys, "check", "--kind", "lipschitz",
                        "--trials", "10", "--seed", "3")
    assert code == 0
    assert json.loads(out)["ok"]


def test_check_command_failure_exits_two(capsys, monkeypatch):
    fake = CampaignResult(kind="lipschitz", trials=1, passes=0,
                          failures=({"trial": 0},))
    monkeypatch.setattr(cli, "run_inequality_campaign",
                        lambda *a, **k: fake)
    code, out = run_cli(capsys, "check", "--kind", "lipschitz", "--trials", "1")
    assert code == 2
    assert not json.loads(out)["ok"]


def test_out_file(parabola_file, tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "exponent", "--s", "1", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["exponent"] == "2/3"


def test_cap_flag_enforced(tmp_path, capsys):
    pts = [[f"{i}/1"] for i in range(30)]
    ppath = tmp_path / "pts.json"
    ppath.write_text(json.dumps(pts))
    code, _ = run_cli(capsys, "energy", "--points", str(ppath), "--m", "3",
                      "--cap", "5")
    assert code == 1  # work cap exceeded surfaces as an error
    # the cap applied to that call only
    code, out = run_cli(capsys, "energy", "--points", str(ppath), "--m", "2")
    assert code == 0 and json.loads(out)["energy"] > 0


def test_count_refuses_a_fractional_N(parabola_file, tmp_path, capsys):
    # "N": 16.9 used to count at N = 16 and exit 0
    query = {"curve": parabola_file, "delta": "1/256",
             "source": {"type": "lattice", "N": 16.9,
                        "box": [["0", "1"], ["0", "1"]]}}
    qpath = tmp_path / "q.json"
    qpath.write_text(json.dumps(query))
    assert cli.main(["count", "--query", str(qpath)]) == 1
    assert "must be an integer" in capsys.readouterr().err


def test_cap_reaches_every_capped_command(parabola_file, tmp_path, capsys):
    def write(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    lattice = write("lattice.json", {
        "curve": parabola_file, "delta": "1/64",
        "source": {"type": "lattice", "N": 8, "box": [["0", "1"], ["0", "1"]]}})
    gap = write("gap.json", {
        "curve": parabola_file, "delta": "1/16",
        "source": {"type": "gap", "base": ["0", "0"],
                   "generators": [["1/8", "0"], ["0", "1/8"]],
                   "lengths": [9, 9]}})
    tube = write("tube.json", {
        "experiment": "exponent", "curve": parabola_file,
        "schedule": [4, 8, 16], "delta": {"d": "1", "power": 2}})
    energy = write("energy.json", {
        "experiment": "energy", "curve": parabola_file,
        "schedule": [16, 25, 36], "energy_m": 3})
    raising = [["count", "--query", lattice], ["count", "--query", gap],
               ["count", "--query", lattice, "--oracle"],
               ["count", "--query", gap, "--oracle"],
               ["--config", tube, "experiment"]]
    raising += [["check", "--kind", kind, "--trials", "5", "--seed", "1"]
                for kind in ("plunnecke", "gap-doubling", "lemma-2.4")]
    for argv in raising:
        assert cli.main(argv + ["--cap", "5"]) == 1, argv
        assert "cap" in capsys.readouterr().err, argv
        # the next call without --cap runs under the default caps
        assert cli.main(argv) == 0, argv
        capsys.readouterr()
    # the energy experiment marks rows over the work cap as skipped
    code, out = run_cli(capsys, "--config", energy, "experiment", "--cap", "5")
    rows = json.loads(out)["rows"]
    assert code == 0 and all("cap" in r["reason"] for r in rows)
    code, out = run_cli(capsys, "--config", energy, "experiment")
    assert code == 0 and not any(r["skipped"] for r in json.loads(out)["rows"])
