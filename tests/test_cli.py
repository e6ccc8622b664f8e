import json

import numpy as np
import pytest

import cbfsim.cli
import cbfsim.simulate
from cbfsim.cli import main
from cbfsim.errors import ScenarioError
from cbfsim.scenario_io import (
    build_run_job,
    list_fixtures,
    parse_scenario_file,
    parse_scenario_text,
    read_trajectory_csv,
    resolve_scenario_path,
    write_trajectory_csv,
)
from cbfsim.simulate import run


MINI_ACC = """
[system]
id = acc

[initial]
v_f = 18.0
v_l = 10.0
D = 150.0

[exogenous]
segment = 0.0 0.0

[controller]
level = basic

[sim]
dt = 0.001
horizon = 0.05

[monitors]
headway = auto
"""


def test_parse_rejects_unknown_keys_with_line_numbers():
    bad = MINI_ACC.replace("[sim]", "[sim]\nwarp_speed = 9")
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_text(bad, "bad.scenario")
    assert "warp_speed" in str(exc.value)
    assert "bad.scenario:" in str(exc.value)

    with pytest.raises(ScenarioError, match="unknown section"):
        parse_scenario_text(MINI_ACC + "\n[plotting]\nstyle = dark\n")

    with pytest.raises(ScenarioError, match="duplicate key"):
        parse_scenario_text(MINI_ACC + "\n[params]\nM = 1\nM = 2\n")

    with pytest.raises(ScenarioError, match="outside any section"):
        parse_scenario_text("M = 1650\n")


def test_defaults_fall_back_with_notice():
    doc = parse_scenario_text(MINI_ACC, "mini.scenario")
    job = build_run_job(doc)
    assert any("using defaults" in n for n in job.notices)
    assert job.scenario.dt == 0.001
    assert job.scenario.steps() == 50


def test_overrides_bare_and_dotted(tmp_path):
    path = tmp_path / "mini.scenario"
    path.write_text(MINI_ACC)
    doc = parse_scenario_file(path)
    job = build_run_job(doc, overrides={"v_d": "30", "sim.horizon": "0.1"})
    assert job.scenario.controller.clf.V(np.array([30.0, 0, 0])) == 0.0
    assert job.scenario.horizon == 0.1
    with pytest.raises(ScenarioError, match="not recognized"):
        build_run_job(parse_scenario_file(path), overrides={"bogus": "1"})


def test_csv_roundtrip_lossless(tmp_path):
    doc = parse_scenario_text(MINI_ACC, "mini.scenario")
    job = build_run_job(doc)
    traj = run(job.scenario)
    csv_path = tmp_path / "out.csv"
    write_trajectory_csv(traj, csv_path, job.state_names)
    data = read_trajectory_csv(csv_path)
    np.testing.assert_array_equal(data["t"], traj.t)
    np.testing.assert_array_equal(data["v_f"], traj.x[:, 0])
    np.testing.assert_array_equal(data["D"], traj.x[:, 2])
    got_u = data["u"]
    np.testing.assert_array_equal(got_u[:-1], traj.u[:-1, 0])
    assert np.isnan(got_u[-1])
    np.testing.assert_array_equal(data["headway"], traj.monitors["headway"])


def test_run_command_writes_outputs_and_exit_zero(tmp_path, capsys):
    rc = main(["run", "acc_basic", "--out", str(tmp_path), "--horizon", "0.2"])
    assert rc == 0
    csv_path = tmp_path / "acc_basic.csv"
    assert csv_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("t,v_f,v_l,D,u,delta")
    report = json.loads((tmp_path / "acc_basic.report.json").read_text())
    assert report["pass"] is True
    assert report["exit_code"] == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_run_command_exit_two_on_monitor_violation(tmp_path):
    # An impossible threshold forces a monitor violation: exit code 2.
    rc = main([
        "run", "acc_basic", "--out", str(tmp_path), "--horizon", "0.05",
        "--set", "monitors.headway=200",
    ])
    assert rc == 2
    report = json.loads((tmp_path / "acc_basic.report.json").read_text())
    assert report["pass"] is False


def test_run_command_exit_one_on_malformed_file(tmp_path, capsys):
    bad = tmp_path / "broken.scenario"
    bad.write_text(MINI_ACC + "\n[sim]\n")  # duplicate section
    rc = main(["run", str(bad), "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert "broken.scenario" in err

    bad2 = tmp_path / "broken2.scenario"
    bad2.write_text(MINI_ACC.replace("dt = 0.001", "dt = fast"))
    assert main(["run", str(bad2), "--out", str(tmp_path)]) == 1


def test_run_command_bad_segment_value_names_line(tmp_path, capsys):
    lines = resolve_scenario_path("acc_basic").read_text().splitlines()
    lineno = lines.index("segment = 6.0 1.5") + 1
    lines[lineno - 1] = "segment = abc 1.0"
    bad = tmp_path / "acc_bad_segment.scenario"
    bad.write_text("\n".join(lines) + "\n")
    assert main(["run", str(bad), "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert f"acc_bad_segment.scenario:{lineno}:" in err
    assert "Traceback" not in err


def test_run_command_error_does_not_stop_batch(tmp_path, capsys):
    text = resolve_scenario_path("acc_basic").read_text()
    bad = tmp_path / "acc_broken.scenario"
    bad.write_text(text.replace("segment = 6.0 1.5", "segment = abc 1.0"))
    rc = main(["run", str(bad), "lk_curved", "--out", str(tmp_path),
               "--horizon", "0.1"])
    assert rc == 1
    assert "acc_broken.scenario:" in capsys.readouterr().err
    for suffix in (".csv", ".report.txt", ".report.json"):
        assert (tmp_path / f"lk_curved{suffix}").exists()


def test_run_command_override_flag(tmp_path):
    rc = main([
        "run", "acc_basic", "--out", str(tmp_path), "--horizon", "0.05",
        "--set", "v_d=30",
    ])
    assert rc == 0


def test_refine_flag(tmp_path, capsys, monkeypatch):
    # The refinement reuses the run it checks: one coarse and one fine run.
    calls = []

    def counted(scenario):
        calls.append(scenario.dt)
        return run(scenario)

    monkeypatch.setattr(cbfsim.cli, "run_scenario", counted)
    monkeypatch.setattr(cbfsim.simulate, "run", counted)
    rc = main(["run", "acc_basic", "--out", str(tmp_path), "--horizon", "0.05",
               "--refine", "2"])
    assert rc == 0
    assert "verdicts unchanged" in capsys.readouterr().out
    assert len(calls) == 2


def test_compare_identical_runs_zero_differences(tmp_path, capsys):
    main(["run", "acc_basic", "--out", str(tmp_path / "a"), "--horizon", "0.1"])
    main(["run", "acc_basic", "--out", str(tmp_path / "b"), "--horizon", "0.1"])
    rc = main(["compare", str(tmp_path / "a" / "acc_basic.csv"),
               str(tmp_path / "b" / "acc_basic.csv")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "total_variation(u)" in out
    for line in out.splitlines():
        if line.strip().startswith(("v_f:", "v_l:", "D:", "u:", "delta:")):
            assert "max=0" in line.replace("max=0.0", "max=0")


def test_compare_mismatched_grid_resamples_with_warning(tmp_path, capsys):
    main(["run", "acc_basic", "--out", str(tmp_path / "a"), "--horizon", "0.1"])
    main(["run", "acc_basic", "--out", str(tmp_path / "b"), "--horizon", "0.1",
          "--dt", "0.002"])
    rc = main(["compare", str(tmp_path / "a" / "acc_basic.csv"),
               str(tmp_path / "b" / "acc_basic.csv")])
    assert rc == 0
    assert "resampling" in capsys.readouterr().out


def test_compare_malformed_csv_names_file_and_line(tmp_path, capsys):
    main(["run", "acc_basic", "--out", str(tmp_path), "--horizon", "0.01"])
    good = tmp_path / "acc_basic.csv"
    lines = good.read_text().splitlines()
    short = lines.copy()
    short[4] = ",".join(short[4].split(",")[:4])
    bad_cell = lines.copy()
    cells = bad_cell[4].split(",")
    bad_cell[4] = ",".join(["abc"] + cells[1:])
    for name, text in (("short.csv", short), ("cell.csv", bad_cell)):
        bad = tmp_path / name
        bad.write_text("\n".join(text) + "\n")
        capsys.readouterr()
        assert main(["compare", str(good), str(bad)]) == 1
        assert f"error: {bad}:5:" in capsys.readouterr().err


def test_compare_column_without_finite_values(tmp_path, capsys):
    # On a different time grid, a column with no finite value is left out
    # of the resampling and its differences line is skipped.
    main(["run", "acc_basic", "--out", str(tmp_path), "--horizon", "0.048"])
    good = tmp_path / "acc_basic.csv"
    header, first = good.read_text().splitlines()[:2]
    cells = first.split(",")
    cells[header.split(",").index("u")] = ""
    cases = {"header_only.csv": [header],
             "blank_u.csv": [header, ",".join(cells)]}
    for name, lines in cases.items():
        other = tmp_path / name
        other.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["compare", str(good), str(other)]) == 0
        out, err = capsys.readouterr()
        assert f"differences {name} vs acc_basic.csv:" in out
        assert "  u:" not in out
        assert "Traceback" not in err


def test_run_command_non_finite_dt_names_file(tmp_path, capsys):
    # A non-finite dt is a scenario error: the batch goes on with the
    # next file and exits 1.
    text = resolve_scenario_path("acc_basic").read_text()
    bad = tmp_path / "acc_nan_dt.scenario"
    bad.write_text(text.replace("dt = 0.001", "dt = nan"))
    good = tmp_path / "acc_ok.scenario"
    good.write_text(text)
    rc = main(["run", str(bad), str(good), "--out", str(tmp_path),
               "--horizon", "0.05"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "acc_nan_dt.scenario:" in err
    assert "Traceback" not in err
    assert (tmp_path / "acc_ok.csv").exists()
    assert not (tmp_path / "acc_nan_dt.csv").exists()


def test_verify_command_fixtures(capsys):
    assert main(["verify", "comparison_ode"]) == 0
    out = capsys.readouterr().out
    assert "closed_form" in out
    assert main(["verify", "contractivity_decay"]) == 0
    out = capsys.readouterr().out
    assert "gamma_hat" in out
    assert main(["verify", "noncompact_counterexample"]) == 0
    out = capsys.readouterr().out
    assert "diverging" in out
    # run/verify kind mismatch is a configuration error
    assert main(["verify", "acc_basic"]) == 1
    assert main(["run", "comparison_ode"]) == 1


def test_list_fixtures_contains_shipped_set(capsys):
    assert main(["list-fixtures"]) == 0
    out = capsys.readouterr().out.split()
    for name in ("acc_basic", "acc_force_optimal", "acc_force_conservative",
                 "acc_zcbf_optimal", "acc_zcbf_conservative", "lk_curved",
                 "comparison_ode", "noncompact_counterexample"):
        assert name in out


def test_fixture_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("CBFSIM_FIXTURES", str(tmp_path))
    assert list_fixtures() == []
    (tmp_path / "custom.scenario").write_text(MINI_ACC)
    assert list_fixtures() == ["custom"]
    assert resolve_scenario_path("custom").exists()
    monkeypatch.delenv("CBFSIM_FIXTURES")
    with pytest.raises(ScenarioError):
        resolve_scenario_path("custom")


def test_lk_fixture_short_run(tmp_path):
    rc = main(["run", "lk_curved", "--out", str(tmp_path), "--horizon", "0.5"])
    assert rc == 0
    header = (tmp_path / "lk_curved.csv").read_text().splitlines()[0]
    assert header.startswith("t,y,nu,psi,r,u,delta")


def test_batch_run_multiple_scenarios(tmp_path):
    rc = main(["run", "acc_basic", "lk_curved", "--out", str(tmp_path),
               "--horizon", "0.1"])
    assert rc == 0
    assert (tmp_path / "acc_basic.csv").exists()
    assert (tmp_path / "lk_curved.csv").exists()


def test_state_box_override_and_diagnostic_exit(tmp_path):
    rc = main(["run", "acc_basic", "--out", str(tmp_path), "--horizon", "0.1",
               "--set", "sim.state_box_lo=0 0 0",
               "--set", "sim.state_box_hi=50 50 1000"])
    assert rc == 0
    # a box that the trajectory leaves is a numeric diagnostic: exit 1
    rc = main(["run", "acc_basic", "--out", str(tmp_path), "--horizon", "0.5",
               "--set", "sim.state_box_lo=0 0 0",
               "--set", "sim.state_box_hi=18.5 50 1000"])
    assert rc == 1
