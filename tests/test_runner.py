import dataclasses
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aokr.analysis import energy, energy_stderr
from aokr.classical_sim import run_classical_ensemble
from aokr.pulse_train import build_train_spec, resolve_timeline
from aokr.quantum_sim import run_mcwf_trajectories
from aokr.runner import (
    RunConfig,
    emit_outputs,
    parse_config_file,
    phase_sweep_values,
    run,
)
from oracles import read_sweep_csv

TUPLE_FIELDS = ["sublevel_factors", "sublevel_weights", "r_prime_values"]


def fast_config(**kw):
    defaults = dict(
        mode="single",
        engine="classical",
        psi0_deg=52.0,
        ratio=1.0,
        n_tot=6,
        n_traj_classical=64,
        n_traj_quantum=8,
        n_max=128,
        cloud_sigma_mm=0.0,
        eta=0.0,
        seed=7,
    )
    defaults.update(kw)
    return RunConfig(**defaults)


class TestConfig:
    def test_validation_reports_field_names(self):
        cfg = fast_config(eta=1.5)
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert "eta" in str(info.value)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(RunConfig) if f.type is float] + TUPLE_FIELDS
    )
    def test_non_finite_rejected_naming_field(self, field, bad):
        value = (1.0, bad) if field in TUPLE_FIELDS else bad
        with pytest.raises(ValueError) as info:
            fast_config(**{field: value}).validate()
        assert f"{field}: must be finite" in str(info.value)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_max", 100),
            ("n_max", 32),
            ("bin_width", 0.0),
            ("epsilon_zero_velocity", 0.0),
            ("min_steps_per_pulse", 0),
            ("temperature_uk", -1.0),
            ("cloud_sigma_mm", -0.5),
            ("beam_sigma_mm", -0.72),
            ("beam_sigma_mm", 0.0),
            ("sublevel_factors", (1.5,)),
            ("sublevel_factors", (0.0,)),
            ("sublevel_weights", (0.0,)),
            ("n_traj_classical", 1),
            ("n_traj_quantum", 1),
            ("kbar", -2.0),
            ("n_workers", 0),
            ("pulse_rise_ns", -1.0),
            ("pulse_fall_ns", -1.0),
            ("pulse_fwhm_ns", 0.0),
            ("pulse_fwhm_ns", 5.0),  # too short for the default edges
            ("on_threshold", 0.0),
            ("on_threshold", 0.5),
            ("ratio", 0.0),
            ("n_tot", 0),
            ("kappa1", -1.0),
            ("kappa2", -1.0),
            ("eta", 1.0),
            ("t1_us", 0.0),  # kbar = 0 derives kbar from t1_us
            ("psi0_deg", 400.0),
        ],
    )
    def test_out_of_range_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError) as info:
            fast_config(**{"cloud_sigma_mm": 0.5, field: value}).validate()
        assert f"{field}: must" in str(info.value)

    def test_n_max_zero_chooses_and_is_valid(self):
        # 0 means "choose", as kbar = 0 means "derive"
        assert RunConfig().n_max == 0
        fast_config(n_max=0).validate()

    @pytest.mark.parametrize(
        "field, value, context",
        [
            ("t1_us", 0.0, dict(kbar=2.0)),  # the pulse shape reads t1_us whatever kbar is
            ("psi0_start_deg", -5.0, dict(mode="phase_sweep")),
            ("psi0_stop_deg", 400.0, dict(mode="phase_sweep")),
            ("psi0_step_deg", 0.0, dict(mode="phase_sweep")),
            ("psi0_prime_deg", 400.0, dict(mode="ratio_sweep", r_prime_values=(1.0,))),
            # edges too slow for the default FWHM to reach the threshold
            ("pulse_fwhm_ns", 396.0, dict(pulse_rise_ns=5000.0, pulse_fall_ns=5000.0)),
        ],
    )
    def test_out_of_range_in_context_rejected_naming_field(self, field, value, context):
        cfg = fast_config(**{**context, field: value})
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert f"{field}: must" in str(info.value)
        if "pulse_rise_ns" in context:  # the message gives the edges it blames
            assert f"rise time {cfg.pulse_shape().rise_time:.4g}" in str(info.value)

    def test_ratio_sweep_requires_values(self):
        cfg = fast_config(mode="ratio_sweep", r_prime_values=())
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert "r_prime_values" in str(info.value)

    def test_negative_r_prime_rejected(self):
        cfg = fast_config(mode="ratio_sweep", r_prime_values=(1.0, -0.5))
        with pytest.raises(ValueError) as info:
            cfg.validate()
        assert "r_prime_values" in str(info.value)

    def test_r_prime_pushing_delay_past_one_period_rejected(self):
        cfg = fast_config(mode="ratio_sweep", r_prime_values=(0.1,), psi0_prime_deg=52.0)
        with pytest.raises(ValueError):
            cfg.validate()
        # psi0'/r' rounds below 360 here but psi0' * (1/r'), the delay the run uses, does not
        edge = fast_config(
            mode="ratio_sweep", r_prime_values=(0.39368495004638177,), psi0_prime_deg=141.72658201669742
        )
        with pytest.raises(ValueError, match="r_prime_values"):
            edge.validate()

    def test_kbar_derived_when_zero(self):
        cfg = fast_config(kbar=0.0, t1_us=30.0)
        assert abs(cfg.kbar_effective - 3.12) < 0.01
        cfg2 = fast_config(kbar=2.0)
        assert cfg2.kbar_effective == 2.0

    def test_config_file_roundtrip(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "\n".join(
                [
                    "# comment line",
                    "mode = phase_sweep",
                    "engine = both",
                    "ratio = 1.4",
                    "kappa1 = 17.7",
                    "kappa2 = 17.7   # inline comment",
                    "eta = 0.03",
                    "psi0_start_deg = 0",
                    "psi0_stop_deg = 355",
                    "psi0_step_deg = 5",
                    "sublevel_factors = 0.5,1.0",
                    "sublevel_weights = 1,3",
                    "n_traj_classical = 100",
                    "seed = 3",
                ]
            )
        )
        cfg = RunConfig.from_mapping(parse_config_file(path))
        assert cfg.ratio == 1.4
        assert cfg.kappa2 == 17.7
        assert cfg.sublevel_factors == (0.5, 1.0)
        assert cfg.sublevel_weights == (1.0, 3.0)
        assert cfg.seed == 3
        cfg.validate()

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("does_not_exist = 1\n")
        with pytest.raises(ValueError) as info:
            RunConfig.from_mapping(parse_config_file(path))
        assert "does_not_exist" in str(info.value)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just some words\n")
        with pytest.raises(ValueError):
            parse_config_file(path)

    def test_phase_grid(self):
        cfg = fast_config(
            mode="phase_sweep", psi0_start_deg=0.0, psi0_stop_deg=20.0, psi0_step_deg=5.0
        )
        assert phase_sweep_values(cfg) == [0.0, 5.0, 10.0, 15.0, 20.0]


class TestSweeps:
    def test_single_point_deterministic_repeat(self):
        cfg = fast_config(engine="both")
        a = run(cfg)
        b = run(cfg)
        for ra, rb in zip(a, b):
            assert ra.energy == rb.energy
            assert ra.zero_velocity_fraction == rb.zero_velocity_fraction
            assert np.array_equal(ra.distribution.masses, rb.distribution.masses)

    def test_ratio_point_matches_phase_single(self):
        # r' = 1 with psi0' = 52 is the same physics and the same stream
        # as a single phase point at r = 1, psi0 = 52
        single = run(fast_config(engine="both"))
        ratio = run(
            fast_config(mode="ratio_sweep", engine="both", r_prime_values=(1.0,), psi0_prime_deg=52.0)
        )
        for rs, rr in zip(single, ratio):
            assert rs.energy == rr.energy
            assert np.array_equal(rs.distribution.masses, rr.distribution.masses)

    def test_phase_sweep_row_order(self):
        cfg = fast_config(
            mode="phase_sweep",
            engine="both",
            psi0_start_deg=100.0,
            psi0_stop_deg=110.0,
            psi0_step_deg=10.0,
            n_traj_classical=16,
            n_traj_quantum=4,
        )
        assert [(r.sweep_value, r.engine) for r in run(cfg)] == [
            (100.0, "classical"),
            (100.0, "quantum"),
            (110.0, "classical"),
            (110.0, "quantum"),
        ]

    def test_point_rows_do_not_depend_on_place_in_sweep(self):
        # every point draws from the run's streams, so the second point of
        # a sweep gives the rows of a single run at its phase
        kw = dict(engine="both", eta=0.1, n_traj_classical=32, n_traj_quantum=6)
        sweep = run(
            fast_config(
                mode="phase_sweep", psi0_start_deg=100.0, psi0_stop_deg=110.0,
                psi0_step_deg=10.0, **kw,
            )
        )
        single = run(fast_config(psi0_deg=110.0, **kw))
        assert [r.sweep_value for r in sweep[2:]] == [r.sweep_value for r in single] == [110.0] * 2
        for a, b in zip(sweep[2:], single):
            assert a.engine == b.engine
            assert a.energy == b.energy
            assert a.energy_stderr == b.energy_stderr
            assert a.zero_velocity_fraction == b.zero_velocity_fraction
            assert np.array_equal(a.distribution.bin_centers, b.distribution.bin_centers)
            assert np.array_equal(a.distribution.masses, b.distribution.masses)

    def test_one_timeline_per_point_and_none_from_validate(self, monkeypatch):
        from aokr import runner

        calls = []
        resolve = runner.resolve_timeline

        def counted(*args):
            calls.append(args)
            return resolve(*args)

        monkeypatch.setattr(runner, "resolve_timeline", counted)
        cfg = fast_config(
            mode="phase_sweep", psi0_start_deg=0.0, psi0_stop_deg=90.0, psi0_step_deg=45.0
        )
        cfg.validate()
        assert calls == []
        run(cfg)
        assert len(calls) == 3

    @staticmethod
    def point_timeline(cfg):
        spec = build_train_spec(
            cfg.ratio,
            cfg.psi0_deg / 360.0,
            cfg.n_tot,
            cfg.kappa1,
            cfg.kappa2,
            cfg.pulse_shape(),
            cfg.kbar_effective,
        )
        return resolve_timeline(spec, cfg.min_steps_per_pulse)

    def test_classical_row_reduces_the_ensemble_momenta(self):
        # the row's energy and standard error are energy() and
        # energy_stderr() of the engine's momenta bit for bit
        cfg = fast_config(eta=0.028)
        (row,) = run(cfg)
        tl = self.point_timeline(cfg)
        m = run_classical_ensemble(tl, cfg.ensemble_params(), cfg.n_traj_classical)
        assert row.energy == energy(m)
        assert row.energy_stderr == energy_stderr(m)

    def test_quantum_row_reduces_the_ensemble_ladders(self):
        # the quantum row goes through the same two calls, on the engine's
        # ladders weighted by their populations
        cfg = fast_config(engine="both", eta=0.028)
        _, row = run(cfg)
        assert row.engine == "quantum"
        tl = self.point_timeline(cfg)
        r = run_mcwf_trajectories(tl, cfg.ensemble_params(), cfg.n_traj_quantum, n_max=cfg.n_max)
        assert r.jump_counts.sum() > 0
        assert row.energy == energy(r.momenta, r.weights)
        assert row.energy_stderr == energy_stderr(r.momenta, r.weights)


class TestOutputs:
    def test_empty_sweep_manifest_has_config_only(self, tmp_path):
        manifest = emit_outputs(fast_config(output_dir=str(tmp_path)), [])
        assert len(manifest) == 1
        assert manifest[0].endswith("config.json")
        snapshot = json.loads(open(manifest[0]).read())
        assert snapshot["seed"] == 7

    def test_two_point_sweep_files(self, tmp_path):
        cfg = fast_config(
            mode="phase_sweep",
            engine="both",
            psi0_start_deg=50.0,
            psi0_stop_deg=55.0,
            psi0_step_deg=5.0,
            n_traj_classical=32,
            n_traj_quantum=4,
            output_dir=str(tmp_path),
        )
        manifest = emit_outputs(cfg, run(cfg))
        rows = read_sweep_csv(os.path.join(tmp_path, "sweep.csv"))
        assert len(rows) == 4
        header = open(os.path.join(tmp_path, "sweep.csv")).readline()
        assert header.startswith(
            "# units: momentum=two-photon-recoils energy=two-photon-recoil-units"
        )
        assert any(m.endswith("plot.gp") for m in manifest)
        for row in rows:
            assert os.path.exists(os.path.join(tmp_path, row["distribution_file"]))

    def test_csv_roundtrip_full_precision(self, tmp_path):
        cfg = fast_config(engine="both", output_dir=str(tmp_path))
        mem_rows = run(cfg)
        emit_outputs(cfg, mem_rows)
        rows = read_sweep_csv(os.path.join(tmp_path, "sweep.csv"))
        for disk, mem in zip(rows, mem_rows):
            assert disk["energy"] == mem.energy
            assert disk["energy_stderr"] == mem.energy_stderr
            assert disk["zero_velocity_fraction"] == mem.zero_velocity_fraction


class TestCli:
    def test_import_loads_no_heavy_scipy_subpackages(self):
        import subprocess
        import sys

        import aokr

        src = os.path.dirname(os.path.dirname(aokr.__file__))
        loaded = subprocess.run(
            [sys.executable, "-c", "import sys, aokr.cli; print(*sys.modules)"],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.split()
        heavy = {"scipy.optimize", "scipy.integrate", "scipy.linalg", "scipy.sparse"}
        assert sorted(heavy.intersection(loaded)) == []

    @staticmethod
    def _modules_loaded_by(script):
        # a fresh interpreter, so a module is listed only if the script loads it
        import subprocess
        import sys

        import aokr

        return subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(aokr.__file__))},
            capture_output=True,
            text=True,
            check=True,
        ).stdout.splitlines()[-1].split()

    def test_quantum_only_run_and_validate_load_no_scipy(self, tmp_path):
        # the timeline's erf is math.erf, so validating any config and
        # running the quantum engine import no scipy module
        loaded = self._modules_loaded_by(f"""
import sys
import aokr.cli
from aokr.runner import RunConfig
for engine in ("classical", "quantum", "both"):
    RunConfig(engine=engine).validate()
argv = ["single", "--engine", "quantum", "--n-traj-quantum", "4", "--n-tot", "3",
        "--cloud-sigma-mm", "0", "--seed", "1", "--workers", "2", "--out", {str(tmp_path)!r}]
assert aokr.cli.main(argv) == 0
print(*sys.modules)
""")
        assert "aokr.quantum_sim" in loaded
        assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
        assert (tmp_path / "sweep.csv").exists()

    def test_classical_and_both_runs_load_no_scipy(self, tmp_path):
        # the kernel's sn, cn, dn are numpy, so a run with the classical
        # engine imports no scipy module either; the --workers 1 run executes
        # both engines' kernels in this process, the --workers 2 runs open
        # the pool
        loaded = self._modules_loaded_by(f"""
import sys
import aokr.cli
for engine, workers in (("classical", 2), ("both", 2), ("both", 1)):
    argv = ["single", "--engine", engine, "--n-traj-classical", "16", "--n-traj-quantum", "4",
            "--n-tot", "3", "--cloud-sigma-mm", "0", "--seed", "1", "--workers", str(workers),
            "--out", {str(tmp_path)!r} + f"/{{engine}}{{workers}}"]
    assert aokr.cli.main(argv) == 0
print(*sys.modules)
""")
        assert {"aokr.quantum_sim", "aokr.classical_sim", "aokr.elliptic"} <= set(loaded)
        assert [m for m in loaded if m == "scipy" or m.startswith("scipy.")] == []
        for run_dir in ("classical2", "both2", "both1"):
            assert (tmp_path / run_dir / "sweep.csv").exists()

    def test_single_run(self, tmp_path, capsys):
        from aokr.cli import main

        rc = main(
            [
                "single",
                "--psi0", "52", "--ratio", "1", "--engine", "classical",
                "--n-traj-classical", "32", "--n-tot", "4",
                "--cloud-sigma-mm", "0", "--seed", "1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "engine=classical" in out
        assert (tmp_path / "sweep.csv").exists()

    def test_cli_run_validates_its_config_once(self, tmp_path, monkeypatch):
        from aokr.cli import main

        calls = []
        validate = RunConfig.validate

        def counted(self):
            calls.append(self.mode)
            return validate(self)

        monkeypatch.setattr(RunConfig, "validate", counted)
        argv = ["phase-sweep", "--psi0-start", "0", "--psi0-stop", "45", "--psi0-step", "45",
                "--engine", "classical", "--n-traj-classical", "16", "--n-tot", "3",
                "--cloud-sigma-mm", "0", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert calls == ["phase_sweep"]

    def test_quantum_row_reports_its_grid(self, tmp_path, capsys):
        from aokr.cli import main

        argv = ["single", "--engine", "both", "--n-traj-classical", "32", "--n-traj-quantum",
                "4", "--n-tot", "3", "--cloud-sigma-mm", "0", "--seed", "1"]
        assert main(argv + ["--out", str(tmp_path / "chosen")]) == 0
        assert main(argv + ["--n-max", "256", "--out", str(tmp_path / "fixed")]) == 0
        lines = capsys.readouterr().out.splitlines()
        classical = [line for line in lines if "engine=classical" in line]
        quantum = [line for line in lines if "engine=quantum" in line]
        assert all("n_max" not in line for line in classical)
        assert quantum[0].endswith(" n_max=64")
        assert quantum[1].endswith(" n_max=256")

    def test_grid_overflow_exits_with_one_line_error(self, tmp_path):
        # an explicit n_max too small for the kicks only shows once the
        # ensemble runs: exit 1 with the engine's message, no traceback
        import subprocess
        import sys

        import aokr

        out = tmp_path / "out"
        argv = ["single", "--engine", "quantum", "--n-max", "64", "--kbar", "0.3",
                "--kappa", "6", "--n-tot", "10", "--temperature-uk", "1",
                "--cloud-sigma-mm", "0", "--n-traj-quantum", "2", "--out", str(out)]
        proc = subprocess.run(
            [sys.executable, "-m", "aokr.cli", *argv],
            env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(aokr.__file__))},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        [line] = proc.stderr.splitlines()
        assert line.startswith("aokr: error: trajectory ")
        assert "n_max" in line
        assert not out.exists()

    def test_config_file_plus_override(self, tmp_path):
        from aokr.cli import main

        cfg_path = tmp_path / "base.cfg"
        cfg_path.write_text("n_tot = 4\nn_traj_classical = 16\ncloud_sigma_mm = 0\n")
        rc = main(
            [
                "single",
                "--config", str(cfg_path),
                "--psi0", "180", "--engine", "classical", "--seed", "2",
                "--out", str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        snapshot = json.loads((tmp_path / "out" / "config.json").read_text())
        assert snapshot["n_tot"] == 4
        assert snapshot["psi0_deg"] == 180.0

    def test_invalid_config_errors(self, tmp_path):
        from aokr.cli import main

        with pytest.raises(SystemExit):
            main(["single", "--psi0", "400", "--out", str(tmp_path)])

    @pytest.fixture
    def no_engine(self, monkeypatch):
        from aokr import runner

        def engine_called(*args, **kwargs):
            raise AssertionError("an engine ran before the config was validated")

        monkeypatch.setattr(runner, "run_classical_ensemble", engine_called)
        monkeypatch.setattr(runner, "run_mcwf_trajectories", engine_called)

    def test_bad_n_max_rejected_before_any_engine_runs(self, tmp_path, no_engine, capsys):
        from aokr.cli import main

        with pytest.raises(SystemExit) as info:
            main(["single", "--n-max", "100", "--out", str(tmp_path)])
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "n_max" in err
        assert "must be 0 (choose the grid) or a power of two >= 64, got 100" in err

    def test_unreadable_config_path_rejected_naming_it(self, tmp_path, no_engine, capsys):
        from aokr.cli import main

        missing = tmp_path / "missing.cfg"
        for path in (missing, tmp_path):  # no such file; a directory
            with pytest.raises(SystemExit) as info:
                main(["single", "--config", str(path), "--out", str(tmp_path)])
            assert info.value.code == 2
            assert str(path) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--n-traj-classical", "1", "n_traj_classical"),
            ("--kbar", "-2", "kbar"),
            ("--pulse-fwhm-ns", "5", "pulse_fwhm_ns"),
            ("--workers", "0", "n_workers"),
        ],
    )
    def test_bad_input_rejected_before_any_engine_runs(
        self, tmp_path, no_engine, capsys, flag, value, field
    ):
        from aokr.cli import main

        with pytest.raises(SystemExit) as info:
            main(["single", flag, value, "--out", str(tmp_path)])
        assert info.value.code == 2
        assert f"{field}: must" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, field",
        [
            (["--kappa", "3", "--kappa2", "4"], "kappa2"),
            (["--kappa1", "4", "--kappa", "3"], "kappa1"),
            (["--square-pulses", "--pulse-fwhm-ns", "300"], "pulse_fwhm_ns"),
            (["--pulse-rise-ns", "50", "--square-pulses"], "pulse_rise_ns"),
        ],
    )
    def test_conflicting_flags_rejected_naming_field(self, tmp_path, no_engine, capsys, argv, field):
        from aokr.cli import main

        with pytest.raises(SystemExit) as info:
            main(["single", *argv, "--out", str(tmp_path)])
        assert info.value.code == 2
        assert f"{field}: " in capsys.readouterr().err

    def test_shorthand_flags_override_config_file(self, tmp_path):
        cfg_path = tmp_path / "base.cfg"
        cfg_path.write_text("kappa1 = 5\npulse_fwhm_ns = 300\n")
        cfg = _parse_cli(
            ["--config", str(cfg_path), "--kappa", "3", "--square-pulses", "--r-prime", "1"]
        )
        assert (cfg.kappa1, cfg.kappa2, cfg.pulse_fwhm_ns) == (3.0, 3.0, 480.0)

    def test_square_pulses_written_to_config_snapshot(self, tmp_path):
        from aokr.cli import main

        rc = main(
            [
                "single",
                "--square-pulses", "--engine", "classical",
                "--n-traj-classical", "16", "--n-tot", "2",
                "--cloud-sigma-mm", "0", "--seed", "1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        snapshot = json.loads((tmp_path / "config.json").read_text())
        assert (snapshot["pulse_rise_ns"], snapshot["pulse_fall_ns"]) == (0.0, 0.0)
        assert snapshot["pulse_fwhm_ns"] == 480.0

    def test_unreadable_value_rejected_naming_key(self, tmp_path, no_engine, capsys):
        from aokr.cli import main

        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text("n_tot = 3.5\n")
        for argv in (
            ["single", "--config", str(cfg_path)],
            ["ratio-sweep", "--r-prime", "1,x"],
        ):
            with pytest.raises(SystemExit) as info:
                main(argv + ["--out", str(tmp_path)])
            assert info.value.code == 2
        err = capsys.readouterr().err
        assert "n_tot: cannot read '3.5' as int" in err
        assert "r_prime_values: cannot read '1,x' as tuple" in err

    def test_ratio_sweep_run(self, tmp_path, capsys):
        from aokr.cli import main

        rc = main(
            [
                "ratio-sweep",
                "--r-prime", "1,1.3", "--psi0-prime", "52", "--engine", "classical",
                "--n-traj-classical", "32", "--n-tot", "4",
                "--cloud-sigma-mm", "0", "--seed", "1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert "r_prime=1.3 engine=classical" in capsys.readouterr().out
        rows = read_sweep_csv(tmp_path / "sweep.csv")
        assert [(r["sweep_value"], r["distribution_file"]) for r in rows] == [
            (1.0, "dist_classical_0000.csv"),
            (1.3, "dist_classical_0001.csv"),
        ]
        assert "# sweep_parameter: r_prime\n" in (tmp_path / "sweep.csv").read_text()
        assert "set ylabel 'zero-velocity fraction'" in (tmp_path / "plot.gp").read_text()


def _parse_cli(argv):
    import argparse

    from aokr import cli

    parser = argparse.ArgumentParser()
    cli._add_common(parser)
    return cli._build_config(parser.parse_args(argv), "ratio_sweep")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    values=st.fixed_dictionaries(
        {
            "engine": st.sampled_from(["classical", "quantum", "both"]),
            "output_dir": st.from_regex(r"[A-Za-z0-9_./]{1,20}", fullmatch=True),
            "n_tot": st.integers(1, 60),
            "seed": st.integers(0, 2**63),
            "n_traj_quantum": st.integers(2, 10**6),
            "n_max": st.sampled_from([64, 128, 1024, 8192]),
            "n_workers": st.integers(1, 64),
            "ratio": st.floats(0.01, 100.0),
            "kappa1": st.floats(0.0, 100.0),
            "eta": st.floats(0.0, 0.99),
            "kbar": st.one_of(st.just(0.0), st.floats(1e-3, 10.0)),
            "psi0_prime_deg": st.floats(0.0, 359.0),
            "bin_width": st.floats(1e-3, 10.0),
            "r_prime_values": st.lists(st.floats(1.0, 50.0), min_size=1, max_size=5).map(tuple),
        }
    )
)
def test_config_file_and_flags_build_the_same_config(tmp_path_factory, values):
    from aokr.cli import _FLAGS

    def text(v):
        return ",".join(map(repr, v)) if isinstance(v, tuple) else str(v)

    path = tmp_path_factory.mktemp("cfg") / "run.cfg"
    path.write_text("".join(f"{k} = {text(v)}\n" for k, v in values.items()))
    flag_of = {field: flag for flag, field, _ in _FLAGS}
    argv = [a for k, v in values.items() for a in (flag_of[k], text(v))]
    from_file = _parse_cli(["--config", str(path)])
    from_flags = _parse_cli(argv)
    assert from_file == from_flags == RunConfig(mode="ratio_sweep", **values)
