import dataclasses
import json
import math
import os

import numpy as np
import pytest

from aokr.runner import (
    RunConfig,
    emit_outputs,
    parse_config_file,
    phase_sweep_values,
    read_sweep_csv,
    run,
    run_phase_sweep,
    run_ratio_sweep,
    SweepResult,
)

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
        ],
    )
    def test_out_of_range_rejected_naming_field(self, field, value):
        with pytest.raises(ValueError) as info:
            fast_config(**{"cloud_sigma_mm": 0.5, field: value}).validate()
        assert f"{field}: must" in str(info.value)

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
        cfg = RunConfig.from_file(path)
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
            RunConfig.from_file(path)
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
        for ra, rb in zip(a.rows, b.rows):
            assert ra.energy == rb.energy
            assert ra.zero_velocity_fraction == rb.zero_velocity_fraction
            assert np.array_equal(ra.distribution.masses, rb.distribution.masses)

    def test_ratio_point_matches_phase_single(self):
        # r' = 1 with psi0' = 52 is the same physics and the same stream
        # as a single phase point at r = 1, psi0 = 52
        single = run(fast_config(engine="both"))
        ratio = run_ratio_sweep(
            fast_config(mode="ratio_sweep", engine="both", r_prime_values=(1.0,), psi0_prime_deg=52.0)
        )
        for rs, rr in zip(single.rows, ratio.rows):
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
        res = run_phase_sweep(cfg)
        assert [(r.sweep_value, r.engine) for r in res.rows] == [
            (100.0, "classical"),
            (100.0, "quantum"),
            (110.0, "classical"),
            (110.0, "quantum"),
        ]

    def test_wrong_mode_rejected(self):
        with pytest.raises(ValueError):
            run_ratio_sweep(fast_config(mode="single"))


class TestOutputs:
    def test_empty_sweep_manifest_has_config_only(self, tmp_path):
        res = SweepResult(mode="phase_sweep", sweep_parameter="psi0_deg", rows=[], config=fast_config())
        manifest = emit_outputs(res, tmp_path)
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
        )
        res = run_phase_sweep(cfg)
        manifest = emit_outputs(res, tmp_path)
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
        cfg = fast_config(engine="both")
        res = run(cfg)
        emit_outputs(res, tmp_path)
        rows = read_sweep_csv(os.path.join(tmp_path, "sweep.csv"))
        for disk, mem in zip(rows, res.rows):
            assert disk["energy"] == mem.energy
            assert disk["energy_stderr"] == mem.energy_stderr
            assert disk["zero_velocity_fraction"] == mem.zero_velocity_fraction


class TestCli:
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

    def test_bad_n_max_rejected_before_any_engine_runs(self, tmp_path, monkeypatch, capsys):
        from aokr import runner
        from aokr.cli import main

        def engine_called(*args, **kwargs):
            raise AssertionError("an engine ran before the config was validated")

        monkeypatch.setattr(runner, "run_classical_ensemble", engine_called)
        monkeypatch.setattr(runner, "run_mcwf_trajectories", engine_called)
        with pytest.raises(SystemExit) as info:
            main(["single", "--n-max", "100", "--out", str(tmp_path)])
        assert info.value.code == 2
        assert "n_max" in capsys.readouterr().err
