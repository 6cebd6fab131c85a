"""Command-line pipeline: reports, exit codes, figure emission, determinism."""

import argparse
import inspect
import io
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dqwitness
from dqwitness.cli import (
    EXIT_BY_VERDICT,
    _dump_json,
    bpp_curve,
    build_parser,
    build_report,
    dq_pair_trajectory,
    emit_figure_data,
    main,
    parse_config_file,
    resolve_params,
    run_witness,
)
from dqwitness.algebra import build_two_spin_operators
from dqwitness.bounds import PhysicalParams, ValidityRegimeWarning
from dqwitness.dynamics import StateVector, propagate
from dqwitness.errors import UnsupportedKind
from dqwitness.measurement import GateResult, MeasurementSeries, ingest_text, stability_gate


def stable_series_csv(peak=0.15):
    rows = ["time_s,f_dq,t2_star_s"]
    for i in range(10):
        f_dq = peak if i == 5 else 0.02
        rows.append(f"{i * 0.1},{f_dq},0.045")
    return "\n".join(rows) + "\n"


def dropping_series_csv(peak=0.15):
    rows = ["time_s,f_dq,t2_star_s"]
    for i in range(10):
        f_dq = peak if i == 5 else 0.02
        t2 = 0.0225 if i >= 5 else 0.045
        rows.append(f"{i * 0.1},{f_dq},{t2}")
    return "\n".join(rows) + "\n"


@pytest.fixture
def stable_csv(tmp_path):
    path = tmp_path / "stable.csv"
    path.write_text(stable_series_csv())
    return str(path)


@pytest.fixture
def dropping_csv(tmp_path):
    path = tmp_path / "dropping.csv"
    path.write_text(dropping_series_csv())
    return str(path)


class TestBoundsCommand:
    def test_default_parameters(self, capsys):
        assert main(["bounds"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["epsilon_th"] == pytest.approx(1.5e-9, rel=0.05)
        assert doc["bounds"]["eta_seq"] == pytest.approx(2.5e-2, rel=0.02)
        assert doc["bounds"]["hbar_omega_d_joule"] == pytest.approx(6.6e-30, rel=0.01)
        assert doc["tool"]["name"] == "dqwitness"

    def test_flag_overrides(self, capsys):
        assert main(["bounds", "--temperature-k", "3100"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["bounds"]["epsilon_th"] == pytest.approx(1.5e-10, rel=0.05)

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "bounds.json"
        assert main(["bounds", "--output", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["bounds"]["eta_seq"] > 0


class TestConfigResolution:
    def test_precedence_defaults_config_flags(self, tmp_path):
        config = tmp_path / "params.conf"
        config.write_text(
            "# comment line\n"
            "temperature_k = 155.0\n"
            "omega_d_hz = 20e3  # inline comment\n"
        )
        args = build_parser().parse_args(
            ["bounds", "--config", str(config), "--temperature-k", "310"]
        )
        params = resolve_params(args)
        assert params.temperature == 310.0  # flag beats config
        assert params.omega_d == pytest.approx(2 * math.pi * 20e3)  # config beats default
        assert params.mixing_time == 5e-3  # default survives

    def test_unknown_key_rejected(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("voltage = 3\n")
        with pytest.raises(ValueError):
            parse_config_file(config)

    def test_non_numeric_value_rejected(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("temperature_k = warm\n")
        with pytest.raises(ValueError):
            parse_config_file(config)


class TestWitnessCommand:
    def test_positive_witness_exits_two(self, stable_csv, capsys):
        code = main(["witness", "--input", stable_csv])
        doc = json.loads(capsys.readouterr().out)
        assert code == 2
        assert doc["witness"]["verdict"] == "classically_inexplicable"
        assert doc["witness"]["w_th"] == pytest.approx(0.1253, abs=1e-4)
        assert doc["gate"]["status"] == "stable"
        assert doc["series"]["rows"] == 10
        assert doc["series"]["f_dq_source"] == "f_dq"

    def test_small_amplitude_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "tiny.csv"
        path.write_text(stable_series_csv(peak=0.001))
        assert main(["witness", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["witness"]["verdict"] == "not_excluded"

    def test_unstable_gate_exits_three_with_same_witness_value(
        self, stable_csv, dropping_csv, capsys
    ):
        main(["witness", "--input", stable_csv])
        stable_doc = json.loads(capsys.readouterr().out)
        code = main(["witness", "--input", dropping_csv])
        drop_doc = json.loads(capsys.readouterr().out)
        assert code == 3
        assert drop_doc["witness"]["verdict"] == "loophole_open"
        assert drop_doc["witness"]["w_th"] == stable_doc["witness"]["w_th"]

    def test_report_is_deterministic(self, stable_csv, capsys):
        main(["witness", "--input", stable_csv])
        first = capsys.readouterr().out
        main(["witness", "--input", stable_csv])
        second = capsys.readouterr().out
        assert first == second

    def test_malformed_input_exits_one(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,f_dq\n0,0.1\n")
        assert main(["witness", "--input", str(path)]) == 1
        assert "error:" in capsys.readouterr().err

    def test_missing_required_flag_exits_one(self, capsys):
        assert main(["witness"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_threshold_flags_change_gate(self, tmp_path, capsys):
        rows = ["time_s,f_dq,t2_star_s"]
        for i in range(10):
            t2 = 0.045 * (1.0 + (0.03 if i % 2 else -0.03))
            rows.append(f"{i * 0.1},0.15,{t2}")
        path = tmp_path / "jitter.csv"
        path.write_text("\n".join(rows) + "\n")
        assert main(["witness", "--input", str(path)]) == 2
        capsys.readouterr()
        assert main(["witness", "--input", str(path), "--cv-threshold", "0.01"]) == 3

    @pytest.mark.parametrize("flag", ["--cv-threshold", "--dev-threshold"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.01"])
    def test_bad_gate_threshold_exits_one(self, dropping_csv, capsys, flag, value):
        # Infinite thresholds would pass the dropping series (exit 2, not 3).
        assert main(["witness", "--input", dropping_csv, f"{flag}={value}"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert flag.lstrip("-").replace("-", "_") in err


class TestReportAssembly:
    def test_library_level_report(self):
        series = ingest_text(stable_series_csv())
        params = PhysicalParams.tissue_defaults()
        gate = stability_gate(series)
        doc, code = build_report(params, series, gate)
        assert code == 2
        assert doc["witness"]["certifiable"]
        assert doc["gate"]["mt_gate_applied"] is False
        assert doc["series"]["peak_time_s"] == pytest.approx(0.5)
        assert "classically_inexplicable" in doc["summary"]

    def test_run_witness_writes_document(self, tmp_path):
        series = ingest_text(stable_series_csv())
        out = tmp_path / "report.json"
        doc, code = run_witness(
            PhysicalParams.tissue_defaults(), series, destination=str(out)
        )
        assert code == 2
        assert json.loads(out.read_text()) == doc


class TestFigures:
    def test_bpp_grid_contains_exact_peak(self):
        x, y = bpp_curve()
        assert x.size == 300 and y.size == 300
        assert x[0] == 0.0 and x[-1] < 5.0
        imax = int(y.argmax())
        assert x[imax] == 1.0
        assert y[imax] == 1.0

    def test_bpp_reciprocal_pairs_on_grid(self):
        x, y = bpp_curve()
        values = {float(xi): float(yi) for xi, yi in zip(x, y)}
        checked = 0
        for k in (15, 16, 18, 20, 24, 30, 36, 40, 45, 48, 50, 60):
            xi = k * 5.0 / 300.0
            xr = 3600 // k * 5.0 / 300.0
            if xr in values:
                assert abs(values[xi] - values[xr]) < 1e-10
                checked += 1
        assert checked >= 10

    def test_figure_csv_deterministic(self, capsys):
        assert main(["figure", "--kind", "bpp_curve"]) == 0
        first = capsys.readouterr().out
        assert main(["figure", "--kind", "bpp_curve"]) == 0
        assert capsys.readouterr().out == first
        header, *rows = first.strip().split("\n")
        assert header == "x,j_normalized"
        assert len(rows) == 300

    def test_zq_signal_with_frozen_drive_is_constant(self):
        s0 = build_two_spin_operators()["S0"]
        traj = propagate(
            np.zeros((4, 4)), StateVector.basis_state(4, 1), np.linspace(0, 1, 32), [s0]
        )
        values = traj.expectations["S0"]
        np.testing.assert_allclose(values, values[0], atol=1e-14)
        assert values[0] == pytest.approx(0.5)

    def test_dq_signal_final_row(self, capsys):
        assert main(["figure", "--kind", "dq_signal"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "time_s,pair_signal"
        t_final, s_final = (float(v) for v in lines[-1].split(","))
        assert t_final == 2.0
        assert s_final == pytest.approx(math.sinh(2.0) ** 2, rel=1e-6)
        assert s_final == pytest.approx(13.154, abs=1e-3)

    def test_dq_trajectory_reports_truncation(self):
        traj = dq_pair_trajectory()
        assert traj.truncation_tail < 1e-8
        assert traj.n_levels > 64

    def test_open_trajectory_columns(self, capsys):
        assert main(["figure", "--kind", "open_trajectory"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == "time_s,relative_entropy,dq_amplitude,pair_correlation"
        assert len(lines) == 102
        first = [float(v) for v in lines[1].split(",")]
        last = [float(v) for v in lines[-1].split(",")]
        assert first[1] > last[1]  # relative entropy decays

    def test_simulate_kinds_and_rejections(self, capsys, tmp_path):
        out = tmp_path / "traj.csv"
        assert main(["simulate", "--kind", "zq_signal", "--output", str(out)]) == 1
        assert "invalid choice: 'simulate'" in capsys.readouterr().err
        assert main(["figure", "--kind", "bogus", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: unknown figure kind 'bogus'; expected one of "
            "('bpp_curve', 'zq_signal', 'dq_signal', 'open_trajectory')\n"
        )
        assert not out.exists()

    def test_unsupported_kind_error_type(self):
        with pytest.raises(UnsupportedKind):
            emit_figure_data("bogus", PhysicalParams.tissue_defaults(), io.StringIO())


class TestExitCodeTotality:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_unknown_command_exits_one(self):
        assert main(["frobnicate"]) == 1


class TestNonFiniteInputs:
    @pytest.mark.parametrize("cell", ["nan", "inf"])
    def test_non_finite_csv_field_exits_one(self, tmp_path, capsys, cell):
        path = tmp_path / "nonfinite.csv"
        path.write_text(stable_series_csv().replace("0.15,", f"{cell},"))
        assert main(["witness", "--input", str(path)]) == 1
        assert "line 7" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--omega-d-static-hz", "--temperature-k"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_exits_one(self, stable_csv, capsys, flag, value):
        assert main(["witness", "--input", stable_csv, flag, value]) == 1
        assert main(["bounds", flag, value]) == 1
        assert "must be finite" in capsys.readouterr().err

    def test_report_refuses_non_finite_numbers(self, capsys):
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError):
                _dump_json({"gate": {"t2_cv": value}}, None)
        assert capsys.readouterr().out == ""


OVERSIZED_FIELD_CSV = "time_s,f_dq,t2_star_s\n0.0,0.1,0.04" + "0" * 131072 + "\n"
OVERFLOWING_T2_CSV = "time_s,f_dq,t2_star_s\n" + "".join(f"{i},0.1,1.7e308\n" for i in range(3))


@pytest.mark.parametrize(
    "argv, csv_text, named",
    [
        (["bounds", "--temperature-k", "1e-320"], None, "temperature"),
        (["figure", "--kind", "open_trajectory", "--temperature-k", "1e-320"], None, "temperature"),
        (["bounds", "--omega-d-static-hz", "1e150", "--mixing-time-s", "1e10"], None,
         "omega_d_static"),
        (["witness"], OVERSIZED_FIELD_CSV, "line 2"),
        (["witness"], OVERFLOWING_T2_CSV, "t2_cv"),
    ],
    ids=["bounds-kT-underflow", "figure-kT-underflow", "eta-overflow", "csv-field-limit",
         "gate-mean-overflow"],
)
def test_extreme_inputs_end_in_one_error_line(tmp_path, capsys, argv, csv_text, named):
    if csv_text is not None:
        (tmp_path / "series.csv").write_text(csv_text)
        argv = argv + ["--input", str(tmp_path / "series.csv")]
    assert main(argv + ["--output", str(tmp_path / "out")]) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and named in lines[0]
    assert "Traceback" not in captured.err and captured.out == ""
    assert not (tmp_path / "out").exists()


def test_bounds_warns_once_outside_validity_regime(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["bounds", "--omega-d-static-hz", "500"]) == 0
    assert [w.category for w in caught] == [ValidityRegimeWarning]


def test_report_carries_package_version(capsys):
    assert main(["bounds"]) == 0
    assert json.loads(capsys.readouterr().out)["tool"]["version"] == dqwitness.__version__


class TestOneDefaultsTable:
    """Defaults, config keys and parameter flags all come from one table."""

    FROM_HZ_NAMES = set(inspect.signature(PhysicalParams.from_hz).parameters)
    OTHER_DESTS = {
        "help", "config", "output", "input", "cv_threshold", "dev_threshold", "kind"
    }

    def test_no_flags_no_config_gives_tissue_defaults(self):
        args = build_parser().parse_args(["bounds"])
        assert resolve_params(args) == PhysicalParams.tissue_defaults()

    def test_flags_config_keys_and_from_hz_share_names(self, tmp_path):
        parser = build_parser()
        (subparsers,) = [
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ]
        assert set(subparsers.choices) == {"bounds", "witness", "figure"}
        for command, sub in subparsers.choices.items():
            flags = {
                a.dest: a.option_strings
                for a in sub._actions
                if a.dest not in self.OTHER_DESTS
            }
            assert set(flags) == self.FROM_HZ_NAMES, command
            for dest, options in flags.items():
                assert options == ["--" + dest.replace("_", "-")]
        config = tmp_path / "all.conf"
        config.write_text("".join(f"{name} = 1.0\n" for name in self.FROM_HZ_NAMES))
        assert set(parse_config_file(config)) == self.FROM_HZ_NAMES

    def test_config_naming_all_six_keys_round_trips(self, tmp_path):
        values = {
            "omega_d_hz": 12e3,
            "omega_d_static_hz": 4.0,
            "temperature_k": 300.0,
            "mixing_time_s": 4e-3,
            "tau_c_s": 2e-9,
            "larmor_hz": 500e6,
        }
        config = tmp_path / "all.conf"
        config.write_text("".join(f"{k} = {v!r}\n" for k, v in values.items()))
        args = build_parser().parse_args(
            ["witness", "--input", "x.csv", "--config", str(config)]
        )
        assert resolve_params(args) == PhysicalParams.from_hz(**values)


finite_amplitude = st.floats(min_value=0.0, max_value=10.0)
physical_params = st.builds(
    PhysicalParams.from_hz,
    omega_d_hz=st.floats(1.0, 1e6),
    omega_d_static_hz=st.floats(0.0, 20.0),
    temperature_k=st.floats(1e-3, 1e4),
    mixing_time_s=st.floats(1e-4, 5e-3),
    tau_c_s=st.just(1e-9),
    larmor_hz=st.just(400e6),
)


def _gate(status):
    return GateResult(status, 0.0, 0.0, None, 0.05, 0.10)


def _verdict(params, f_dq, status):
    series = MeasurementSeries(times=[0.0], f_dq=[f_dq], t2_star=[0.045])
    doc, code = build_report(params, series, _gate(status))
    return doc["witness"]["verdict"], code


class TestVerdictMapping:
    @given(params=physical_params, f_dq=finite_amplitude,
           status=st.sampled_from(["stable", "unstable"]))
    @settings(max_examples=100, deadline=None)
    def test_exit_code_is_the_verdict_mapping(self, params, f_dq, status):
        verdict, code = _verdict(params, f_dq, status)
        assert code == EXIT_BY_VERDICT[verdict]

    @given(params=physical_params, pair=st.tuples(finite_amplitude, finite_amplitude),
           status=st.sampled_from(["stable", "unstable"]))
    @settings(max_examples=100, deadline=None)
    def test_verdict_is_monotone_in_amplitude(self, params, pair, status):
        low, high = sorted(pair)
        low_verdict, _ = _verdict(params, low, status)
        high_verdict, _ = _verdict(params, high, status)
        if low_verdict != "not_excluded":
            assert high_verdict == low_verdict
