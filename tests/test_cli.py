import argparse
import ast
import importlib.util
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx, mark, raises

from koranyi.cli import COMMANDS, LAWS, build_parser, main

# SVG plots are written only when matplotlib is importable (see cli.py).
HAVE_MATPLOTLIB = importlib.util.find_spec("matplotlib") is not None


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestClassify:
    def test_nonexistence_tuple(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda", "0", "--a", "-2", "--p", "2")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "NonexistenceAllF"
        assert doc["margin"] == approx(0.0)

    def test_critical_flag_reports_open_case(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda-critical", "--a", "0", "--p", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "OpenCritical"
        assert doc["threshold"] == {"kind": "second", "value": approx(3.0)}
        assert doc["params"]["lambda"] == approx(-1.0)

    def test_inadmissible_lambda(self, capsys):
        code, _, err = run(capsys, "classify", "--lambda", "-5")
        assert code == 2
        assert "Hardy threshold" in err

    def test_writes_artifact(self, capsys, tmp_path):
        code, _, _ = run(capsys, "classify", "--a", "2", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "classify.json").read_text())
        assert doc["verdict"] == "ExistenceWitness"
        assert doc["config"]["a"] == 2.0


class TestConfigHandling:
    def test_file_then_flags_precedence(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"a": -2.0}')
        code, out, _ = run(capsys, "classify", "--config", str(cfg))
        assert json.loads(out)["verdict"] == "NonexistenceAllF"
        code, out, _ = run(capsys, "classify", "--config", str(cfg), "--a", "2")
        assert json.loads(out)["verdict"] == "ExistenceWitness"

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"alpha": 1}')
        code, _, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 2
        assert "alpha" in err

    def test_malformed_json_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text("{not json")
        code, _, err = run(capsys, "classify", "--config", str(cfg))
        assert code == 2
        assert "not valid JSON" in err

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", "--config", str(tmp_path / "nope.json"))
        assert code == 2
        assert "cannot read config" in err


class TestWitnessCommand:
    def test_power_witness_passes(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"grid": 60}')
        code, out, _ = run(capsys, "witness", "--lambda", "3", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 0
        assert "[PASS] witness-identity" in out
        assert "[PASS] witness-slack" in out
        doc = json.loads((tmp_path / "witness.json").read_text())
        assert doc["witness"]["kind"] == "subcritical"
        assert doc["summary"]["failed"] == 0

    def test_critical_witness_passes(self, capsys):
        code, out, _ = run(capsys, "witness", "--lambda-critical", "--a", "2", "--p", "2")
        assert code == 0
        assert '"kind": "critical"' in out

    def test_zero_tolerance_fails_honestly(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"tol": 0.0, "grid": 40}')
        code, out, _ = run(capsys, "witness", "--lambda", "3", "--config", str(cfg))
        assert code == 1
        assert "[FAIL] witness-identity" in out

    def test_tau_outside_window(self, capsys):
        code, _, err = run(capsys, "witness", "--lambda", "3", "--tau", "5")
        assert code == 2
        assert "window" in err

    def test_nonexistence_regime_refused(self, capsys):
        code, _, err = run(capsys, "witness", "--lambda", "0", "--a", "-2")
        assert code == 2
        assert "no admissible decay exponent" in err


class TestScalingCommand:
    def test_time_law(self, capsys, tmp_path):
        code, out, _ = run(capsys, "scaling", "--law", "time",
                           "--scales", "10", "31.6", "100", "316", "1000",
                           "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "scaling.json").read_text())
        assert doc["fit"]["slope"] == approx(-1.0, abs=0.05)
        csv_text = (tmp_path / "scaling-time.csv").read_text().splitlines()
        assert csv_text[0].startswith("# ")
        assert csv_text[1] == "T,value"
        assert len(csv_text) == 7

    def test_time_law_beyond_second_order(self, capsys, tmp_path):
        code, _, err = run(capsys, "scaling", "--law", "time", "--k", "3", "--out", str(tmp_path))
        assert code == 0, err
        doc = json.loads((tmp_path / "scaling.json").read_text())
        assert doc["fit"]["slope"] == approx(1.0 - 3 * 2.0, abs=0.05)

    def test_unknown_law_is_parse_error(self, capsys):
        with raises(SystemExit) as exc:
            main(["scaling", "--law", "cubic"])
        assert exc.value.code == 2

    def test_logdecay_requires_critical_zero_margin(self, capsys):
        code, _, err = run(capsys, "scaling", "--law", "logdecay", "--lambda", "0")
        assert code == 2
        assert "critical coupling" in err

    @mark.parametrize("N", [1, 2, 3])
    def test_logdecay_defaults_follow_n(self, capsys, tmp_path, N):
        # critical coupling -N^2 and zero margin p = 1 + (a + 2)/N
        code, out, err = run(capsys, "scaling", "--law", "logdecay", "--N", str(N),
                             "--out", str(tmp_path))
        assert code == 0, err
        assert "[PASS] logdecay-slope" in out
        config = json.loads((tmp_path / "scaling.json").read_text())["config"]
        assert (config["lambda"], config["a"], config["p"]) == (-N * N, 0.0, 1.0 + 2.0 / N)

    def test_logdecay_explicit_values_win(self, capsys, tmp_path):
        code, _, err = run(capsys, "scaling", "--law", "logdecay", "--N", "2", "--a", "2",
                           "--out", str(tmp_path))
        assert code == 0, err
        assert json.loads((tmp_path / "scaling.json").read_text())["config"]["p"] == 3.0
        code, _, err = run(capsys, "scaling", "--law", "logdecay", "--N", "2", "--p", "3")
        assert code == 2
        assert "margin" in err

    def test_domination(self, capsys):
        code, out, _ = run(capsys, "scaling", "--law", "domination",
                           "--scales", "10", "31.6", "100", "316")
        assert code == 0
        assert "[PASS] domination-gap" in out
        assert "[PASS] domination-monotone" in out

    def test_capacity_integrand_past_double_range_is_one_error_line(self, capsys, tmp_path):
        # at p = 1.01 the elliptic integrand reaches about 1e790 inside the
        # gamma transition; read as 0, it would end in a power-law fit through
        # nonpositive values and exit 2
        code, out, err = run(capsys, "scaling", "--law", "annulus", "--p", "1.01",
                             "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in out + err


class TestIntegrateCommand:
    def test_default_monomial(self, capsys):
        code, out, _ = run(capsys, "integrate")
        assert code == 0
        assert "[PASS] monomial-quadrature" in out

    def test_log_case_on_annulus(self, capsys):
        code, out, _ = run(capsys, "integrate", "--s", "-4", "--r-inner", "0.5")
        assert code == 0

    def test_nonintegrable_power_refused(self, capsys):
        code, _, err = run(capsys, "integrate", "--s", "-4.5")
        assert code == 2
        assert "not integrable" in err

    def test_uncertified_integral_is_one_error_line(self, capsys):
        # admissible (s > -Q), but the origin tail is too slow to resolve
        code, out, err = run(capsys, "integrate", "--s", "-3.995")
        assert code == 1
        assert err.startswith("error: radial integral") and err.count("\n") == 1
        assert "Traceback" not in out + err

    @mark.parametrize("s", ["-10", "-4"])
    def test_profile_overflow_toward_the_inner_edge_is_one_error_line(self, capsys, s):
        # r^s overflows below r ~ 1e-77 (s = -4) or 1e-31 (s = -10) while
        # the annulus reaches 1e-100: a refusal, not a traceback from the
        # closed form or a [FAIL] against a truncated integral
        code, out, err = run(capsys, "integrate", "--s", s, "--r-inner", "1e-100")
        assert code == 1
        assert err.startswith("error: radial integral") and err.count("\n") == 1
        assert "inner edge" in err
        assert out == ""


class TestSimulateCommand:
    def test_zero_data(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "--ic", "zero", "--boundary-value", "0",
                           "--t-end", "0.02", "--n-cells", "32", "--rho-min", "0.01",
                           "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "simulate.json").read_text())
        assert doc["status"] == "completed"
        assert doc["sup_final"] == 0.0
        assert doc["end_reason"] == "completed"
        assert doc["steps"] > 0 and doc["rejected"] >= 0 and doc["lu"] >= 0
        lines = (tmp_path / "simulate-history.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "t,sup_norm"
        assert (tmp_path / "simulate.svg").exists() == HAVE_MATPLOTLIB

    def test_stiff_cell_reports_factorizations(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--lambda", "3", "--a", "-2", "--t-end", "0.02",
                         "--n-cells", "32", "--rho-min", "0.01", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "simulate.json").read_text())
        assert doc["end_reason"] == "completed"
        assert doc["steps"] > 0 and doc["lu"] > 0

    def test_blow_up_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, "simulate", "--a", "-2", "--t-end", "0.25",
                           "--n-cells", "64")
        assert code == 0
        assert "blown_up" in out

    def test_linear_flag(self, capsys):
        code, out, _ = run(capsys, "simulate", "--linear", "--a", "-2",
                           "--t-end", "0.02", "--n-cells", "32", "--rho-min", "0.01")
        assert code == 0
        assert "completed" in out


    def test_positive_spectrum_grid_exits_2_with_a_hint(self, capsys):
        code, out, err = run(capsys, "simulate", "--linear", "--lambda", "-1")
        assert code == 2
        assert "blown_up" not in out
        assert err.startswith("error:") and 'spacing "log"' in err

    def test_underflowing_rho_min_exits_2_naming_the_grid(self, capsys):
        code, out, err = run(capsys, "simulate", "--rho-min", "1e-300", "--n-cells", "32")
        assert code == 2
        assert out == ""
        assert err.startswith("error: the linear part on uniform[1e-300,1]x32 is not finite")

    def test_log_grid_from_config_runs_negative_lambda(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"spacing": "log"}))
        code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--linear",
                           "--lambda", "-1", "--t-end", "0.02")
        assert code == 0
        assert "completed" in out


class TestLambdaCriticalConfigKey:
    @mark.parametrize("argv, cfg, artifact", [
        (["scaling", "--law", "logdecay"], {}, "scaling.json"),
        (["simulate", "--linear", "--t-end", "0.02"], {"spacing": "log"}, "simulate.json"),
    ])
    def test_config_key_matches_the_flag(self, capsys, tmp_path, argv, cfg, artifact):
        flag_cfg, key_cfg = tmp_path / "flag.json", tmp_path / "key.json"
        flag_cfg.write_text(json.dumps(cfg))
        key_cfg.write_text(json.dumps({**cfg, "lambda_critical": True}))
        by_flag, by_key = tmp_path / "flag", tmp_path / "key"
        code, _, err = run(capsys, *argv, "--config", str(flag_cfg), "--lambda-critical",
                           "--out", str(by_flag))
        assert code == 0, err
        code, _, err = run(capsys, *argv, "--config", str(key_cfg), "--out", str(by_key))
        assert code == 0, err
        doc = json.loads((by_key / artifact).read_text())
        assert doc["config"]["lambda_critical"] is True
        assert doc == json.loads((by_flag / artifact).read_text())


class TestPhaseSweepCommand:
    ARGS = ("phase-sweep", "--lambda-list", "0", "--a-list", "-2", "2",
            "--p-list", "2", "--t-end", "0.02", "--n-cells", "32",
            "--rho-min", "0.01", "--threads", "2")

    def test_csv_is_byte_deterministic(self, capsys, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert run(capsys, *self.ARGS, "--out", str(d1))[0] == 0
        assert run(capsys, *self.ARGS, "--out", str(d2))[0] == 0
        assert (d1 / "phase-sweep.csv").read_bytes() == (d2 / "phase-sweep.csv").read_bytes()
        assert (d1 / "phase-sweep.svg").exists() == HAVE_MATPLOTLIB

    def test_stdout_csv_when_no_out(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert ("lambda,a,p,k,status,blow_up_time,classifier_verdict,grid,dt_policy,"
                "end_reason,steps,rejected,lu") in lines

    def test_inadmissible_cell_is_a_row_not_an_abort(self, capsys):
        code, out, _ = run(capsys, "phase-sweep", "--lambda-list", "-9",
                           "--a-list", "2", "--p-list", "2",
                           "--t-end", "0.02", "--n-cells", "32", "--rho-min", "0.01")
        assert code == 0
        assert "error:" in out

    def test_empty_list_is_parse_error(self, capsys):
        with raises(SystemExit) as exc:
            main(["phase-sweep", "--lambda-list"])
        assert exc.value.code == 2

    def test_time_order_the_solver_lacks_exits_2(self, capsys, tmp_path):
        with raises(SystemExit) as exc:
            main([*self.ARGS, "--k", "3"])
        assert exc.value.code == 2
        capsys.readouterr()
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"k": 3}))
        code, out, err = run(capsys, *self.ARGS, "--config", str(path))
        assert code == 2
        assert out == "" and err.startswith("error: k must be one of [1, 2]")


class TestVerifyIdentities:
    SMALL = {
        "n_triples": 200, "n_points": 200, "n_div_points": 10,
        "mc_samples": 20000, "harmonic_points": 80, "flux_nodes": 60,
    }

    def test_all_suites_pass(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.SMALL))
        code, out, _ = run(capsys, "verify-identities", "--config", str(cfg),
                           "--out", str(tmp_path))
        assert code == 0
        assert out.count("[PASS]") == 9
        assert "verify-identities: 9/9 checks passed" in out
        doc = json.loads((tmp_path / "verify-identities.json").read_text())
        assert doc["summary"] == {"total": 9, "passed": 9, "failed": 0}
        assert {c["name"] for c in doc["checks"]} >= {
            "group-associativity", "gauge-gradient", "quadrature-vs-mc",
            "boundary-flux",
        }

    def test_zeroed_tolerances_fail(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(self.SMALL))
        code, out, _ = run(capsys, "verify-identities", "--config", str(cfg),
                           "--tol-scale", "0")
        assert code == 1
        assert "[FAIL]" in out


class TestReportCommand:
    def test_aggregates_suites(self, capsys, tmp_path):
        run(capsys, "integrate", "--out", str(tmp_path))
        cfg = tmp_path / "c.json"
        cfg.write_text('{"grid": 40}')
        run(capsys, "witness", "--lambda", "3", "--config", str(cfg),
            "--out", str(tmp_path))
        code, out, _ = run(capsys, "report", "--inputs",
                           str(tmp_path / "integrate.json"),
                           str(tmp_path / "witness.json"),
                           "--out", str(tmp_path))
        assert code == 0
        assert "report: 3/3 checks passed overall" in out
        doc = json.loads((tmp_path / "report.json").read_text())
        assert [s["suite"] for s in doc["suites"]] == ["integrate", "witness"]

    def test_failed_suite_propagates(self, capsys, tmp_path):
        cfg = tmp_path / "c.json"
        cfg.write_text('{"tol": 0.0, "grid": 40}')
        run(capsys, "witness", "--lambda", "3", "--config", str(cfg),
            "--out", str(tmp_path))
        code, out, _ = run(capsys, "report", "--inputs", str(tmp_path / "witness.json"))
        assert code == 1

    def test_non_suite_input_rejected(self, capsys, tmp_path):
        stray = tmp_path / "stray.json"
        stray.write_text('{"hello": 1}')
        code, _, err = run(capsys, "report", "--inputs", str(stray))
        assert code == 2
        assert "does not look like a suite report" in err

    def test_unreadable_input_is_named_a_report(self, capsys, tmp_path):
        code, _, err = run(capsys, "report", "--inputs", str(tmp_path / "missing.json"))
        assert code == 2
        assert "cannot read report" in err and "config" not in err
        broken = tmp_path / "broken.json"
        broken.write_text("{")
        code, _, err = run(capsys, "report", "--inputs", str(broken))
        assert code == 2
        assert "report" in err and "is not valid JSON" in err and "config" not in err

    @mark.parametrize("summary", [{"total": "x", "passed": 1}, {"total": 3, "passed": 5},
                                  {"total": 3, "passed": True}, {"total": 3}])
    def test_inconsistent_summary_rejected(self, capsys, tmp_path, summary):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"suite": "bad", "summary": summary}))
        code, out, err = run(capsys, "report", "--inputs", str(bad))
        assert code == 2
        assert str(bad) in err and "passed <= total" in err
        assert "checks passed overall" not in out

    def test_no_inputs_rejected(self, capsys):
        code, _, err = run(capsys, "report")
        assert code == 2
        assert "at least one input" in err


class TestNonFiniteAndIllTypedInput:
    """Non-finite parameters and a non-integer N are usage errors (exit 2)."""

    @staticmethod
    def quiet(argv):
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main(argv)
        return code, err.getvalue()

    def test_classify_nan_lambda(self, capsys):
        code, out, err = run(capsys, "classify", "--lambda", "nan")
        assert code == 2
        assert "finite" in err and out == ""

    @given(st.sampled_from(["classify", "simulate", "witness"]),
           st.sampled_from(["--lambda", "--a", "--p"]),
           st.sampled_from(["nan", "inf", "-inf"]))
    @settings(max_examples=40, deadline=None)
    def test_non_finite_flags_exit_2(self, command, flag, bad):
        code, err = self.quiet([command, f"{flag}={bad}"])
        assert code == 2, err
        assert err.startswith("error:")

    @given(st.sampled_from(["classify", "simulate", "witness"]),
           st.one_of(st.floats(), st.booleans(), st.just("2")))
    @settings(max_examples=40, deadline=None)
    def test_non_integer_n_in_config_exits_2(self, command, bad):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.json"
            cfg.write_text(json.dumps({"N": bad}))
            code, err = self.quiet([command, "--config", str(cfg)])
        assert code == 2, err
        assert "integer" in err

    @given(st.sampled_from([
        ("simulate", "--t-end"), ("simulate", "--boundary-value"), ("simulate", "--rho-min"),
        ("phase-sweep", "--t-end"), ("phase-sweep", "--rho-min"),
        ("phase-sweep", "--lambda-list"), ("phase-sweep", "--a-list"),
        ("integrate", "--s"), ("integrate", "--r-inner"), ("integrate", "--r-outer"),
        ("witness", "--tau"), ("witness", "--eps"), ("verify-identities", "--tol-scale"),
        ("scaling", "--lambda"), ("scaling", "--scales"),
    ]), st.sampled_from(["nan", "inf", "-inf"]))
    @settings(max_examples=60, deadline=None)
    def test_non_finite_numeric_keys_exit_2(self, target, bad):
        command, flag = target
        code, err = self.quiet([command, f"{flag}={bad}"])
        assert code == 2, err
        assert err.startswith("error:") and "finite" in err

    @given(st.sampled_from(["simulate", "phase-sweep"]),
           st.one_of(st.floats(max_value=0.0, allow_nan=False), st.just(-1e-300)))
    @settings(max_examples=40, deadline=None)
    def test_nonpositive_t_end_exits_2(self, command, bad):
        code, err = self.quiet([command, f"--t-end={bad!r}"])
        assert code == 2, err
        assert "t_end" in err

    @given(st.sampled_from([
        ("simulate", "boundary_value"), ("simulate", "t_end"), ("phase-sweep", "t_end"),
        ("phase-sweep", "boundary_value"), ("integrate", "tol"), ("witness", "tol"),
        ("simulate", "rho_min"), ("witness", "grid"), ("verify-identities", "mc_samples"),
        ("verify-identities", "n_points"),
    ]), st.sampled_from(["nan", "inf", True, None, [1.0]]))
    @settings(max_examples=60, deadline=None)
    def test_ill_typed_numeric_config_values_exit_2(self, target, bad):
        command, key = target
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "c.json"
            cfg.write_text(json.dumps({key: bad}))
            code, err = self.quiet([command, "--config", str(cfg)])
        assert code == 2, err
        assert key in err

    @mark.parametrize("command, cfg, key", [
        ("classify", {"lambda_critical": "no", "a": 0, "p": 3}, "lambda_critical"),
        ("simulate", {"nonlinear": "false", "a": -2}, "nonlinear"),
        ("classify", {"out": 5}, "out"),
        ("scaling", {"law": ["time"]}, "law"),
        ("report", {"inputs": "abc.json"}, "inputs"),
        ("report", {"inputs": ["abc.json", 3]}, "inputs"),
    ])
    def test_ill_typed_bool_str_and_list_config_values_exit_2(self, command, cfg, key):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.json"
            path.write_text(json.dumps(cfg))
            code, err = self.quiet([command, "--config", str(path)])
        assert code == 2, err
        assert err.startswith("error:") and key in err

    def test_every_key_of_every_table_is_type_checked(self, tmp_path):
        bad = {float: "1", int: 1.5, bool: "no", str: 5}
        path = tmp_path / "c.json"
        for command, (_, _, keys) in COMMANDS.items():
            for key in keys:
                value = bad.get(key.kind, "not a list")
                path.write_text(json.dumps({key.name: value}))
                code, err = self.quiet([command, "--config", str(path)])
                assert code == 2, (command, key.name, err)
                assert err.startswith("error:") and key.name in err, (command, key.name, err)
                if key.kind is float:
                    path.write_text(json.dumps({key.name: math.inf}))
                    code, err = self.quiet([command, "--config", str(path)])
                    assert code == 2 and "finite" in err, (command, key.name, err)

    @mark.parametrize("argv, cfg, key", [
        (["verify-identities"], {"mc_samples": 500}, "mc_samples"),
        (["simulate", "--n-cells", "10"], {}, "n_cells"),
        (["phase-sweep", "--n-cells", "31"], {}, "n_cells"),
    ], ids=["verify-identities", "simulate", "phase-sweep"])
    def test_value_below_the_library_minimum_names_the_key(self, tmp_path, argv, cfg, key):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg))
        code, err = self.quiet([*argv, "--config", str(path)])
        assert code == 2, err
        assert err.startswith(f"error: {key} must be >=")

    def test_non_integer_n_flag_is_refused_by_the_parser(self):
        with raises(SystemExit) as exc:
            self.quiet(["classify", "--N", "1.5"])
        assert exc.value.code == 2


class TestCliSurface:
    """Each subcommand's option strings; the key tables add and drop none."""

    COMMON = {"-h", "--help", "--config", "--out"}
    PARAMS = {"--N", "--lambda", "--lambda-critical", "--a", "--p"}
    EXPECTED = {
        "verify-identities": COMMON | {"--N", "--lambda", "--seed", "--tol-scale"},
        "classify": COMMON | PARAMS,
        "witness": COMMON | PARAMS | {"--tau", "--eps", "--beta", "--seed"},
        "scaling": COMMON | PARAMS | {"--k", "--law", "--scales"},
        "integrate": COMMON | {"--N", "--s", "--r-inner", "--r-outer"},
        "simulate": COMMON | PARAMS | {"--k", "--rho-min", "--n-cells", "--t-end",
                                       "--boundary-value", "--ic", "--linear"},
        "phase-sweep": COMMON | {"--N", "--k", "--lambda-list", "--a-list", "--p-list",
                                 "--rho-min", "--n-cells", "--t-end", "--threads"},
        "report": COMMON | {"--inputs"},
    }

    def test_option_strings_per_subcommand(self):
        parser = build_parser()
        subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        found = {
            name: {s for action in sub._actions for s in action.option_strings}
            for name, sub in subs.choices.items()
        }
        assert found == self.EXPECTED

    def test_law_choices_come_from_the_law_table(self):
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        law = next(a for a in subs.choices["scaling"]._actions if a.dest == "law")
        assert list(law.choices) == sorted(LAWS) == ["annulus", "domination", "logdecay", "time"]


class TestConfigOnlyKeys:
    """A key without a flag is reachable only from a config file, so some
    committed config or benchmark input has to set it."""

    ROOT = Path(__file__).resolve().parents[1]
    RETIRED = [
        ("scaling", "T"), ("scaling", "iota"), ("scaling", "tol_slope"), ("scaling", "r2_min"),
        ("verify-identities", "tol_group"), ("verify-identities", "tol_grad"),
        ("verify-identities", "tol_lap"), ("verify-identities", "tol_div"),
        ("verify-identities", "tol_harmonic"), ("verify-identities", "tol_flux"),
        ("witness", "rho_min"),
    ]

    def config_key_sets(self):
        """Key names of every committed config and of every dict literal with
        string keys in the benchmark's workloads."""
        found = [set(json.loads(path.read_text()))
                 for path in (self.ROOT / "configs").glob("*.json")]
        tree = ast.parse((self.ROOT / "perfbench" / "workloads.py").read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and node.keys and all(
                    isinstance(k, ast.Constant) and isinstance(k.value, str) for k in node.keys):
                found.append({k.value for k in node.keys})
        return found

    def test_every_config_only_key_is_set_somewhere(self):
        sets = self.config_key_sets()
        unset = []
        for command, (_, _, keys) in COMMANDS.items():
            names = {key.name for key in keys}
            accepted = [s for s in sets if s <= names]
            unset += [(command, key.name) for key in keys
                      if key.flag is None and not any(key.name in s for s in accepted)]
        assert unset == []

    @mark.parametrize("command, key", RETIRED)
    def test_retired_key_in_config_exits_2(self, tmp_path, command, key):
        assert key not in {k.name for k in COMMANDS[command][2]}
        path = tmp_path / "c.json"
        path.write_text(json.dumps({key: 1}))
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
            code = main([command, "--config", str(path)])
        assert code == 2
        assert err.getvalue().startswith("error:") and repr(key) in err.getvalue()
