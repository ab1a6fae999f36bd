import argparse
import ast
import io
import json
import math
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from pytest import approx, mark, raises

from koranyi import capacity, cli, commands, evolve, hquad
from koranyi.capacity import FIT_MIN_POINTS
from koranyi.hquad import gk21
from koranyi.cli import COMMANDS, build_parser, main
from koranyi.commands import _domination_checks
from koranyi.hgroup import GroupContext
from koranyi.spectrum import ProblemParams, alphas, critical_lambda


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

    @mark.parametrize("argv, key", [
        (["--lambda-critical", "--a", "1", "--p", "2", "--tau", "0.3"], "tau"),
        (["--lambda", "0", "--a", "1", "--p", "2", "--beta", "0.3"], "beta"),
    ], ids=["tau-at-critical", "beta-above-critical"])
    def test_other_constructions_shape_key_is_refused(self, capsys, tmp_path, argv, key):
        # tau shapes only the power witness and beta only the critical one;
        # the other construction's key would otherwise be echoed but ignored
        code, out, err = run(capsys, "witness", *argv, "--out", str(tmp_path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and f"{key} does not shape" in err
        assert not (tmp_path / "witness.json").exists()


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

    @mark.parametrize("scales", [("10", "100", "1000"), ("1000", "100", "10")],
                      ids=["ascending", "descending"])
    def test_domination_passes_in_any_scale_order(self, capsys, scales):
        code, out, _ = run(capsys, "scaling", "--law", "domination", "--scales", *scales)
        assert code == 0
        assert "[PASS] domination-monotone" in out

    def test_decreasing_envelope_fails_monotone(self):
        # rows (R, space factor, envelope), given out of scale order
        increasing = [(100.0, 1.0, 4.0), (10.0, 1.0, 3.0), (1000.0, 1.0, 5.0)]
        decreasing = [(100.0, 1.0, 4.0), (10.0, 1.0, 5.0), (1000.0, 1.0, 3.0)]
        status = {c["name"]: c["status"] for c in _domination_checks(None, increasing, None, 0.0)}
        assert status == {"domination-gap": "pass", "domination-monotone": "pass"}
        (_, monotone) = _domination_checks(None, decreasing, None, 0.0)
        assert monotone["status"] == "fail"

    def test_too_few_scales_for_a_fit_write_nothing(self, capsys, tmp_path):
        # a fitted law needs FIT_MIN_POINTS scales; the refusal comes before the CSV
        for scales in (["10", "100"], ["10", "100", "1000"]):
            code, _, err = run(capsys, "scaling", "--law", "time", "--scales", *scales,
                               "--out", str(tmp_path))
            assert code == 2
            assert "scales" in err and f"at least {FIT_MIN_POINTS}" in err
        assert list(tmp_path.iterdir()) == []

    def test_one_scale_is_refused(self, capsys, tmp_path):
        # one scale gives domination-monotone nothing to compare
        code, _, err = run(capsys, "scaling", "--law", "domination", "--scales", "10")
        assert code == 2
        assert "scales" in err
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"law": "domination", "scales": [10.0]}))
        code, _, err = run(capsys, "scaling", "--config", str(cfg))
        assert code == 2
        assert "scales" in err

    @mark.parametrize("law", ["domination", "time"])
    def test_an_empty_scale_list_is_refused(self, capsys, tmp_path, law):
        # an empty list is too few scales, not a request for the law's defaults
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"law": law, "scales": [], "out": str(tmp_path / "out")}))
        code, _, err = run(capsys, "scaling", "--config", str(cfg))
        assert code == 2
        assert "got 0" in err
        assert not (tmp_path / "out").exists()

    # the certify benchmark's scale grids: quarter decades from 10, and 10^(2 + 1.5 i)
    QUARTER_DECADES = [f"{10.0 ** (1.0 + 0.25 * i):.6g}" for i in range(13)]
    LOG_DECAY_SCALES = [f"{10.0 ** (2.0 + 1.5 * i):.6g}" for i in range(13)]

    @mark.parametrize("argv, most", [
        (["--law", "logdecay", "--N", "1", "--lambda-critical", "--a", "0", "--p", "3",
          "--scales", *LOG_DECAY_SCALES], 20),
        (["--law", "annulus", "--N", "1", "--scales", *QUARTER_DECADES], 4),
    ], ids=["logdecay", "annulus"])
    def test_a_law_takes_its_scales_in_shared_rounds(self, capsys, tmp_path, monkeypatch,
                                                      argv, most):
        # a law costs as many integrand calls as its deepest scale has gk21
        # rounds, not their sum over the scales (208 and 26 calls one scale
        # at a time)
        calls = []

        def counting(f, bounds):
            return gk21(lambda *args: calls.append(1) or f(*args), bounds)

        monkeypatch.setattr(hquad, "gk21", counting)
        monkeypatch.setattr(capacity, "gk21", counting)
        code, _, err = run(capsys, "scaling", *argv, "--out", str(tmp_path))
        assert code == 0, err
        assert 0 < len(calls) <= most

    def test_capacity_integrand_past_double_range_is_one_error_line(self, capsys, tmp_path):
        # at p = 1.01 the elliptic integrand reaches about 1e790 inside the
        # gamma transition; read as 0, it would end in a power-law fit through
        # nonpositive values and exit 2
        code, out, err = run(capsys, "scaling", "--law", "annulus", "--p", "1.01",
                             "--out", str(tmp_path))
        assert code == 1
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in out + err

    @mark.parametrize("N, a, p", [(1, 0.0, 2.0), (1, 0.0, 3.0), (1, 1.0, 1.5), (2, 2.0, 4.0),
                                  (1, -1.0, 2.5)])
    def test_annulus_at_critical_coupling_carries_one_log(self, capsys, tmp_path, N, a, p):
        # at critical coupling the barrier -s^alpha ln s puts one factor ln R
        # into the space factor: the raw slope exceeds the predicted power by
        # the slope of ln R over the scales, and value / ln R has the power
        # alone; the CSV rows and the fit stay raw
        code, out, err = run(capsys, "scaling", "--law", "annulus", "--lambda-critical",
                             "--N", str(N), "--a", str(a), "--p", str(p), "--out", str(tmp_path))
        assert code == 0, out + err
        doc = json.loads((tmp_path / "scaling.json").read_text())
        (check,) = doc["checks"]
        params = ProblemParams(GroupContext(N), critical_lambda(GroupContext(N)), a, p)
        power = (a + 2.0 * p) / (p - 1.0) - params.Q - alphas(params).alpha_minus
        log_slope = capacity.scaling_fit([(R, math.log(R)) for R in capacity.DEFAULT_SCALES])
        assert log_slope.slope == approx(0.194, abs=1e-3)
        assert check["expected"] == approx(power + log_slope.slope, abs=1e-12)
        assert check["measured"] == doc["fit"]["slope"]
        assert abs(check["measured"] - check["expected"]) <= check["tolerance"]
        lines = (tmp_path / "scaling-annulus.csv").read_text().splitlines()[2:]
        rows = [tuple(map(float, line.split(","))) for line in lines]
        assert [R for R, _ in rows] == list(capacity.DEFAULT_SCALES)
        divided = capacity.scaling_fit([(R, v / math.log(R)) for R, v in rows])
        assert divided.slope == approx(power, abs=0.01)


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
        assert doc["steps"] > 0 and doc["rejected"] >= 0 and doc["steps"] + doc["rejected"] >= 0
        lines = (tmp_path / "simulate-history.csv").read_text().splitlines()
        assert lines[0].startswith("# ")
        assert lines[1] == "t,sup_norm"

    def test_stiff_cell_reports_factorizations(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "--lambda", "3", "--a", "-2", "--t-end", "0.02",
                         "--n-cells", "32", "--rho-min", "0.01", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads((tmp_path / "simulate.json").read_text())
        assert doc["end_reason"] == "completed"
        assert doc["steps"] > 0 and doc["steps"] + doc["rejected"] > 0

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

    @mark.parametrize("argv", [["classify"], ["witness"], ["simulate", "--t-end", "0.02"],
                                ["scaling", "--law", "annulus"]])
    def test_a_conflicting_lambda_is_refused(self, capsys, tmp_path, argv):
        # lambda_critical sets lambda = -N^2; any other explicit lambda is
        # refused, not overridden while the artifact records it
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--lambda", "3", "--lambda-critical",
                           "--out", str(out))
        assert code == 2
        assert err == "error: lambda = 3 conflicts with lambda_critical, " \
            "which sets lambda = -1\n"
        assert not out.exists()

    @mark.parametrize("lam", ["0", "-1"])
    def test_the_default_or_critical_lambda_goes_with_the_flag(self, capsys, lam):
        code, out, _ = run(capsys, "classify", "--lambda-critical", "--a", "0", "--p", "3")
        assert code == 0
        code, both, _ = run(capsys, "classify", "--lambda", lam, "--lambda-critical",
                            "--a", "0", "--p", "3")
        assert code == 0
        assert json.loads(both)["params"] == json.loads(out)["params"]
        assert json.loads(both)["params"]["lambda"] == -1.0


class TestPhaseSweepCommand:
    ARGS = ("phase-sweep", "--lambda-list", "0", "--a-list", "-2", "2",
            "--p-list", "2", "--t-end", "0.02", "--n-cells", "32",
            "--rho-min", "0.01")

    def test_csv_is_byte_deterministic(self, capsys, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        assert run(capsys, *self.ARGS, "--out", str(d1))[0] == 0
        assert run(capsys, *self.ARGS, "--out", str(d2))[0] == 0
        assert (d1 / "phase-sweep.csv").read_bytes() == (d2 / "phase-sweep.csv").read_bytes()

    def test_stdout_csv_when_no_out(self, capsys):
        code, out, _ = run(capsys, *self.ARGS)
        assert code == 0
        lines = out.splitlines()
        assert ("lambda,a,p,k,status,blow_up_time,classifier_verdict,grid,dt_policy,"
                "end_reason,steps,rejected") in lines

    def test_inadmissible_cell_is_a_row_not_an_abort(self, capsys):
        for k in ("1", "2"):
            code, out, _ = run(capsys, "phase-sweep", "--lambda-list", "-9",
                               "--a-list", "2", "--p-list", "2", "--k", k,
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

    @mark.parametrize("command", ["simulate", "phase-sweep"])
    def test_grid_over_the_budget_exits_2(self, command):
        # the dense eigensolve of a 10 000-cell grid would take gigabytes
        code, err = self.quiet([command, "--n-cells", "10000", "--t-end", "0.01"])
        assert code == 2, err
        assert err.startswith("error: need at most") and "got 10000" in err

    def test_non_integer_n_flag_is_refused_by_the_parser(self):
        with raises(SystemExit) as exc:
            self.quiet(["classify", "--N", "1.5"])
        assert exc.value.code == 2


class TestNegativeExponentNotation:
    """A negative number in exponent notation is a flag's value; argparse
    before Python 3.13 read it as an unknown flag and exited 2."""

    def config(self, capsys, tmp_path, *argv):
        code, _, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == 0, err
        return json.loads(next(tmp_path.glob("*.json")).read_text())["config"]

    def test_scalar_flag(self, capsys, tmp_path):
        assert self.config(capsys, tmp_path, "classify", "--a", "-1e-3")["a"] == -1e-3

    def test_scaling_lambda(self, capsys, tmp_path):
        cfg = self.config(capsys, tmp_path, "scaling", "--law", "annulus", "--lambda", "-5e-1")
        assert cfg["lambda"] == -0.5

    def test_list_flag(self, capsys, tmp_path):
        code, out, err = run(capsys, "phase-sweep", "--a-list", "-2e0", "2", "--t-end", "0.02",
                             "--n-cells", "32", "--rho-min", "0.01")
        assert code == 0, err
        assert "lambda=0 a=-2 p=2:" in out and "lambda=0 a=2 p=2:" in out

    def test_negative_infinity_is_still_refused(self, capsys):
        with raises(SystemExit) as exc:
            main(["classify", "--a", "-inf"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


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
                                 "--rho-min", "--n-cells", "--t-end"},
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

    def test_reused_parser_carries_nothing_between_calls(self, capsys, tmp_path):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        assert main(["classify", "--N", "2", "--lambda", "3", "--a", "1", "--p", "2",
                     "--out", str(d1)]) == 0
        assert main(["classify", "--out", str(d2)]) == 0
        config = json.loads((d2 / "classify.json").read_text())["config"]
        assert config == {key.name: key.default for key in COMMANDS["classify"][2]
                          if key.name != "out"}
        with raises(SystemExit) as exc:
            main(["classify", "--N", "two"])
        assert exc.value.code == 2
        assert main(["classify", "--a", "2"]) == 0
        assert build_parser() is build_parser()

    def test_law_choices_come_from_the_law_table(self):
        subs = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
        law = next(a for a in subs.choices["scaling"]._actions if a.dest == "law")
        assert list(law.choices) == sorted(commands.LAWS) == [
            "annulus", "domination", "logdecay", "time"]

    def test_lows_are_the_library_minimums(self):
        # the front end states them as literals, so that it loads no library layer
        lows = {(command, key.name): key.low
                for command, (_, _, keys) in COMMANDS.items() for key in keys}
        assert lows["simulate", "n_cells"] == lows["phase-sweep", "n_cells"] == evolve.MIN_CELLS
        assert lows["verify-identities", "mc_samples"] == hquad.MC_MIN_SAMPLES


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


class TestArtifactContract:
    """Every JSON artifact starts with its suite and the configuration that
    made it, the output directory left out; every CSV table starts with the
    same configuration as a `# ` line.  `cli._emit` writes them all."""

    # subcommand -> (flags, config file, files written)
    RUNS = {
        "verify-identities": ([], TestVerifyIdentities.SMALL, ["verify-identities.json"]),
        "classify": ([], {}, ["classify.json"]),
        "witness": (["--lambda", "3"], {"grid": 40}, ["witness.json"]),
        "scaling": (["--law", "time"], {}, ["scaling-time.csv", "scaling.json"]),
        "integrate": ([], {}, ["integrate.json"]),
        "simulate": (["--t-end", "0.02", "--n-cells", "32", "--rho-min", "0.01"], {},
                     ["simulate-history.csv", "simulate.json"]),
        "phase-sweep": (list(TestPhaseSweepCommand.ARGS[1:]), {}, ["phase-sweep.csv"]),
        "report": ([], {}, ["report.json"]),
    }

    def check_artifacts(self, out, config):
        """Each file under out carries config in its header."""
        for path in out.iterdir():
            text = path.read_text()
            if path.suffix == ".json":
                doc = json.loads(text)
                assert list(doc)[:2] == ["suite", "config"], path.name
                assert doc["suite"] == path.stem and doc["config"] == config, path.name
            else:
                assert text.splitlines()[0] == "# " + json.dumps(config), path.name

    @mark.parametrize("command", sorted(COMMANDS))  # every subcommand writes a file
    def test_header_is_the_resolved_config(self, capsys, tmp_path, monkeypatch, command):
        flags, file_cfg, files = self.RUNS[command]
        if command == "report":
            suite = tmp_path / "suite.json"
            suite.write_text(json.dumps({"suite": "x", "summary": {"total": 1, "passed": 1}}))
            flags = ["--inputs", str(suite)]
        cfg_path = tmp_path / "c.json"
        cfg_path.write_text(json.dumps(file_cfg))
        # the command's config as it ends the call, with scaling's law defaults filled
        help_text, fn, keys = COMMANDS[command]
        fn = fn or commands.RUN[command]  # a numerical command's row holds None
        seen = []
        monkeypatch.setitem(COMMANDS, command,
                            (help_text, lambda cfg: seen.append(cfg) or fn(cfg), keys))
        out = tmp_path / "out"
        code, _, err = run(capsys, command, *flags, "--config", str(cfg_path), "--out", str(out))
        assert code == 0, err
        (cfg,) = seen
        config = {name: value for name, value in cfg.items() if name != "out"}
        assert list(config) == [key.name for key in keys if key.name != "out"]
        if command == "scaling":
            assert (config["lambda"], config["a"], config["p"]) == (0.0, 0.0, 2.0)
        assert sorted(path.name for path in out.iterdir()) == files
        self.check_artifacts(out, config)

    def test_refused_fit_leaves_its_table(self, capsys, tmp_path):
        # the scaling CSV is written before the fit, which refuses scales
        # spanning less than a factor of 10
        out = tmp_path / "out"
        code, _, err = run(capsys, "scaling", "--law", "time", "--scales", "2", "3", "4", "5",
                           "--out", str(out))
        assert code == 2 and err.startswith("error:")
        assert [path.name for path in out.iterdir()] == ["scaling-time.csv"]
        config = {key.name: key.default for key in COMMANDS["scaling"][2] if key.name != "out"}
        config.update({"lambda": 0.0, "a": 0.0, "p": 2.0, "scales": [2.0, 3.0, 4.0, 5.0]})
        self.check_artifacts(out, config)

    def test_only_emit_opens_a_file(self):
        # reading a config or a report goes through Path.read_text; writing a
        # file or making a directory is left to `cli._emit`, in the front end
        # and in the numerical commands alike
        writers = {"open", "write_text", "write_bytes", "mkdir", "touch"}
        found = set()
        for module in (cli, commands):
            for node in ast.parse(Path(module.__file__).read_text()).body:
                for call in ast.walk(node):
                    if isinstance(call, ast.Call) and (
                            getattr(call.func, "id", None) in writers
                            or getattr(call.func, "attr", None) in writers):
                        found.add((module.__name__, getattr(node, "name", "<module>")))
        assert found == {("koranyi.cli", "_emit")}
