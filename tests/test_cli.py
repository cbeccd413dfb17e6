import hashlib
import json
from pathlib import Path

import pytest

from padicframes import frames
from padicframes.affine import stabilizer_spec
from padicframes.cli import _ORBIT_CAP, main
from padicframes.io import load_config, parse_function, serialize_function
from padicframes.errors import ConfigError
from padicframes.padic import CosetRepresentative, digit_grid
from padicframes.sampling import non_generic_example


BASE_WAVELET_TERMS = [
    {"gamma": 0, "n": "0", "j": 1, "coeff": {"zeta_powers": [[0, "1"]]}}
]


def write_config(tmp_path, name="config.json", **overrides):
    data = {"prime": 3, "mode": "exact", "function": BASE_WAVELET_TERMS}
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFrameCommands:
    def test_frame_bound_of_base_wavelet(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "frame-bound")
        assert code == 0
        report = json.loads(out)
        assert report["status"] == "ok"
        assert report["results"]["frame_bound"]["rational"] == "3"

    def test_frame_check_all_residuals_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, random_g=25, seed=7)
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "frame-check")
        assert code == 0
        report = json.loads(out)
        results = report["results"]
        assert results["all_zero_residuals"] is True
        assert results["g_count"] == 25
        assert all(c["ok"] for c in results["multiplicity_checks"])
        assert "probe_grid" in results

    def test_float_mode_frame_check(self, tmp_path, capsys):
        terms = [
            {"gamma": 0, "n": "0", "j": 1, "coeff": [1.0, 0.5]},
            {"gamma": 1, "n": "0", "j": 1, "coeff": [0.25, -1.0]},
        ]
        cfg = write_config(tmp_path, mode="float", function=terms,
                           random_g=5, seed=3)
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "frame-check")
        assert code == 0
        report = json.loads(out)
        assert report["results"]["all_zero_residuals"] is True
        assert report["mode"] == "float"


class TestAnalysisCommands:
    def test_stabilizer(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "stabilizer")
        assert code == 0
        results = json.loads(out)["results"]
        assert results == {"gamma_a": 1, "gamma_0": 0, "n_0": "0",
                           "b_radius_exponent": -1}

    def test_genericity_reports_witnesses_as_findings(self, tmp_path, capsys):
        f, _ = non_generic_example(3, 1)
        cfg = write_config(tmp_path, function=serialize_function(f), depth=3)
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "genericity")
        assert code == 0  # a finding, not a failure
        results = json.loads(out)["results"]
        assert results["generic_up_to_depth"] is False
        assert results["spec_violation_count"] == 0
        listed = {(w["a"], w["b"]) for w in results["witnesses"]}
        assert ("26", "0") in listed

    def test_orbit(self, tmp_path, capsys):
        cfg = write_config(tmp_path, gamma_min=-1, gamma_max=1)
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "orbit")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["uniform_norms"] and results["round_trip"]
        assert results["pairwise_distinct"]

    def test_orbit_indices_are_the_first_of_the_sorted_grid(
            self, tmp_path, capsys, monkeypatch):
        """The capped index list is the head of the whole (gamma, J, n) grid
        sorted by sort_key, as building and sorting the grid would give."""
        function = [
            {"gamma": 0, "n": "0", "j": 1, "coeff": {"zeta_powers": [[0, "1"]]}},
            {"gamma": 0, "n": "1/3", "j": 1, "coeff": {"zeta_powers": [[1, "2"]]}},
        ]
        cfg_path = write_config(tmp_path, function=function,
                                gamma_min=-3, gamma_max=3)
        built = []
        members = frames.orbit_members

        def recording(f, spec, gamma, J, translations):
            built.extend(frames.OrbitIndex(gamma, n, J) for n in translations)
            return members(f, spec, gamma, J, translations)

        monkeypatch.setattr(frames, "orbit_members", recording)
        code, out, _ = run_cli(capsys, "--config", cfg_path, "--command", "orbit")
        assert code == 0
        f = load_config(json.loads(Path(cfg_path).read_text())).function
        spec = stabilizer_spec(f)
        grid = [frames.OrbitIndex(
                    gamma, CosetRepresentative(3, n_value, 1 - spec.gamma_0), J)
                for gamma in range(-3, 4)
                for J in frames.dilation_indices(spec)
                for n_value in digit_grid(3, -1, 1 - spec.gamma_0)]
        expected = sorted(grid, key=lambda idx: idx.sort_key)[:_ORBIT_CAP]
        assert len(grid) > _ORBIT_CAP
        assert json.loads(out)["results"]["count"] == _ORBIT_CAP
        assert sorted(built, key=lambda idx: idx.sort_key) == expected

    def test_oracle_check(self, tmp_path, capsys):
        cfg = write_config(tmp_path, random_g=6, seed=11)
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "oracle-check")
        assert code == 0
        results = json.loads(out)["results"]
        assert results["max_abs_deviation"] <= 1e-9

    def test_mra_demo(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        del_cfg = json.loads(Path(cfg).read_text())
        del del_cfg["function"]
        (tmp_path / "config.json").write_text(json.dumps(del_cfg))
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "mra-demo")
        assert code == 0
        block = json.loads(out)["results"]["mra"]
        assert block["gram_identity"] is True
        assert block["shift_count"] == 27
        assert block["scaling_relation"] is True
        assert block["orthogonality_threshold_observed"] == 2
        assert block["orthogonal_by_distance"] == {"1": False, "2": True}


class TestDeterminismAndIo:
    def test_identical_runs_are_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path, random_g=8, seed=5)
        _, out1, _ = run_cli(capsys, "--config", cfg, "--command", "frame-check")
        _, out2, _ = run_cli(capsys, "--config", cfg, "--command", "frame-check")
        assert out1 == out2

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = write_config(tmp_path, random_g=8, seed=5)
        _, out1, _ = run_cli(capsys, "--config", cfg, "--command", "frame-check")
        _, out2, _ = run_cli(capsys, "--config", cfg, "--command", "frame-check",
                             "--seed", "6")
        assert json.loads(out1)["seed"] == 5
        assert json.loads(out2)["seed"] == 6
        assert out1 != out2

    def test_output_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        target = tmp_path / "report.json"
        code, out, _ = run_cli(capsys, "--config", cfg, "--command",
                               "frame-bound", "--output", str(target))
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["status"] == "ok"


class TestConfigValidation:
    def test_composite_prime_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, prime=6)
        code, out, err = run_cli(capsys, "--config", cfg, "--command", "frame-bound")
        assert code == 2 and out == ""
        assert "prime" in err

    def test_bad_translation_rejected(self, tmp_path, capsys):
        terms = [{"gamma": 0, "n": "1/2", "j": 1,
                  "coeff": {"zeta_powers": [[0, "1"]]}}]
        cfg = write_config(tmp_path, function=terms)
        code, _, err = run_cli(capsys, "--config", cfg, "--command", "frame-bound")
        assert code == 2
        assert "function[0]" in err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, spurious=1)
        code, _, err = run_cli(capsys, "--config", cfg, "--command", "frame-bound")
        assert code == 2 and "spurious" in err

    def test_missing_function_for_frame_command(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"prime": 3}))
        code, _, err = run_cli(capsys, "--config", str(path), "--command", "frame-bound")
        assert code == 2 and "function" in err

    def test_unreadable_config(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "--config", str(tmp_path / "nope.json"),
                               "--command", "frame-bound")
        assert code == 2

    def test_load_config_details(self):
        with pytest.raises(ConfigError, match="gamma_min"):
            load_config({"prime": 3, "gamma_min": 2, "gamma_max": 1})
        with pytest.raises(ConfigError, match="mode"):
            load_config({"prime": 3, "mode": "fuzzy"})
        cfg = load_config({"prime": 5})
        assert cfg.gamma_min == -3 and cfg.gamma_max == 3
        assert cfg.n_digit_bound == 3 and cfg.random_g == 25

    def test_function_round_trip(self):
        f = parse_function(BASE_WAVELET_TERMS, 3, "exact")
        assert serialize_function(f) == BASE_WAVELET_TERMS

    def test_affine_element_round_trip(self):
        from padicframes.io import parse_affine_element, serialize_affine
        g = parse_affine_element({"a": "-5/9", "b": "2"}, 3)
        assert serialize_affine(g) == {"a": "-5/9", "b": "2"}
        with pytest.raises(ConfigError):
            parse_affine_element({"a": "0", "b": "1"}, 3)


FLOAT_TERMS = [{"gamma": 0, "n": "0", "j": 1, "coeff": [1.0, 0.5]}]


def _exact_term(**fields):
    return [{**BASE_WAVELET_TERMS[0], **fields}]


# One config per rejected class: each used to be truncated, cast or let
# through to a NaN residual instead of being refused with exit 2.
MALFORMED_CONFIGS = {
    "float_gamma": dict(function=_exact_term(gamma=0.9)),
    "float_j": dict(function=_exact_term(j=1.7)),
    "float_zeta_power": dict(
        function=_exact_term(coeff={"zeta_powers": [[1.5, "1"]]})),
    "bool_exact_coefficient": dict(
        function=_exact_term(coeff={"zeta_powers": [[0, True]]})),
    "bool_float_coefficient": dict(
        mode="float", function=[{**FLOAT_TERMS[0], "coeff": True}]),
    "bool_float_coefficient_part": dict(
        mode="float", function=[{**FLOAT_TERMS[0], "coeff": [True, 0.0]}]),
    "bool_j": dict(function=_exact_term(j=True)),
    "bool_seed": dict(seed=True),
    "bool_random_g": dict(random_g=True),
    "nan_coefficient": dict(
        mode="float", function=[{**FLOAT_TERMS[0], "coeff": [float("nan"), 0.0]}]),
    "infinite_coefficient": dict(
        mode="float", function=[{**FLOAT_TERMS[0], "coeff": [1.0, float("inf")]}]),
    "overflowing_coefficient": dict(
        mode="float", function=[{**FLOAT_TERMS[0], "coeff": [10**400, 0.0]}]),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_value_exits_2(tmp_path, capsys, name):
    cfg = write_config(tmp_path, **MALFORMED_CONFIGS[name])
    code, out, err = run_cli(capsys, "--config", cfg, "--command", "frame-check")
    assert code == 2 and out == ""
    assert err.startswith("config:")


def test_integral_json_values_still_accepted():
    cfg = load_config({"prime": 3, "seed": 0, "random_g": 1, "depth": None,
                       "function": _exact_term(j=2)})
    assert cfg.seed == 0 and cfg.random_g == 1 and cfg.depth is None
    with pytest.raises(ConfigError, match="gamma"):
        load_config({"prime": 3, "function": _exact_term(gamma=1.0)})
    with pytest.raises(ConfigError, match="'depth' must be an integer"):
        load_config({"prime": 3, "depth": 2.0})


GOLDEN_DIR = Path(__file__).resolve().parent.parent / "bench" / "cli_cases"
GOLDEN_CASES = json.loads((GOLDEN_DIR / "golden.json").read_text())["cases"]


@pytest.mark.parametrize(
    "case", GOLDEN_CASES, ids=[f"{c['config']}-{c['command']}" for c in GOLDEN_CASES])
def test_golden_cli_bytes(capsys, case):
    """The checked-in CLI cases give the recorded exit code and stdout bytes."""
    code, out, _ = run_cli(capsys, "--config", str(GOLDEN_DIR / case["config"]),
                           "--command", case["command"])
    assert code == case["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == case["stdout_sha256"]
