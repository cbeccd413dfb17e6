import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from orbit_strategies import fraction_digit_grid
from padicframes import frames, mra
from padicframes.affine import affine, stabilizer_spec
from padicframes.cli import _ORBIT_CAP, _oracle_deviation, main
from padicframes.cyclotomic import CycloNumber
from padicframes.io import (
    load_config,
    parse_function,
    serialize_affine,
    serialize_function,
)
from padicframes.errors import ConfigError, ResolutionError
from padicframes.padic import CosetRepresentative
from padicframes.sampling import non_generic_example
from padicframes.wavelets import TestFunction, default_lattice, sample, wavelet_index


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


def run_child_cli(cfg, command, **kwargs):
    """The CLI in a child process with a 10 s timeout, so a hang fails
    instead of stalling the suite."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "padicframes.cli", "--config", cfg, "--command", command],
        capture_output=True, text=True, timeout=10, env=env, check=False, **kwargs)


def one_term(gamma):
    return [{"gamma": gamma, "n": "0", "j": 1, "coeff": {"zeta_powers": [[0, "1"]]}}]


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

    def test_deep_scale_orbit_stays_small(self, tmp_path):
        """p = 3, one term at gamma_0 = -16: the translation grid has 3**18
        points, of which the report reads the first 200.  In a child capped
        at 512 MB of address space the run exits 0 in under 2 s."""
        cfg = write_config(tmp_path, function=one_term(-16))
        cap = 512 * 2**20
        start = time.perf_counter()
        proc = run_child_cli(
            cfg, "orbit",
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["count"] == _ORBIT_CAP
        assert elapsed < 2

    def test_deep_stabilizer_orbit_stays_small(self, tmp_path):
        """p = 3, terms (0, 0, 1) and (0, 1/3**20, 1): gamma_a = 21, so
        there are 2 * 3**20 dilations J, of which the report reads at most
        200.  In a child capped at 512 MB of address space the run exits 0
        in under 2 s."""
        term = {**one_term(0)[0], "n": f"1/{3**20}"}
        cfg = write_config(tmp_path, function=one_term(0) + [term])
        spec = stabilizer_spec(load_config(json.loads(Path(cfg).read_text())).function)
        assert spec.gamma_a == 21
        cap = 512 * 2**20
        start = time.perf_counter()
        proc = run_child_cli(
            cfg, "orbit",
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["count"] == _ORBIT_CAP
        assert elapsed < 2

    def test_orbit_above_the_digit_window(self, tmp_path, capsys):
        """gamma_0 = 3 leaves no translation digit between -1 and
        1 - gamma_0, so the grid is n = 0 alone."""
        cfg = write_config(tmp_path, function=one_term(3), gamma_min=-1, gamma_max=1)
        code, out, _ = run_cli(capsys, "--config", cfg, "--command", "orbit")
        spec = stabilizer_spec(load_config(json.loads(Path(cfg).read_text())).function)
        assert code == 0
        assert json.loads(out)["results"] == {
            "count": 3 * len(frames.dilation_indices(spec)), "pairwise_distinct": True,
            "round_trip": True, "uniform_norms": True}

    @pytest.mark.parametrize("command", ["orbit", "genericity"])
    def test_float_named_example_matches_exact(self, tmp_path, capsys, command):
        """Rounded phases must not hide equal members or symmetries: the
        float copy reports what the exact function does."""
        f, _ = non_generic_example(3, 1)
        floated = TestFunction(3, "float", {idx: complex(c) for idx, c in f.terms.items()})
        reports = []
        for mode, g in (("exact", f), ("float", floated)):
            cfg = write_config(tmp_path, name=f"{mode}.json", mode=mode,
                               function=serialize_function(g))
            code, out, _ = run_cli(capsys, "--config", cfg, "--command", command)
            assert code == 0
            reports.append(json.loads(out)["results"])
        exact, float_ = reports
        assert float_ == exact
        if command == "orbit":
            assert exact["pairwise_distinct"] is False and exact["uniform_norms"]
        else:
            assert exact["witness_count"] == 81 and exact["spec_violation_count"] == 0

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
                for n_value in fraction_digit_grid(3, -1, 1 - spec.gamma_0)]
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

    def test_oracle_lattice_fits_each_probe_when_terms_cancel(self):
        # psi(-2, 0, 1) cancels in f1 + f2, whose lattice (2, 1) is too coarse
        # for f1 (K >= 3); each probe's own lattice is fine enough
        one = TestFunction.single
        low = one(wavelet_index(-2, 0, 1, 3))
        f1 = low + one(wavelet_index(0, 0, 1, 3))
        f2 = low.scaled(CycloNumber.from_rational(-1, 3)) + one(wavelet_index(1, 0, 1, 3))
        assert default_lattice(f1 + f2) == (2, 1)
        with pytest.raises(ResolutionError):
            sample(f1, *default_lattice(f1 + f2))
        assert _oracle_deviation(f1, f2) <= 1e-9
        assert _oracle_deviation(f1, f1) <= 1e-9

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

    def test_mra_demo_refuses_float_before_any_work(self, monkeypatch, tmp_path, capsys):
        """With or without a function: a float config without one must not
        fall back to the exact default function."""
        work = []
        for name in ("scaling_shift_gram", "wavelet_space_gram", "span_probe"):
            monkeypatch.setattr(mra, name, lambda *args, name=name: work.append(name))
        no_function = tmp_path / "float-default.json"
        no_function.write_text(json.dumps({"prime": 3, "mode": "float"}))
        for cfg in (GOLDEN_DIR / "float.json", no_function):
            code, out, err = run_cli(capsys, "--config", str(cfg), "--command", "mra-demo")
            assert (code, out, work) == (2, "", [])
            assert err == "config: span solving works on exact coefficients\n"


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

    def test_unwritable_output_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        target = tmp_path / "missing" / "report.json"
        code, out, err = run_cli(capsys, "--config", cfg, "--command",
                                 "frame-check", "--output", str(target))
        assert code == 2 and out == ""
        assert err.startswith("output: ") and str(target) in err
        assert not target.exists()


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
        g = affine(Fraction(-5, 9), 2, 3)
        assert serialize_affine(g) == {"a": "-5/9", "b": "2"}
        with pytest.raises(ValueError, match="nonzero"):
            affine(0, 1, 3)


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
    "zero_denominator_translation": dict(function=_exact_term(n="1/0")),
    "zero_denominator_coefficient": dict(
        function=_exact_term(coeff={"zeta_powers": [[0, "1/0"]]})),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_CONFIGS))
def test_malformed_config_value_exits_2(tmp_path, capsys, name):
    cfg = write_config(tmp_path, **MALFORMED_CONFIGS[name])
    code, out, err = run_cli(capsys, "--config", cfg, "--command", "frame-check")
    assert code == 2 and out == ""
    assert err.startswith("config:")


# Probe grids that pass config validation but hold fewer labels than one
# probe may draw: the first used to loop forever looking for 4 distinct
# labels among 1, the second crashed on gamma clipped to [4, 2].
NARROW_PROBE_GRIDS = {
    "one_label_p2": (dict(prime=2, gamma_min=0, gamma_max=0, n_digit_bound=0), 1),
    "empty_gamma_p3": (dict(gamma_min=4, gamma_max=6), 0),
}


@pytest.mark.parametrize("command", ["frame-check", "oracle-check"])
@pytest.mark.parametrize("name", sorted(NARROW_PROBE_GRIDS))
def test_narrow_probe_grid_exits_2_up_front(tmp_path, command, name):
    """In a child process with a timeout, so a hang fails instead of stalling."""
    overrides, labels = NARROW_PROBE_GRIDS[name]
    cfg = write_config(tmp_path, **overrides)
    proc = run_child_cli(cfg, command)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("config: probe grid")
    assert f"label count {labels}," in proc.stderr


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
