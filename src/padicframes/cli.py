"""Batch front end: parse a function description, run one analysis, emit a report.

Reports are JSON on standard output (or --output), diagnostics go to
standard error.  A given (config, seed) pair produces byte-identical output.
Exit status: 0 all checks passed, 1 an exact-mode residual or a consistency
check failed, 2 the configuration is invalid.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import sys
from typing import Optional

from . import frames, mra
from .affine import genericity_check, stabilizer_spec
from .errors import PadicError
from .io import (
    RunConfig,
    load_config,
    serialize_affine,
    serialize_amount,
    serialize_function,
)
from .padic import CosetRepresentative, digit_grid
from .sampling import random_test_function
from .wavelets import (
    EXACT,
    FLOAT,
    TestFunction,
    default_lattice,
    inner_product_symbolic,
    norm_sq,
    sample,
    inner_product_oracle,
    wavelet_index,
)

COMMANDS = ("stabilizer", "genericity", "orbit", "frame-bound",
            "frame-check", "oracle-check", "mra-demo")

_WITNESS_CAP = 20
_ORBIT_CAP = 200


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicframes",
        description="Exact p-adic wavelet frame analyses")
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--gamma-min", type=int, default=None)
    parser.add_argument("--gamma-max", type=int, default=None)
    parser.add_argument("--depth", type=int, default=None)
    parser.add_argument("--random-g", type=int, default=None)
    parser.add_argument("--mode", choices=(EXACT, FLOAT), default=None)
    parser.add_argument("--output", default=None, help="write report here")
    return parser


def _probe_grid(cfg: RunConfig) -> dict:
    return {
        "gamma_range": [max(cfg.gamma_min, -2), min(cfg.gamma_max, 2)],
        "max_translation_digits": min(cfg.n_digit_bound, 2),
        "max_terms": 4,
    }


def _random_probes(cfg: RunConfig, count: int):
    rng = random.Random(cfg.seed)
    grid = _probe_grid(cfg)
    return [
        random_test_function(
            rng, cfg.prime,
            max_terms=grid["max_terms"],
            gamma_range=tuple(grid["gamma_range"]),
            max_digits=grid["max_translation_digits"],
            mode=cfg.mode)
        for _ in range(count)
    ], grid


def _require_function(cfg: RunConfig) -> TestFunction:
    if cfg.function is None:
        raise PadicError("this command needs a 'function' in the config")
    return cfg.function


def _cmd_stabilizer(cfg: RunConfig) -> tuple[dict, int]:
    f = _require_function(cfg)
    spec = stabilizer_spec(f)
    return {
        "gamma_a": spec.gamma_a,
        "gamma_0": spec.gamma_0,
        "n_0": str(spec.n_0.value),
        "b_radius_exponent": spec.gamma_0 - 1,
    }, 0


def _cmd_genericity(cfg: RunConfig) -> tuple[dict, int]:
    f = _require_function(cfg)
    verdict = genericity_check(f, cfg.depth)
    witnesses = [serialize_affine(g) for g in verdict.witnesses[:_WITNESS_CAP]]
    results = {
        "generic_up_to_depth": verdict.generic_up_to_depth,
        "depth": verdict.depth,
        "quotient_size": verdict.quotient_size,
        "witness_count": len(verdict.witnesses),
        "witnesses": witnesses,
        "spec_violation_count": len(verdict.spec_violations),
    }
    # Extra symmetries are findings; a closed-form member that fails to fix f
    # would be an internal contradiction.
    return results, (1 if verdict.spec_violations else 0)


def _cmd_orbit(cfg: RunConfig) -> tuple[dict, int]:
    f = _require_function(cfg)
    spec = stabilizer_spec(f)
    p = cfg.prime
    digit_cap = min(cfg.n_digit_bound, 1)
    n_values = sorted(digit_grid(p, -digit_cap, 1 - spec.gamma_0))
    # the first _ORBIT_CAP indices in (gamma, n, J) order, built in that order
    grid = ((gamma, n_value, J)
            for gamma in range(cfg.gamma_min, cfg.gamma_max + 1)
            for n_value in n_values
            for J in frames.dilation_indices(spec))
    indices = [
        frames.OrbitIndex(gamma, CosetRepresentative(p, n_value, 1 - spec.gamma_0), J)
        for gamma, n_value, J in itertools.islice(grid, _ORBIT_CAP)]
    by_scale: dict[tuple[int, int], list[frames.OrbitIndex]] = {}
    for idx in indices:
        by_scale.setdefault((idx.gamma, idx.J), []).append(idx)
    base_nsq = norm_sq(f)
    uniform = True
    round_trip = True
    # members share prime and mode, so equal term sets mean equal functions
    seen = set()
    for (gamma, J), group in by_scale.items():
        members = frames.orbit_members(
            f, spec, gamma, J, [idx.n for idx in group])
        for idx, member in zip(group, members):
            member_nsq = norm_sq(member)
            # equal norms need no subtraction; otherwise the field's residual test
            if member_nsq != base_nsq and not f.field.residual_is_zero(
                    member_nsq - base_nsq, base_nsq, 1):
                uniform = False
            if frames.orbit_index_of(frames.group_element(idx, spec), spec) != idx:
                round_trip = False
            seen.add(frozenset(member.terms.items()))
    results = {
        "count": len(indices),
        "uniform_norms": uniform,
        "pairwise_distinct": len(seen) == len(indices),
        "round_trip": round_trip,
    }
    ok = uniform and round_trip
    return results, (0 if ok else 1)


def _cmd_frame_bound(cfg: RunConfig) -> tuple[dict, int]:
    f = _require_function(cfg)
    spec = stabilizer_spec(f)
    bound = frames.frame_bound(f, spec)
    return {
        "frame_bound": serialize_amount(bound, cfg.mode),
        "gamma_a": spec.gamma_a,
        "gamma_0": spec.gamma_0,
    }, 0


def _cmd_frame_check(cfg: RunConfig) -> tuple[dict, int]:
    f = _require_function(cfg)
    spec = stabilizer_spec(f)
    probes, grid = _random_probes(cfg, cfg.random_g)
    report = frames.run_frame_check(f, spec, probes)
    results = {
        "frame_bound": serialize_amount(report.frame_bound, cfg.mode),
        "exact": report.exact,
        "g_count": report.g_count,
        "all_zero_residuals": report.all_zero_residuals,
        "residuals": [serialize_amount(r, cfg.mode) for r in report.residuals],
        "multiplicity_checks": [
            {"gamma1": c.gamma1, "n1": str(c.n1), "expected": c.expected,
             "actual": c.actual, "ok": c.ok}
            for c in report.multiplicity_checks],
        "probe_grid": grid,
    }
    ok = report.all_zero_residuals and all(
        c.ok for c in report.multiplicity_checks)
    return results, (0 if ok else 1)


def _cmd_oracle_check(cfg: RunConfig) -> tuple[dict, int]:
    count = max(cfg.random_g, 1)
    probes, grid = _random_probes(cfg, 2 * count)
    max_dev = 0.0
    for f1, f2 in zip(probes[::2], probes[1::2]):
        resolution, support = default_lattice(f1 + f2)
        oracle = inner_product_oracle(
            sample(f1, resolution, support), sample(f2, resolution, support))
        symbolic = f1.field.to_complex(inner_product_symbolic(f1, f2))
        max_dev = max(max_dev, abs(oracle - symbolic))
    results = {
        "pairs": count,
        "max_abs_deviation": max_dev,
        "tolerance": 1e-9,
        "probe_grid": grid,
    }
    return results, (0 if max_dev <= 1e-9 else 1)


def _default_mra_function(p: int) -> TestFunction:
    two_scale = TestFunction.single(wavelet_index(0, 0, 1, p)) \
        + TestFunction.single(wavelet_index(1, 0, 1, p))
    return two_scale


def _cmd_mra_demo(cfg: RunConfig) -> tuple[dict, int]:
    p = cfg.prime
    digit_cap = min(cfg.n_digit_bound, 3)
    shifts = [CosetRepresentative(p, value, 0)
              for value in digit_grid(p, -digit_cap, 0)]
    gram = mra.scaling_shift_gram(p, shifts)
    gram_identity = all(
        gram[i][k] == (1 if i == k else 0)
        for i in range(len(shifts)) for k in range(len(shifts)))

    f = cfg.function if cfg.function is not None else _default_mra_function(p)
    spec = stabilizer_spec(f)
    spread = f.scale_spread()
    truncation = 1
    orthogonal_by_distance = {}
    threshold = 1
    for d in range(1, spread + 2):
        summary = mra.wavelet_space_gram(f, spec, 0, d, truncation)
        orthogonal_by_distance[str(d)] = summary.orthogonal
        if not summary.orthogonal:
            threshold = d + 1
    gens = mra.span_probe(f, spec, 0, truncation).generators
    scaling_ok = mra.scaling_relation_check(f, spec, gens[0], 0, truncation)

    results = {"mra": {
        "gram_identity": gram_identity,
        "shift_count": len(shifts),
        "scale_spread": spread,
        "orthogonal_by_distance": orthogonal_by_distance,
        "orthogonality_threshold_observed": threshold,
        "scaling_relation": scaling_ok,
        "space_label_convention": "orbit dilation exponent",
    }}
    ok = gram_identity and scaling_ok
    return results, (0 if ok else 1)


_DISPATCH = {
    "stabilizer": _cmd_stabilizer,
    "genericity": _cmd_genericity,
    "orbit": _cmd_orbit,
    "frame-bound": _cmd_frame_bound,
    "frame-check": _cmd_frame_check,
    "oracle-check": _cmd_oracle_check,
    "mra-demo": _cmd_mra_demo,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    if not isinstance(data, dict):
        print("config: must be a JSON object", file=sys.stderr)
        return 2
    for key, value in (
            ("seed", args.seed), ("gamma_min", args.gamma_min),
            ("gamma_max", args.gamma_max), ("depth", args.depth),
            ("random_g", args.random_g), ("mode", args.mode)):
        if value is not None:
            data[key] = value
    try:
        cfg = load_config(data)
        results, code = _DISPATCH[args.command](cfg)
    except PadicError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return 2
    report = {
        "command": args.command,
        "prime": cfg.prime,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "function": serialize_function(cfg.function) if cfg.function else None,
        "results": results,
        "status": "ok" if code == 0 else "fail",
    }
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
