"""Batch front end: parse a function description, run one analysis, emit a report.

Reports are JSON on standard output (or --output), diagnostics go to
standard error.  A given (config, seed) pair produces byte-identical output.
Exit status: 0 all checks passed, 1 an exact-mode residual or a consistency
check failed, 2 the configuration is invalid or the report cannot be
written.
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
from .errors import ConfigError, ModeMismatchError, PadicError
from .io import (
    RunConfig,
    load_config,
    serialize_affine,
    serialize_amount,
    serialize_function,
)
from .padic import CosetRepresentative, digit_grid
from .sampling import grid_labels, random_test_function
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
    """``count`` seeded probes on the probe grid, which must hold as many
    labels as one probe may draw distinct terms."""
    rng = random.Random(cfg.seed)
    grid = _probe_grid(cfg)
    labels = grid_labels(cfg.prime, grid["gamma_range"], grid["max_translation_digits"])
    if count and labels < grid["max_terms"]:
        raise ConfigError(
            f"probe grid {grid} has label count {labels}, below the "
            f"{grid['max_terms']} distinct terms a random probe may draw")
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
    mod_exp = 1 - spec.gamma_0
    nums = sorted(digit_grid(p, -digit_cap, mod_exp))  # n = num / p**digit_cap
    # the first _ORBIT_CAP indices in (gamma, n, J) order, built in that order
    grid = ((gamma, num, J)
            for gamma in range(cfg.gamma_min, cfg.gamma_max + 1)
            for num in nums
            for J in frames.dilation_indices(spec))
    indices = [
        frames.OrbitIndex(
            gamma, CosetRepresentative(p, num, mod_exp, _den_exponent=digit_cap), J)
        for gamma, num, J in itertools.islice(grid, _ORBIT_CAP)]
    by_scale: dict[tuple[int, int], list[frames.OrbitIndex]] = {}
    for idx in indices:
        by_scale.setdefault((idx.gamma, idx.J), []).append(idx)
    base_nsq = norm_sq(f)
    uniform = True
    round_trip = True
    distinct = True
    # members that agree have the same labels, so only those are compared
    by_labels: dict[frozenset, list[TestFunction]] = {}
    for (gamma, J), group in by_scale.items():
        members = frames.orbit_members(
            f, spec, gamma, J, [idx.n for idx in group])
        for idx, member in zip(group, members):
            if not f.field.agree(norm_sq(member), base_nsq):
                uniform = False
            if frames.orbit_index_of(frames.group_element(idx, spec), spec) != idx:
                round_trip = False
            same_labels = by_labels.setdefault(frozenset(member.terms), [])
            if any(member.agrees(other) for other in same_labels):
                distinct = False
            same_labels.append(member)
    results = {
        "count": len(indices),
        "uniform_norms": uniform,
        "pairwise_distinct": distinct,
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
    probes, grid = _random_probes(cfg, cfg.random_g)
    spec = stabilizer_spec(f)
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


def _oracle_deviation(f1: TestFunction, f2: TestFunction) -> float:
    """|Haar oracle - symbolic| for <f1, f2>, both sampled on the
    componentwise larger of their default lattices, which is fine enough
    for each even when terms of f1 and f2 cancel in f1 + f2."""
    resolution, support = map(max, default_lattice(f1), default_lattice(f2))
    oracle = inner_product_oracle(
        sample(f1, resolution, support), sample(f2, resolution, support))
    symbolic = complex(inner_product_symbolic(f1, f2))
    return abs(oracle - symbolic)


def _cmd_oracle_check(cfg: RunConfig) -> tuple[dict, int]:
    count = max(cfg.random_g, 1)
    probes, grid = _random_probes(cfg, 2 * count)
    max_dev = 0.0
    for f1, f2 in zip(probes[::2], probes[1::2]):
        max_dev = max(max_dev, _oracle_deviation(f1, f2))
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
    if cfg.mode != EXACT:  # checked before the exact default function is picked
        raise ModeMismatchError("span solving works on exact coefficients")
    f = cfg.function if cfg.function is not None else _default_mra_function(cfg.prime)
    p = cfg.prime
    digit_cap = min(cfg.n_digit_bound, 3)
    shifts = [CosetRepresentative(p, num, 0, _den_exponent=digit_cap)
              for num in digit_grid(p, -digit_cap, 0)]
    gram = mra.scaling_shift_gram(p, shifts)
    gram_identity = all(
        gram[i][k] == (1 if i == k else 0)
        for i in range(len(shifts)) for k in range(len(shifts)))

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
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"output: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
