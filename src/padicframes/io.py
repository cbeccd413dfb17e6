"""Serialization shared by the CLI and the test fixtures.

Rationals travel as strings "a/b" or "a"; cyclotomic numbers as sparse
{"zeta_powers": [[power, "a/b"], ...]} lists; complex floats as [re, im];
test functions as lists of {"gamma", "n", "j", "coeff"} records; group
elements, which only reports carry, as {"a": "...", "b": "..."}.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Optional

from .affine import AffineElement
from .cyclotomic import CycloNumber
from .errors import ConfigError, PadicError
from .padic import is_prime, parse_rational
from .wavelets import EXACT, FLOAT, TestFunction, wavelet_index


def _json_int(value: Any, what: str) -> int:
    """A JSON integer: bools and floats such as 1.0 are refused, not cast."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _json_finite(value: Any, what: str):
    """A finite JSON number: bools, NaN and infinities are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) \
            or not math.isfinite(value):
        raise ConfigError(f"{what} must be a finite number, got {value!r}")
    return value


def parse_coeff(obj: Any, p: int, mode: str):
    if isinstance(obj, dict) and "zeta_powers" in obj:
        try:
            c = CycloNumber.from_zeta_powers(obj["zeta_powers"], p)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"bad cyclotomic literal: {exc}") from exc
        return c if mode == EXACT else c.to_complex()
    if mode == EXACT:
        raise ConfigError(
            "exact coefficients need a {'zeta_powers': [[m, 'a/b'], ...]} literal")
    if isinstance(obj, (list, tuple)) and len(obj) == 2:
        re, im = (_json_finite(x, "complex coefficient part") for x in obj)
        return complex(float(re), float(im))
    return complex(_json_finite(obj, "complex coefficient"))


def serialize_coeff(c, mode: str) -> Any:
    if mode == EXACT:
        return {"zeta_powers": [[k, s] for k, s in c.zeta_powers()]}
    z = complex(c)
    return [z.real, z.imag]


def parse_function(records: Any, p: int, mode: str) -> TestFunction:
    if not isinstance(records, list):
        raise ConfigError("function must be a list of term records")
    terms = {}
    for pos, record in enumerate(records):
        where = f"function[{pos}]"
        if not isinstance(record, dict):
            raise ConfigError(f"{where}: term record must be an object")
        try:
            gamma = _json_int(record["gamma"], "gamma")
            n = parse_rational(str(record["n"]))
            j = _json_int(record["j"], "j")
            coeff = parse_coeff(record["coeff"], p, mode)
        except KeyError as exc:
            raise ConfigError(f"{where}: missing field {exc}") from exc
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        try:
            idx = wavelet_index(gamma, n, j, p)
        except (PadicError, ValueError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        if idx in terms:
            raise ConfigError(f"{where}: duplicate index {idx}")
        terms[idx] = coeff
    return TestFunction(p, mode, terms)


def serialize_function(f: TestFunction) -> list:
    return [
        {"gamma": idx.gamma, "n": str(idx.n.value), "j": idx.j,
         "coeff": serialize_coeff(c, f.mode)}
        for idx, c in f.sorted_terms()
    ]


def serialize_affine(g: AffineElement) -> dict:
    return {"a": str(g.a.value), "b": str(g.b.value)}


def serialize_amount(value, mode: str) -> Any:
    """Frame bounds, residuals: exact values carry both the field literal
    and a float approximation; float values are plain numbers."""
    if mode == EXACT:
        out = {"zeta_powers": [[k, s] for k, s in value.zeta_powers()]}
        if value.is_rational():
            out["rational"] = str(value.as_fraction())
        approx = value.to_complex()
        out["approx"] = approx.real if abs(approx.imag) < 1e-12 else [approx.real, approx.imag]
        return out
    if isinstance(value, complex):
        return [value.real, value.imag]
    return float(value)


@dataclass
class RunConfig:
    prime: int
    mode: str = EXACT
    function: Optional[TestFunction] = None
    depth: Optional[int] = None
    gamma_min: int = -3
    gamma_max: int = 3
    n_digit_bound: int = 3
    random_g: int = 25
    seed: int = 0


_KNOWN_KEYS = {"prime", "mode", "function", "depth", "gamma_min", "gamma_max",
               "n_digit_bound", "random_g", "seed"}


def load_config(data: Any) -> RunConfig:
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(data) - _KNOWN_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if "prime" not in data:
        raise ConfigError("config needs a 'prime'")
    prime = data["prime"]
    if not isinstance(prime, int) or not is_prime(prime):
        raise ConfigError(f"'prime' must be a prime integer, got {prime!r}")
    mode = data.get("mode", EXACT)
    if mode not in (EXACT, FLOAT):
        raise ConfigError(f"'mode' must be 'exact' or 'float', got {mode!r}")
    cfg = RunConfig(prime=prime, mode=mode)
    if "function" in data:
        cfg.function = parse_function(data["function"], prime, mode)
        if cfg.function.is_zero():
            raise ConfigError("function: empty or cancelling expansion")
    for key in ("depth", "gamma_min", "gamma_max", "n_digit_bound",
                "random_g", "seed"):
        if key in data:
            if data[key] is not None:
                setattr(cfg, key, _json_int(data[key], f"'{key}'"))
    if cfg.gamma_min > cfg.gamma_max:
        raise ConfigError("gamma_min must not exceed gamma_max")
    if cfg.n_digit_bound < 0 or cfg.random_g < 0:
        raise ConfigError("bounds must be nonnegative")
    return cfg
