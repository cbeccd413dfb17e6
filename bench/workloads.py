"""The four benchmark workloads: seeded inputs, operations and their checks.

Every workload is a closed loop with one client: the next operation starts
when the previous one has returned.  Inputs come in rounds, each seeded by
(workload, seed, round number).

The in-process workloads draw their inputs straight from the library's own
seeded generators, with fixed parameters, and keep a proportional stratified
sample of the draws.  Each class of input (keyed by what an operation's cost
depends on) gets a share of the round equal to its share of the generator's
output, as measured by ``class_shares.py`` and recorded in the workload's
``shares`` table.  Plain draws would let the seed decide how many costly
inputs a run gets, and with it the throughput and the percentiles; the
stratified sample keeps the generator's mix in every round while the inputs
themselves are fresh.  A round makes a fixed number of draws (more only
while a class is still short), so generating it costs the same for every
seed.  Classes too rare to earn one input in a round are left out.

Each workload fixes its tail percentile and a minimum number of rounds that
leaves at least ten samples beyond it, so runs at different speeds report
the same percentile.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
CLI_CASES = BENCH_DIR / "cli_cases"
CLI_TIMEOUT_S = 120
# Draws per kept input.  A class that earns an input has a share of at least
# about 1/(2 * round size), so it is short after this many draws with
# probability about e**-4; the round then draws on until it is filled.
DRAWS_PER_INPUT = 8
_MAX_DRAWS = 100_000


@dataclass
class Op:
    """One operation: ``run`` calls the library, ``check`` judges the result."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]
    inputs: tuple = ()


def round_rng(workload: str, seed: int, round_no: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{round_no}")


def allocate(shares: dict, size: int) -> dict:
    """``size * share`` inputs for every class, rounded by largest remainder;
    classes that earn no input are left out."""
    exact = {key: size * share for key, share in shares.items()}
    alloc = {key: int(value) for key, value in exact.items()}
    spare = size - sum(alloc.values())
    for key in sorted(exact, key=lambda k: (alloc[k] - exact[k], k))[:spare]:
        alloc[key] += 1
    return {key: n for key, n in sorted(alloc.items()) if n}


def stratified_draws(draw, key_of, allocation: dict, draws: int) -> list:
    """Make ``draws`` draws (more only while a class is short) and keep the
    first ``allocation[key]`` draws of each class, in class order."""
    kept = {key: [] for key in allocation}
    made = 0
    while made < draws or any(len(kept[k]) < n for k, n in allocation.items()):
        if made == _MAX_DRAWS:
            raise RuntimeError(f"could not draw inputs for classes {allocation}")
        item = draw()
        made += 1
        key = key_of(item)
        if key in kept and len(kept[key]) < allocation[key]:
            kept[key].append(item)
    return [item for key in allocation for item in kept[key]]


def translation_digits(n: Fraction, p: int) -> int:
    """Digits below zero of a translation with a p-power denominator."""
    den, digits = n.denominator, 0
    while den % p == 0:
        den //= p
        digits += 1
    return digits


def translation_window(f) -> int:
    """Digit positions below zero that translations need to cover every
    support of f: max(0, gamma, digits(n) - gamma) over the terms."""
    return max([0] + [max(idx.gamma, translation_digits(idx.n.value, f.prime) - idx.gamma)
                      for idx in f.terms])


def quotient_size(p: int, depth: int, window: int) -> int:
    """Cells a genericity certificate enumerates: phi(p**d) * p**(d + w)."""
    return (p - 1) * p ** (depth - 1) * p ** (depth + window)


def span_generator_count(p: int, gamma_a: int, gamma_0: int, truncation: int) -> int:
    """phi(p**gamma_a) dilations times p**(truncation + 1 - gamma_0) translations."""
    return (p - 1) * p ** (gamma_a - 1) * p ** (truncation + 1 - gamma_0)


class Workload:
    """Shared shape: ``make_round(n)`` builds round n's ops from the seed, and
    ``oracles(round_0)`` returns extra checks run after the timed loop.

    An in-process workload draws its inputs with ``draw(rng, p)`` and sorts
    them by ``class_key``; ``shares`` is the generator's measured class mix
    and ``round_size`` the number of drawn inputs a round keeps per prime.
    """

    name: str
    in_process = True
    primes = (3,)
    shares: dict = {}  # class -> share of the generator's draws (class_shares.py)
    round_size: int
    smoke_round_size = 1
    min_rounds: int
    tail_pct: int

    def __init__(self, lib, seed: int, smoke: bool = False):
        self.lib, self.seed, self.smoke = lib, seed, smoke

    def draw(self, rng: random.Random, p: int):
        raise NotImplementedError

    def class_key(self, item):
        raise NotImplementedError

    def inputs(self, rng: random.Random, p: int) -> list:
        size = self.smoke_round_size if self.smoke else self.round_size
        return stratified_draws(lambda: self.draw(rng, p), self.class_key,
                                allocate(self.shares, size), DRAWS_PER_INPUT * size)

    def make_round(self, round_no: int) -> list[Op]:
        raise NotImplementedError

    def oracles(self, first_round: list[Op]) -> list[Op]:
        return []


# ---------------------------------------------------------------------------
# frame-exact
# ---------------------------------------------------------------------------


class FrameExact(Workload):
    """verify_tight_frame (grouped) on generic mother functions at p = 2, 3, 5.

    Per prime and round: ``round_size`` mother functions stratified by
    (terms, gamma_a), each paired with one probe of every term count (the
    probe generator draws the term count uniformly).
    """

    name = "frame-exact"
    min_rounds, tail_pct = 10, 99
    primes = (2, 3, 5)
    round_size = 12
    probe_terms = (1, 2, 3, 4)
    smoke_primes = (2, 3)
    smoke_probe_terms = (1, 2)
    shares = {(1, 1): 0.255, (2, 1): 0.070, (2, 2): 0.088, (2, 3): 0.090, (3, 1): 0.018,
              (3, 2): 0.079, (3, 3): 0.151, (4, 1): 0.004, (4, 2): 0.055, (4, 3): 0.189}

    def draw(self, rng, p):
        f = self.lib.sampling.random_generic_function(
            rng, p, max_terms=4, gamma_range=(-2, 2), max_digits=2)
        return f, self.lib.affine.stabilizer_spec(f)

    def class_key(self, item):
        f, spec = item
        return len(f.terms), spec.gamma_a

    def make_round(self, round_no: int) -> list[Op]:
        rng = round_rng(self.name, self.seed, round_no)
        primes = self.smoke_primes if self.smoke else self.primes
        probe_terms = self.smoke_probe_terms if self.smoke else self.probe_terms
        ops = []
        for p in primes:
            for f, spec in self.inputs(rng, p):
                for terms in probe_terms:
                    g = self.lib.sampling.random_test_function(
                        rng, p, gamma_range=(-2, 2), max_digits=2, n_terms=terms)
                    label = f"p{p} f{self.class_key((f, spec))} g{terms}"
                    ops.append(self._op(label, f, spec, g))
        return ops

    def _op(self, label, f, spec, g, method="grouped") -> Op:
        frames = self.lib.frames
        return Op(label, lambda: frames.verify_tight_frame(f, spec, g, method=method),
                  lambda residual: residual.is_zero(), (f, spec, g))

    def oracles(self, first_round: list[Op]) -> list[Op]:
        """grouped == direct on the cheap pairs of round 0 (gamma_a = 1,
        probes of at most two terms); direct enumeration is the slow oracle."""
        out = []
        for op in first_round:
            f, spec, g = op.inputs
            if spec.gamma_a == 1 and len(g.terms) <= 2:
                grouped = op.run()
                direct = self._op(op.label, f, spec, g, method="direct")
                out.append(Op(op.label + " direct", direct.run,
                              lambda residual, grouped=grouped: residual == grouped))
        return out


# ---------------------------------------------------------------------------
# genericity-p3
# ---------------------------------------------------------------------------


class GenericityP3(Workload):
    """genericity_check at the sound depth on generic p = 3 functions,
    stratified by (terms, quotient size), plus the named non-generic example
    in every round."""

    name = "genericity-p3"
    min_rounds, tail_pct = 3, 75
    round_size = 20
    smoke_round_size = 2
    shares = {(1, 54): 0.053, (1, 162): 0.218, (1, 486): 0.055, (2, 54): 0.006,
              (2, 162): 0.100, (2, 486): 0.042, (2, 1458): 0.127, (2, 4374): 0.065,
              (3, 162): 0.032, (3, 486): 0.022, (3, 1458): 0.148, (3, 4374): 0.132}

    def draw(self, rng, p):
        f = self.lib.sampling.random_generic_function(
            rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=1)
        return f, self.lib.affine.required_genericity_depth(f)

    def class_key(self, item):
        f, depth = item
        return len(f.terms), quotient_size(f.prime, depth, translation_window(f))

    def make_round(self, round_no: int) -> list[Op]:
        lib, p = self.lib, self.primes[0]
        rng = round_rng(self.name, self.seed, round_no)
        ops = [self._op(f"generic {self.class_key((f, depth))} #{i}", f, depth, True)
               for i, (f, depth) in enumerate(self.inputs(rng, p))]
        f, _witness = lib.sampling.non_generic_example(p, 1)
        ops.append(self._op("non_generic_example(3, 1)", f,
                            lib.affine.required_genericity_depth(f), False))
        return ops

    def _op(self, label, f, depth, generic: bool) -> Op:
        affine = self.lib.affine
        quotient = quotient_size(f.prime, depth, translation_window(f))

        def check(verdict) -> bool:
            return (verdict.generic_up_to_depth is generic
                    and bool(verdict.witnesses) is not generic
                    and not verdict.spec_violations
                    and verdict.depth == depth
                    and verdict.quotient_size == quotient)

        return Op(label, lambda: affine.genericity_check(f, depth), check)


# ---------------------------------------------------------------------------
# mra-span
# ---------------------------------------------------------------------------


class MraSpan(Workload):
    """Exact span work over Q(zeta_p).

    Every drawn p = 3 function, stratified by (terms, number of span
    generators), gives two ops.  A span op builds the generators at exponent
    0, combines two of them with seeded cyclotomic coefficients and checks
    the one-step scaling relation for that member.  A gram op takes the
    cross-Gram at distance 1 and at spread + 1.  The two-scale function at
    p = 5 gives one op of each kind in every round.
    """

    name = "mra-span"
    min_rounds, tail_pct = 3, 75
    truncation = 1
    round_size = 8
    shares = {(1, 6): 0.109, (1, 18): 0.111, (1, 54): 0.111, (2, 6): 0.006, (2, 18): 0.069,
              (2, 54): 0.156, (2, 162): 0.101, (3, 18): 0.017, (3, 54): 0.113, (3, 162): 0.206}

    def draw(self, rng, p):
        f = self.lib.sampling.random_generic_function(
            rng, p, max_terms=3, gamma_range=(-1, 1), max_digits=1)
        return f, self.lib.affine.stabilizer_spec(f)

    def class_key(self, item):
        f, spec = item
        return len(f.terms), span_generator_count(f.prime, spec.gamma_a, spec.gamma_0,
                                                  self.truncation)

    def make_round(self, round_no: int) -> list[Op]:
        lib = self.lib
        rng = round_rng(self.name, self.seed, round_no)
        ops = []
        for f, spec in self.inputs(rng, self.primes[0]):
            cls = self.class_key((f, spec))
            ops.append(self._span_op(f"span {cls}", f, spec, rng))
            ops.append(self._gram_op(f"gram {cls}", f, spec))
        if not self.smoke:
            two_scale = self.two_scale_p5()
            spec = lib.affine.stabilizer_spec(two_scale)
            ops.append(self._span_op("span p5 two-scale", two_scale, spec, rng))
            ops.append(self._gram_op("gram p5 two-scale", two_scale, spec))
        return ops

    def two_scale_p5(self):
        w = self.lib.wavelets
        return (w.TestFunction.single(w.wavelet_index(0, 0, 1, 5))
                + w.TestFunction.single(w.wavelet_index(1, 0, 1, 5)))

    def _span_op(self, label, f, spec, rng) -> Op:
        mra, t = self.lib.mra, self.truncation
        c1 = self.lib.sampling.random_cyclo(rng, f.prime)
        c2 = self.lib.sampling.random_cyclo(rng, f.prime)
        pick1, pick2 = rng.randrange(1 << 30), rng.randrange(1 << 30)
        count = span_generator_count(f.prime, spec.gamma_a, spec.gamma_0, t)

        def run():
            gens = mra.span_probe(f, spec, 0, t).generators
            member = (gens[pick1 % len(gens)].scaled(c1)
                      + gens[pick2 % len(gens)].scaled(c2))
            return len(gens), mra.scaling_relation_check(f, spec, member, 0, t)

        return Op(label, run, lambda result: result == (count, True))

    def _gram_op(self, label, f, spec) -> Op:
        """Exactly zero beyond the spread; nonzero at distance 1 when the
        spread is 1.  At a larger spread distance 1 may go either way, so
        only the far Gram is judged."""
        mra, t = self.lib.mra, self.truncation
        spread = f.scale_spread()
        entries = span_generator_count(f.prime, spec.gamma_a, spec.gamma_0, t) ** 2

        def run():
            return (mra.wavelet_space_gram(f, spec, 0, 1, t),
                    mra.wavelet_space_gram(f, spec, 0, spread + 1, t))

        def check(result) -> bool:
            near, far = result
            if spread == 1:
                near_ok = not near.orthogonal and near.max_abs_entry > 0
            else:
                near_ok = spread > 1 or (near.orthogonal and near.max_abs_entry == 0)
            return (near_ok and far.orthogonal and far.max_abs_entry == 0
                    and near.entries == far.entries == entries)

        return Op(label, run, check)


# ---------------------------------------------------------------------------
# cli-batch
# ---------------------------------------------------------------------------


def load_cli_cases() -> list[dict]:
    return json.loads((CLI_CASES / "golden.json").read_text())["cases"]


def stdout_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def run_cli_subprocess(src: Path, config: str, command: str) -> tuple[int, bytes]:
    proc = subprocess.run(
        [sys.executable, "-m", "padicframes.cli",
         "--config", str(CLI_CASES / config), "--command", command],
        cwd=src.parent, env=child_env(src), stdin=subprocess.DEVNULL,
        capture_output=True, timeout=CLI_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout


def run_cli_in_process(cli, config: str, command: str) -> tuple[int, bytes]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["--config", str(CLI_CASES / config), "--command", command])
    return code, out.getvalue().encode()


class CliBatch(Workload):
    """``python -m padicframes.cli`` subprocesses over every (config,
    command) case with a golden exit code and stdout digest.  A round is all
    cases in a seeded order.  Traced runs call ``cli.main`` in process."""

    name = "cli-batch"
    in_process = False
    min_rounds, tail_pct = 3, 75
    smoke_cases = {("exact.json", "stabilizer"), ("float.json", "mra-demo")}

    def __init__(self, lib, seed: int, smoke: bool = False, src: Path = None,
                 in_process_cli: bool = False):
        super().__init__(lib, seed, smoke)
        self.src, self.in_process_cli = src, in_process_cli
        self.cases = [c for c in load_cli_cases()
                      if not smoke or (c["config"], c["command"]) in self.smoke_cases]

    def make_round(self, round_no: int) -> list[Op]:
        cases = list(self.cases)
        round_rng(self.name, self.seed, round_no).shuffle(cases)
        return [self._op(case) for case in cases]

    def _op(self, case) -> Op:
        config, command = case["config"], case["command"]
        expected = (case["exit"], case["stdout_sha256"])
        if self.in_process_cli:
            lib = self.lib
            run = lambda: run_cli_in_process(lib.cli, config, command)
        else:
            src = self.src
            run = lambda: run_cli_subprocess(src, config, command)
        return Op(f"{config} {command}", run,
                  lambda result: (result[0], stdout_digest(result[1])) == expected)


WORKLOADS = {cls.name: cls for cls in (FrameExact, GenericityP3, MraSpan, CliBatch)}
