"""The benchmark's own tests: smoke runs of every workload, tracer hygiene,
the correctness oracles, and the BENCHMARK.json contract.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import dataclasses
import json
import random
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import class_shares  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
PRINTED_METRICS = ("setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms",
                 "fail_ratio", "peak_rss_mb")


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args], cwd=cwd,
        capture_output=True, text=True, timeout=170, check=False)


def smoke(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), proc.stdout


@pytest.fixture(scope="module")
def lib():
    return run.load_library()


# ---------------------------------------------------------------------------
# smoke runs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_end_to_end_metric(workload):
    result, stdout = smoke(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name in PRINTED_METRICS:
        assert re.search(rf"^  {name} +\S+ \S+", stdout, re.M), name


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_calls_repeat_exactly(workload):
    first, _ = smoke(workload, trace=1, seed=5)
    second, _ = smoke(workload, trace=1, seed=5)
    for result in (first, second):
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    counts = {k: v["value"] for k, v in first["metrics"].items()
              if k.endswith((".calls", ".cells"))}
    assert counts == {k: second["metrics"][k]["value"] for k in counts}
    assert any(counts.values())
    record = json.loads((run.OUT_DIR / f"{workload}-seed5-trace1.json").read_text())
    assert record["detail"]["bad_ops"] == 0 and record["detail"]["orphan_spans"] == 0
    assert record["detail"]["results_mismatched"] == 0


def test_stripped_directory_exits_nonzero(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = bench("--workload", "frame-exact", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# tracer hygiene
# ---------------------------------------------------------------------------


def _bindings():
    """Every module-level binding and traced class attribute of the package."""
    out = {}
    for mod in tracing.package_modules():
        for attr, obj in vars(mod).items():
            out[(mod.__name__, attr)] = obj
    for layer, cls_name, attr in tracing.METHOD_SPAN_NAMES:
        cls = getattr(sys.modules[f"padicframes.{layer}"], cls_name)
        out[(cls.__qualname__, attr)] = vars(cls)[attr]
    return out


def _smoke_ops(lib):
    ops = []
    for cls in (workloads.FrameExact, workloads.GenericityP3, workloads.MraSpan):
        ops += cls(lib, 11, smoke=True).make_round(0)
    cli = workloads.CliBatch(lib, 11, smoke=True, src=run.SRC, in_process_cli=True)
    return ops + cli.make_round(0)


def test_tracer_restores_originals_and_keeps_results(lib):
    before = _bindings()
    ops = _smoke_ops(lib)
    plain = [op.run() for op in ops]
    with tracing.Tracer() as tracer:
        rep_mod = before[("padicframes.padic", "rep_mod")]
        act = before[("padicframes.affine", "act_on_function")]
        for layer in ("padic", "frames", "affine", "wavelets"):
            bound = getattr(lib, layer).rep_mod
            assert bound is not rep_mod and bound.__wrapped__ is rep_mod, layer
        for layer in ("affine", "frames", "mra", "sampling"):
            assert getattr(lib, layer).act_on_function.__wrapped__ is act, layer
        traced = [op.run() for op in ops]
    after = _bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert plain == traced
    assert all(op.check(result) for op, result in zip(ops, traced))
    for name in ("padic.rep_mod", "padic.CosetRepresentative", "padic.PadicScalar",
                 "cyclotomic.CycloNumber", "wavelets.TestFunction", "cli.main",
                 "affine.act_on_function", "frames.verify_tight_frame"):
        assert tracer.calls.get(name, 0) > 0, name


def test_self_time_accounting():
    tracer = tracing.Tracer()
    with tracer.span(tracing.OP_SPAN):
        with tracer.span("padic.outer"):
            with tracer.span("cyclotomic.inner"):
                sum(range(10_000))
    total = sum(tracer.self_s.values())
    op_duration = tracer.spans[-1][4] - tracer.spans[-1][3]
    assert abs(total - op_duration) < 1e-9
    assert tracer.calls == {"cyclotomic.inner": 1, "padic.outer": 1, tracing.OP_SPAN: 1}
    assert tracer.bad_ops == 0 and tracer.orphan_spans == 0 and tracer.ops == 1
    parents = {span_id: parent for span_id, parent, *_ in tracer.spans}
    names = {span_id: name for span_id, _, name, *_ in tracer.spans}
    inner = next(i for i, n in names.items() if n == "cyclotomic.inner")
    assert names[parents[inner]] == "padic.outer"


def test_tracer_flags_broken_accounting():
    tracer = tracing.Tracer()
    tracer._wrap("padic.stray", lambda: None)()
    assert tracer.orphan_spans == 1
    with tracer.span(tracing.OP_SPAN):
        tracer._open()  # a span that never closes
    assert tracer.bad_ops == 1


# ---------------------------------------------------------------------------
# latency estimators
# ---------------------------------------------------------------------------


def test_harrell_davis_weights():
    # n = 3, median: Beta(2, 2) gives the order statistics 7/27, 13/27, 7/27
    assert run.harrell_davis([0.0, 0.0, 1.0], 50) == pytest.approx(7 / 27, abs=1e-3)
    assert run.harrell_davis([4.0] * 50, 75) == pytest.approx(4.0)
    rng = random.Random(1)
    values = sorted(rng.expovariate(1) for _ in range(500))
    estimates = [run.harrell_davis(values, pct) for pct in (50, 75, 90, 99)]
    assert values[0] < estimates[0] < estimates[1] < estimates[2] < estimates[3] < values[-1]
    assert estimates[0] == pytest.approx(statistics.median(values), rel=0.05)


def test_tail_level_keeps_ten_samples_beyond():
    assert run.tail_level(1440, 99) == 99
    assert run.tail_level(42, 75) == 75
    assert run.tail_level(39, 75) == 50
    assert run.tail_level(5, 75) == 100


# ---------------------------------------------------------------------------
# stratified inputs
# ---------------------------------------------------------------------------


def test_allocation_is_proportional():
    shares = {"a": 0.5, "b": 0.3, "c": 0.15, "d": 0.05}
    assert workloads.allocate(shares, 20) == {"a": 10, "b": 6, "c": 3, "d": 1}
    assert workloads.allocate(shares, 4) == {"a": 2, "b": 1, "c": 1}
    for cls in workloads.WORKLOADS.values():
        if cls.in_process:
            assert sum(workloads.allocate(cls.shares, cls.round_size).values()) == cls.round_size


def test_stratified_draws_do_fixed_work():
    rng = random.Random(1)
    made = []

    def draw():
        made.append(rng.randrange(3))
        return made[-1]

    kept = workloads.stratified_draws(draw, lambda x: x, {0: 2, 2: 1}, 40)
    assert kept == [0, 0, 2] and len(made) == 40


def test_share_tables_match_the_generators(lib):
    """The recorded class mix is the generator's (class_shares.py measures it)."""
    for cls in workloads.WORKLOADS.values():
        if not cls.in_process:
            continue
        workload = cls(lib, 0)
        measured = class_shares.measure(workload, 1000)
        for key in set(measured) | set(workload.shares):
            assert abs(measured.get(key, 0) - workload.shares.get(key, 0)) < 0.05, (cls.name, key)


# ---------------------------------------------------------------------------
# correctness oracles
# ---------------------------------------------------------------------------


def test_frame_grouped_equals_direct(lib):
    workload = workloads.FrameExact(lib, 13, smoke=True)
    first = workload.make_round(0)
    oracles = workload.oracles(first)
    assert oracles
    for op in oracles:
        assert op.check(op.run())


def test_translation_window_matches_library(lib):
    rng = random.Random(17)
    for _ in range(200):
        f = lib.sampling.random_generic_function(rng, 3, 3, (-1, 1), 1)
        assert workloads.translation_window(f) == lib.affine._translation_window(f)


def test_checks_reject_wrong_results(lib):
    frame = workloads.FrameExact(lib, 1, smoke=True).make_round(0)[0]
    residual = frame.run()
    assert frame.check(residual)
    assert not frame.check(residual + lib.cyclotomic.CycloNumber.one(residual.prime))

    generic, non_generic = workloads.GenericityP3(lib, 1, smoke=True).make_round(0)[::2]
    verdict = generic.run()
    assert generic.check(verdict)
    for wrong in (dataclasses.replace(verdict, quotient_size=verdict.quotient_size + 1),
                  dataclasses.replace(verdict, generic_up_to_depth=False),
                  dataclasses.replace(verdict, spec_violations=(object(),))):
        assert not generic.check(wrong)
    assert not non_generic.check(verdict)
    assert non_generic.check(non_generic.run())

    mra = workloads.MraSpan(lib, 1, smoke=True)
    span = mra.make_round(0)[0]
    count, holds = span.run()
    assert span.check((count, holds)) and not span.check((count, False))
    two_scale = mra.two_scale_p5()
    assert two_scale.scale_spread() == 1
    gram = mra._gram_op("p5", two_scale, lib.affine.stabilizer_spec(two_scale))
    near, far = gram.run()
    assert gram.check((near, far))
    assert not gram.check((far, far)) and not gram.check((near, near))

    cli = workloads.CliBatch(lib, 1, smoke=True, src=run.SRC, in_process_cli=True)
    op = cli.make_round(0)[0]
    code, out = op.run()
    assert op.check((code, out)) and not op.check((code, out + b" "))


def test_golden_cases_cover_every_command():
    cases = workloads.load_cli_cases()
    pairs = {(c["config"], c["command"]) for c in cases}
    assert len(pairs) == len(cases) == 14
    from padicframes.cli import COMMANDS
    assert {cmd for _, cmd in pairs} == set(COMMANDS)
    exits = {(c["config"], c["command"]): c["exit"] for c in cases}
    assert exits.pop(("float.json", "mra-demo")) == 2
    assert set(exits.values()) == {0}


# ---------------------------------------------------------------------------
# BENCHMARK.json contract
# ---------------------------------------------------------------------------

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_contract():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["command"][0] == "python3" and len(CONTRACT["command"]) <= 32
    assert CONTRACT["paths"] == ["bench"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    names = []
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
        names.append(w["name"])
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    assert len(names) == len(set(names))
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert all(not p.is_symlink() for p in BENCH_DIR.rglob("*"))
