"""Tests of the benchmark itself: its checks have teeth, and its work
counts and output digests repeat for one seed.

    python3 -m pytest -q bench/test_bench.py
"""

import copy
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import speed  # noqa: E402
from workloads import Certify, Op, Witt, report_op  # noqa: E402
from wittcert import derham, dieudonne, polyring, wittvec  # noqa: E402


def _failed_share(op: Op) -> float:
    stats = harness.run_passes(iter([[op]]), count=1, digest_passes=1)
    return 1 - harness.end_to_end(stats, 50)["ops_ok_frac"]


def _forged(op: Op, forge) -> Op:
    output = forge(op.run())
    return Op(op.label, lambda: output, op.check)


def test_honest_ops_pass():
    ring = polyring.PolyRing(3, ("x", "y"))
    op = Certify._op("cusp", ring, [polyring.parse_polynomial("y^2 - x^3", ring)])
    assert _failed_share(op) == 0


def test_forged_certificate_step_is_counted_as_failed():
    ring = polyring.PolyRing(3, ("x", "y"))
    op = Certify._op("cusp", ring, [polyring.parse_polynomial("y^2 - x^3", ring)])

    def forge(out):
        presentation, doc, replayed, closure, bound, top = out
        doc = copy.deepcopy(doc)
        step = doc["steps"][0]
        step["out"]["terms"][0]["coef"] = step["out"]["terms"][0]["coef"] % 3 + 1
        return presentation, doc, replayed, closure, bound, top

    assert _failed_share(_forged(op, forge)) == 1


def test_wrong_witt_sum_is_counted_as_failed():
    witt = Witt()
    witt.primes, witt.levels = (2, 3), (3,)
    witt.setup()
    # One more in the last coordinate, over each domain; and over the cusp,
    # x^2 + x at p = 2 and x^3 - x at p = 3, which vanish at every F_p-point
    # (t^2, t^3) of the cusp but are not zero in its coordinate ring.
    for p, tag, error in ((3, "int", None), (3, "fp", None), (3, "ring", None),
                          (2, "ring", "x^2 + x"), (3, "ring", "x^3 - x")):
        domain = witt.domains[p][tag]
        x = wittvec.witt_vector(domain, p, [domain.from_int(v) for v in (1, 2, 0)])
        y = wittvec.witt_vector(domain, p, [domain.from_int(v) for v in (2, 1, 1)])
        op = Witt._arith_op(f"add-{tag}", "add", wittvec.witt_add, [x, y], tag)
        assert _failed_share(op) == 0
        if error is None:
            wrong = domain.one()
        else:
            presentation = domain.presentation
            wrong = presentation.normal(polyring.parse_polynomial(error, presentation.ring))

        def forge(z):
            coords = list(z.coords)
            coords[-1] = domain.add(coords[-1], wrong)
            return wittvec.WittVector(z.p, z.level, z.domain, tuple(coords))

        assert _failed_share(_forged(op, forge)) == 1, (p, tag, error)


def test_witt_seeds_change_operands_but_not_work(monkeypatch):
    # Every normal form's term count and every integer's bit length, in call
    # order, over one pass: the same for each seed, while the outputs differ.
    # p = 3, as the only unit of F_2 leaves p = 2 operands as they are.
    witt = Witt()
    witt.primes, witt.levels = (3,), (2, 3)
    witt.setup()
    sizes = []
    normal = derham.PresentedRing.normal
    int_add, int_mul = wittvec.IntegerCoefficients.add, wittvec.IntegerCoefficients.mul

    def logged(func, size):
        def wrapper(*args):
            out = func(*args)
            sizes.append(size(out))
            return out
        return wrapper

    monkeypatch.setattr(derham.PresentedRing, "normal", logged(normal, lambda f: len(f.terms)))
    monkeypatch.setattr(wittvec.IntegerCoefficients, "add", logged(int_add, int.bit_length))
    monkeypatch.setattr(wittvec.IntegerCoefficients, "mul", logged(int_mul, int.bit_length))
    runs = []
    for seed in (1, 2, 3):
        batch = next(witt.passes(seed))
        sizes.clear()
        stats = harness.run_passes(iter([batch]), count=1, digest_passes=1)
        assert stats.failed == 0
        runs.append((list(sizes), stats.digest))
    assert runs[0][0] and all(run[0] == runs[0][0] for run in runs)
    assert len({digest for _, digest in runs}) == len(runs)


def test_times_are_reported_at_the_reference_speed():
    # Two ops timed while the host ran at twice the reference speed.
    stats = harness.RunStats(labels=["a", "b"], latencies_s=[0.01, 0.03], scales=[2.0, 2.0], completed=2)
    e2e = harness.end_to_end(stats, 50)
    assert e2e["raw_ops_per_s"] == 2 * e2e["ops_per_s"] == 2 / 0.04
    assert e2e["op_p50_ms"] == 2 * e2e["raw_op_p50_ms"] == 40
    assert 0.1 < speed.speed_scale() < 10


def test_nonsaturated_model_is_counted_as_failed():
    with open(ROOT / "tests" / "data" / "nonsaturated_model.json", encoding="utf-8") as fh:
        model = dieudonne.DieudonneModel.from_json(json.load(fh))
    assert _failed_share(report_op("saturation", dieudonne.saturation_witness, (model,))) == 1


def _traced(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", "1", "--seconds", str(seconds)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


def test_counts_and_digests_repeat_for_one_seed():
    # --seconds values that give 3 certify passes and one pass of the others.
    for workload, seconds in (("certify", 0.075), ("eliminate", 1.8), ("witt", 1), ("dieudonne", 2)):
        (rec_a, res_a), (rec_b, res_b) = _traced(workload, 7, seconds), _traced(workload, 7, seconds)
        assert res_a["correct"] and res_b["correct"]
        assert rec_a["passes"] == rec_b["passes"], workload
        assert rec_a["digest"] == rec_b["digest"], workload
        counts = {
            name for name, entry in res_a["metrics"].items()
            if entry["unit"] == "count"
        }
        assert counts, workload
        for name in counts:
            assert res_a["metrics"][name]["value"] == res_b["metrics"][name]["value"], (workload, name)
        exercised = [n for n in counts if n.endswith(".calls") and res_a["metrics"][n]["value"] > 0]
        assert exercised, workload
