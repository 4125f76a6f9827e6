"""Tests of the benchmark itself, at sizes far below a real run.

  python3 -m pytest bench
"""

import json
from types import SimpleNamespace

import pytest

import run
import spans
from workloads import (
    ATTACK,
    EXACT,
    ROOT,
    SESSIONS,
    WORKLOADS,
    Workload,
    _check_batch,
    import_qauth,
    load_references,
    resolve_codes,
    run_cells,
    run_items,
)


@pytest.fixture(scope="module")
def qauth():
    return import_qauth()


@pytest.fixture(scope="module")
def refs():
    return load_references()


def _counts(metrics: dict) -> dict:
    """The per-layer metrics that depend only on the seed."""
    return {
        k: v for k, (v, _) in metrics.items()
        if k.endswith((".calls", ".per_trial", "_ratio", ".per_bch_decode",
                       ".batches", ".passes", ".spans"))
        and k != "trace.overhead_ratio"
    }


@pytest.mark.parametrize("workload", [SESSIONS, ATTACK], ids=lambda w: w.name)
def test_tiny_end_to_end_run_passes_its_checks(qauth, refs, workload):
    records, metrics, _ = run.end_to_end(qauth, workload, refs, seed=7,
                                         seconds=0, probes=1)
    result = run.result_object(records, metrics)
    assert result["correct"], [r.error for r in records.values()]
    assert result["attempted"] == len(workload.cells)
    assert set(result["metrics"]) == {name for name, _, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_exact_run_passes_its_checks(qauth, refs):
    records, metrics = run.traced(qauth, EXACT, refs, seed=0, passes=1)
    assert not [r.error for r in records.values() if r.failed]
    for layer in ("rng.substream", "qsim.prepare", "qsim.measure"):
        assert metrics[f"{layer}.calls"][0] == 0
    assert metrics["bch.decode.calls"][0] == 0
    assert metrics["codes.decode.calls"][0] == 2 * 3**7 + 2 * 3**9 + 3**11


def test_sessions_never_decode(qauth, refs):
    records, metrics = run.traced(qauth, SESSIONS, refs, seed=3, rounds=2)
    assert not [r.error for r in records.values() if r.failed]
    assert metrics["bch.decode.calls"][0] == 0
    assert metrics["codes.decode.calls"][0] == 0
    assert metrics["rng.substream.per_trial"][0] == 1


def test_traced_counts_repeat_at_one_seed(qauth, refs):
    first = _counts(run.traced(qauth, ATTACK, refs, seed=11, rounds=3)[1])
    second = _counts(run.traced(qauth, ATTACK, refs, seed=11, rounds=3)[1])
    assert first == second
    assert first["bch.decode.calls"] > 0
    assert first["codes.decode.per_trial"] == 1


def test_wrong_reference_fails_the_cell(qauth, refs):
    wrong = json.loads(json.dumps(refs))
    wrong["acceptance"]["hamming74_ir_abort"] = "1/100"
    wrong["oracle"]["verify.oracle_p_dec.hamming74_s"] = "1/2"
    cells = Workload("t", ("hamming74",), cells=(ATTACK.cells[2],))
    items = Workload("t", ("hamming74",), items=(EXACT.items[1],))
    codes = resolve_codes(qauth, cells)
    records = run_cells(qauth, cells, codes, wrong, seed=5, trace_sizes=True,
                        keep_going=lambda r, t: r < 3)
    records.update(run_items(qauth, items, codes, wrong,
                             keep_going=lambda r, t: r < 1))
    result = run.result_object(records, {})
    assert (result["failed"], result["attempted"]) == (2, 2)
    assert not result["correct"]


def test_batch_checks():
    honest, ir = SESSIONS.cells[1], ATTACK.cells[0]
    assert _check_batch(honest, SimpleNamespace(trials=10, successes=10), 10) is None
    assert _check_batch(honest, SimpleNamespace(trials=10, successes=9), 10)
    assert _check_batch(ir, SimpleNamespace(trials=10, successes=0), 10) is None
    assert _check_batch(ir, SimpleNamespace(trials=9, successes=0), 10)


def test_tracer_restores_every_attribute(qauth):
    before = spans.originals(qauth)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(qauth):
            assert spans.first_unrestored(before, qauth) is not None
            raise RuntimeError("inside the traced region")
    assert spans.first_unrestored(before, qauth) is None
    for owner, attr, obj in before:
        assert vars(owner)[attr] is obj


def test_self_time_excludes_children():
    box = SimpleNamespace(inner=lambda: 1)
    box.outer = lambda: box.inner() + 1
    tracer = spans.Tracer()
    tracer.wrap(box, "outer", "outer")
    tracer.wrap(box, "inner", "inner")
    try:
        assert box.outer() == 2
    finally:
        tracer.restore()
    assert tracer.calls() == {"outer": 1, "inner": 1}
    assert list(tracer.parent) == [-1, 0]
    total = tracer.end[0] - tracer.start[0]
    self_time = tracer.self_times()
    assert self_time["outer"] + self_time["inner"] == pytest.approx(total)


def test_references_are_qauth_values(qauth, refs):
    from qauth.verify import (oracle_intercept_resend,
                              oracle_no_message_any_codeword)

    resolve = qauth.cli.resolve_code
    assert str(oracle_no_message_any_codeword(resolve("rep3"))) == \
        refs["acceptance"]["rep3_nomsg"]
    assert str(oracle_no_message_any_codeword(resolve("bch-63-18"))) == \
        refs["acceptance"]["bch63_18_nomsg"]
    assert str(oracle_intercept_resend(resolve("hamming74")).exact_value) == \
        refs["acceptance"]["hamming74_ir_abort"]


def test_benchmark_json_matches_the_harness():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_spec()
