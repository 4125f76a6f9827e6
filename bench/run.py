"""The qauth benchmark.

  python3 bench/run.py --workload {sessions,attack,exact} --seed N \\
      --seconds S --trace {0,1}

Run it from the root of a checkout; qauth is imported from that
checkout's src/ only.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it repeat the metrics for a human reader.

``--trace 0`` measures the end-to-end metrics, untraced, for about S
seconds.  ``--trace 1`` makes a fixed-size run once plain and once
traced, and reports the per-layer metrics; its counts depend only on
the seed.  bench/README.md defines every metric.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time

from spans import SPAN_NAMES, Tracer, first_unrestored, originals
from workloads import (
    ALL_CELLS,
    CALIBRATION_REFERENCE_S,
    EXACT,
    BENCH_DIR,
    ROOT,
    BenchError,
    Record,
    Workload,
    WORKLOADS,
    geomean,
    import_qauth,
    load_references,
    pass_times,
    resolve_codes,
    run_cells,
    run_items,
    tail,
)

SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# A traced Monte Carlo run is this many rounds of one small batch per
# cell, so each cell's batch-time tail is the 90th percentile.
TRACE_ROUNDS = 100
TRACE_PASSES = 3

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trials_per_s", "trials/ref-s", "higher"),
    ("oracle_s", "ref-s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    spec = []
    for cell in ALL_CELLS:
        base = f"verify.monte_carlo.{cell.name}"
        spec += [(f"{base}.trials_per_s", "trials/s", "higher"),
                 (f"{base}.batch_ms.p90", "ms", "lower"),
                 (f"{base}.batches", "count", "higher")]
    spec += [(item.metric, "s", "lower") for item in EXACT.items]
    spec.append(("verify.exact.passes", "count", "higher"))
    spec += [(f"{name}.self_share", "ratio", "lower") for name in SPAN_NAMES]
    for name in ("rng.substream", "qsim.prepare", "qsim.measure", "codes.decode"):
        spec += [(f"{name}.calls", "count", "lower"),
                 (f"{name}.per_trial", "calls/trial", "lower")]
    spec += [
        ("gf2.mat_vec_mul.calls", "count", "lower"),
        ("bch.decode.calls", "count", "lower"),
        ("bch.decode.ok_ratio", "ratio", "higher"),
        ("gf2.GF2m.mul.per_bch_decode", "calls/decode", "lower"),
        ("adversary.decode_ok_ratio", "ratio", "higher"),
        ("adversary.miscorrection_ratio", "ratio", "lower"),
        ("adversary.failure_ratio", "ratio", "lower"),
        ("adversary.abort_ratio", "ratio", "lower"),
        ("adversary.resend_ratio", "ratio", "lower"),
        ("cli.resolve_code_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
    ]
    return spec


# ---------------------------------------------------------------------------
# End-to-end run.
# ---------------------------------------------------------------------------

def measure_setup(workload: Workload, probes: int) -> float:
    """Median seconds from starting an interpreter to its first timed call."""
    times = []
    for _ in range(probes):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(BENCH_DIR / "probe.py"), *workload.codes],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
        )
        if out.returncode != 0:
            raise BenchError(f"set-up probe failed: {out.stderr.strip()}")
        times.append(float(out.stdout.split()[-1]) - start)
    return statistics.median(times)


def _cell_rate(cell_trials: int, times: list[float]) -> float:
    return statistics.median(cell_trials / t for t in times) if times else 0.0


def end_to_end(qauth, workload: Workload, refs: dict, seed: int,
               seconds: float, probes: int = SETUP_PROBES):
    """Records, end-to-end metrics and wall-clock figures of an untraced run.

    A cell's or exact item's time is the median over the run of its
    calls in reference seconds (see ``CALIBRATION_REFERENCE_S``).
    """
    setup_s = measure_setup(workload, probes)
    codes = resolve_codes(qauth, workload)
    if workload.cells:
        # round 0 is warm-up; at least one round is recorded
        records = run_cells(
            qauth, workload, codes, refs, seed, trace_sizes=False,
            keep_going=lambda r, t: r < 2 or t < seconds, first_recorded=1,
            calibrated=True)
        trials = {c.name: c.batch for c in workload.cells}
    else:
        records = run_items(qauth, workload, codes, refs, calibrated=True,
                            keep_going=lambda r, t: r < 1 or t < seconds)
        trials = {i.metric: i.patterns(codes) for i in workload.items}
    ok = {name: r for name, r in records.items() if not r.failed}
    scaled = {
        name: statistics.median(t * CALIBRATION_REFERENCE_S / c
                                for t, c in zip(r.times, r.calibration))
        for name, r in ok.items()
    }
    wall = {name: statistics.median(r.times) for name, r in ok.items()}

    def rate(times: dict[str, float]) -> float:
        return geomean([trials[n] / t for n, t in times.items() if trials[n]])

    metrics = {
        "setup_s": setup_s,
        "trials_per_s": rate(scaled),
        "oracle_s": sum(scaled.values()),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    calibration = [c for r in ok.values() for c in r.calibration]
    figures = {
        "wall trials_per_s": (rate(wall), "trials/s"),
        "wall oracle_s": (sum(wall.values()), "s"),
        "calibrate()": (statistics.median(calibration) if calibration else 0.0,
                        "s"),
    }
    units = {name: unit for name, unit, _ in END_TO_END}
    return records, {k: (v, units[k]) for k, v in metrics.items()}, figures


# ---------------------------------------------------------------------------
# Traced run.
# ---------------------------------------------------------------------------

def _decoded_word(transcript: dict) -> int:
    word = int(transcript["m_E"], 16)
    for j in transcript["corrected_positions"]:
        word ^= 1 << j
    return word


def transcript_ratios(transcripts: list[dict]) -> dict[str, float]:
    """Outcome shares of intercept-resend attempts, from ``act``'s dicts.

    The sent message is all-zero, so a decode to a nonzero word is a
    miscorrection.  No-message transcripts (no ``m_E``) are not attempts.
    """
    attempts = [t for t in transcripts if t["m_E"] is not None]
    if not attempts:
        return {k: 0.0 for k in ("decode_ok", "miscorrection", "failure",
                                 "abort", "resend")}
    n = len(attempts)
    ok = [t for t in attempts if t["decode_success"]]
    return {
        "decode_ok": len(ok) / n,
        "miscorrection": sum(1 for t in ok if _decoded_word(t)) / n,
        "failure": (n - len(ok)) / n,
        "abort": sum(1 for t in attempts if not t["resent"]) / n,
        "resend": sum(1 for t in attempts
                      if t["resent"] and not t["decode_success"]) / n,
    }


def _busy(records: dict[str, Record]) -> float:
    return sum(sum(r.times) for r in records.values())


def traced(qauth, workload: Workload, refs: dict, seed: int,
           rounds: int = TRACE_ROUNDS, passes: int = TRACE_PASSES):
    """Records and per-layer metrics of a fixed-size plain + traced run.

    A Monte Carlo workload runs ``rounds`` rounds plain, then the same
    rounds traced; ``exact`` runs ``passes`` plain passes and one traced.
    """
    start = time.perf_counter()
    codes = resolve_codes(qauth, workload)
    resolve_s = time.perf_counter() - start

    def run(count: int) -> dict[str, Record]:
        if workload.cells:
            return run_cells(qauth, workload, codes, refs, seed,
                             trace_sizes=True,
                             keep_going=lambda r, t: r < count)
        return run_items(qauth, workload, codes, refs,
                         keep_going=lambda r, t: r < count)

    plain = run(rounds if workload.cells else passes)
    tracer = Tracer()
    before = originals(qauth)
    with tracer.installed(qauth, keep_results=("adversary.act", "bch.decode")):
        traced_records = run(rounds if workload.cells else 1)
    leaked = first_unrestored(before, qauth)
    if leaked:
        raise BenchError(f"traced attribute {leaked} was not restored")
    for name, record in traced_records.items():
        first = plain[name]
        if first.failed:
            continue
        if record.failed:
            first.error = f"traced run: {record.error}"
        elif (record.trials, record.successes) != (first.trials, first.successes):
            first.error = "the traced run changed the outcome"

    busy = _busy(traced_records)
    if workload.cells:
        plain_busy = _busy(plain)
    else:
        plain_passes = pass_times(plain)
        plain_busy = statistics.median(plain_passes) if plain_passes else 0.0
    calls = tracer.calls()
    self_time = tracer.self_times()
    trials = sum(r.trials for r in traced_records.values())
    bch_results = tracer.results["bch.decode"]
    bch_calls = calls["bch.decode"]

    m: dict[str, float] = {}
    for cell in ALL_CELLS:
        base = f"verify.monte_carlo.{cell.name}"
        times = plain[cell.name].times if cell.name in plain else []
        slow = tail(times)
        m[f"{base}.trials_per_s"] = _cell_rate(cell.trace_batch, times)
        m[f"{base}.batch_ms.p90"] = 1000 * slow if slow is not None else 0.0
        m[f"{base}.batches"] = len(times)
    for item in EXACT.items:
        times = plain[item.metric].times if item.metric in plain else []
        m[item.metric] = statistics.median(times) if times else 0.0
    m["verify.exact.passes"] = len(pass_times(plain)) if not workload.cells else 0
    for name in SPAN_NAMES:
        m[f"{name}.self_share"] = self_time.get(name, 0.0) / busy if busy else 0.0
    for name in ("rng.substream", "qsim.prepare", "qsim.measure", "codes.decode"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.per_trial"] = calls[name] / trials if trials else 0.0
    m["gf2.mat_vec_mul.calls"] = calls["gf2.mat_vec_mul"]
    m["bch.decode.calls"] = bch_calls
    m["bch.decode.ok_ratio"] = (
        sum(1 for ok, _ in bch_results if ok) / bch_calls if bch_calls else 0.0)
    m["gf2.GF2m.mul.per_bch_decode"] = (
        calls["gf2.GF2m.mul"] / bch_calls if bch_calls else 0.0)
    for key, value in transcript_ratios(tracer.results["adversary.act"]).items():
        m[f"adversary.{key}_ratio"] = value
    m["cli.resolve_code_s"] = resolve_s
    m["trace.overhead_ratio"] = busy / plain_busy if plain_busy else 0.0
    m["trace.spans"] = tracer.spans()

    units = {name: unit for name, unit, _ in per_layer_spec()}
    return plain, {k: (m[k], units[k]) for k in units}


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def result_object(records: dict[str, Record], metrics: dict) -> dict:
    failed = sum(1 for r in records.values() if r.failed)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=_positive_int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        qauth = import_qauth()
        refs = load_references()
        workload = WORKLOADS[args.workload]
        figures = {}
        if args.trace:
            records, metrics = traced(qauth, workload, refs, args.seed)
        else:
            records, metrics, figures = end_to_end(
                qauth, workload, refs, args.seed, args.seconds)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    result = result_object(records, metrics)
    for name, record in records.items():
        if record.failed:
            print(f"FAILED {name}: {record.error}")
    for name, (value, unit) in {**metrics, **figures}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_frac = {result['failed'] / result['attempted']:.6g} ratio "
          f"({result['failed']}/{result['attempted']} cells)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
