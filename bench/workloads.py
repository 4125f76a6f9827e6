"""The benchmark's workloads, their correctness checks and timing loops.

Three single-process, single-threaded workloads drive qauth's public API:

  sessions  Monte Carlo sessions that never decode
  attack    intercept-resend Monte Carlo with the decoder in the loop
  exact     exhaustive oracles and the closed-form table, no randomness

Every call into qauth goes through a module attribute looked up at call
time (``verify.monte_carlo``, ``verify.oracle_p_dec``, ...), so the
tracer in ``spans.py`` sees it once it has wrapped that attribute.
Correctness checks run outside the timed region.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCES = BENCH_DIR / "references.json"

# A correct program fails a cell's interval check with probability
# 1e-9, so thousands of benchmark runs essentially never see one.
CHECK_CONFIDENCE = 1 - 1e-9

# End-to-end times are in reference seconds: each timed call is divided
# by the time of calibrate() run next to it and multiplied by this, the
# median time of calibrate() on the shared 2-core x86 virtual machine the
# benchmark was defined on.  Other load on the host slows both alike;
# there, run medians of wall time spread 14-28 % (IQR over runs) and
# those of reference time 3-10 %.
CALIBRATION_LOOPS = 10_000
CALIBRATION_REFERENCE_S = 0.0045

# The eight codes of the security table, as cli selectors.
GRID = (
    "bch-63-57", "bch-63-51", "bch-63-18", "bch-63-10",
    "bch-127-120", "bch-127-113", "bch-127-36", "bch-127-22",
)


class BenchError(Exception):
    """The benchmark cannot run here, for example without qauth's source."""


def import_qauth():
    """Import qauth from this checkout's ``src/`` and from nowhere else."""
    init = SRC / "qauth" / "__init__.py"
    if not init.is_file():
        raise BenchError(f"no qauth source at {init.parent}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import qauth
    import qauth.cli

    if Path(qauth.__file__).resolve() != init:
        raise BenchError(f"qauth was imported from {qauth.__file__}, not {init}")
    return qauth


def load_references(path: Path = REFERENCES) -> dict:
    """Pinned exact values: qauth's own results at the benchmark's start."""
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# Workload definitions.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class McCell:
    """A code under one attack, run as ``verify.monte_carlo`` batches.

    ``batch`` trials make one timed batch of a plain run (~0.1 s on a
    2-core x86 box); ``trace_batch`` is the smaller batch of a traced
    run.  ``reference`` says whether references.json pins the exact
    acceptance probability; without it only well-formedness is checked.
    """

    name: str
    code: str
    attack: str  # "honest", "no-message" or "intercept-resend"
    batch: int
    trace_batch: int
    policy: str = "abort"
    reference: bool = False


@dataclass(frozen=True)
class ExactItem:
    """One call of the ``exact`` pass and the metric that times it.

    ``patterns`` is the number of (basis difference, readout) pairs the
    naive enumeration visits, 3^n, used as the item's trial count.
    """

    metric: str
    kind: str  # "p_dec", "intercept_resend" or "table1"
    code: Optional[str] = None
    policy: Optional[str] = None

    def patterns(self, codes: dict) -> int:
        return 3 ** codes[self.code].n if self.code else 0


@dataclass(frozen=True)
class Workload:
    name: str
    codes: tuple[str, ...]
    cells: tuple[McCell, ...] = ()
    items: tuple[ExactItem, ...] = ()


SESSIONS = Workload(
    "sessions",
    codes=("rep3", "bch-63-18"),
    cells=(
        McCell("rep3_nomsg", "rep3", "no-message", 2000, 200, reference=True),
        McCell("bch63_18_honest", "bch-63-18", "honest", 500, 50),
        McCell("bch63_18_nomsg", "bch-63-18", "no-message", 400, 40,
               reference=True),
    ),
)
ATTACK = Workload(
    "attack",
    codes=("bch-127-22", "bch-31-6-7", "hamming74"),
    cells=(
        McCell("bch127_22_ir_abort", "bch-127-22", "intercept-resend", 100, 10),
        McCell("bch31_6_7_ir_resend", "bch-31-6-7", "intercept-resend", 300,
               30, policy="resend_uncorrected"),
        McCell("hamming74_ir_abort", "hamming74", "intercept-resend", 1000,
               100, reference=True),
    ),
)
EXACT = Workload(
    "exact",
    codes=("rep11", "rep9", "hamming74") + GRID,
    items=(
        ExactItem("verify.oracle_p_dec.rep11_s", "p_dec", "rep11"),
        ExactItem("verify.oracle_p_dec.hamming74_s", "p_dec", "hamming74"),
        ExactItem("verify.oracle_intercept_resend.rep9_abort_s",
                  "intercept_resend", "rep9", "abort"),
        ExactItem("verify.oracle_intercept_resend.rep9_resend_uncorrected_s",
                  "intercept_resend", "rep9", "resend_uncorrected"),
        ExactItem("verify.oracle_intercept_resend.hamming74_abort_s",
                  "intercept_resend", "hamming74", "abort"),
        ExactItem("analytics.table1.grid_s", "table1"),
    ),
)
WORKLOADS = {w.name: w for w in (SESSIONS, ATTACK, EXACT)}
ALL_CELLS = SESSIONS.cells + ATTACK.cells


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes: the machine's speed now."""
    start = time.perf_counter()
    table = {}
    for i in range(CALIBRATION_LOOPS):
        table[i & 255] = [i, str(i), (i * 2654435761) & 0xFFFF]
    return time.perf_counter() - start


def resolve_codes(qauth, workload: Workload) -> dict:
    return {sel: qauth.cli.resolve_code(sel) for sel in workload.codes}


# ---------------------------------------------------------------------------
# Records and checks.
# ---------------------------------------------------------------------------

@dataclass
class Record:
    """Timings and outcome of one cell or exact item over a run."""

    name: str
    times: list[float] = field(default_factory=list)  # s per batch or call
    calibration: list[float] = field(default_factory=list)  # calibrate() s
    trials: int = 0
    successes: int = 0
    error: Optional[str] = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def clopper_pearson(successes: int, trials: int, confidence: float):
    """Two-sided exact binomial interval, independent of qauth.verify."""
    from scipy.stats import beta

    alpha = 1.0 - confidence
    low = 0.0 if successes == 0 else float(
        beta.ppf(alpha / 2, successes, trials - successes + 1))
    high = 1.0 if successes == trials else float(
        beta.ppf(1 - alpha / 2, successes + 1, trials - successes))
    return low, high


def batch_seed(seed: int, cell: str, index: int) -> int:
    """The root seed of one batch, derived from the benchmark's seed."""
    digest = hashlib.blake2b(f"{seed}/{cell}/{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "big")


def _check_batch(cell: McCell, stats, trials: int) -> Optional[str]:
    if stats.trials != trials or not 0 <= stats.successes <= trials:
        return f"malformed result {stats.trials} trials, {stats.successes} successes"
    if cell.attack == "honest" and stats.successes != trials:
        return f"honest sessions rejected: {stats.successes}/{trials} accepted"
    return None


def check_cell_totals(cell: McCell, record: Record, refs: dict) -> None:
    """The strict interval of all batches must contain the exact value."""
    if record.failed or not cell.reference or record.trials == 0:
        return
    p = Fraction(refs["acceptance"][cell.name])
    low, high = clopper_pearson(record.successes, record.trials,
                                CHECK_CONFIDENCE)
    if not low <= p <= high:
        record.error = (
            f"{record.successes}/{record.trials} accepted; interval "
            f"[{low:.6g}, {high:.6g}] misses {float(p):.6g}"
        )


def _table1_rows(rows) -> dict:
    return {
        r.name: {
            "p_f": str(r.p_f),
            "p_dec": str(r.p_dec),
            "p_f_prime": str(r.p_f_prime),
            "key_overhead": str(r.key_overhead),
        }
        for r in rows
    }


def check_item(item: ExactItem, result, refs: dict) -> Optional[str]:
    if item.kind == "table1":
        if _table1_rows(result) != refs["table1"]:
            return "table1 rows differ from the pinned rationals"
        return None
    expected = Fraction(refs["oracle"][item.metric])
    if result.exact_value != expected:
        return f"exact value {result.exact_value} != pinned {expected}"
    if item.kind == "p_dec" and not result.equal:
        return f"oracle p_dec {result.exact_value} != formula {result.formula_value}"
    return None


# ---------------------------------------------------------------------------
# Timing loops.
# ---------------------------------------------------------------------------

def _adversary(qauth, cell: McCell, code):
    message = qauth.BitWord.zeros(code.m)
    if cell.attack == "honest":
        return None
    if cell.attack == "no-message":
        return qauth.adversary.NoMessageStrategy(message)
    return qauth.adversary.InterceptResendStrategy(message, cell.policy)


def _timed_rounds(calls: dict[str, Callable[[int], object]],
                  checks: dict[str, Callable[[object, Record], Optional[str]]],
                  keep_going: Callable[[int, float], bool],
                  first_recorded: int, calibrated: bool) -> dict[str, Record]:
    """Round r calls ``calls[name](r)`` once per name, in order, while
    ``keep_going(r, elapsed)``; each result then goes to ``checks[name]``.

    A call that raises or fails its check fails its record, which is not
    called again.  Rounds before ``first_recorded`` are warm-up: checked,
    not timed.  With ``calibrated``, calibrate() runs before and after
    each call.
    """
    records = {name: Record(name) for name in calls}
    clock = time.perf_counter
    start = clock()
    r = 0
    while keep_going(r, clock() - start):
        for name, call in calls.items():
            record = records[name]
            if record.failed:
                continue
            speed = calibrate() if calibrated else 0.0
            try:
                t0 = clock()
                result = call(r)
                elapsed = clock() - t0
            except Exception as exc:  # a raising call fails its record
                record.error = f"{type(exc).__name__}: {exc}"
                continue
            if calibrated:
                speed = (speed + calibrate()) / 2
            record.error = checks[name](result, record)
            if r >= first_recorded:
                record.times.append(elapsed)
                record.calibration.append(speed)
        r += 1
    return records


def run_cells(qauth, workload: Workload, codes: dict, refs: dict, seed: int,
              *, trace_sizes: bool, keep_going: Callable[[int, float], bool],
              first_recorded: int = 0, calibrated: bool = False
              ) -> dict[str, Record]:
    """Round-robin fixed-size batches over the workload's cells.

    Round r runs one batch of every cell, seeded from (seed, cell, r).
    """
    calls, checks = {}, {}
    for cell in workload.cells:
        code, adversary = codes[cell.code], _adversary(qauth, cell, codes[cell.code])
        trials = cell.trace_batch if trace_sizes else cell.batch

        def call(r, cell=cell, code=code, adversary=adversary, trials=trials):
            return qauth.verify.monte_carlo(
                code, trials, batch_seed(seed, cell.name, r), adversary=adversary)

        def check(stats, record, cell=cell, trials=trials):
            record.trials += trials
            record.successes += stats.successes
            return _check_batch(cell, stats, trials)

        calls[cell.name], checks[cell.name] = call, check
    records = _timed_rounds(calls, checks, keep_going, first_recorded,
                            calibrated)
    for cell in workload.cells:
        check_cell_totals(cell, records[cell.name], refs)
    return records


def call_item(qauth, item: ExactItem, codes: dict):
    if item.kind == "p_dec":
        return qauth.verify.oracle_p_dec(codes[item.code])
    if item.kind == "intercept_resend":
        return qauth.verify.oracle_intercept_resend(codes[item.code], item.policy)
    return qauth.analytics.table1([codes[sel] for sel in GRID])


def run_items(qauth, workload: Workload, codes: dict, refs: dict, *,
              keep_going: Callable[[int, float], bool],
              calibrated: bool = False) -> dict[str, Record]:
    """Repeated passes over the exact items, each call timed and checked."""
    calls = {i.metric: lambda r, i=i: call_item(qauth, i, codes)
             for i in workload.items}
    checks = {i.metric: lambda result, record, i=i: check_item(i, result, refs)
              for i in workload.items}
    return _timed_rounds(calls, checks, keep_going, 0, calibrated)


# ---------------------------------------------------------------------------
# Summaries.
# ---------------------------------------------------------------------------

def geomean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else 0.0


def tail(times: list[float]) -> Optional[float]:
    """The highest nearest-rank percentile with >= 10 samples beyond it.

    That is the (N-10)-th smallest time; None below 11 samples.
    """
    if len(times) < 11:
        return None
    return sorted(times)[len(times) - 11]


def pass_times(records: dict[str, Record]) -> list[float]:
    """Wall time of each complete round: one batch or call per record."""
    columns = [r.times for r in records.values() if not r.failed]
    if not columns:
        return []
    return [sum(round_) for round_ in zip(*columns)]
