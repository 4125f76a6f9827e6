"""Outside-in tracing of qauth: wrap callables where their callers look them up.

qauth modules import names by value (``from .rng import substream``), so
a function is wrapped in the namespace of the module that calls it, and a
method on its class.  Each wrapped call records a span (name, start, end,
parent) in flat arrays; self time is a span's duration minus what its
child spans cover.  ``Tracer.installed`` puts every original object back
on exit.
"""

from __future__ import annotations

import functools
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Optional

# Span names, one per layer boundary, in report order.
SPAN_NAMES = (
    "verify.monte_carlo",
    "verify.oracle",
    "rng.substream",
    "protocol.run_session",
    "protocol.keygen",
    "protocol.alice_send",
    "protocol.bob_receive",
    "qsim.prepare",
    "qsim.measure",
    "qsim.channel_send",
    "adversary.act",
    "codes.encode",
    "codes.is_codeword",
    "codes.decode",
    "codes.message_of",
    "bch.decode",
    "bch.syndromes",
    "gf2.mat_vec_mul",
    "analytics",
)


def span_targets(qauth) -> list[tuple[object, str, str]]:
    """(namespace, attribute, span name) for every wrapped callable."""
    from qauth.adversary import InterceptResendStrategy, NoMessageStrategy
    from qauth.bch import BchAlgebraicDecoder
    from qauth.codes import LinearCode

    verify, protocol, adversary = qauth.verify, qauth.protocol, qauth.adversary
    targets = [
        (verify, "monte_carlo", "verify.monte_carlo"),
        (verify, "oracle_p_dec", "verify.oracle"),
        (verify, "oracle_intercept_resend", "verify.oracle"),
        (verify, "substream", "rng.substream"),
        (verify, "run_session", "protocol.run_session"),
        (protocol, "keygen", "protocol.keygen"),
        (protocol, "alice_send", "protocol.alice_send"),
        (protocol, "bob_receive", "protocol.bob_receive"),
        (protocol, "prepare", "qsim.prepare"),
        (protocol, "measure", "qsim.measure"),
        (protocol, "channel_send", "qsim.channel_send"),
        (adversary, "prepare", "qsim.prepare"),
        (adversary, "measure", "qsim.measure"),
        (NoMessageStrategy, "act", "adversary.act"),
        (InterceptResendStrategy, "act", "adversary.act"),
        (qauth.codes, "mat_vec_mul", "gf2.mat_vec_mul"),
        (BchAlgebraicDecoder, "__call__", "bch.decode"),
        (BchAlgebraicDecoder, "syndromes", "bch.syndromes"),
    ]
    targets += [(LinearCode, attr, f"codes.{attr}")
                for attr in ("encode", "is_codeword", "decode", "message_of")]
    targets += [(qauth.analytics, attr, "analytics")
                for attr in ("table1", "p_dec", "p_f_prime", "p_f_no_message")]
    return targets


def count_targets() -> list[tuple[object, str, str]]:
    """Callables too fine-grained for a span: only their calls are counted.

    ``GF2m.mul`` runs ~790 times per t=23 decode; its time stays in the
    ``bch.decode`` self time, which covers Berlekamp-Massey.
    """
    from qauth.gf2 import GF2m

    return [(GF2m, "mul", "gf2.GF2m.mul")]


class Tracer:
    """In-memory spans and call counts for one traced region."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.results: dict[str, list] = {}
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _replace(self, owner, attr: str, make: Callable) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(make(original)))

    def wrap(self, owner, attr: str, name: str,
             keep_results: bool = False) -> None:
        """Record a span around every call of ``owner.attr``.

        With ``keep_results`` the return values are kept, in call order,
        in ``self.results[name]`` for counting outcomes after the run.
        """
        name_id = self._name_id(name)
        names, parents = self.span_name, self.parent
        starts, ends, stack = self.start, self.end, self._stack
        kept = self.results.setdefault(name, []) if keep_results else None
        clock = time.perf_counter

        def make(original):
            def traced(*args, **kwargs):
                index = len(starts)
                names.append(name_id)
                parents.append(stack[-1])
                ends.append(0.0)
                stack.append(index)
                starts.append(clock())
                try:
                    result = original(*args, **kwargs)
                finally:
                    ends[index] = clock()
                    stack.pop()
                if kept is not None:
                    kept.append(result)
                return result

            return traced

        self._replace(owner, attr, make)

    def count(self, owner, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` without recording spans."""
        counts = self.counts
        counts[name] += 0

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        self._replace(owner, attr, make)

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self, qauth, keep_results: tuple[str, ...] = ()):
        try:
            for owner, attr, name in span_targets(qauth):
                self.wrap(owner, attr, name, keep_results=name in keep_results)
            for owner, attr, name in count_targets():
                self.count(owner, attr, name)
            yield self
        finally:
            self.restore()

    # -- results -------------------------------------------------------------

    def calls(self) -> Counter:
        """Calls per span name, plus the count-only targets."""
        out = Counter({name: 0 for name in self.names})
        for name_id, n in Counter(self.span_name).items():
            out[self.names[name_id]] = n
        out.update(self.counts)
        return out

    def self_times(self) -> dict[str, float]:
        """Seconds per span name not covered by that span's children."""
        n = len(self.start)
        duration = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * n
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += duration[i]
        out = {name: 0.0 for name in self.names}
        for i in range(n):
            out[self.names[self.span_name[i]]] += duration[i] - covered[i]
        return out

    def spans(self) -> int:
        return len(self.start)


def originals(qauth) -> list[tuple[object, str, object]]:
    """(namespace, attribute, current object) for every traced target."""
    return [(owner, attr, vars(owner)[attr])
            for owner, attr, _ in span_targets(qauth) + count_targets()]


def first_unrestored(before, qauth) -> Optional[str]:
    """The first target whose object differs from ``before``, if any."""
    for (owner, attr, obj), (_, _, now) in zip(before, originals(qauth)):
        if obj is not now:
            return f"{getattr(owner, '__name__', owner)}.{attr}"
    return None
