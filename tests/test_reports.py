"""Reports are byte-identical for a fixed seed.

Each run's report file is compared by sha256 with its pinned digest.  A
change that moves any of them changes what the lab reports: it bumps
``schema_version`` once, records each moved digest and its reason in
CHANGES.md, and pins the new digests here.  The CSV table carries no
``schema_version``, so only a change to its values moves its digest,
and neither do the code specs that ``code build --out`` writes.
"""

import hashlib

import pytest

from qauth.cli import EXIT_OK, main

REPORTS = [
    ("simulate honest --code bch-63-18 --trials 500",
     "8fca5d5b4ed7af2c51312e91976ef300f139c0ccace338e7b8d2c2b61a25c28a"),
    ("simulate no-message --code rep3 --trials 20000 --seed 42",
     "e7af1f78759e15b352ce78e75a0440ee9a4e3a93c08a8b84f61d8e51d6819896"),
    ("simulate no-message --code bch-63-57 --trials 2000",
     "41cc83825dc7d0004f9938a21d65cfef9f3832293f8ee9bcd85198cdd736db66"),
    ("simulate intercept-resend --code hamming74 --trials 5000 --forged-message 0011",
     "c81555b31cfd95d77303df0810501063a2b2fbd86d1d279ac66076e89ddd9e96"),
    ("simulate intercept-resend --code bch-15-7-2 --trials 3000",
     "a2954786c5cc4f3af786db090cc90bf383c1f9398076312db302b9cc8fba2748"),
    ("simulate intercept-resend --code bch-31-6-7 --trials 2000 "
     "--on-decode-failure resend_uncorrected",
     "2d7961d950fb12df1ff8fdfbfbadf68b7c2aacb2b946ef49a33a0631f02d4552"),
    ("simulate intercept-resend --code bch-127-22 --trials 500",
     "66af71708847c05579a1916f5d379f5f52e177649646bd47c1f0fac2febf8b3d"),
    ("oracle ir --code hamming74",
     "9f3b89a060ccd60243e5fe57e5fbcd9bffc47826e205f4a68680f643909f3c2a"),
    ("oracle ir --code rep9 --on-decode-failure resend_uncorrected",
     "75dc90c04f1667126a0df6faad12b551d5ba49d89f0eb85285210da330c20728"),
    ("oracle pdec --code rep9",
     "34d9ced7616887eaf6be5e33e0a28db2a97130a90bf3381ece97a9fe9477769c"),
    ("oracle nomsg --code bch-15-7-2",
     "1ac4e2aa0865a039345fc33f10737a4542004dd983cafbbededaa99c898c58e0"),
    ("analytics table --format json --exact",
     "c43340e4fc8b740a3abcfb22f4f2eb9c0aac23298db12f59cee4d809f59b19ab"),
    ("analytics table",
     "ac6cc0abf6d9ac6e888d3ea8b796a87fbd593c4eea76c4b9f99d8dabb06b09c9"),
]

SPECS = [
    ("code build --bch 6 10",
     "89cd0b8107057dbb507768cb103c2248154bbd649d480524a4730d9bc0b277f1"),
    ("code build --repetition 3",
     "a6a9009ca79f8ff66e8deba72e1a342918fbf2bdbf6a32195716dac04084abf8"),
]


@pytest.mark.parametrize(
    "command,digest", REPORTS + SPECS, ids=[c for c, _ in REPORTS + SPECS]
)
def test_report_bytes_are_pinned(command, digest, tmp_path):
    out = tmp_path / "report"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
