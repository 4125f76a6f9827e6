"""Reports are byte-identical for a fixed seed.

Each run's report file is compared by sha256 with the digest it had when
these runs were first pinned.  A change that moves any of them changes
what the lab reports: it needs a ``schema_version`` bump (for the RNG
stream) or an entry in CHANGES.md, and new digests here.
"""

import hashlib

import pytest

from qauth.cli import EXIT_OK, main

REPORTS = [
    ("simulate honest --code bch-63-18 --trials 500",
     "fb125185050279474038d70a19a1cd54f666d65ef251503f88df15eb38e5aa45"),
    ("simulate no-message --code rep3 --trials 20000 --seed 42",
     "e5b059cc5983f7985bbe394cdc0efc4cb6450e9d9788c0887dc5199c05a8515f"),
    ("simulate no-message --code bch-63-57 --trials 2000",
     "35a5fcc8b3761da92466dcb12ec0d6d95fa4ae0afe91581c315765d7c5c978e3"),
    ("simulate intercept-resend --code hamming74 --trials 5000 --forged-message 0011",
     "cc9a85e8ec9bfa8b2eed9e17f8aae0f777ecb3424faca49c25a634bc4c6b0d21"),
    ("simulate intercept-resend --code bch-15-7-2 --trials 3000",
     "8cc85eaef9a540556b11c83f5b92119c5afbcc59f515828e937e6e2f733bd695"),
    ("simulate intercept-resend --code bch-31-6-7 --trials 2000 "
     "--on-decode-failure resend_uncorrected",
     "4de8037da4be5155e087074a2bb617cf9169a78aab6a3ef2b28abb69cd889567"),
    ("simulate intercept-resend --code bch-127-22 --trials 500",
     "975b45457e15d55c3c806a884e9b345afe05cd43a302ae778e553622f441da43"),
    ("oracle ir --code hamming74",
     "c1fe66652eff1a67da2c6c79627c62bf18ae4335a6a4165ad3d1064c55dc1b01"),
    ("oracle ir --code rep9 --on-decode-failure resend_uncorrected",
     "6968ec1c3e4802e9868c4d2b9471abcc74223165b6b8edca2fb1811988c7e676"),
    ("oracle pdec --code rep9",
     "2c176d9ff06f9db8b291502a25866b950ad013be35e0f1477d3062ce6984c682"),
    ("oracle nomsg --code bch-15-7-2",
     "be9d5157f2d6acbbf66287ba6f0a885b217eb6d0193700a7ea9ebb131439ca6b"),
    ("analytics table --format json --exact",
     "435f1b3d23a764af047290476f30c4857966e37932ede2e32416788c5e4cc43d"),
    ("analytics table",
     "ac6cc0abf6d9ac6e888d3ea8b796a87fbd593c4eea76c4b9f99d8dabb06b09c9"),
]


@pytest.mark.parametrize("command,digest", REPORTS, ids=[c for c, _ in REPORTS])
def test_report_bytes_are_pinned(command, digest, tmp_path):
    out = tmp_path / "report"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
