"""Reports are byte-identical for a fixed seed.

Each run's report file is compared by sha256 with its pinned digest.  A
change that moves any of them changes what the lab reports: it bumps
``schema_version`` once, records each moved digest and its reason in
CHANGES.md, and pins the new digests here.  The CSV table carries no
``schema_version``, so only a change to its values moves its digest.
"""

import hashlib

import pytest

from qauth.cli import EXIT_OK, main

REPORTS = [
    ("simulate honest --code bch-63-18 --trials 500",
     "7a5699f1974dd50ea90279bf8c65b075c5c7c393acdbc42e14d79d2b356f2853"),
    ("simulate no-message --code rep3 --trials 20000 --seed 42",
     "0b41c19c8d41226b7e6093bec6f6167de2283128214238ff5d3c13905e139ae8"),
    ("simulate no-message --code bch-63-57 --trials 2000",
     "8857ff7dfeb831288297ae7ca222f5973f8732c19c4ed212cc4e15012dd5b8f8"),
    ("simulate intercept-resend --code hamming74 --trials 5000 --forged-message 0011",
     "9f1cfc0a9fbe6a57761a78e0abce70126103e774cc9fe4eba23d416c043685f6"),
    ("simulate intercept-resend --code bch-15-7-2 --trials 3000",
     "7261de49540d80ce52efff3e7fa243c25ec00bf047b31a077fc4b6528001c809"),
    ("simulate intercept-resend --code bch-31-6-7 --trials 2000 "
     "--on-decode-failure resend_uncorrected",
     "77fde38d168868237cbeb19bb442ee81ac55b50aebfa6076ecf9745567a460df"),
    ("simulate intercept-resend --code bch-127-22 --trials 500",
     "719c5d4e8ae712129921444aa6745c806d0a4e4b38bdc3f59f67b25d7d08e90d"),
    ("oracle ir --code hamming74",
     "8e6cad0115012a62ec9f76c743934788dd4b47876745b4288d8237de28f7bddb"),
    ("oracle ir --code rep9 --on-decode-failure resend_uncorrected",
     "29239c3e6f0217c1c36e6fd0843f1abe1dca1b3fce41685fd73d6fc915ce8ca7"),
    ("oracle pdec --code rep9",
     "9c832c0355f15b7f24e1e977792580d0ccca42b4c6b21401732d759c51a19891"),
    ("oracle nomsg --code bch-15-7-2",
     "11d480c8b033668011df2115b5db95f572dacb369d33f4ce2636eebdb503e805"),
    ("analytics table --format json --exact",
     "dca03e7eb890bed7de5f530af9e7984666df67bd95a175dd342c61e741e29dac"),
    ("analytics table",
     "ac6cc0abf6d9ac6e888d3ea8b796a87fbd593c4eea76c4b9f99d8dabb06b09c9"),
]


@pytest.mark.parametrize("command,digest", REPORTS, ids=[c for c, _ in REPORTS])
def test_report_bytes_are_pinned(command, digest, tmp_path):
    out = tmp_path / "report"
    assert main(command.split() + ["--out", str(out)]) == EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
