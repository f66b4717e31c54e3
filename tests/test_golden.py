"""Byte-identical CLI output at fixed configs.

A refactor must leave these hashes alone.  They cover the analytic columns
and the sampled counts, so a change to the RNG stream layout
(montecarlo.STREAM_LAYOUT) or to numpy's multinomial sampler changes them
too; such a change must update them and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib

import pytest

from rnlsim.cli import main

GOLDEN_SHA256 = {
    "--series 1 --format csv": "62ef060b28bf16b66c529574867248121f912b418451c42bd4b53d1cbc4fb834",
    "--series 2 --format csv": "3b3f4e6fb2f44684a742f12e6e597c2b29842daa128e8af48e421f8d0a7e65b1",
    "--series 3 --format csv": "a6042d317a24e20be451480e96d2ecd3f888e30d057e1c159b90a5afbbbaf033",
    "--length-bs11 2 --length-bs21 1 --length-bs22 3 --m11-displacement 0.5 --format csv": (
        "a6042d317a24e20be451480e96d2ecd3f888e30d057e1c159b90a5afbbbaf033"
    ),
    "--condition2 false --format csv": "44bbc62e850701b23908351255ce0f5777b4ac489074e7641860e3785fd65be8",
    "--format json-lines": "fbe2e11eeaf83d6377ff93560a33f2c7a9fa00c42e8b341c00f0f15b72f06d21",
    "--format table": "84b8119950d072bc746065988859f2495d5af4462260732242da2f516b673a91",
}


@pytest.mark.parametrize("args", list(GOLDEN_SHA256))
def test_cli_output_is_byte_identical(args: str, capsys: pytest.CaptureFixture) -> None:
    assert main(args.split()) == 0
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode()).hexdigest() == GOLDEN_SHA256[args]
