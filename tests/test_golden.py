"""The CLI's output is pinned byte for byte.

``tests/golden/cases.json`` lists each command (argv, optional stdin and
exit code); ``tests/golden/<name>.out`` holds its stdout as captured from
``python -m whitneyforms``. The cases cover the README's ``whitney``,
``derham`` and ``characterize`` examples in json, text and latex, a dense
(3, 1) cochain, ``trace --n 4 --k 2``, ``dims --n 6`` and
``verify --n-max 4 --seed 1``, and ``whitney`` and ``characterize`` in json
on one seeded dense (8, 4) cochain whose numerators and denominators have
62 bits, read from stdin, and ``derham`` in json on one seeded dense (6, 3)
form, no Whitney form, whose const and grad entries have 62-bit numerators
and denominators, so that its scale runs to thousands of bits. Each is
replayed through ``cli.main``.
"""

import json
from pathlib import Path

import pytest

from helpers import run_cli

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_cli_output_is_byte_identical(case):
    result = run_cli(case["argv"], input=case.get("stdin"))
    assert result.exit_code == case["exit_code"], result.output
    assert result.stdout_bytes == (GOLDEN / f"{case['name']}.out").read_bytes()
