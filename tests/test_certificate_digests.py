"""The CK/MCK certificates stay byte-identical to recorded digests.

``certificate_digests.json`` maps each command below to the exit code and
the SHA-256 of the stdout of ``chowtaut.cli.main`` on it: ``verify-ck`` and
``verify-mck`` on every catalog label and on four (d, b) pairs, b = 0, 1
and 5 among them.  A change that only speeds up the certificate path leaves
every digest as it is.  A change that means to alter certificate output
regenerates the file and names the change in CHANGES.md:

    PYTHONPATH=src python tests/test_certificate_digests.py > tests/certificate_digests.json
"""

import contextlib
import hashlib
import io
import json
import pathlib

from chowtaut.catalog import load_catalog
from chowtaut.cli import main

DIGESTS = pathlib.Path(__file__).with_name("certificate_digests.json")
PAIRS = [(3, 5), (2, 1), (2, 0), (1, 0)]


def commands() -> list[list[str]]:
    """The 46 certificate commands: both checks on every label, then on each (d, b) pair."""
    args = [["--label", rec.label] for rec in load_catalog()]
    args += [["--d", str(d), "--b", str(b)] for d, b in PAIRS]
    return [[cmd, *a] for a in args for cmd in ("verify-ck", "verify-mck")]


def certificate_digests() -> dict[str, list]:
    """Each command line -> [exit code, SHA-256 of stdout], run in this process."""
    out = {}
    for argv in commands():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        out[" ".join(argv)] = [code, hashlib.sha256(buf.getvalue().encode()).hexdigest()]
    return out


def test_certificates_match_recorded_digests():
    want = json.loads(DIGESTS.read_text())
    assert len(want) == len(commands()) == 46
    assert certificate_digests() == want


if __name__ == "__main__":
    print(json.dumps(certificate_digests(), indent=1))
