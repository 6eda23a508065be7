"""Correctness gate: every request either passes it or counts as failed.

* CLI requests of the default seeds must reproduce the recorded report
  digest and exit code byte for byte (``golden.json``, written by
  ``record_golden.py``; one ``"<digest>:<exit code>"`` per request
  index).  Requests without a recorded digest must exit 0 and list no
  failed verdict.
* ``bundle-dual`` results must satisfy M(x) M^-1(x) = I exactly, for both
  the tensor product and the direct sum, at one of a few rational points
  that requests take in turn.

A check returns ``None`` on success and a one-line reason otherwise.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEEDS = tuple(range(10))
IDENTITY_POINTS = (Fraction(0), Fraction(1, 2), Fraction(-3, 2), Fraction(1))


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def load_golden(path=GOLDEN_PATH):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return {}


class Gate:
    def __init__(self, workload, seed, golden):
        self.expected = golden.get(workload, {}).get(str(seed), [])

    def check_cli(self, index, text, code):
        if 0 <= index < len(self.expected):
            want_digest, want_code = self.expected[index].split(":")
            if str(code) != want_code:
                return f"exit code {code}, recorded {want_code}"
            if digest(text) != want_digest:
                return "report differs from the recorded digest"
            return None
        if code != 0:
            return f"exit code {code}"
        try:
            failed = json.loads(text)["failed"]
        except (ValueError, KeyError, TypeError):
            return "report is not a JSON object with a failed list"
        if failed:
            return f"failed verdicts: {', '.join(failed)}"
        return None


def check_inverse(evaluate, metric, inverse, x):
    """Exact M(x) M^-1(x) = I for expression matrices.

    ``evaluate`` is the untraced ``symexpr.evaluate``, so the check adds
    nothing to a traced run's counts.
    """
    n = len(metric)
    m = [[evaluate(e, x) for e in row] for row in metric]
    inv = [[evaluate(e, x) for e in row] for row in inverse]
    for i in range(n):
        for j in range(n):
            entry = sum(m[i][t] * inv[t][j] for t in range(n))
            if not isinstance(entry, Fraction) or entry != (i == j):
                return f"M M^-1 [{i}][{j}] = {entry} at x = {x}"
    return None
