"""Byte-level pins of the CLI reports on the shipped configs.

Each digest is the sha256 of what ``diffeo COMMAND CONFIG --seed N``
prints.  The reports carry non-zero float residuals at 17 significant
digits, so a change in the order of any summation or comparison inside
a checker shows up here.  When a change is meant to alter a report,
regenerate the table with the loop in ``_report`` and say why.
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from diffwedge.cli import main

CONFIGS = os.path.join(os.path.dirname(__file__), os.pardir, "configs")

# (command, config, seed, exit code, sha256 of stdout)
GOLDEN = [
    ("check", "two_planes", 0, 0, "decd0a6729d1d3daaae1c97c7fcde4a4a053b3592af1373f2dc5926a9d8a0c7f"),
    ("check", "two_planes", 1, 0, "a750b1e1e88e847dc2d2c25bdd9ece3dff04e9f2fa1159e644f3dace7f5ef3d5"),
    ("check", "two_planes", 2, 0, "7b07712d8837373c6f8fec404c7ef2d47dd522e7a4e3873de16ebd24ed7e1f76"),
    ("check", "wedge_dirac", 0, 0, "cd3811638b29fb3c4553b6ca78677c955eaf8c6a35deaa8595b3d39acd591a32"),
    ("check", "wedge_dirac", 1, 0, "d8e9253dfdbfa2557ece733d71c9fcb3b989fc326cc22e861e034fea4a772d3e"),
    ("check", "wedge_dirac", 2, 0, "ff81daa8459e5e1f7073dc9561a02a84b29f5ca1f74e2f7d88eb4cc2ac2b8a8a"),
    ("check", "incompatible", 0, 1, "6b6f3f9603e0296b89be29402e5be5721787e66c946243c538bb1c46901398f9"),
    ("check", "incompatible", 1, 1, "adc8ca9c45a158aaac3358e9c3ee11f2389d698efe26d9254f258baf895ccd7c"),
    ("check", "incompatible", 2, 1, "eca0ac57235397464fbd31301210bee143570c347be7e224c00ee70f35e93ae2"),
    ("dual-metric", "two_planes", 0, 0, "8ae3303cc089d5f4a66ef40e2b994afb89e8356ae51a693b94d0e0a1b0bdaa19"),
    ("clifford-table", "two_planes", 0, 0, "86eb63af4231416bc104f2f954e8c069de1eb7137287543ef39104c071f012c2"),
    ("dirac", "wedge_dirac", 0, 0, "bd83f30fd0d30458f68ca80d4adf50e62f0f9f6a94c414045181be7633e166cd"),
    ("report", "two_planes", 0, 0, "981ec01f50acf2b1047aa4491d23cc99af9ae51bafc901de051ab1d8051a1ad2"),
]


# Fibre-only configs written inline, pinned at the O(n^4) congruent_diagonal
# that the Gram-matrix elimination replaced: (id, command, fibre, exit
# code, sha256 of stdout).  FIBRE_10 is perfbench.workloads.fibre_config(
# random.Random(10), 10, 2).  A pseudo-metric is PSD, so its Schur
# complements never need the pair pivot; the indefinite zero-diagonal
# metric reaches it through is_pseudo_metric, and fails that verdict.
FIBRE_10 = {
    "dim": 10,
    "nonsmooth": [[0, 0, 1, 0, 0, -1, 0, 0, 0, 0], [0, 0, 0, 0, 0, 0, 0, -1, 0, 1]],
    "metric": [[89, -44, 44, 20, -10, 44, -10, 32, -1, 32],
               [-44, 27, -22, -10, 2, -22, 5, -16, 0, -16],
               [44, -22, 22, 10, -5, 22, -5, 16, 0, 16],
               [20, -10, 10, 5, -2, 10, -2, 7, 0, 7],
               [-10, 2, -5, -2, 6, -5, 3, -5, 0, -5],
               [44, -22, 22, 10, -5, 22, -5, 16, 0, 16],
               [-10, 5, -5, -2, 3, -5, 3, -5, 0, -5],
               [32, -16, 16, 7, -5, 16, -5, 13, 0, 13],
               [-1, 0, 0, 0, 0, 0, 0, 0, 2, 0],
               [32, -16, 16, 7, -5, 16, -5, 13, 0, 13]]}
# Pinned before the fibre path moved to integer elimination, the blade
# factor table and the one-pass report emitter: FIBRE_8 is
# fibre_config(random.Random(8), 8, 3) and FIBRE_24 is
# fibre_config(random.Random(24), 24, 2).
FIBRE_8 = {
    "dim": 8,
    "nonsmooth": [[0, 2, 2, -1, -1, 1, 0, 1],
                  [0, -1, -1, 1, 0, 0, 2, -1],
                  [0, 1, 1, 0, -1, 0, 0, 1]],
    "metric": [[9, -2, -7, -9, -3, 0, 3, 6],
               [-2, 3, 0, 2, 2, -1, 0, -1],
               [-7, 0, 13, 13, 1, 0, -6, -12],
               [-9, 2, 13, 15, 3, 0, -6, -12],
               [-3, 2, 1, 3, 3, 0, 0, 0],
               [0, -1, 0, 0, 0, 1, 0, 1],
               [3, 0, -6, -6, 0, 0, 3, 6],
               [6, -1, -12, -12, 0, 1, 6, 13]]}
FIBRE_24 = {
    "dim": 24,
    "nonsmooth": [[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0],
                  [0, 1, -2, 0, 1, -1, 0, 0, 1, 1, 2, -1, 1, 0, 0, -1, 0, -1, 0, 1, 0, 0, 0, 1]],
    "metric": [[52, -3, 17, -21, 6, -5, 2, -14, 0, 40, -19, -3, 2, 0, 0, 22, 0, 4, 0, -4, 2, 22, 0, 49],
               [-3, 4, -2, 0, 0, 7, -1, -1, 0, -5, 0, 0, -1, 0, 1, 0, 1, -1, 0, 6, 0, -11, 0, -2],
               [17, -2, 17, -9, 3, -8, 4, -1, 2, 28, -5, 0, 2, 0, -1, 8, 1, 0, 0, -4, -5, 23, 0, 15],
               [-21, 0, -9, 17, -3, 0, 0, 8, -2, -23, 10, 0, 0, 0, -1, -13, -3, 2, 0, 0, -2, -9, 0, -21],
               [6, 0, 3, -3, 3, 0, 0, -3, 0, 6, -3, 0, 0, 0, 0, 3, 0, 0, 0, 0, -3, 3, 0, 6],
               [-5, 7, -8, 0, 0, 21, -5, -3, 0, -15, 0, 0, -3, 0, 0, 0, 3, -3, 0, 15, 0, -31, 0, -2],
               [2, -1, 4, 0, 0, -5, 3, 1, 0, 5, 0, 0, 1, 0, 0, 0, -1, 1, 0, -2, 0, 7, 0, 1],
               [-14, -1, -1, 8, -3, -3, 1, 14, 0, -8, 8, 0, 1, 0, -1, -8, -5, 1, -1, -2, -1, 2, 0, -15],
               [0, 0, 2, -2, 0, 0, 0, 0, 2, 4, -1, 1, 0, 0, 0, 1, 0, -2, 0, 0, 0, 2, 0, 0],
               [40, -5, 28, -23, 6, -15, 5, -8, 4, 56, -15, 0, 3, 0, 0, 21, 3, -1, 0, -10, -3, 43, 0, 37],
               [-19, 0, -5, 10, -3, 0, 0, 8, -1, -15, 10, 1, 0, 0, -1, -10, 0, 1, 0, 0, -2, -5, 0, -19],
               [-3, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 2, 0, 0, 0, -1, 0, -1, 0, 0, 0, 0, 0, -3],
               [2, -1, 2, 0, 0, -3, 1, 1, 0, 3, 0, 0, 1, 0, 0, 0, -1, 1, 0, -2, 0, 5, 0, 1],
               [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
               [0, 1, -1, -1, 0, 0, 0, -1, 0, 0, -1, 0, 0, 0, 2, 1, 0, 0, 0, 0, 2, -1, 0, 0],
               [22, 0, 8, -13, 3, 0, 0, -8, 1, 21, -10, -1, 0, 0, 1, 13, 3, -1, 0, 0, 2, 8, 0, 22],
               [0, 1, 1, -3, 0, 3, -1, -5, 0, 3, 0, 0, -1, 0, 0, 3, 9, -1, 1, 2, -1, -2, 0, 2],
               [4, -1, 0, 2, 0, -3, 1, 1, -2, -1, 1, -1, 1, 0, 0, -1, -1, 5, 0, -2, 0, 3, 0, 3],
               [0, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0, -1, 0, 0, 0],
               [-4, 6, -4, 0, 0, 15, -2, -2, 0, -10, 0, 0, -2, 0, 0, 0, 2, -2, 0, 13, 0, -23, 0, -2],
               [2, 0, -5, -2, -3, 0, 0, -1, 0, -3, -2, 0, 0, 0, 2, 2, -1, 0, -1, 0, 13, -5, 0, 2],
               [22, -11, 23, -9, 3, -31, 7, 2, 2, 43, -5, 0, 5, 0, -1, 8, -2, 3, 0, -23, -5, 58, 0, 17],
               [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
               [49, -2, 15, -21, 6, -2, 1, -15, 0, 37, -19, -3, 1, 0, 0, 22, 2, 3, 0, -2, 2, 17, 0, 48]]}
# FIBRE_7 is fibre_config(random.Random(7), 7, 2), pinned before the
# Clifford table became rows written straight into the report.
FIBRE_7 = {
    "dim": 7,
    "nonsmooth": [[1, 1, 0, 0, 1, 2, 1], [0, 0, -1, 0, -1, 0, -1]],
    "metric": [[6, 6, 0, -3, -1, -6, 1],
               [6, 21, 3, -9, -4, -12, 1],
               [0, 3, 3, 0, -3, 0, 0],
               [-3, -9, 0, 6, 0, 6, 0],
               [-1, -4, -3, 0, 4, 1, -1],
               [-6, -12, 0, 6, 1, 9, -1],
               [1, 1, 0, 0, -1, -1, 1]]}
# FIBRE_16 is fibre_config(random.Random(16), 16, 3), pinned before the
# pairing map took all e_i in one elimination and is_pseudo_metric read
# the kernel off the congruent diagonal.
FIBRE_16 = {
    "dim": 16,
    "nonsmooth": [[0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
                  [-1, 1, 0, 0, 0, 0, 0, 0, -1, 0, 0, 0, -1, 0, 2, 0],
                  [1, 0, -1, 0, -1, 0, 0, 0, 0, 1, 1, 1, 0, 0, -1, 1]],
    "metric": [[23, 1, 1, 1, 13, -3, 1, 24, -2, -1, 0, 0, 0, 0, 10, 2],
               [1, 5, 0, 1, 5, 0, 2, 0, -3, -2, 0, 0, -1, 0, -4, 2],
               [1, 0, 1, 1, 1, 1, 0, 0, -1, 0, 0, 0, 0, 0, 0, 1],
               [1, 1, 1, 11, 4, 1, -2, 0, -5, 2, 0, 2, 1, 0, -2, -2],
               [13, 5, 1, 4, 13, -1, 2, 13, -5, -2, 0, 1, -1, 0, 1, 3],
               [-3, 0, 1, 1, -1, 6, 0, -6, -1, 0, 0, 0, 0, 0, -2, 1],
               [1, 2, 0, -2, 2, 0, 5, 0, 0, -2, 0, 0, -1, 0, -1, 2],
               [24, 0, 0, 0, 13, -6, 0, 37, 0, 0, 3, 2, 0, 0, 12, -4],
               [-2, -3, -1, -5, -5, -1, 0, 0, 5, 0, 0, 0, 0, 0, 3, -1],
               [-1, -2, 0, 2, -2, 0, -2, 0, 0, 2, 0, 0, 1, 0, 1, -2],
               [0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 3, 0, 0, 0, 0, -3],
               [0, 0, 0, 2, 1, 0, 0, 2, 0, 0, 0, 2, 0, 0, 0, -1],
               [0, -1, 0, 1, -1, 0, -1, 0, 0, 1, 0, 0, 1, 0, 1, -1],
               [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
               [10, -4, 0, -2, 1, -2, -1, 12, 3, 1, 0, 0, 1, 0, 9, -1],
               [2, 2, 1, -2, 3, 1, 2, -4, -1, -2, -3, -1, -1, 0, -1, 7]]}
INLINE = [
    ("dual-metric-dim10", "dual-metric", FIBRE_10, 0,
     "bac3a97f62851168e7cfcdc59e145c9fc3a4f59548dd926eee1be05e664a4b53"),
    ("clifford-table-dim8", "clifford-table", FIBRE_8, 0,
     "21187c1809b857773ab8ae7e9c3a7e264e896e5a70dbc25901f136c8f26fea4c"),
    ("clifford-table-dim7", "clifford-table", FIBRE_7, 0,
     "eedad2c7d188712bccbf3f50797d3698bc21197a99b6735778a521b1fd0676da"),
    ("dual-metric-dim24", "dual-metric", FIBRE_24, 0,
     "f878fccdd0dd8b7c9aaf139169c046a188883863ada68fd304b0907a7ff9dc51"),
    ("dual-metric-dim16", "dual-metric", FIBRE_16, 0,
     "e0e8fd1a50a2a9de4272aaefab83f4ece2ba733b8062a592cf4262f6ed073745"),
    # the zero-diagonal direction e1 is skipped as a pivot and comes last
    ("clifford-table-kernel-first", "clifford-table",
     {"dim": 4, "nonsmooth": [[1, 0, 0, 0]],
      "metric": [[0, 0, 0, 0], [0, 2, 1, 0], [0, 1, 1, 0], [0, 0, 0, 3]]}, 0,
     "e9c8eb7a689c9cd3c4efbdea98e9741bd17d3b69dbd9e588bad0172be72b59a4"),
    ("check-pair-pivot", "check",
     {"dim": 3, "metric": [[0, 1, 0], [1, 0, 2], [0, 2, 0]]}, 1,
     "f800533ff873ada78fac393cb7b245d4629d90143c392554f57ccbfe87d5b341"),
]

# Three Dirac sections over an exp chart glued with scale 2 to a chart whose
# h has a cos; the points include both branches of the glue point.  Pinned
# while each value was still evaluated per section and point.
DIRAC_EXP = {
    "name": "exp-three-sections",
    "charts": [{"id": "a", "h": "exp(x)"}, {"id": "b", "h": "(1+x^2)/(3+cos(x))"}],
    "gluings": [{"points": [["a", "0"], ["b", "0"]], "scale": "2"}],
    "dirac": {
        "sections": [
            {"a": ["x^3-(4/3)*x+1/7", "exp(-x)"], "b": ["(-4/3)*x^2+x", "1/(x+2)"]},
            {"a": ["1/(1+x^2)", "x"], "b": ["2", "x^4-1/3"]},
            {"a": ["exp(x)*x", "cos(2*x)"], "b": ["(x-1)/(x+3)", "-x"]}],
        "points": [["a", "0"], ["b", "0"], ["a", "-1"], ["a", "1/3"], ["a", "5/2"],
                   ["b", "1/2"], ["b", "-7/4"], ["a", "1e-3"], ["b", "3/2"]]}}
DIRAC_EXP_DIGEST = "3cf201411dbca3af8499a372c8c28b7ee23e361a61f71b3d70bef2e9720f9cda"


def _report(command, config, seed):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, os.path.join(CONFIGS, f"{config}.json"),
                     "--seed", str(seed)])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("command,config,seed,code,digest", GOLDEN,
                         ids=[f"{c}-{f}-{s}" for c, f, s, _, _ in GOLDEN])
def test_report_bytes_are_pinned(command, config, seed, code, digest):
    assert _report(command, config, seed) == (code, digest)


@pytest.mark.parametrize("command,fibre,code,digest",
                         [row[1:] for row in INLINE],
                         ids=[row[0] for row in INLINE])
def test_fibre_report_bytes_are_pinned(tmp_path, command, fibre, code, digest):
    path = tmp_path / "fibre.json"
    path.write_text(json.dumps({"fibre": fibre}))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main([command, str(path)])
    assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (
        code, digest)


def test_dirac_report_bytes_are_pinned(tmp_path):
    path = tmp_path / "dirac.json"
    path.write_text(json.dumps(DIRAC_EXP))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        got = main(["dirac", str(path)])
    assert (got, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (
        0, DIRAC_EXP_DIGEST)
