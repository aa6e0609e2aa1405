"""Golden exit codes and output bytes of a fixed set of CLI commands.

Each case runs `main` in-process and records its exit code and everything
it prints (the CSV for detect/sweep/verify, the dump for `list`, error
lines).  The set holds criterion 11's four commands, `detect-clique` under
every strategy on one graph, `detect-cycle` for ell = 4..7 (plus cycle-free
and exit-3 cases), a cost-only sweep of every algo (blackbox also with
`--packing off`), one full-mode sweep and `list --p 3` as text and as
`--json`.  A refactor must leave every entry identical.

Regenerate only after an intended change to answers or costs:

    PYTHONPATH=src python tests/test_cli_golden.py --regen
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from qcongest.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

CLIQUE_GRAPH = ["--gen", "gnp,48,0.5,0,9", "--seed", "3"]
CYCLE_GRAPH = ["--gen", "gnp,24,0.15,0,4", "--seed", "1"]
SWEEP_NS = ["--n-list", "64,256,1024,4096"]

CASES = {
    "c11-detect-clique": ["detect-clique", "--gen", "gnp,48,0.5,0,9", "--q", "5",
                          "--seed", "3"],
    "c11-sweep": ["sweep", "--algo", "triangle15", "--mode", "cost-only", "--n-list",
                  ",".join(str(2**k) for k in range(10, 17))],
    "c11-verify": ["verify", "--q", "4", "--trials", "8", "--seed", "1"],
    "c11-detect-cycle": ["detect-cycle", "--gen", "planted_cycle,48,0.0,5,3", "--ell", "5",
                         "--seed", "2"],
    "clique-triangle15": ["detect-clique", *CLIQUE_GRAPH, "--q", "3",
                          "--strategy", "triangle15"],
    "clique-plus1": ["detect-clique", *CLIQUE_GRAPH, "--q", "5", "--strategy", "plus1"],
    "clique-nested": ["detect-clique", *CLIQUE_GRAPH, "--q", "5", "--strategy", "nested"],
    "clique-blackbox": ["detect-clique", *CLIQUE_GRAPH, "--q", "5", "--strategy", "blackbox"],
    "clique-sparse": ["detect-clique", *CLIQUE_GRAPH, "--q", "5", "--strategy", "sparse"],
    **{f"cycle-{ell}": ["detect-cycle", *CYCLE_GRAPH, "--ell", str(ell)]
       for ell in (4, 5, 6, 7)},
    "cycle-5-none": ["detect-cycle", "--gen", "gnp,24,0.03,0,0", "--ell", "5"],
    "cycle-6-none": ["detect-cycle", "--gen", "gnp,24,0.03,0,0", "--ell", "6"],
    # a cycle found away from node 0 meets the leader fault: exit 3
    "cycle-5-apart": ["detect-cycle", "--gen", "gnp,24,0.03,0,1", "--ell", "5"],
    "cycle-6-apart": ["detect-cycle", "--gen", "gnp,24,0.05,0,0", "--ell", "6"],
    "sweep-triangle15": ["sweep", "--algo", "triangle15", *SWEEP_NS],
    "sweep-plus1": ["sweep", "--algo", "plus1", "--p", "4", *SWEEP_NS],
    "sweep-nested": ["sweep", "--algo", "nested", "--p", "3", "--t", "2", *SWEEP_NS],
    "sweep-blackbox": ["sweep", "--algo", "blackbox", "--t", "2", *SWEEP_NS],
    "sweep-blackbox-literal": ["sweep", "--algo", "blackbox", "--t", "2", "--packing", "off",
                               *SWEEP_NS],
    "sweep-sparse": ["sweep", "--algo", "sparse", "--t", "2", *SWEEP_NS,
                     "--m-list", "256,4096,32768,262144"],
    "sweep-odd-cycle": ["sweep", "--algo", "odd-cycle", "--ell", "7", *SWEEP_NS],
    "sweep-even-cycle": ["sweep", "--algo", "even-cycle", "--ell", "6", *SWEEP_NS,
                         "--m-list", "256,4096,32768,262144"],
    "sweep-full": ["sweep", "--algo", "auto", "--mode", "full", "--q", "4",
                   "--n-list", "32,40,48", "--edge-prob", "0.5"],
    "list-text": ["list", "--gen", "gnp,40,0.5,0,1", "--p", "3"],
    "list-json": ["list", "--gen", "gnp,40,0.5,0,1", "--p", "3", "--json"],
}


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return {"args": list(args), "exit": code, "stdout": out.getvalue(),
            "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_case_set_unchanged(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(golden, name):
    assert run(CASES[name]) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_cli_golden.py --regen")
    observed = {name: run(args) for name, args in sorted(CASES.items())}
    GOLDEN.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
