"""Golden exit codes and output bytes of a fixed set of CLI commands.

Each case runs `main` in-process and records its exit code and everything
it prints (the CSV for detect/sweep/verify, the dump for `list`, error
lines), plus the bytes of every file it writes.  Each case runs in a fresh
temporary working directory, so `--out` names are relative and the bytes
are stable; a case listed in SETUP first runs that command there.  The set
holds criterion 11's four commands, `detect-clique` under every strategy on
one graph (and with q > n), `detect-cycle` for ell = 4..7 (plus cycle-free
and exit-3 cases, and two long lengths), a cost-only sweep of every algo (blackbox also with
`--packing off`, plus1 also with degenerate n), full-mode sweeps of cliques and of both cycle parities,
`list --p 3` as text and as `--json`, `detect-clique` under every strategy
and one `detect-cycle` with every cost flag set, `--json` and `--out` for every
row-writing command, `gen --out --json`, and `fit` as text and as `--json`
on a CSV that a sweep wrote.  A refactor must leave every entry identical.

Regenerate only after an intended change to answers or costs:

    PYTHONPATH=src python tests/test_cli_golden.py --regen
"""

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from qcongest.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

CLIQUE_GRAPH = ["--gen", "gnp,48,0.5,0,9", "--seed", "3"]
CYCLE_GRAPH = ["--gen", "gnp,24,0.15,0,4", "--seed", "1"]
SWEEP_NS = ["--n-list", "64,256,1024,4096"]
COST_FLAGS = ["--fail-prob", "0.5", "--reps", "2", "--c-grover", "3/2"]

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
    # long lengths: a C10 query past 2^26 repetitions draws proposals, and
    # the C60 search on a sparse graph is cut after CYCLE_SEARCH_STEPS steps
    "cycle-10-proposals": ["detect-cycle", "--gen", "gnp,16,0.35,0,0", "--ell", "10"],
    "cycle-60-cut": ["detect-cycle", "--gen", "gnp,73,0.03125,0,0", "--ell", "60"],
    "sweep-triangle15": ["sweep", "--algo", "triangle15", *SWEEP_NS],
    "sweep-plus1": ["sweep", "--algo", "plus1", "--p", "4", *SWEEP_NS],
    "sweep-nested": ["sweep", "--algo", "nested", "--p", "3", "--t", "2", *SWEEP_NS],
    "sweep-blackbox": ["sweep", "--algo", "blackbox", "--t", "2", *SWEEP_NS],
    "sweep-blackbox-literal": ["sweep", "--algo", "blackbox", "--t", "2", "--packing", "off",
                               *SWEEP_NS],
    "sweep-sparse": ["sweep", "--algo", "sparse", "--t", "2", *SWEEP_NS,
                     "--m-list", "256,4096,32768,262144"],
    # q = 4 > n at n = 1, 2: degenerate rows that charge nothing
    "sweep-plus1-degenerate": ["sweep", "--algo", "plus1", "--n-list", "1,2,64"],
    "sweep-odd-cycle": ["sweep", "--algo", "odd-cycle", "--ell", "7", *SWEEP_NS],
    "sweep-even-cycle": ["sweep", "--algo", "even-cycle", "--ell", "6", *SWEEP_NS,
                         "--m-list", "256,4096,32768,262144"],
    "sweep-full": ["sweep", "--algo", "auto", "--mode", "full", "--q", "4",
                   "--n-list", "32,40,48", "--edge-prob", "0.5"],
    "list-text": ["list", "--gen", "gnp,40,0.5,0,1", "--p", "3"],
    "list-json": ["list", "--gen", "gnp,40,0.5,0,1", "--p", "3", "--json"],
    "clique-degenerate": ["detect-clique", "--gen", "gnp,20,0.3,0,1", "--q", "30"],
    "sweep-full-odd-cycle": ["sweep", "--algo", "odd-cycle", "--mode", "full", "--ell", "5",
                             "--n-list", "16,24", "--edge-prob", "0.3"],
    "sweep-full-even-cycle": ["sweep", "--algo", "even-cycle", "--mode", "full",
                              "--n-list", "16,24", "--edge-prob", "0.3"],
    "json-detect-clique": ["detect-clique", *CLIQUE_GRAPH, "--q", "5", "--json"],
    "json-detect-cycle": ["detect-cycle", *CYCLE_GRAPH, "--ell", "5", "--json"],
    "json-sweep": ["sweep", "--algo", "plus1", "--p", "4", *SWEEP_NS, "--json"],
    "json-verify": ["verify", "--q", "4", "--trials", "4", "--seed", "1", "--json"],
    "out-detect-clique": ["detect-clique", *CLIQUE_GRAPH, "--q", "4", "--out", "rows.csv",
                          "--json"],
    "out-sweep": ["sweep", "--algo", "triangle15", *SWEEP_NS, "--out", "rows.csv"],
    "out-sweep-json": ["sweep", "--algo", "nested", "--p", "3", "--t", "2", *SWEEP_NS,
                       "--out", "rows.csv", "--json"],
    "out-verify": ["verify", "--q", "4", "--trials", "4", "--seed", "1", "--out", "rows.csv"],
    "out-verify-json": ["verify", "--q", "5", "--strategy", "sparse", "--trials", "4",
                        "--out", "rows.csv", "--json"],
    "out-list": ["list", "--gen", "gnp,40,0.5,0,1", "--p", "3", "--out", "cliques.txt"],
    "out-list-json": ["list", "--gen", "gnp,40,0.5,0,1", "--p", "3", "--out", "cliques.txt",
                      "--json"],
    "gen-out-json": ["gen", "--gen", "planted_clique,64,0.2,5,1", "--out", "g.txt", "--json"],
    "fit-text": ["fit", "--in", "rows.csv"],
    "fit-json": ["fit", "--in", "rows.csv", "--x-col", "n", "--y-col", "rounds_quantum",
                 "--json"],
    # every cost flag at once; fail-prob draws differ in found only
    **{f"flags-clique-{s}": ["detect-clique", *CLIQUE_GRAPH, "--q",
                             "3" if s == "triangle15" else "5", "--strategy", s, *COST_FLAGS]
       for s in ("triangle15", "plus1", "nested", "blackbox", "sparse")},
    "flags-cycle-5": ["detect-cycle", *CYCLE_GRAPH, "--ell", "5", *COST_FLAGS],
}

# commands run (unrecorded) in the case's working directory before the case
SETUP = {
    name: ["sweep", "--algo", "triangle15", "--mode", "cost-only", "--n-list",
           ",".join(str(2**k) for k in range(10, 17)), "--out", "rows.csv"]
    for name in ("fit-text", "fit-json")
}


def run(name):
    """Exit code, output and written files of case `name`, in a fresh directory."""
    args = CASES[name]
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        os.chdir(work)
        try:
            if name in SETUP:
                assert main(SETUP[name]) == 0
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(list(args))
            files = {f: Path(f).read_text() for f in sorted(os.listdir(work))}
        finally:
            os.chdir(home)
    record = {"args": list(args), "exit": code, "stdout": out.getvalue(),
              "stderr": err.getvalue()}
    if files:
        record["files"] = files
    return record


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_case_set_unchanged(golden):
    assert sorted(golden) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(golden, name):
    assert run(name) == golden[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: test_cli_golden.py --regen")
    observed = {name: run(name) for name in sorted(CASES)}
    GOLDEN.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
