"""CLI commands, CSV round-trips, slope fitting, determinism."""

import contextlib
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcongest import cli, cliquedetect
from qcongest.graph import GEN_KINDS
from qcongest.cli import (
    CSV_HEADER,
    ResultRow,
    fit_slope,
    main,
    rows_from_csv,
    rows_to_csv,
)


# invalid invocations: each must exit 2 with an "error:" line, no traceback
USAGE_ERRORS = [
    ["detect-clique", "--q", "4"],  # no graph source
    ["sweep", "--algo", "nosuch", "--n-list", "8,16,32"],
    ["list", "--p", "1", "--gen", "gnp,10,0.5,0,1"],
    ["list", "--p", "0", "--gen", "gnp,10,0.5,0,1"],
    ["detect-clique", "--q", "2", "--gen", "gnp,10,0.5,0,1"],
    ["verify", "--q", "2", "--trials", "1"],
    ["sweep", "--algo", "plus1", "--p", "1", "--n-list", "64,128"],
    ["sweep", "--algo", "auto", "--q", "2", "--n-list", "64,128"],
    ["detect-cycle", "--ell", "3", "--gen", "planted_cycle,8,0.0,5,1"],
    ["detect-cycle", "--ell", "9", "--gen", "planted_cycle,8,0.0,5,1"],
    ["detect-cycle", "--ell", "4", "--gen", "path,3,0,0,0"],
    ["detect-cycle", "--ell", "5", "--reps", "0", "--gen", "planted_cycle,8,0.0,5,1"],
    ["detect-cycle", "--ell", "5", "--fail-prob", "1.5", "--gen", "planted_cycle,8,0.0,5,1"],
    ["detect-cycle", "--ell", "5", "--c-grover", "abc", "--gen", "planted_cycle,8,0.0,5,1"],
    ["sweep", "--algo", "even-cycle", "--ell", "5", "--n-list", "64"],
    ["sweep", "--algo", "odd-cycle", "--ell", "4", "--n-list", "64,128"],
    ["sweep", "--algo", "odd-cycle", "--mode", "full", "--ell", "4", "--n-list", "40"],
    ["fit", "--in", "no/such/dir/rows.csv"],
    ["sweep", "--algo", "nested", "--p", "3", "--t", "3", "--n-list", "64"],
    ["sweep", "--algo", "blackbox", "--t", "0", "--n-list", "64,128"],
    ["detect-clique", "--strategy", "triangle15", "--q", "3", "--gen", "gnp,20,0.3,0,1"],
    ["verify", "--q", "4", "--strategy", "triangle15", "--trials", "1"],
    ["detect-clique", "--graph", "no/such/dir/graph.txt", "--q", "4"],
    ["detect-clique", "--gen", "gnp,10,0.5,0,1", "--q", "3", "--out", "no/such/dir/x.csv"],
    ["detect-cycle", "--gen", "planted_cycle,8,0.0,5,1", "--ell", "5",
     "--out", "no/such/dir/x.csv"],
    ["sweep", "--algo", "triangle15", "--n-list", "64", "--out", "no/such/dir/x.csv"],
    ["verify", "--q", "4", "--trials", "1", "--out", "no/such/dir/x.csv"],
    ["list", "--p", "3", "--gen", "gnp,10,0.5,0,1", "--out", "no/such/dir/x.txt"],
    ["gen", "--gen", "gnp,10,0.5,0,1", "--out", "no/such/dir/g.txt"],
    ["sweep", "--algo", "odd-cycle", "--n-list", "0,64"],
    ["sweep", "--algo", "plus1", "--n-list", "64,-1"],
    ["sweep", "--algo", "triangle15", "--n-list", "8", "--m-list", "-5"],
    ["sweep", "--algo", "triangle15", "--n-list", "8", "--m-list", "29"],
    ["sweep", "--algo", "odd-cycle", "--n-list", "4", "--ell", "5"],
    ["sweep", "--algo", "even-cycle", "--n-list", "64,3"],
    ["verify", "--q", "4", "--trials", "0"],
    ["detect-clique", "--gen", "gnp,40,0.5,0,1", "--q", "7", "--strategy", "plus1"],
    ["verify", "--q", "7", "--strategy", "plus1", "--trials", "3"],
    # cost-only plans that full runs refuse
    ["sweep", "--algo", "plus1", "--n-list", "4"],
    ["sweep", "--algo", "triangle15", "--n-list", "3,16"],
    ["sweep", "--algo", "plus1", "--p", "2", "--n-list", "64"],
    ["sweep", "--algo", "plus1", "--t", "3", "--n-list", "64"],
    ["sweep", "--algo", "triangle15", "--p", "5", "--t", "2", "--n-list", "64"],
    # plan flags that the sweep's run would not read
    ["sweep", "--mode", "full", "--algo", "nested", "--p", "3", "--t", "2", "--n-list", "40"],
    ["sweep", "--algo", "nested", "--q", "6", "--n-list", "64"],
    ["sweep", "--algo", "plus1", "--ell", "2", "--n-list", "64"],
    ["sweep", "--algo", "even-cycle", "--t", "2", "--n-list", "64"],
    # flags that a cost-only sweep would not read, and --m-list in full mode
    ["sweep", "--algo", "triangle15", "--edge-prob", "0.9", "--n-list", "64"],
    ["sweep", "--algo", "triangle15", "--fail-prob", "0.5", "--n-list", "64"],
    ["sweep", "--algo", "odd-cycle", "--fail-prob", "0", "--n-list", "64"],
    ["sweep", "--algo", "even-cycle", "--edge-prob", "0.5", "--n-list", "64"],
    ["sweep", "--mode", "full", "--algo", "triangle15", "--n-list", "16", "--m-list", "5"],
    ["sweep", "--mode", "full", "--algo", "auto", "--edge-prob", "1.5", "--n-list", "16"],
    # --packing is a clique flag: cycle rows and cycle sweeps refuse it
    ["detect-cycle", "--ell", "5", "--packing", "off", "--gen", "planted_cycle,8,0.0,5,1"],
    ["sweep", "--algo", "odd-cycle", "--packing", "off", "--n-list", "64"],
    ["sweep", "--mode", "full", "--algo", "even-cycle", "--packing", "on", "--n-list", "16"],
    # lengths that cycledetect.inapplicable refuses
    ["detect-cycle", "--ell", "0", "--gen", "planted_cycle,8,0.0,5,1"],
    ["sweep", "--algo", "even-cycle", "--ell", "0", "--n-list", "64"],
    ["sweep", "--algo", "odd-cycle", "--mode", "full", "--ell", "3", "--n-list", "16"],
    # ell >= 143: the repetition count is past a float's range
    ["sweep", "--algo", "odd-cycle", "--ell", "143", "--n-list", "200"],
    ["sweep", "--algo", "even-cycle", "--ell", "144", "--n-list", "200"],
    ["sweep", "--algo", "even-cycle", "--ell", "150", "--n-list", "200"],
    ["detect-cycle", "--gen", "planted_cycle,146,0.0,146,1", "--ell", "146"],
    ["detect-cycle", "--gen", "planted_cycle,145,0.0,145,1", "--ell", "143"],
    # odd ell on n past ~1.34e154: the failure target 1/n^2 is past a float's range
    ["sweep", "--algo", "odd-cycle", "--ell", "5", "--n-list", str(10**155)],
    # n above graph.MAX_NODES, refused before anything is allocated
    ["detect-cycle", "--ell", "5", "--gen", "empty,100000000000,0,0,0"],
    ["list", "--p", "2", "--gen", "empty,65537,0,0,0"],
    ["sweep", "--mode", "full", "--algo", "auto", "--n-list", "16,100000000000"],
    # --gen specs that generate cannot build
    ["detect-clique", "--gen", "gnp,-1,0.5,0,1", "--q", "3"],
    ["detect-cycle", "--gen", "cycle,2,0,0,0", "--ell", "4"],
    ["detect-cycle", "--gen", "planted_cycle,8,0.0,2,1", "--ell", "5"],
]


class TestFitSlope:
    def test_exact_power_law(self):
        xs = [2**k for k in range(10, 17)]
        ys = [x**0.2 for x in xs]
        assert abs(fit_slope(xs, ys) - 0.2) < 1e-9

    def test_constant(self):
        xs = [2**k for k in range(10, 17)]
        assert fit_slope(xs, [7.0] * len(xs)) == 0.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fit_slope([1, 2], [1, 2])
        with pytest.raises(ValueError):
            fit_slope([1, 2, 0], [1, 2, 3])


class TestCsv:
    def test_roundtrip(self):
        rows = [
            ResultRow(64, 100, "nested", "p=3;t=1", 42, 10, 0, 30, 2, 5, True, 7),
            ResultRow(128, 0, "sweep", "x", 9, 9, 0, 0, 0, 0, None, 0),
        ]
        text = rows_to_csv(rows)
        assert text.splitlines()[0] == CSV_HEADER
        back = rows_from_csv(text)
        assert back == rows

    def test_component_sum(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--algo", "triangle15", "--mode", "cost-only",
                     "--n-list", "1024,2048,4096", "--out", str(out)]) == 0
        rows = rows_from_csv(out.read_text())
        assert len(rows) == 3
        for r in rows:
            assert r.rounds_total == (r.rounds_route + r.rounds_broadcast
                                      + r.rounds_quantum + r.rounds_converge)
            assert r.found is None


class TestCommands:
    def test_gen_detect_roundtrip(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        assert main(["gen", "--gen", "planted_clique,64,0.2,5,1",
                     "--out", str(gpath)]) == 0
        assert main(["detect-clique", "--graph", str(gpath), "--q", "5",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["found"] is True

    def test_detect_cycle_json(self, capsys):
        rc = main(["detect-cycle", "--gen", "planted_cycle,48,0.0,5,3",
                   "--ell", "5", "--json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["algo"] == "odd-cycle"
        assert payload["found"] is True

    def test_list_dump(self, capsys):
        rc = main(["list", "--gen", "complete,4,0,0,0", "--p", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if ": " in l]
        assert len(lines) == 4  # K4 has 4 triangles

    def test_a_graph_file_that_is_not_utf8_is_a_format_error(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_bytes(b"# \xc3\xa9 is utf-8\n5 1\n0 \xff\n")
        assert main(["detect-cycle", "--ell", "5", "--graph", str(gpath)]) == 2
        assert capsys.readouterr().err == "error: line 3: not utf-8 text\n"

    def test_a_graph_file_above_the_node_limit_is_a_format_error(self, tmp_path, capsys):
        gpath = tmp_path / "g.txt"
        gpath.write_text("100000000000 0\n")
        assert main(["detect-cycle", "--ell", "5", "--graph", str(gpath)]) == 2
        assert capsys.readouterr().err == \
            "error: line 1: n = 100000000000 exceeds the 65536-node limit\n"

    def test_list_of_the_empty_graph(self, capsys):
        assert main(["list", "--gen", "empty,0,0,0,0", "--p", "3"]) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("p", ["11", "100000"])
    def test_a_degenerate_list_lists_and_charges_nothing(self, capsys, p):
        # p > n: no clique, and nothing to route, as detect-clique answers it
        assert main(["list", "--gen", "gnp,10,0.5,0,1", "--p", p, "--json"]) == 0
        assert capsys.readouterr().out == '{"cliques": 0, "rounds_total": 0}\n'

    def test_a_sparse_sweep_at_a_large_t_finishes(self, capsys):
        # at t = 40, _sparse_costs takes roots of index up to 2^39
        assert main(["sweep", "--algo", "sparse", "--p", "2", "--t", "40",
                     "--n-list", "64,128"]) == 0
        rows = rows_from_csv(capsys.readouterr().out)
        assert [r.n for r in rows] == [64, 128]
        assert 0 < rows[0].rounds_total < rows[1].rounds_total

    @pytest.mark.parametrize("command", [["gen", "--out", "g.txt"], ["list", "--p", "3"]])
    @pytest.mark.parametrize("flag", [["--seed", "1"], ["--c-grover", "2"], ["--reps", "7"],
                                      ["--fail-prob", "0.5"], ["--packing", "off"]])
    def test_gen_and_list_take_no_search_flags(self, tmp_path, monkeypatch, capsys,
                                               command, flag):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:  # argparse's own usage error
            main([*command, "--gen", "gnp,10,0.5,0,1", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "g.txt").exists()

    def test_sweep_monotone_and_fit(self, tmp_path, capsys):
        out = tmp_path / "tri.csv"
        n_list = ",".join(str(2**k) for k in range(10, 17))
        assert main(["sweep", "--algo", "triangle15", "--mode", "cost-only",
                     "--n-list", n_list, "--out", str(out)]) == 0
        rows = rows_from_csv(out.read_text())
        totals = [r.rounds_total for r in rows]
        assert totals == sorted(totals)  # monotone non-decreasing
        assert main(["fit", "--in", str(out), "--x-col", "n",
                     "--y-col", "rounds_total", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert 0.15 <= payload["slope"] <= 0.25

    def test_verify_small(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--q", "4", "--trials", "12", "--seed", "0",
                     "--out", str(out)]) == 0
        rows = rows_from_csv(out.read_text())
        assert len(rows) == 12
        assert all(r.found is not None for r in rows)

    def test_usage_errors_exit_2(self, capsys):
        for argv in USAGE_ERRORS:
            assert main(argv) == 2, argv
            assert capsys.readouterr().err.startswith("error: "), argv

    @pytest.mark.parametrize("spec", ["complete,20000,0,0,0", "gnp,65536,0.5,0,1"])
    def test_dense_gen_specs_are_refused_before_anything_is_built(self, monkeypatch, capsys,
                                                                   spec):
        def refuse(*args):
            raise AssertionError("a refused spec reached the generator")

        monkeypatch.setattr(cli, "generate", refuse)
        assert main(["gen", "--gen", spec, "--out", "no/such/dir/g.txt"]) == 2
        assert "edge limit" in capsys.readouterr().err

    @pytest.mark.parametrize("text,cols", [
        (CSV_HEADER + "\n64,1,x,p,5,0,0,5,0,0,,0\n", ()),  # one row: too few to fit
        ("a,b\n1,2\n", ()),  # not a result CSV
        (None, ("--x-col", "nosuch")),
        (None, ("--y-col", "found")),  # blank in cost-only rows
    ], ids=["one-row", "not-results", "bad-column", "blank-column"])
    def test_fit_bad_input_exits_2(self, tmp_path, capsys, text, cols):
        path = tmp_path / "rows.csv"
        if text is None:
            assert main(["sweep", "--algo", "triangle15", "--n-list", "64,128,256",
                         "--out", str(path)]) == 0
        else:
            path.write_text(text)
        assert main(["fit", "--in", str(path), *cols]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("extra,message", [
        ((), "sweep needs --n-list"),
        (("--n-list", "40", "--m-list", "5"), "takes no --m-list"),
    ], ids=["no-n-list", "m-list"])
    def test_full_mode_sweep_usage_errors(self, capsys, extra, message):
        assert main(["sweep", "--algo", "auto", "--mode", "full", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    def test_a_detection_row_plans_once(self, monkeypatch, capsys):
        calls = []
        candidates = cliquedetect._candidate_plans

        def counted(*args):
            calls.append(args)
            return candidates(*args)

        monkeypatch.setattr(cliquedetect, "_candidate_plans", counted)
        assert main(["detect-clique", "--gen", "gnp,48,0.5,0,9", "--q", "5"]) == 0
        assert len(calls) == 1  # the row plans once, and runs that plan

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["detect-clique", "--gen", "gnp,48,0.5,0,9", "--q", "4",
                "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_verify_honours_packing(self, tmp_path):
        # trial 0 of seed 0 is G(56, 0.2) with seed 0; detect-clique charges
        # 84 rounds (72 quantum) for blackbox with packing off on it
        out, ref = tmp_path / "v.csv", tmp_path / "d.csv"
        assert main(["verify", "--q", "7", "--strategy", "blackbox", "--trials", "1",
                     "--packing", "off", "--out", str(out)]) == 0
        assert main(["detect-clique", "--gen", "gnp,56,0.2,0,0", "--q", "7",
                     "--strategy", "blackbox", "--packing", "off", "--out", str(ref)]) == 0
        (row,), (want,) = rows_from_csv(out.read_text()), rows_from_csv(ref.read_text())
        assert (row.n, row.m) == (want.n, want.m) == (56, 310)
        assert (row.rounds_total, row.rounds_quantum) == (84, 72)
        assert (row.rounds_total, row.rounds_quantum) == (want.rounds_total,
                                                          want.rounds_quantum)

    def test_verify_labels_degenerate_trials(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--q", "70", "--trials", "2", "--out", str(out)]) == 0
        rows = rows_from_csv(out.read_text())
        assert len(rows) == 2
        for r in rows:
            assert r.algo == "degenerate"
            assert "strategy=degenerate;p=0;t=0;" in r.params
            assert r.rounds_total == 0 and r.found is False

    def test_full_mode_sweep(self, tmp_path):
        out = tmp_path / "full.csv"
        assert main(["sweep", "--algo", "auto", "--mode", "full", "--q", "4",
                     "--n-list", "32,40,48", "--edge-prob", "0.5",
                     "--out", str(out)]) == 0
        rows = rows_from_csv(out.read_text())
        assert len(rows) == 3 and all(r.found is not None for r in rows)


class TestCostParamFlags:
    def test_fail_prob_injection_via_cli(self, capsys):
        args = ["detect-clique", "--gen", "planted_clique,48,0.1,5,2",
                "--q", "5", "--fail-prob", "0.999999", "--json"]
        assert main(args) == 0
        payload = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert payload["found"] is False  # injected miss, never a false yes

    def test_c_grover_and_reps_scale_quantum_rounds(self, tmp_path):
        base, scaled = tmp_path / "b.csv", tmp_path / "s.csv"
        common = ["sweep", "--algo", "triangle15", "--mode", "cost-only",
                  "--n-list", "4096"]
        assert main(common + ["--out", str(base)]) == 0
        assert main(common + ["--c-grover", "2", "--reps", "3",
                              "--out", str(scaled)]) == 0
        b = rows_from_csv(base.read_text())[0]
        s = rows_from_csv(scaled.read_text())[0]
        from qcongest.cliquedetect import _triangle_costs
        from qcongest.qsearch import QuantumCostParams, grover_cost

        (domain,), setups, query = _triangle_costs(4096, 4096 * 4095 // 2)
        assert setups == ()  # one flat level: the triple prices as grover_cost
        assert b.rounds_quantum == grover_cost(domain, query)
        assert s.rounds_quantum == grover_cost(
            domain, query, QuantumCostParams(c_grover=2, reps=3)
        )
        assert s.rounds_route == b.rounds_route

    def test_packing_off_increases_blackbox_cost(self, tmp_path):
        on, off = tmp_path / "on.csv", tmp_path / "off.csv"
        common = ["sweep", "--algo", "blackbox", "--t", "2", "--mode",
                  "cost-only", "--n-list", "4096"]
        assert main(common + ["--packing", "on", "--out", str(on)]) == 0
        assert main(common + ["--packing", "off", "--out", str(off)]) == 0
        r_on = rows_from_csv(on.read_text())[0]
        r_off = rows_from_csv(off.read_text())[0]
        assert r_off.rounds_total > r_on.rounds_total


class TestBlackboxAtLargeT:
    """A cost-only blackbox sweep at large t prices n^(1 - 2^-(t-1)) without
    forming n^(2^(t-1) - 1); before, t = 25 ran for minutes and t = 40
    ended in a MemoryError."""

    @pytest.mark.parametrize("t", [25, 40])
    def test_sweep_finishes(self, t):
        src = Path(cliquedetect.__file__).resolve().parents[1]
        run = subprocess.run(
            [sys.executable, "-m", "qcongest.cli", "sweep", "--algo", "blackbox", "--p", "2",
             "--t", str(t), "--n-list", "64,128"],
            capture_output=True, text=True, timeout=10,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert (run.returncode, run.stderr) == (0, "")
        rows = rows_from_csv(run.stdout)
        assert [(r.n, r.algo) for r in rows] == [(64, "blackbox"), (128, "blackbox")]
        assert 0 < rows[0].rounds_quantum < rows[1].rounds_quantum


def run_within(argv, seconds):
    """(exit code, stderr) of main(argv) in this process, argparse's exit
    included; TimeoutError if it runs past `seconds` (signal.alarm on this
    process)."""
    def out_of_time(signum, frame):
        raise TimeoutError(f"over {seconds} s: {argv}")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.alarm(seconds)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:
        code = exc.code
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return code, err.getvalue()


class TestCostOnlySweepFlags:
    """Every cost-only sweep, whatever its flags, ends with exit 0 or 2 and
    no traceback, within a time budget per run.  Runs in this process."""

    CYCLE_ALGOS = ("odd-cycle", "even-cycle")
    ALGOS = (*cliquedetect.STRATEGIES, "auto", *CYCLE_ALGOS)
    SECONDS = 10  # per run; a run takes about 0.1 s

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_every_run_exits_0_or_2(self, data):
        draw = data.draw
        algo = draw(st.sampled_from(self.ALGOS), label="algo")
        cycle = algo in self.CYCLE_ALGOS
        # half the runs take only flags that their sweep reads, in its range
        stray = draw(st.booleans(), label="stray flags")
        # sizes of 1 to 201 digits, up to 10^200
        sizes = st.integers(1, 201).flatmap(
            lambda d: st.integers(10 ** (d - 1), min(10**d - 1, 10**200)))
        ns = draw(st.lists(sizes, min_size=1, max_size=3), label="--n-list")
        ms = st.lists(st.integers(0, 10**200), min_size=1, max_size=3) if stray else st.tuples(
            *(st.integers(0, n * (n - 1) // 2) for n in ns))
        ell = st.integers(1, 320)
        if cycle and not stray:
            ell = ell.filter(lambda e: e % 2 == (algo == "odd-cycle"))
        argv = ["sweep", "--algo", algo, "--n-list", ",".join(map(str, ns))]
        for flag, values, read in (
                ("--ell", ell, cycle), ("--p", st.integers(1, 300), not cycle),
                ("--t", st.integers(1, 300), not cycle),
                ("--m-list", ms.map(lambda m: ",".join(map(str, m))), True),
                ("--packing", st.sampled_from(["on", "off"]), not cycle)):
            if (stray or read) and draw(st.booleans(), label=f"{flag}?"):
                argv += [flag, str(draw(values, label=flag))]

        code, err = run_within(argv, self.SECONDS)
        assert code in (0, 2), (argv, code, err)
        assert "Traceback" not in err, argv


class TestDetectCycleFlags:
    """Every detect-cycle run on a small generated graph, whatever its
    flags, ends with exit 0, 2 or 3 and no traceback, within a time budget
    per run.  Runs in this process.

    Graphs of up to 48 nodes take any density.  Longer lengths, up to 320,
    are drawn on graphs of a few more nodes than the length, whose random
    edges are sparse (edge_prob at most 4/n), so that a cycle of that
    length can exist."""

    KINDS = (*GEN_KINDS, "nosuch")
    SECONDS = 10  # per run; a run takes at most about 1.5 s

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_every_run_exits_0_2_or_3(self, data):
        draw = data.draw
        # half the runs draw only values that the command accepts
        stray = draw(st.booleans(), label="stray values")
        kind = draw(st.sampled_from(self.KINDS if stray else GEN_KINDS), label="kind")
        if draw(st.booleans(), label="long"):
            ell = draw(st.integers(4, 320), label="--ell")
            n = draw(st.integers(ell - 3 if stray else ell, ell + 20), label="n")
            prob = draw(st.floats(0, 4 / n), label="prob")
        else:
            n = draw(st.integers(-2 if stray else 4, 48), label="n")
            ell = draw(st.integers(1, 50) if stray else st.integers(4, n), label="--ell")
            prob = draw(st.floats(-0.5, 1.5) if stray else st.floats(0, 1), label="prob")
        size = draw(st.integers(-1, n + 2) if stray else st.integers(3, max(n, 3)),
                    label="planted size")
        spec = f"{kind},{n},{prob},{size},{draw(st.integers(0, 99), label='gen seed')}"
        if stray and draw(st.booleans(), label="cut the spec"):
            spec = spec.rsplit(",", draw(st.integers(1, 4), label="fields cut"))[0]
        argv = ["detect-cycle", "--gen", spec, "--ell", str(ell)]
        # each flag's accepted values, or None, and its values with stray ones
        for flag, accepted, values in (
                ("--seed", st.integers(0, 10**6), st.integers(-5, 10**6)),
                ("--c-grover", st.sampled_from(["1", "3/2", "2", ""]),
                 st.sampled_from(["1", "3/2", "0", "-1", "x"])),
                ("--reps", st.integers(1, 4), st.integers(-1, 4)),
                ("--fail-prob", st.floats(0, 0.99), st.floats(-0.5, 1.5)),
                ("--packing", None, st.sampled_from(["on", "off"]))):
            if (stray or accepted is not None) and draw(st.booleans(), label=f"{flag}?"):
                # "=": argparse reads a value such as "-1e-9" as a flag
                argv.append(f"{flag}={draw(values if stray else accepted, label=flag)}")
        if draw(st.booleans(), label="--json"):
            argv.append("--json")
        code, err = run_within(argv, self.SECONDS)
        assert code in (0, 2, 3), (argv, code, err)
        assert "Traceback" not in err, argv
