"""CLI commands, CSV round-trips, slope fitting, determinism."""

import json

import pytest

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
        (("--n-list", "40", "--m-list", "5"), "take no --m-list"),
    ], ids=["no-n-list", "m-list"])
    def test_full_mode_sweep_usage_errors(self, capsys, extra, message):
        assert main(["sweep", "--algo", "auto", "--mode", "full", *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

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

        _, domain, query = _triangle_costs(4096, 4096 * 4095 // 2)
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
