"""tools/bench_pairs.py: seed lists, the per-metric summary of paired runs and
what each side measured."""

import importlib.util
import json
from pathlib import Path

import pytest

from qcongest.netsim import CostLedger

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def pair(metric, parent, change, unit="u"):
    """One pair of runs, each reporting `metric` only."""
    return {side: {"metrics": {metric: {"value": value, "unit": unit}}}
            for side, value in (("parent", parent), ("change", change))}


class TestParseSeeds:
    def test_ranges_and_single_seeds(self):
        assert bench_pairs.parse_seeds("301-303,7") == [301, 302, 303, 7]
        assert bench_pairs.parse_seeds("5") == [5]

    def test_bad_item_raises(self):
        with pytest.raises(ValueError):
            bench_pairs.parse_seeds("3-x")


class TestSummarise:
    @pytest.mark.parametrize("better, change_wins, parent_wins",
                             [("higher", 2, 1), ("lower", 1, 2)])
    def test_wins_follow_the_direction_and_ties_count_for_neither(
            self, better, change_wins, parent_wins):
        # the change is higher in pairs 1 and 2, lower in pair 3, tied in pair 4
        pairs = [pair("x", 1.0, 2.0), pair("x", 3.0, 5.0), pair("x", 4.0, 1.0),
                 pair("x", 2.0, 2.0)]
        got = bench_pairs.summarise(pairs, {"x": better})["x"]
        assert (got["change_wins"], got["parent_wins"]) == (change_wins, parent_wins)
        assert got["pairs"] == 4 and got["better"] == better and got["unit"] == "u"
        assert got["parent"]["runs"] == [1.0, 3.0, 4.0, 2.0]
        assert got["change"]["runs"] == [2.0, 5.0, 1.0, 2.0]
        assert got["parent"]["median"] == 2.5 and got["change"]["median"] == 2.0

    def test_one_pair_gives_its_value_as_every_quartile(self):
        got = bench_pairs.summarise([pair("x", 7.0, 9.0)], {"x": "lower"})["x"]
        for side, value in (("parent", 7.0), ("change", 9.0)):
            assert got[side]["q1"] == got[side]["median"] == got[side]["q3"] == value
        assert (got["change_wins"], got["parent_wins"]) == (0, 1)


class TestInProcess:
    def test_ratio_interval_of_equal_sides_is_one(self):
        got = bench_pairs.ratio_interval([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert got["ratio"] == 1.0 and got["lo"] <= 1.0 <= got["hi"]
        got = bench_pairs.ratio_interval([2.0] * 4, [1.0] * 4)
        assert got == {"ratio": 0.5, "lo": 0.5, "hi": 0.5}

    def test_a_a_run_on_the_tiny_pool(self):
        # the same checkout on both sides: every op freezes alike, and each
        # part's interval holds its ratio
        root = _PATH.parent.parent
        got = bench_pairs.inprocess({"parent": root, "change": root}, "cycle", 3, 2, tiny=True)
        assert got["freeze_equal"] and got["passes_per_side"] == 2
        assert set(got["parts"]) == {"cycle-detect", "cycle-protocol", "pass"}
        for part in got["parts"].values():
            for side in ("parent", "change"):
                assert len(part[side]["runs_s"]) == 2
                assert part[side]["min_s"] <= part[side]["median_s"]
            assert part["lo"] <= part["ratio"] <= part["hi"]
            assert 0.2 < part["ratio"] < 5
            # a sum of per-op minima is at most the fastest pass
            for side in ("parent", "change"):
                assert 0 < part[side]["op_min_s"] <= part[side]["min_s"] * (1 + 1e-9)
            assert 0.2 < part["op_min_ratio"] < 5
        # the families (part and generator kind) split each part's per-op minima
        families = got["families"]
        assert {"cycle-detect/planted_cycle", "cycle-detect/forest", "cycle-detect/girth",
                "cycle-protocol/planted_cycle"} <= set(families)
        assert sum(f["ops"] for f in families.values()) == got["ops_per_pass"]
        for part in ("cycle-detect", "cycle-protocol", "pass"):
            mine = [f for name, f in families.items() if part == "pass" or
                    name.startswith(part + "/")]
            for side in ("parent", "change"):
                assert sum(f[f"{side}_op_min_s"] for f in mine) == pytest.approx(
                    got["parts"][part][side]["op_min_s"])
        for f in families.values():
            assert f["op_min_ratio"] == pytest.approx(f["change_op_min_s"] / f["parent_op_min_s"])

    def test_a_a_run_reports_each_sides_first_pass(self):
        # the warm-up pass over freshly built graphs is kept apart from the
        # passes that the medians summarise
        root = _PATH.parent.parent
        got = bench_pairs.inprocess({"parent": root, "change": root}, "clique", 3, 1, tiny=True)
        assert set(got["parts"]) == {"clique-verify", "clique-scale", "pass"}
        for part in got["parts"].values():
            for side in ("parent", "change"):
                assert part[side]["first_pass_s"] > 0
                assert len(part[side]["runs_s"]) == 1
        for side in ("parent", "change"):
            whole = got["parts"]["pass"][side]["first_pass_s"]
            assert whole == pytest.approx(sum(got["parts"][part][side]["first_pass_s"]
                                              for part in ("clique-verify", "clique-scale")))

    @staticmethod
    def edited_copy(root, change, module, old, new):
        """Copy the checkout's src/qcongest and perfbench to `change`, with
        `old` replaced by `new` in src/qcongest/`module`."""
        for sub in ("src/qcongest", "perfbench"):
            (change / sub).mkdir(parents=True)
            for f in (root / sub).glob("*.py"):
                (change / sub / f.name).write_text(f.read_text())
        path = change / "src" / "qcongest" / module
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new))

    def test_answers_that_differ_between_the_sides_raise(self, tmp_path):
        # a change whose detectors always answer True: its ops freeze differently
        root = _PATH.parent.parent
        self.edited_copy(root, tmp_path / "change", "cycledetect.py",
                         "    return heavy_found or light_found", "    return True")
        with pytest.raises(AssertionError, match="freeze differently"):
            bench_pairs.inprocess({"parent": root, "change": tmp_path / "change"}, "cycle",
                                  3, 1, tiny=True)

    def test_counts_that_differ_between_the_sides_raise(self, tmp_path):
        # a change whose searches count one query too many: its answers and
        # ledger rows freeze alike, but its ledgers' counts differ
        root = _PATH.parent.parent
        self.edited_copy(root, tmp_path / "change", "qsearch.py",
                         'ledger.counts["queries"] += queries',
                         'ledger.counts["queries"] += queries + 1')
        with pytest.raises(AssertionError, match="count differently"):
            bench_pairs.inprocess({"parent": root, "change": tmp_path / "change"}, "cycle",
                                  3, 1, tiny=True)

    def test_answer_counts_keep_each_ledgers_nonzero_counters(self):
        full, other = CostLedger(), CostLedger()
        full.counts.update({"queries": 3, "pattern_capped": 0})
        other.counts["enumeration_truncated"] += 2
        got = bench_pairs.answer_counts({"b": (True, full, other), "a": (False, other, None)})
        assert got == (("a", [("enumeration_truncated", 2)], None),
                       ("b", [("queries", 3)], [("enumeration_truncated", 2)]))


class TestSides:
    """Each side of a report names what it measured, also without .git."""

    @staticmethod
    def copy(root, to):
        for sub in ("src/qcongest", "perfbench"):
            (to / sub).mkdir(parents=True)
            for f in (root / sub).glob("*.py"):
                (to / sub / f.name).write_bytes(f.read_bytes())
        return to

    def test_the_digest_follows_the_source_only(self, tmp_path):
        root = _PATH.parent.parent
        a, b = self.copy(root, tmp_path / "a"), self.copy(root, tmp_path / "b")
        digest = bench_pairs.source_digest(a)
        assert bench_pairs.source_digest(b) == digest
        # bytecode caches and run outputs are left out
        for junk in ("src/qcongest/__pycache__/graph.cpython-311.pyc", "perfbench/out/x.json"):
            (b / junk).parent.mkdir(exist_ok=True)
            (b / junk).write_bytes(b"junk")
        assert bench_pairs.source_digest(b) == digest
        # a changed byte or a renamed file changes it
        graph = b / "src" / "qcongest" / "graph.py"
        graph.write_bytes(graph.read_bytes() + b"\n")
        assert bench_pairs.source_digest(b) != digest
        graph.write_bytes((a / "src" / "qcongest" / "graph.py").read_bytes())
        assert bench_pairs.source_digest(b) == digest
        graph.rename(graph.with_name("graph2.py"))
        assert bench_pairs.source_digest(b) != digest

    def test_a_plain_copy_reports_its_digest_and_caches(self, tmp_path):
        side = self.copy(_PATH.parent.parent, tmp_path / "side")
        facts = bench_pairs.side_facts(side)
        assert facts == {"git": None, "source_sha256": bench_pairs.source_digest(side),
                         "pycache_at_start": []}
        for sub in ("perfbench", "src/qcongest"):
            (side / sub / "__pycache__").mkdir()
        assert bench_pairs.side_facts(side)["pycache_at_start"] == [
            "perfbench/__pycache__", "src/qcongest/__pycache__"]

    @pytest.mark.parametrize("flag", [None, "1"])
    def test_the_report_holds_each_sides_facts_and_the_bytecode_flag(
            self, tmp_path, monkeypatch, flag):
        root = _PATH.parent.parent
        parent, change = self.copy(root, tmp_path / "parent"), self.copy(root, tmp_path / "change")
        (change / "BENCHMARK.json").write_bytes((root / "BENCHMARK.json").read_bytes())
        (parent / "src" / "qcongest" / "__pycache__").mkdir()
        if flag is None:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
        else:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", flag)
        # no run: the in-process comparison is stubbed out
        monkeypatch.setattr(bench_pairs, "inprocess",
                            lambda *args: {"parts": {}, "families": {}})
        out = tmp_path / "bench.json"
        assert bench_pairs.main(["--parent", str(parent), "--change", str(change),
                                 "--workload", "cycle", "--inprocess-passes", "1",
                                 "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["PYTHONDONTWRITEBYTECODE"] == flag
        assert report["sides"] == {
            "parent": {"git": None, "source_sha256": bench_pairs.source_digest(parent),
                       "pycache_at_start": ["src/qcongest/__pycache__"]},
            "change": {"git": None, "source_sha256": bench_pairs.source_digest(change),
                       "pycache_at_start": []}}
