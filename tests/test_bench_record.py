"""The pair statistics, the clone helper and the line counts of
scripts/bench_record.py."""

import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np
import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


@pytest.mark.parametrize("wins, losses, p", [
    (10, 0, 2 / 1024),          # 10/10: p ~ 0.002
    (0, 10, 2 / 1024),          # two-sided: losing every pair is as rare
    (9, 1, 2 * 11 / 1024),      # 9 of 10: p ~ 0.021
    (5, 5, 1.0),                # an even split
    (7, 0, 2 / 128),            # three ties count for neither side
    (0, 0, 1.0),                # all ties
])
def test_sign_test_known_counts(wins, losses, p):
    assert bench_record.sign_test(wins, losses) == pytest.approx(p, rel=1e-12)


@pytest.mark.parametrize("wins, pairs, gap, spread, want", [
    (10, 10, 2.0, 1.0, True),
    (9, 10, 2.0, 1.0, True),     # one loss or one tie: still nine tenths
    (8, 10, 2.0, 1.0, False),
    (9, 11, 2.0, 1.0, False),    # nine tenths of all pairs run
    (10, 10, 1.0, 1.0, False),   # the gap must exceed the spread
    (10, 10, -2.0, 1.0, False),
])
def test_claimable(wins, pairs, gap, spread, want):
    assert bench_record.claimable(wins, pairs, gap, spread) is want


def test_report_pairs_prints_whether_a_gain_is_claimable(capsys):
    def runs(values, digest="d"):
        return [{"seed": i, "digest": digest,
                 "metrics": {"solve_ms_p50": {"value": v}, "solves_per_s": {"value": v}}}
                for i, v in enumerate(values)]

    # lower is better for solve_ms_p50, higher for solves_per_s
    old = runs([10.0, 10.5, 11.0, 10.2, 10.8, 10.1, 10.9, 10.4, 10.6, 10.3])
    new = runs([8.0, 8.5, 9.0, 8.2, 8.8, 8.1, 8.9, 8.4, 8.6, 10.3])
    bench_record.report_pairs("w", new, old, {"solve_ms_p50": "lower", "solves_per_s": "higher"},
                              {"solve_ms_p50": 0.2, "solves_per_s": 0.1})
    lines = capsys.readouterr().out.splitlines()
    assert "wins 9/10, losses 0, ties 1" in lines[0] and "gain claimable" in lines[0]
    assert "wins 0/10, losses 9" in lines[1] and "gain not claimable" in lines[1]
    assert "WORSE than bound" in lines[1]
    assert lines[2] == "w digests: all 10 match"


@pytest.mark.parametrize("new, old, counts", [
    # 3.5e-16 relative: avg_power between two revisions that differed only
    # by rounding in the exact solves, once counted as ten losses
    (1.448249772903564, 1.4482497729035635, "wins 0/10, losses 0, ties 10, sign-test p 1,"),
    (1.0 + 2e-12, 1.0, "wins 10/10, losses 0, ties 0"),   # past the tie band
    (1.0 + 5e-13, 1.0, "wins 0/10, losses 0, ties 10"),
    (0.0, 0.0, "wins 0/10, losses 0, ties 10"),
    (0.0, 1e-300, "wins 0/10, losses 10, ties 0"),         # relative to the larger
])
def test_report_pairs_counts_rounding_level_moves_as_ties(capsys, new, old, counts):
    def runs(value):
        return [{"seed": i, "digest": "d", "metrics": {"m": {"value": value}}}
                for i in range(10)]

    bench_record.report_pairs("w", runs(new), runs(old), {"m": "higher"}, {"m": 0.1})
    assert counts in capsys.readouterr().out


def git(repo, *args):
    return subprocess.run(["git", "-C", str(repo), "-c", "user.name=t",
                           "-c", "user.email=t@example.org", *args],
                          check=True, capture_output=True, text=True).stdout.strip()


@pytest.fixture
def repo(tmp_path):
    """A throwaway repository with two commits of one tracked file."""
    root = tmp_path / "repo"
    root.mkdir()
    git(root, "init", "--quiet")
    for text in ("first\n", "second\n"):
        (root / "tracked.txt").write_text(text)
        git(root, "add", "tracked.txt")
        git(root, "commit", "--quiet", "-m", text.strip())
    return root


def test_clone_head_copies_the_committed_tree(repo, tmp_path):
    (repo / "untracked.txt").write_text("scratch\n")
    copy = bench_record.clone_head(repo, tmp_path / "copy")
    assert (copy / "tracked.txt").read_text() == "second\n"
    assert not (copy / "untracked.txt").exists()
    assert git(copy, "rev-parse", "HEAD") == git(repo, "rev-parse", "HEAD")


def test_clone_head_follows_a_detached_head(repo, tmp_path):
    git(repo, "checkout", "--quiet", "--detach", "HEAD~1")
    copy = bench_record.clone_head(repo, tmp_path / "copy")
    assert (copy / "tracked.txt").read_text() == "first\n"


def test_clone_head_refuses_modified_tracked_files(repo, tmp_path):
    (repo / "tracked.txt").write_text("edited\n")
    with pytest.raises(ValueError, match="modified tracked files"):
        bench_record.clone_head(repo, tmp_path / "copy")
    assert not (tmp_path / "copy").exists()


def test_src_lines_counts_each_module_and_the_total(tmp_path):
    package = tmp_path / "src" / "robustpl"
    package.mkdir(parents=True)
    (package / "a.py").write_text("x = 1\n\ny = 2\n")
    (package / "b.py").write_text("z = 3\n")
    (package / "notes.txt").write_text("not counted\n")
    assert bench_record.src_lines(tmp_path) == {"a.py": 3, "b.py": 1, "total": 4}


def test_record_writes_the_src_lines_of_the_measured_copy(tmp_path, monkeypatch):
    def fake_run(root, workload, seed, seconds, trace):
        return {"seed": seed, "digest": "d",
                "metrics": {"solves_per_s": {"value": 1.0, "unit": "1/s"}}}

    monkeypatch.setattr(bench_record, "run_perfbench", fake_run)
    measured = tmp_path / "copy"
    (measured / "src" / "robustpl").mkdir(parents=True)
    (measured / "src" / "robustpl" / "m.py").write_text("a = 1\nb = 2\n")
    args = bench_record.parse_args(["--out", str(tmp_path / "out.json"), "--seeds", "1,2"])
    benchmark = {"run_seconds": 1, "workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25}]}
    bench_record.record(args, benchmark, {"change": measured})
    written = json.loads((tmp_path / "out.json").read_text())
    assert written["src_lines"] == {"m.py": 2, "total": 2}


def test_record_with_baseline_prints_both_src_lines_totals(tmp_path, monkeypatch, capsys):
    def fake_run(root, workload, seed, seconds, trace):
        return {"seed": seed, "digest": "d",
                "metrics": {"solves_per_s": {"value": 1.0, "unit": "1/s"}}}

    monkeypatch.setattr(bench_record, "run_perfbench", fake_run)
    roots = {}
    for name, text in (("change", "a = 1\n"), ("baseline", "a = 1\nb = 2\nc = 3\n")):
        (tmp_path / name / "src" / "robustpl").mkdir(parents=True)
        (tmp_path / name / "src" / "robustpl" / "m.py").write_text(text)
        (tmp_path / name / "perfbench").mkdir()
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        roots[name] = tmp_path / name
    args = bench_record.parse_args(["--out", str(tmp_path / "out.json"), "--seeds", "1,2",
                                    "--baseline", str(roots["baseline"]),
                                    "--baseline-out", str(tmp_path / "base.json")])
    benchmark = {"run_seconds": 1, "workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25}]}
    bench_record.record(args, benchmark, roots)
    lines = capsys.readouterr().out.splitlines()
    assert "src_lines total: 1 vs 3 (baseline), difference -2" in lines
    assert json.loads((tmp_path / "base.json").read_text())["src_lines"]["total"] == 3


def test_src_lines_moved_names_each_changed_module_with_its_difference():
    change = {"a.py": 10, "b.py": 7, "new.py": 4, "total": 21}
    base = {"a.py": 12, "b.py": 7, "gone.py": 3, "total": 22}
    assert bench_record.src_lines_moved(change, base) == "a.py -2, gone.py -3, new.py +4"
    assert bench_record.src_lines_moved(base, base) == "no module changed"


def test_record_with_baseline_prints_the_changed_modules_beside_the_total(
        tmp_path, monkeypatch, capsys):
    def fake_run(root, workload, seed, seconds, trace):
        return {"seed": seed, "digest": "d",
                "metrics": {"solves_per_s": {"value": 1.0, "unit": "1/s"}}}

    monkeypatch.setattr(bench_record, "run_perfbench", fake_run)
    roots = {}
    for name, modules in (("change", {"m.py": "a = 1\n", "n.py": "b = 2\n"}),
                          ("baseline", {"m.py": "a = 1\nb = 2\nc = 3\n", "n.py": "b = 2\n"})):
        for module, text in modules.items():
            (tmp_path / name / "src" / "robustpl").mkdir(parents=True, exist_ok=True)
            (tmp_path / name / "src" / "robustpl" / module).write_text(text)
        (tmp_path / name / "perfbench").mkdir()
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        roots[name] = tmp_path / name
    args = bench_record.parse_args(["--out", str(tmp_path / "out.json"), "--seeds", "1",
                                    "--baseline", str(roots["baseline"]),
                                    "--baseline-out", str(tmp_path / "base.json")])
    benchmark = {"run_seconds": 1, "workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25}]}
    bench_record.record(args, benchmark, roots)
    lines = capsys.readouterr().out.splitlines()
    total = lines.index("src_lines total: 2 vs 4 (baseline), difference -2")
    assert lines[total + 1] == "src_lines by module: m.py -2"


def traced(**values):
    """A traced run whose metrics are values, in ms where the name ends in
    _ms and as counts otherwise."""
    return {"metrics": {name: {"value": v, "unit": "ms" if name.endswith("_ms") else "count"}
                        for name, v in values.items()}}


def test_report_counts_lists_the_traced_counts_that_differ(capsys):
    # times are left out however far they move; a count on one side only differs
    bench_record.report_counts("w", traced(calls=3668, evals=5, p50_ms=0.19),
                               traced(calls=3668, evals=6, p50_ms=0.15, extra=1))
    line = capsys.readouterr().out.strip()
    assert line == ("w traced counts at seed 31: DIFFER: evals 5 vs 6; extra None vs 1"
                    " (baseline second)")
    bench_record.report_counts("w", traced(calls=3668, p50_ms=0.19), traced(calls=3668, p50_ms=0.15))
    assert capsys.readouterr().out.strip() == "w traced counts at seed 31: all 1 match"


def test_record_with_baseline_compares_the_traced_counts(tmp_path, monkeypatch, capsys):
    def fake_run(root, workload, seed, seconds, trace):
        calls = 7 if trace and root.name == "baseline" else 6
        return {"seed": seed, "digest": "d",
                "metrics": {"solves_per_s": {"value": 1.0, "unit": "1/s"},
                            "calls": {"value": calls, "unit": "count"}}}

    monkeypatch.setattr(bench_record, "run_perfbench", fake_run)
    roots = baseline_roots(tmp_path)
    args = bench_record.parse_args(["--out", str(tmp_path / "out.json"), "--seeds", "1,2",
                                    "--baseline", str(roots["baseline"]),
                                    "--baseline-out", str(tmp_path / "base.json")])
    benchmark = {"run_seconds": 1, "workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25},
                                {"name": "calls", "better": "lower", "bound": 0.05}]}
    bench_record.record(args, benchmark, roots)
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "w traced counts at seed 31: DIFFER: calls 6 vs 7 (baseline second)"


def baseline_roots(tmp_path):
    """Two measured copies, "change" and "baseline", each with a perfbench/run.py."""
    roots = {}
    for name in ("change", "baseline"):
        (tmp_path / name / "src" / "robustpl").mkdir(parents=True)
        (tmp_path / name / "perfbench").mkdir()
        (tmp_path / name / "perfbench" / "run.py").write_text("")
        roots[name] = tmp_path / name
    return roots


def test_record_with_baseline_alternates_the_first_traced_side(tmp_path, monkeypatch):
    traced_sides = []

    def fake_run(root, workload, seed, seconds, trace):
        if trace:
            traced_sides.append((workload, seed, root.name))
        return {"seed": seed, "digest": "d",
                "metrics": {"solves_per_s": {"value": 1.0, "unit": "1/s"}}}

    monkeypatch.setattr(bench_record, "run_perfbench", fake_run)
    roots = baseline_roots(tmp_path)
    args = bench_record.parse_args(["--out", str(tmp_path / "out.json"), "--seeds", "1,2",
                                    "--baseline", str(roots["baseline"]),
                                    "--baseline-out", str(tmp_path / "base.json")])
    benchmark = {"run_seconds": 1, "workloads": [{"name": w} for w in ("a", "b", "c")],
                 "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25}]}
    bench_record.record(args, benchmark, roots)
    # the first side alternates from seed to seed and from workload to workload
    firsts = {"a": ("baseline", "change", "baseline"), "b": ("change", "baseline", "change"),
              "c": ("baseline", "change", "baseline")}
    want = [(w, seed, side) for w, sides in firsts.items()
            for seed, first in zip(bench_record.TRACE_SEEDS, sides)
            for side in (first, "baseline" if first == "change" else "change")]
    assert traced_sides == want


def test_record_with_baseline_stores_and_prints_the_traced_time_medians(
        tmp_path, monkeypatch, capsys):
    times = {"change": {31: 1.0, 32: 5.0, 33: 2.0}, "baseline": {31: 1.5, 32: 4.0, 33: 3.0}}

    def fake_run(root, workload, seed, seconds, trace):
        metrics = {"solves_per_s": {"value": 1.0, "unit": "1/s"}}
        if trace:
            metrics.update({"layer.ms_p50": {"value": times[root.name][seed], "unit": "ms"},
                            "layer.calls": {"value": 9, "unit": "count"}})
        return {"seed": seed, "digest": "d", "metrics": metrics}

    monkeypatch.setattr(bench_record, "run_perfbench", fake_run)
    roots = baseline_roots(tmp_path)
    args = bench_record.parse_args(["--out", str(tmp_path / "out.json"), "--seeds", "1,2",
                                    "--baseline", str(roots["baseline"]),
                                    "--baseline-out", str(tmp_path / "base.json")])
    benchmark = {"run_seconds": 1, "workloads": [{"name": "w"}],
                 "end_to_end": [{"name": "solves_per_s", "better": "higher", "bound": 0.25}]}
    bench_record.record(args, benchmark, roots)
    for name, file in (("change", "out.json"), ("baseline", "base.json")):
        written = json.loads((tmp_path / file).read_text())["workloads"]["w"]
        # counts and rates have no median; the trace kept is seed 31's
        assert written["trace_medians"] == {"layer.ms_p50": float(np.median(
            list(times[name].values())))}
        assert written["trace"]["seed"] == 31
        assert written["trace"]["metrics"]["layer.ms_p50"]["value"] == times[name][31]
    lines = capsys.readouterr().out.splitlines()
    assert lines[-2] == "w traced counts at seed 31: all 1 match"
    assert lines[-1] == ("w traced layer.ms_p50: median 2 [1, 5] vs 3 [1.5, 4] (baseline), "
                         "[min, max] over seeds 31, 32, 33, wins 2/3, losses 1")
