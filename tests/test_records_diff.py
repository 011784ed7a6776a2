"""scripts/records_diff.py on small records files."""

import importlib.util
import io
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "records_diff.py"
spec = importlib.util.spec_from_file_location("records_diff", SCRIPT)
records_diff = importlib.util.module_from_spec(spec)
spec.loader.exec_module(records_diff)

HEADER = ("method,gamma_db,sigma_e2,trial,status,success,total_power,cycles,"
          "bisection_steps,integral_evals")
OLD = [
    "ZF-General,0,0.002,0,solved,1,0.02,3,44,59",
    "ZF-General,0,0.002,1,solved,1,0.04,2,30,40",
    "ZF-General,5,0.002,0,cycle_limit,0,0,50,900,1000",
    "ZF-CoordUpdate,0,0.002,0,solved,1,0.05,3,0,12",
]


def write(path, lines, header=HEADER):
    path.write_text("\n".join([header, *lines]) + "\n")
    return path


def run(tmp_path, new_lines, header=HEADER):
    old = write(tmp_path / "old.csv", OLD)
    new = write(tmp_path / "new.csv", new_lines, header)
    out = io.StringIO()
    status = records_diff.diff(old, new, out)
    return status, out.getvalue().splitlines()


def test_counts_moved_rows_per_method_and_column(tmp_path):
    new = list(OLD)
    new[0] = "ZF-General,0,0.002,0,solved,1,0.02,3,44,50"            # evals fell
    new[1] = "ZF-General,0,0.002,1,solved,1,0.05,2,30,41"            # power, evals rose
    new[2] = "ZF-General,5,0.002,0,fallback_solved,0,0,50,900,1000"  # status only
    status, lines = run(tmp_path, new)
    assert status == 0
    assert lines[0] == "4 rows, same keys"
    assert "ZF-General integral_evals: 2 of 3 rows moved (rose 1, fell 1), " \
           "largest relative move 0.153" in lines
    assert "ZF-General total_power: 1 of 3 rows moved (rose 1, fell 0), " \
           "largest relative move 0.25" in lines
    assert "ZF-General status: 1 of 3 rows moved" in lines
    assert "ZF-General status: cycle_limit -> fallback_solved 1" in lines
    assert "ZF-General cycles: 0 of 3 rows moved" in lines
    assert "ZF-CoordUpdate integral_evals: 0 of 1 rows moved" in lines
    # one line per method and non-key column, and one per status transition
    assert len(lines) == 1 + 2 * 6 + 1


def test_identical_files_move_nothing(tmp_path):
    status, lines = run(tmp_path, list(OLD))
    assert status == 0
    assert all(" 0 of " in line for line in lines[1:])


def test_text_column_counts_each_transition(tmp_path):
    old = OLD + ["ZF-CoordUpdate,5,0.002,0,cycle_limit,0,1e7,50,0,53",
                 "ZF-CoordUpdate,10,0.002,0,cycle_limit,0,1e9,50,0,53",
                 "ZF-CoordUpdate,10,0.002,1,cycle_limit,0,1e8,50,0,53"]
    new = list(old)
    new[3] = "ZF-CoordUpdate,0,0.002,0,cycle_limit,0,0.05,50,0,53"
    new[4] = "ZF-CoordUpdate,5,0.002,0,diverged,0,2e6,9,0,12"
    new[5] = "ZF-CoordUpdate,10,0.002,0,diverged,0,3e6,9,0,12"
    write(tmp_path / "old.csv", old)
    write(tmp_path / "new.csv", new)
    out = io.StringIO()
    assert records_diff.diff(tmp_path / "old.csv", tmp_path / "new.csv", out) == 0
    lines = out.getvalue().splitlines()
    status = [line for line in lines if line.startswith("ZF-CoordUpdate status")]
    # the most frequent transition first; unmoved rows are not transitions
    assert status == ["ZF-CoordUpdate status: 3 of 4 rows moved",
                      "ZF-CoordUpdate status: cycle_limit -> diverged 2",
                      "ZF-CoordUpdate status: solved -> cycle_limit 1"]
    # numeric columns print no transitions
    assert not any(" -> " in line for line in lines if " status: " not in line)


def test_move_from_zero_is_infinite(tmp_path):
    new = list(OLD)
    new[2] = "ZF-General,5,0.002,0,cycle_limit,0,0.5,50,900,1000"
    _, lines = run(tmp_path, new)
    assert "ZF-General total_power: 1 of 3 rows moved (rose 1, fell 0), " \
           "largest relative move inf" in lines


def test_header_mismatch_exits_1(tmp_path):
    status, lines = run(tmp_path, list(OLD), header=HEADER.replace("cycles", "rounds"))
    assert status == 1
    assert lines[0].startswith("headers differ")


def test_key_mismatch_exits_1(tmp_path):
    new = list(OLD)
    new[3] = "ZF-CoordUpdate,0,0.002,1,solved,1,0.05,3,0,12"  # another trial
    status, lines = run(tmp_path, new)
    assert status == 1
    assert lines == ["keys differ: 1 only in " + str(tmp_path / "old.csv")
                     + ", 1 only in " + str(tmp_path / "new.csv")]
    status, _ = run(tmp_path, new[:3])  # a missing row
    assert status == 1


def test_main_reports_a_repeated_key(tmp_path, capsys):
    old = write(tmp_path / "old.csv", OLD)
    new = write(tmp_path / "new.csv", OLD + OLD[:1])
    assert records_diff.main([str(old), str(new)]) == 1
    assert "repeated key" in capsys.readouterr().err


def test_totals_per_method_on_both_sides(tmp_path, capsys):
    new = list(OLD)
    new[0] = "ZF-General,0,0.002,0,solved,1,0.02,2,40,50"
    old = write(tmp_path / "old.csv", OLD)
    write(tmp_path / "new.csv", new)
    assert records_diff.main([str(old), str(tmp_path / "new.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # the totals come before the two power-ratio lines
    assert lines[-4:-2] == [
        "ZF-CoordUpdate totals: cycles 3 -> 3, bisection_steps 0 -> 0, "
        "integral_evals 12 -> 12",
        "ZF-General totals: cycles 55 -> 54, bisection_steps 974 -> 970, "
        "integral_evals 1099 -> 1090"]
    # the moves come first, as from diff alone
    out = io.StringIO()
    records_diff.diff(old, tmp_path / "new.csv", out)
    assert lines[:-4] == out.getvalue().splitlines()


def test_no_totals_when_the_keys_differ(tmp_path, capsys):
    old = write(tmp_path / "old.csv", OLD)
    write(tmp_path / "new.csv", OLD[:-1])
    assert records_diff.main([str(old), str(tmp_path / "new.csv")]) == 1
    assert " totals: " not in capsys.readouterr().out


def test_diff_without_out_prints_to_the_current_stdout(tmp_path, capsys):
    old = write(tmp_path / "old.csv", OLD)
    assert records_diff.diff(old, old) == 0
    records_diff.totals(old, old)
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "4 rows, same keys"
    assert "ZF-General totals: cycles 55 -> 55, bisection_steps 974 -> 974, " \
           "integral_evals 1099 -> 1099" in lines


def test_power_ratios_over_rows_successful_on_both_sides(tmp_path, capsys):
    new = list(OLD)
    new[0] = "ZF-General,0,0.002,0,solved,1,0.021,3,44,59"          # ratio 1.05
    new[2] = "ZF-General,5,0.002,0,solved,1,0.5,9,90,100"            # success only new
    new[3] = "ZF-CoordUpdate,0,0.002,0,cycle_limit,0,0.06,50,0,53"  # success only old
    old = write(tmp_path / "old.csv", OLD)
    write(tmp_path / "new.csv", new)
    assert records_diff.main([str(old), str(tmp_path / "new.csv")]) == 0
    lines = capsys.readouterr().out.splitlines()
    # ratios 1 and 1.05, interpolated between ranks as numpy.percentile
    assert lines[-2:] == [
        "ZF-CoordUpdate total_power new/old over 0 rows successful on both sides",
        "ZF-General total_power new/old over 2 rows successful on both sides: "
        "p1 1.0005, p50 1.025, p99 1.0495, max 1.05"]


def test_power_ratio_of_a_single_row(tmp_path, capsys):
    new = list(OLD)
    new[3] = "ZF-CoordUpdate,0,0.002,0,solved,1,0.06,3,0,12"  # ratio 1.2
    old = write(tmp_path / "old.csv", OLD)
    write(tmp_path / "new.csv", new)
    assert records_diff.main([str(old), str(tmp_path / "new.csv")]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == (
        "ZF-CoordUpdate total_power new/old over 1 rows successful on both sides: "
        "p1 1.2, p50 1.2, p99 1.2, max 1.2")
