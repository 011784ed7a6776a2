"""Count the rows of a records file that moved against another.

    python3 scripts/records_diff.py OLD.csv NEW.csv

Rows are paired by their (method, gamma_db, sigma_e2, trial) key.  For each
method and each other column this prints how many rows moved (their text
differs) and, for a numeric column, how many rose and fell and the largest
relative move |new - old| / |old| (inf where old is 0); for any other
column, one line per ``old -> new`` transition with its count.  Then, per
method, it prints the totals of the work columns (TOTALS) on both sides, and
the p1, p50, p99 and max of the ratio new/old of ``total_power`` over the
rows with success 1 on both sides.
Exits 1 when the headers differ or the two files do not hold the same keys,
else 0.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys
from collections import Counter

KEY = ("method", "gamma_db", "sigma_e2", "trial")
TOTALS = ("cycles", "bisection_steps", "integral_evals")


def read(path) -> tuple:
    """(header, {key: row}) of a records file; ValueError on a repeated key
    or a header without the key columns."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        if not set(KEY) <= set(header):
            raise ValueError(f"{path}: header lacks {KEY}")
        rows = {}
        for row in reader:
            key = tuple(row[name] for name in KEY)
            if key in rows:
                raise ValueError(f"{path}: repeated key {key}")
            rows[key] = row
    return header, rows


def number(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def column_moves(pairs: list) -> dict:
    """Moved, rose and fell counts and the largest relative move over the
    (old, new) text pairs of one column; rose, fell and largest are None
    when some value is not a number, and then ``transitions`` counts each
    moved (old, new) pair, most frequent first."""
    moved = [(a, b) for a, b in pairs if a != b]
    values = [(number(a), number(b)) for a, b in moved]
    if any(None in pair for pair in values):
        return {"moved": len(moved), "rose": None, "fell": None, "largest": None,
                "transitions": Counter(moved).most_common()}
    return {"moved": len(moved),
            "rose": sum(b > a for a, b in values),
            "fell": sum(b < a for a, b in values),
            "largest": max((abs(b - a) / abs(a) if a else float("inf")
                            for a, b in values if a != b), default=0.0)}


def diff(old_path, new_path, out=None) -> int:
    """Print the per-method moves of new against old to out (None: the
    sys.stdout of the call); the exit status."""
    out = out or sys.stdout
    old_header, old = read(old_path)
    new_header, new = read(new_path)
    if old_header != new_header:
        print(f"headers differ: {old_header} vs {new_header}", file=out)
        return 1
    if old.keys() != new.keys():
        print(f"keys differ: {len(old.keys() - new.keys())} only in {old_path}, "
              f"{len(new.keys() - old.keys())} only in {new_path}", file=out)
        return 1
    print(f"{len(old)} rows, same keys", file=out)
    columns = [name for name in old_header if name not in KEY]
    for method in sorted({key[0] for key in old}):
        keys = [key for key in old if key[0] == method]
        for name in columns:
            m = column_moves([(old[key][name], new[key][name]) for key in keys])
            line = f"{method} {name}: {m['moved']} of {len(keys)} rows moved"
            if m["moved"] and m["rose"] is not None:
                line += (f" (rose {m['rose']}, fell {m['fell']}), "
                         f"largest relative move {m['largest']:.3g}")
            print(line, file=out)
            for (a, b), count in m.get("transitions", ()):
                print(f"{method} {name}: {a} -> {b} {count}", file=out)
    return 0


def totals(old_path, new_path, out=None) -> None:
    """Print, per method, the sum of each TOTALS column as old -> new to out
    (None: the sys.stdout of the call)."""
    out = out or sys.stdout
    sides = [read(old_path)[1], read(new_path)[1]]
    for method in sorted({key[0] for key in sides[0]}):
        sums = [[sum(int(row[name]) for key, row in rows.items() if key[0] == method)
                 for rows in sides] for name in TOTALS]
        print(f"{method} totals: " + ", ".join(
            f"{name} {a} -> {b}" for name, (a, b) in zip(TOTALS, sums)), file=out)


def power_ratios(old_path, new_path, out=None) -> None:
    """Print, per method, the p1/p50/p99/max of new/old ``total_power`` over
    the rows successful on both sides to out (None: the sys.stdout of the
    call)."""
    out = out or sys.stdout
    old, new = read(old_path)[1], read(new_path)[1]
    for method in sorted({key[0] for key in old}):
        ratios = sorted(float(new[key]["total_power"]) / float(row["total_power"])
                        for key, row in old.items() if key[0] == method
                        and row["success"] == new[key]["success"] == "1")
        line = f"{method} total_power new/old over {len(ratios)} rows successful on both sides"
        if ratios:  # percentiles interpolated between ranks, as numpy.percentile's default
            cuts = statistics.quantiles(ratios, n=100, method="inclusive") if len(ratios) > 1 else ratios * 99
            line += ": " + ", ".join(f"p{q} {cuts[q - 1]:.6g}" for q in (1, 50, 99))
            line += f", max {ratios[-1]:.6g}"
        print(line, file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old")
    parser.add_argument("new")
    args = parser.parse_args(argv)
    try:
        status = diff(args.old, args.new)
        if status == 0:
            totals(args.old, args.new)
            power_ratios(args.old, args.new)
        return status
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
