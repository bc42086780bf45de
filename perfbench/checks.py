"""Output checks for the benchmark workloads, independent of the cbsfs package.

Each ``check_*`` returns a list of problems; an empty list means the output
is correct.  A Monte-Carlo table is checked on its own for its shape and its
analytic columns; its means are tested by ``check_pooled`` over all the
tables of a run, at the margin ``cbsfs verify`` uses.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

SE_MARGIN = 4.0
REFERENCE_RTOL = 1e-8
LENGTH_RTOL = 1e-9

_LEAF = re.compile(r"X(\d+):")
_LENGTH = re.compile(r":([^,();]+)")


def read_table(path: Path) -> list[dict[str, float | None]]:
    """Rows of a cbsfs CSV table, keyed by column; '#' lines are the header."""
    lines = [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    return [
        {c: (float(v) if v else None) for c, v in zip(columns, line.split(","))}
        for line in lines[1:]
    ]


def _index(rows, key: str, count: int) -> list[str]:
    got = [row.get(key) for row in rows]
    want = [float(i) for i in range(1, count + 1)]
    return [] if got == want else [f"{key} column is {got}, expected 1..{count}"]


def _finite_mc(rows, key: str) -> list[str]:
    return [
        f"{key}={row[key]:g}: non-finite, missing or non-positive Monte-Carlo value"
        for row in rows
        if not all(x is not None and math.isfinite(x) for x in (row["mc_mean"], row["mc_se"])) or not row["mc_se"] > 0
    ]


def _match(rows, want, key: str, columns: tuple[str, ...]) -> list[str]:
    return [
        f"{key}={row[key]:g}: {c} {row[c]!r} differs from reference {w[c]!r}"
        for row, w in zip(rows, want)
        for c in columns
        if not abs(row[c] - w[c]) <= REFERENCE_RTOL * abs(w[c])
    ]


def pool(tables: list[list[dict]], reps: int) -> list[tuple[float, float]]:
    """(mean, SE) per row of the Monte-Carlo estimate over all replicates
    of several equal-sized tables of one command: the per-replicate
    variance is rebuilt from each table's mc_se and the spread of its mean."""
    pooled, total = [], reps * len(tables)
    for rows in zip(*tables):
        mean = sum(row["mc_mean"] for row in rows) / len(rows)
        # squared deviations from the pooled mean: within each table, then between tables
        ss = sum((reps - 1) * reps * row["mc_se"] ** 2 + reps * (row["mc_mean"] - mean) ** 2 for row in rows)
        pooled.append((mean, math.sqrt(ss / (total - 1) / total)))
    return pooled


def check_pooled(tables: list[list[dict]], reps: int, key: str, target: str, sd: list[float]) -> list[str]:
    """Every row of the pooled estimate within SE_MARGIN standard errors of
    ``target``.  The SE is the larger of the pooled one and the reference
    per-replicate SD ``sd`` over the square root of the replicate count.
    The statistics are heavy-tailed (high-k classes of the spectrum, high
    powers of Z0): a sample that misses their rare large values reports a
    low mean together with a low SE, and the floor keeps such a sample
    from failing the test by chance."""
    problems = []
    total = reps * len(tables)
    for rows, (mean, se), floor in zip(zip(*tables), pool(tables, reps), sd):
        se, want = max(se, floor / math.sqrt(total)), rows[0][target]
        if not abs(mean - want) <= SE_MARGIN * se:
            problems.append(
                f"{key}={rows[0][key]:g}: |mc_mean - {target}| = {abs(mean - want):.3g} > {SE_MARGIN:g} SE ({se:.3g})"
                f" over {len(tables)} table(s) of {reps} replicates"
            )
    return problems


def check_sfs_sim(out: Path, n: int, reference: Path) -> list[str]:
    """One table: k = 1..n-1, finite Monte-Carlo columns and the analytic
    columns of the reference; the Monte-Carlo means are tested pooled."""
    rows = read_table(out / "sfs.csv")
    return _index(rows, "k", n - 1) or _finite_mc(rows, "k") + _match(
        rows, read_table(reference), "k", ("expected_L", "expected_xi"))


def check_clonal_sim(out: Path, n_max: int, analytic: list[float]) -> list[str]:
    rows = read_table(out / "clonal.csv")
    return _index(rows, "n", n_max) or _finite_mc(rows, "n") + _match(
        rows, [{"analytic": a} for a in analytic], "n", ("analytic",))


def check_sfs_expected(out: Path, reference: Path) -> list[str]:
    rows, ref = read_table(out / "expected.csv"), read_table(reference)
    problems = _index(rows, "k", len(ref))
    if problems:
        return problems
    for row, want in zip(rows, ref):
        if not row["expected_L"] > 0:
            problems.append(f"k={row['k']:g}: expected_L = {row['expected_L']} is not positive")
        for key in ("expected_L", "expected_xi"):
            if not abs(row[key] - want[key]) <= REFERENCE_RTOL * abs(want[key]):
                problems.append(f"k={row['k']:g}: {key} {row[key]!r} differs from reference {want[key]!r}")
    return problems


def check_sample_trees(out: Path, n: int, reps: int) -> list[str]:
    records = json.loads((out / "trees.json").read_text())["data"]
    newicks = (out / "trees.nwk").read_text().splitlines()
    if len(records) != reps or len(newicks) != reps:
        return [f"{len(records)} JSON records and {len(newicks)} Newick lines, expected {reps}"]
    leaves = list(range(n))
    problems = []
    for i, (record, newick) in enumerate(zip(records, newicks)):
        if record["newick"] != newick:
            problems.append(f"replicate {i}: Newick file and JSON record differ")
        if sorted(int(x) for x in _LEAF.findall(newick)) != leaves:
            problems.append(f"replicate {i}: leaves are not X0..X{n - 1} once each")
        z = record["zetas"]["zetas"]
        # population-rooted tree length, from the record's branch depths
        want = max(z) + sum(z[1 : n + 1])
        got = sum(float(x) for x in _LENGTH.findall(newick))
        if not abs(got - want) <= LENGTH_RTOL * want:
            problems.append(f"replicate {i}: branch lengths sum to {got!r}, tree length is {want!r}")
    return problems


def rse_max(tables: list[list[dict]]) -> float:
    """Largest relative standard error over the rows of one command's
    Monte-Carlo table, estimated from equal-sized tables of the same
    command: sqrt(mean mc_se^2) / |mean mc_mean| per row."""
    worst = 0.0
    for rows in zip(*tables):
        var = sum(row["mc_se"] ** 2 for row in rows) / len(rows)
        mean = sum(row["mc_mean"] for row in rows) / len(rows)
        worst = max(worst, math.sqrt(var) / abs(mean))
    return worst
