"""beta and theta only set the units: a command's output at (beta, theta)
is its output in model units times 1 / (2 beta theta) for a time and
1 / (2 theta) for a size.

Each case draws beta and theta log-uniformly over 1e-300..1e300 and runs
`sfs --mode simulate`, `sample` and `clonal --mode simulate` at the fixed
alpha = mu / (2 beta theta) and size x0 = 2 theta z0, and again at
beta = theta = 1 with the same alpha and x0 (the unit run), from the same
seed.  Values free of units (the simulated mean, its standard error and
E[xi_k]) must be equal; E[L_k], the leaf positions, the branch depths and
the Newick branch lengths must be the unit run's, scaled, within one
rounding (for a branch length, one rounding of the depths it is the
difference of); the clonal mean and standard error of Z0^p e^{-mu L} must
be the unit run's, scaled by the size unit to the power p, within 1e-12
relative.  Where a unit or a scaled output leaves the float range, the
command exits 1 with one line and writes no file.
"""

import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cbsfs.cli import main

ALPHA, X0 = 0.5, 3.0
TINY = 2.0**-1022  # the smallest normal float
CLONAL_REPS = 100


def _run(tmp_path, name, argv):
    """Exit code, stderr and the written files of one in-process run."""
    out = tmp_path / name
    err = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(err):
        code = main([str(a) for a in argv] + ["--out", str(out / "x")])
    written = sorted(out.rglob("*")) if out.exists() else []
    return code, err.getvalue(), written


def _table(path):
    """The data rows of a CSV file, as lists of strings."""
    rows = [line.split(",") for line in path.read_text().splitlines() if not line.startswith("#")]
    return rows[1:]


def _one_rounding(value, exact, scale=None):
    """Whether ``value`` is within one rounding of ``exact`` (of ``scale``,
    the size of the operands, if given)."""
    scale = abs(exact) if scale is None else scale
    return value == exact or abs(value - exact) <= 2.0**-52 * scale


def _fine(values):
    """Whether every value is finite and 0 or a normal float."""
    return all(v == 0.0 or TINY <= abs(v) < math.inf for v in values)


def _scaled(value, factor, power):
    """``value`` times ``factor`` to the ``power``, inf where that overflows."""
    try:
        return value * factor**power
    except OverflowError:
        return math.inf


def _squares_fine(mean, se):
    """Whether a clonal row's per-replicate values, each at most CLONAL_REPS
    times their mean, square without overflow, and its squared deviations,
    of the order of the squared standard error, are normal floats."""
    bound = CLONAL_REPS * mean
    return CLONAL_REPS * bound * bound < math.inf and (se == 0.0 or se * se >= TINY)


def _sample_values(path):
    """Positions, depths, Newick branch lengths and each tree's deepest depth,
    per record of a `sample` JSON file."""
    doc = json.loads(path.read_text())
    for record in doc["data"]:
        lengths = [float(x) for x in re.findall(r":([^,();]+)", record["newick"])]
        depths = record["zetas"]["zetas"]
        yield record["leaf_config"]["positions"], depths, lengths, max(depths)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0))
@example(0.0, 0.0)
@example(-300.0, 300.0)  # time unit 1 / 2, size unit 5e-301
@example(300.0, 300.0)  # 2 beta theta overflows: the time unit is 0
@example(-300.0, -300.0)  # 2 beta theta underflows: the time unit is inf
@example(300.0, 7.7)  # the time unit is subnormal
@example(-300.0, -8.3)  # the time unit is finite, a depth in it is not
def test_beta_and_theta_only_set_the_units(tmp_path_factory, log_beta, log_theta):
    tmp_path = tmp_path_factory.mktemp("units")
    beta, theta = 10.0**log_beta, 10.0**log_theta
    mu, z0 = ALPHA * (2.0 * beta * theta), X0 / (2.0 * theta)
    # the unit run takes the alpha and the x0 that the command computes
    scale = 2.0 * beta * theta
    time = 1.0 / scale if scale > 0.0 else math.inf
    size = 1.0 / (2.0 * theta)
    units_fine = 0.0 < time < math.inf and 0.0 < size < math.inf and mu < math.inf
    alpha = mu / scale if units_fine else ALPHA
    x0 = 2.0 * theta * z0
    flags = {"sfs": ["sfs", "--mode", "simulate", "--n", 6, "--reps", 40, "--seed", 7],
             "sample": ["sample", "--n", 6, "--reps", 3, "--seed", 7],
             "clonal": ["clonal", "--mode", "simulate", "--n-max", 3, "--reps", CLONAL_REPS, "--seed", 7]}
    for command, argv in flags.items():
        # clonal draws no conditioned size
        unit_z0, z0_flag = ([], []) if command == "clonal" else (["--z0", repr(x0 / 2.0)], ["--z0", repr(z0)])
        unit = _run(tmp_path, f"{command}-unit", argv + ["--mu", repr(2.0 * alpha)] + unit_z0)
        assert unit[0] == 0, unit[1]
        code, err, written = _run(tmp_path, command, argv + ["--beta", repr(beta), "--theta", repr(theta),
                                                             "--mu", repr(mu)] + z0_flag)
        if code != 0:
            assert code == 1 and err.startswith("cbsfs: ") and err.count("\n") == 1, err
            assert written == [], written
        if not units_fine:
            # clonal reads no time unit: where 2 beta theta underflows it runs at alpha = 0
            assert code == 1 or command == "clonal", (beta, theta)
            continue
        # the unit run's outputs are in units of 1/2
        if command == "sfs":
            unit_rows = _table(unit[2][0])
            lengths = [time * (float(row[1]) / 0.5) for row in unit_rows]
            if not _fine(lengths):
                continue
            assert code == 0, err
            for row_u, row, length in zip(unit_rows, _table(written[0]), lengths):
                assert row[2:] == row_u[2:]  # expected_xi, mc_mean, mc_se
                assert _one_rounding(float(row[1]), length)
        elif command == "clonal":
            # row n holds the moments of Z0^(n-1) e^{-mu L}: mc_mean, mc_se
            expected = [[_scaled(float(v), size / 0.5, int(row[0]) - 1) for v in row[2:]]
                        for row in _table(unit[2][0])]
            if not all(_fine(row) and _squares_fine(*row) for row in expected):
                continue
            assert code == 0, err
            for row, e_row in zip(_table(written[0]), expected):
                assert all(math.isclose(float(v), e, rel_tol=1e-12) for v, e in zip(row[2:], e_row))
        else:
            expected = [([size * (p / 0.5) for p in positions], [time * (d / 0.5) for d in depths],
                         [time * (x / 0.5) for x in lengths], time * (deepest / 0.5))
                        for positions, depths, lengths, deepest in _sample_values(unit[2][0].with_suffix(".json"))]
            if not all(_fine(p + d + x) for p, d, x, _ in expected):
                continue
            assert code == 0, err
            drawn = list(_sample_values(tmp_path / command / "x.json"))
            assert len(drawn) == len(expected) == 3
            for (positions, depths, lengths, _), (e_pos, e_depths, e_lengths, deepest) in zip(drawn, expected):
                assert all(map(_one_rounding, positions, e_pos))
                assert all(map(_one_rounding, depths, e_depths))
                assert len(lengths) == len(e_lengths)
                assert all(_one_rounding(x, e, 2.0 * deepest) for x, e in zip(lengths, e_lengths))
