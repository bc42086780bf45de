"""A generated sweep of the command line: every command, with values drawn
for the flags it takes, runs ``cli.main`` in-process and must end cleanly.

The shared flags and which command takes them come from ``cli.FLAGS`` and
``cli.TAKES``; each command's own options come from its parser, so a new
option fails the sweep until it is given values here.  Floats are drawn
log-uniformly, over 1e-300..1e300 as often as over 0.01..100.  One value in
eight is an edge value instead: 0, a negative, the subnormal extreme, the
largest float, a non-finite value, or one that does not parse.  A config
file sets some of the shared flags in a quarter of the cases.

Each case must exit 0, 1 or 2 without a traceback or a numpy warning; an
exit-1 message names one of the command's flags (with or without ``--``)
or a value as it was typed; after a non-zero exit no output or temporary
file is left (a failed ``verify`` check keeps its report), and after exit
0 every number written is finite.

Sizes are kept small, so no case allocates more than a few tens of MB:
``--workers`` at most 2, ``--n`` at most 60, ``--reps`` at most 300,
``--points`` at most 50, ``--u-points`` at most 30, ``--n-max`` at most 12,
and ``verify`` runs only its analytic suites.  ``sample``'s atom budget is
lowered to 10 000 atoms per block.  Not swept: large ``--n``, ``--points``
and ``--u-points``.  Their memory grows without bound (one block of
``sample`` or ``sfs --mode simulate`` takes about 90 bytes per row and
leaf), and no limit rejects them yet, so a case there could exhaust the
machine instead of exiting 1.
"""

import math
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbsfs import cli

_floats = st.one_of(st.floats(-2.0, 2.0), st.floats(-300.0, 300.0)).map(lambda e: repr(10.0**e))

# Values by option name: the shared flags, then the command options that
# have no choices.  The integers are sized as above.
VALUES = {
    "beta": _floats,
    "theta": _floats,
    "mu": _floats,
    "z0": _floats,
    "seed": st.integers(0, 2**64).map(str),
    "reps": st.one_of(st.integers(1, 40), st.integers(100, 300)).map(str),
    "n": st.integers(1, 60).map(str),
    "workers": st.integers(1, 2).map(str),
    "r_min": _floats,
    "r_max": _floats,
    "points": st.integers(2, 50).map(str),
    "u_points": st.integers(2, 30).map(str),
    "n_max": st.integers(1, 12).map(str),
    "z": st.lists(_floats, min_size=1, max_size=3).map(",".join),
    "suite": st.sampled_from(["specfun", "quadrature-identities"]),
}
# Values out of range or that do not parse, by option type.
EDGES = {
    float: [repr(x) for x in (0.0, -1.0, 5e-324, 1.7e308, math.inf, -math.inf, math.nan)] + ["x"],
    int: ["0", "-1", "x", ""],
    str: ["", "x", "0,inf"],
}
_, PARSERS = cli.build_parser()


def _value(draw, dest: str, kind, choices) -> str:
    """One value of an option: one in eight is an edge value."""
    if draw(st.integers(0, 7)) == 0:
        return draw(st.sampled_from(EDGES[kind or str]))
    if dest in VALUES:  # --suite's choices include the Monte-Carlo suites
        return draw(VALUES[dest])
    assert choices, f"no values for --{dest}: add them to the sweep"
    return draw(st.sampled_from(list(choices)))


@st.composite
def invocations(draw):
    """An argv for one command, and the text of a config file or None."""
    command = draw(st.sampled_from(sorted(cli.TAKES)))
    argv = [command]
    for action in PARSERS[command]._actions:
        if action.dest in ("help", "out"):
            continue
        # --suite is required; every other option may keep its default
        if action.required or draw(st.booleans()):
            argv += [action.option_strings[0], _value(draw, action.dest, action.type, action.choices)]
    config = None
    if draw(st.integers(0, 3)) == 0:
        config = ""
        for key in draw(st.lists(st.sampled_from(sorted(set(cli.FLAGS) - {"out"})), max_size=3, unique=True)):
            kind, _, choices, _ = cli.FLAGS[key]
            config += f"{key}={_value(draw, key, kind, choices)}\n"
    return argv, config


def _numbers(text: str):
    """Every token of ``text`` that parses as a float."""
    for token in re.split(r"[\s,:;=()\[\]{}\"]+", text):
        try:
            yield token, float(token)
        except ValueError:
            pass


def _names_a_flag_or_value(message: str, argv: list[str], config: str | None) -> bool:
    """Whether ``message`` names one of the command's flags, with or without
    its ``--``, or one of the values typed on the line or in the config.
    ``--out`` is left out: no case types a bad one, and "out" is a word."""
    flags = [opt[2:] for action in PARSERS[argv[0]]._actions if action.dest not in ("help", "out")
             for opt in action.option_strings]
    values = [token for token in argv[1:] if not token.startswith("--")]
    values += [line.partition("=")[2] for line in (config or "").splitlines()]
    words = [rf"(?<![\w-])(?:--)?{re.escape(flag)}(?![\w-])" for flag in flags]
    words += [rf"(?<![\w.]){re.escape(value)}(?![\w.])" for value in values if value]
    return any(re.search(word, message) for word in words)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(derandomize=True, deadline=None, max_examples=300)
@given(invocations())
def test_every_command_exits_cleanly(invocation):
    argv, config = invocation
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "ATOM_BUDGET", 10_000)
        tmp = Path(tmp)
        prefix = []
        if config is not None:
            (tmp / "run.cfg").write_text(config)
            prefix = ["--config", str(tmp / "run.cfg")]
        out_dir = tmp / "out"
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            try:
                code = cli.main(prefix + argv + ["--out", str(out_dir / "x")])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        err = err.getvalue()
        assert code in (0, 1, 2), (code, err)
        assert "Traceback" not in err
        written = sorted(out_dir.rglob("*")) if out_dir.exists() else []
        if code != 0:
            # a failed verify check writes its report; a rejected run writes nothing
            report = argv[0] == "verify" and code == 1 and not err
            assert written == ([out_dir / "x"] if report else []), (err, written)
            assert report or code == 2 or (err.startswith("cbsfs: ") and err.count("\n") == 1), err
            assert report or code == 2 or _names_a_flag_or_value(err, argv, config), (argv, config, err)
            return
        assert written and not [p for p in written if p.name.endswith(".tmp")]
        for path in written:
            for token, value in _numbers(path.read_text()):
                assert math.isfinite(value), (path.name, token)
