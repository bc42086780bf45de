"""Command-line front end: seeded runs, result persistence, verification.

Every command is reproducible from (config file, flags, seed); each
output file header echoes the settings that command takes.  The
--workers flag only distributes replicates and never changes output bytes.
``sample`` hands each record of its block (:func:`cbsfs.tree._sample_replicate`)
to the writer as text as soon as it is drawn, so it holds one block's arrays
and one record at a time; the other commands write a finished table.

Exit codes: 0 ok, 1 failed verification check or rejected value, 2 usage
error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import ExitStack
from pathlib import Path

from . import verify
from ._mc import Pool, replicate_blocks
from .clonal import MC_STATISTICS, clonal_summary, e_zcl_pow, e_zcl_pow_r, mc_clonal
from .model import ModelParams
from .reports import fmt_value, sample_paths, write_csv, write_json_doc, write_sample, write_text
from .sfs import SIMULATE_MODES, expected_sfs, g1, mean_density, simulate_sfs
from .specfun import QuadratureError
from .tree import RootMode, _sample_replicate


# The shared flags, in header order: name -> (type, default, choices, help).
# Each command takes the ones it reads (TAKES); its parser, the keys and
# values a --config file may set, and its file header all derive from these.
FLAGS = {
    "beta": (float, 1.0, None, "time-scale coefficient"),
    "theta": (float, 1.0, None, "inverse population-size scale"),
    "mu": (float, 1.0, None, "per-lineage mutation rate"),
    "seed": (int, 1, None, "base RNG seed"),
    "reps": (int, 1000, None, "number of replicates"),
    "n": (int, 10, None, "sample size"),
    "z0": (float, None, None, "condition on population size z0"),
    "out": (str, None, None, "output path (base path for `sample`)"),
    "format": (str, "csv", ("csv", "json"), "data file format"),
    "workers": (int, 1, None, "forked worker processes (output-invariant)"),
}
TAKES = {
    "sample": {"beta", "theta", "mu", "seed", "reps", "n", "z0", "out", "workers"},
    "sfs": set(FLAGS),
    "density": {"beta", "theta", "mu", "format", "out"},
    "g1": {"format", "out"},
    "clonal": {"beta", "theta", "mu", "seed", "reps", "format", "out", "workers"},
    "verify": {"beta", "theta", "mu", "seed", "reps", "out"},
}


def load_config_file(path: str) -> dict:
    """Flat key=value file of shared flags; '#' starts a comment; flags
    override these.  Each value is typed and choice-checked here."""
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in FLAGS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        kind, _, choices, _ = FLAGS[key]
        try:
            values[key] = kind(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: {key} must be of type {kind.__name__}, got {value!r}") from None
        if choices and values[key] not in choices:
            raise ValueError(f"{path}:{lineno}: {key} must be one of {', '.join(choices)}, got {value!r}")
    return values


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and its command parsers by name, which hold the
    defaults a --config file replaces."""
    parser = argparse.ArgumentParser(
        prog="cbsfs",
        description=(
            "Exact sampled genealogies, site frequency spectra and clonal "
            "statistics for a stationary quadratic branching population."
        ),
    )
    parser.add_argument("--config", help="flat key=value config file (flags override)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, summary: str) -> argparse.ArgumentParser:
        # no abbreviations: `clonal --n` must not become `--n-max`
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        for flag, (kind, default, choices, text) in FLAGS.items():
            if flag in TAKES[name]:
                p.add_argument(f"--{flag}", type=kind, default=default, choices=choices, help=text)
        return p

    p = command("sample", "sample genealogies to Newick + JSON replay")
    p.add_argument("--root-mode", choices=[m.value for m in RootMode], default=RootMode.POPULATION_MRCA.value,
                   help="root each tree at the population's MRCA or at the sample's")

    p = command("sfs", "expected or simulated site frequency spectrum")
    p.add_argument("--mode", choices=("expected", "simulate"), default="expected",
                   help="the closed-form spectrum alone, or beside a Monte-Carlo one")
    p.add_argument("--sim-mode", choices=SIMULATE_MODES, default="expected-lengths",
                   help="per-replicate statistic in simulate mode")

    p = command("density", "continuum mean-spectrum density on a grid")
    p.add_argument("--r-min", type=float, default=0.01, help="smallest r of the grid")
    p.add_argument("--r-max", type=float, default=5.0, help="largest r of the grid")
    p.add_argument("--points", type=int, default=100, help="grid size, geometric in r")

    p = command("g1", "distortion curves g1(z, u) on a u grid")
    p.add_argument("--z", default="0.5,1,2,4", help="comma list of z values")
    p.add_argument("--u-points", type=int, default=101, help="grid size on [0, 1]")

    p = command("clonal", "clonal moments, analytic and simulated")
    p.add_argument("--mode", choices=("analytic", "simulate"), default="analytic",
                   help="the closed-form moments alone, or beside Monte-Carlo ones")
    p.add_argument("--n-max", type=int, default=5, help="moments of order n = 1..n-max")
    p.add_argument("--statistic", choices=MC_STATISTICS, default="zpow_r",
                   help="E[Z_cl^(n-1) R] (zpow_r) or E[Z_cl^n] (zpow)")

    p = command("verify", "run a verification suite")
    p.add_argument("--suite", required=True, choices=sorted(verify.SUITES) + ["all"],
                   help="the checks to run")
    return parser, sub.choices


def settings(args) -> list[tuple[str, object]]:
    """The command's settings for its file header: every option it takes, in
    the order its parser added them (argparse fills the namespace that way),
    except --out and --workers (and the pool), which never change the data."""
    return [(key, value) for key, value in vars(args).items()
            if key not in ("config", "command", "out", "workers", "pool")]


# The most --workers a command takes.  The pool forks them all at its first
# block and keeps two pipe ends per process (512 descriptors at this bound,
# half the usual limit of 1024); a constant, so a config file valid on one
# machine is valid on all.
MAX_WORKERS = 256

# The most --points (density) and --u-points (g1): a grid is held in memory.
MAX_POINTS = 100_000


def cmd_sample(args, params: ModelParams) -> int:
    mode = RootMode(args.root_mode)
    base = args.out or "sample"
    blocks = replicate_blocks(
        _sample_replicate, (params, args.n, args.z0, mode), args.reps, args.seed, args.pool
    )
    write_sample(base, settings(args), blocks)
    nwk, doc = sample_paths(base)
    print(f"wrote {args.reps} replicates to {nwk} and {doc}")
    return 0


def _emit_table(args, columns, rows, **extra) -> None:
    """Write ``rows`` under the command's settings and any computed ``extra``."""
    command = args.command
    pairs = settings(args) + list(extra.items())
    path = args.out or f"{command}.{args.format}"
    if args.format == "csv":
        write_csv(path, command, pairs, columns, rows)
    else:
        payload = [dict(zip(columns, row)) for row in rows]
        write_json_doc(path, command, pairs, payload)
    print(f"wrote {path}")


def cmd_sfs(args, params: ModelParams) -> int:
    unit, alpha = params.time_unit, params.alpha
    mc_mean = mc_se = [None] * (args.n - 1)
    if args.mode == "simulate":
        mean, se = simulate_sfs(
            params,
            args.n,
            args.reps,
            args.seed,
            z0=args.z0,
            mode=args.sim_mode,
            pool=args.pool,
        )
        mc_mean, mc_se = mean.tolist(), se.tolist()
    # in model units: E[L_k] is the time unit times a length, E[xi_k] alpha times it
    x0 = None if args.z0 is None else params.model_size(args.z0)
    lk = expected_sfs(args.n, x0).tolist()
    columns = ["k", "expected_L", "expected_xi", "mc_mean", "mc_se"]
    rows = [
        [k, unit * length, alpha * length, m, s]
        for k, length, m, s in zip(range(1, args.n), lk, mc_mean, mc_se)
    ]
    _emit_table(args, columns, rows)
    return 0


def cmd_density(args, params: ModelParams) -> int:
    if not (args.r_min > 0 and args.r_max > args.r_min and args.points >= 2):
        raise ValueError("need 0 < --r-min < --r-max and --points >= 2")
    if params.mu == 0:
        raise ValueError("density needs --mu > 0: at mu = 0 no site mutates and the density is 0 everywhere")
    step = (args.r_max / args.r_min) ** (1.0 / (args.points - 1))
    if not math.isfinite(step):
        raise ValueError("--r-max / --r-min overflows a float")
    grid = [args.r_min * step**i for i in range(args.points - 1)] + [args.r_max]
    fs = [mean_density(params, r) for r in grid]
    for r, f in zip(grid, fs):  # an underflow to 0 or an overflow to inf
        if not 0 < f < math.inf:
            raise FloatingPointError(f"density values must be positive and finite: f({r!r}) = {f!r} left the float range")
    if any(a <= b for a, b in zip(fs, fs[1:])):  # coincident grid points
        raise FloatingPointError("density must decrease along the grid")
    _emit_table(args, ["r", "f"], [[r, f] for r, f in zip(grid, fs)])
    return 0


def cmd_g1(args, _: None) -> int:
    try:
        z_values = [float(z) for z in args.z.split(",") if z.strip()]
    except ValueError:
        z_values = []
    if not z_values or not all(0 < z < math.inf for z in z_values):
        raise ValueError(f"--z needs a comma list of positive finite values, got {args.z!r}")
    if args.u_points < 2:
        raise ValueError("--u-points must be >= 2")
    u_grid = [i / (args.u_points - 1) for i in range(args.u_points)]
    rows = [[u] + [g1(z, u) for z in z_values] for u in u_grid]
    columns = ["u"] + [f"g1[z={fmt_value(z)}]" for z in z_values]
    _emit_table(args, columns, rows)
    return 0


def cmd_clonal(args, params: ModelParams) -> int:
    if args.n_max < 1:
        raise ValueError("--n-max must be >= 1")
    moment = e_zcl_pow_r if args.statistic == "zpow_r" else e_zcl_pow
    rows = []
    for n in range(1, args.n_max + 1):
        mc = [None, None]
        if args.mode == "simulate":
            mc = mc_clonal(
                params,
                n,
                args.reps,
                args.seed,
                statistic=args.statistic,
                pool=args.pool,
            )
        rows.append([n, moment(params, n), *mc])
    summary = clonal_summary(params)
    extra = {key: summary[key] for key in ("e_r", "e_zcl", "cov_r_z0")}
    _emit_table(args, ["n", "analytic", "mc_mean", "mc_se"], rows, **extra)
    return 0


def cmd_verify(args, params: ModelParams) -> int:
    results = verify.run_suite(args.suite, params, args.reps, args.seed, verify.CLI_MARGIN)
    lines = [
        f"[{'PASS' if passed else 'FAIL'}] {name} — {detail}" for name, passed, detail in results
    ]
    passes = sum(passed for _, passed, _ in results)
    lines.append(f"{passes}/{len(results)} checks passed in suite {args.suite!r}")
    print("\n".join(lines))
    if args.out:
        write_text(args.out, lines)
    return 0 if passes == len(results) else 1


COMMANDS = {
    "sample": cmd_sample,
    "sfs": cmd_sfs,
    "density": cmd_density,
    "g1": cmd_g1,
    "clonal": cmd_clonal,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    parser, commands = build_parser()
    # first pass picks up --config so its values become overridable defaults
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        try:
            values = load_config_file(probe.config)
        except (OSError, ValueError) as exc:
            print(f"cbsfs: bad config file: {exc}", file=sys.stderr)
            return 2
        # one file serves every command: each takes only its own keys
        taken = TAKES[probe.command]
        commands[probe.command].set_defaults(**{k: v for k, v in values.items() if k in taken})
    args, extras = parser.parse_known_args(argv)
    if extras:  # the command's own usage shows the flags it takes
        commands[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    taken = TAKES[args.command]
    try:
        # values from outside, checked once
        for flag, low in (("workers", 1), ("seed", 0), ("reps", 1), ("n", 1)):
            if flag in taken and getattr(args, flag) < low:
                raise ValueError(f"--{flag} must be >= {low}, got {getattr(args, flag)}")
        for flag, high in (("workers", MAX_WORKERS), ("points", MAX_POINTS), ("u_points", MAX_POINTS)):
            value = getattr(args, flag, None)
            if value is not None and value > high:
                raise ValueError(f"--{flag.replace('_', '-')} must be <= {high}, got {value}")
        if getattr(args, "workers", 1) > 1 and not hasattr(os, "fork"):
            raise ValueError("--workers above 1 forks worker processes, which this platform cannot (no os.fork)")
        params = ModelParams(beta=args.beta, theta=args.theta, mu=args.mu) if "beta" in taken else None
        for flag in ("z0", "r_min", "r_max"):
            value = getattr(args, flag, None)
            if value is not None and not 0 < value < math.inf:
                raise ValueError(f"--{flag.replace('_', '-')} must be positive and finite, got {value}")
        with ExitStack() as stack:
            args.pool = None
            if getattr(args, "workers", 1) > 1:
                # one pool serves every run of the command; its processes
                # are forked at the first block and reaped when the command ends
                args.pool = stack.enter_context(Pool(args.workers))
            return COMMANDS[args.command](args, params)
    except (ValueError, OSError) as exc:
        print(f"cbsfs: {exc}", file=sys.stderr)
        return 1
    except (ArithmeticError, QuadratureError) as exc:
        # the command's settings, written as the flags that give them
        flags = " ".join(f"--{key.replace('_', '-')} {value}"
                         for key, value in settings(args) if value is not None)
        print(f"cbsfs: no finite result at {flags}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
