"""The cbsfs benchmark: four CLI workloads, end-to-end metrics and a traced split.

Usage, from the root of a checkout (the package is run from ``src``, not
installed)::

    python3 perfbench/run.py --workload sfs-sim --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

One client runs one ``python -m cbsfs.cli`` command at a time (a closed
loop).  With ``--trace 0`` it repeats the workload command until
``--seconds`` have passed, timing ``<subcommand> --help`` (set-up) before
every second command, and reports the end-to-end metrics.  With ``--trace 1`` it alternates the plain command with
the same command under ``perfbench/tracer.py`` and reports the per-layer
metrics.  Every output is checked outside the timed region, and the
Monte-Carlo means of all the run's tables are tested pooled at its end; the
last stdout line is the JSON result.  ``--smoke`` runs every workload once at a tiny
size and shows that each output check rejects a corrupted output.
DESIGN.md records why each workload exists and which layer metric should
move which end-to-end metric.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracer  # noqa: E402

TIMEOUT_S = 120.0
TARGET_RSE = 0.01
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")

CLI = ["-m", "cbsfs.cli"]  # the package is run from src, not installed
SETUP_EVERY = 2  # one `--help` set-up measurement per this many commands

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {**tracer.LAYER_METRICS, "mc.time_to_1pct_s": "s", "trace.overhead_s": "s"}


@dataclass(frozen=True)
class Workload:
    command: Callable[[dict], list[str]]  # cbsfs arguments for a size, writing into cwd
    check: Callable[[Path, dict], list[str]]
    full: dict  # sizes; "workers" is the pool size where the command takes one
    smoke: dict
    mc_table: str | None = None  # output with an mc_se column, for mc.time_to_1pct_s
    pooled: Callable[[list, dict], list[str]] | None = None  # test of the mc_table means over a run

    def outputs(self, size: dict) -> list[str]:
        args = self.command(size)
        out = args[args.index("--out") + 1]
        return [f"{out}.nwk", f"{out}.json"] if args[0] == "sample" else [out]


REFERENCE = HERE / "reference"
SFS_SIM_SD = json.loads((REFERENCE / "sfs-sim-sd.json").read_text())
CLONAL_SIM = json.loads((REFERENCE / "clonal-sim.json").read_text())

WORKLOADS = {
    "sfs-sim": Workload(
        command=lambda s: ["sfs", "--mode", "simulate", "--n", str(s["n"]), "--z0", "2.0",
                           "--workers", "1", "--reps", str(s["reps"]), "--out", "sfs.csv"],
        check=lambda out, s: checks.check_sfs_sim(out, s["n"], REFERENCE / f"sfs-sim-expected-n{s['n']}.csv"),
        full={"n": 50, "reps": 600},
        smoke={"n": 10, "reps": 200},
        mc_table="sfs.csv",
        pooled=lambda tables, s: checks.check_pooled(tables, s["reps"], "k", "expected_xi", SFS_SIM_SD[f"n{s['n']}"]),
    ),
    "clonal-sim": Workload(
        command=lambda s: ["clonal", "--mode", "simulate", "--n-max", str(s["n_max"]),
                           "--workers", str(s["workers"]), "--reps", str(s["reps"]), "--out", "clonal.csv"],
        check=lambda out, s: checks.check_clonal_sim(out, s["n_max"], CLONAL_SIM["analytic"][: s["n_max"]]),
        full={"n_max": 5, "reps": 3000, "workers": 2},
        smoke={"n_max": 3, "reps": 200, "workers": 2},
        mc_table="clonal.csv",
        pooled=lambda tables, s: checks.check_pooled(tables, s["reps"], "n", "analytic", CLONAL_SIM["sd"]),
    ),
    "sfs-expected": Workload(
        command=lambda s: ["sfs", "--mode", "expected", "--n", str(s["n"]), "--out", "expected.csv"],
        check=lambda out, s: checks.check_sfs_expected(out, HERE / "reference" / f"sfs-expected-n{s['n']}.csv"),
        full={"n": 200},
        smoke={"n": 20},
    ),
    "sample-trees": Workload(
        command=lambda s: ["sample", "--n", str(s["n"]), "--root-mode", "population",
                           "--reps", str(s["reps"]), "--out", "trees"],
        check=lambda out, s: checks.check_sample_trees(out, s["n"], s["reps"]),
        full={"n": 200, "reps": 200},
        smoke={"n": 10, "reps": 5},
    ),
}


@dataclass
class Proc:
    wall_s: float
    rss_mb: float
    status: int
    stderr: str


class Runner:
    """Starts one cbsfs process at a time and waits for it (and its pool)."""

    def __init__(self, root: Path, work: Path) -> None:
        self.work = work
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src

    def run(self, argv: list[str], cwd: Path) -> Proc:
        """Wall time from spawn to exit, and the largest RSS of the process
        tree (wait4 folds in every descendant the child has waited for)."""
        with tempfile.TemporaryFile(dir=self.work) as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv], cwd=cwd, env=self.env,
                stdout=subprocess.DEVNULL, stderr=err, start_new_session=True,
            )
            timer = threading.Timer(TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4, not by Popen
            err.seek(0)
            text = err.read().decode(errors="replace")
        return Proc(wall, usage.ru_maxrss / 1024.0, proc.returncode, text[-2000:])

    def cli(self, args: list[str], cwd: Path) -> Proc:
        return self.run([*CLI, *args], cwd)


def check_output(w: Workload, size: dict, proc: Proc, out: Path) -> list[str]:
    if proc.status != 0:
        return [f"exit status {proc.status}: {proc.stderr.strip()}"]
    missing = [name for name in w.outputs(size) if not (out / name).is_file()]
    if missing:
        return [f"missing output {missing}"]
    try:
        return w.check(out, size)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {label}: " + "; ".join(problems[:5]), file=sys.stderr)
        return not problems


def command(w: Workload, seed: int, i: int) -> list[str]:
    """The i-th command of a run: each gets its own input seed."""
    return w.command(w.full) + ["--seed", str(seed * 1000 + i)]


def run_checked(w: Workload, size: dict, runner: Runner, prefix: list[str], args: list[str], out: Path,
                tally: Tally) -> Proc | None:
    """Run one command into ``out``; the Proc if its output passed, else None."""
    for name in w.outputs(size):
        (out / name).unlink(missing_ok=True)
    proc = runner.run([*prefix, *args], out)
    ok = tally.record(" ".join(args), check_output(w, size, proc, out))
    return proc if ok else None


def check_run(w: Workload, size: dict, tables: list, tally: Tally) -> None:
    """The Monte-Carlo means of all the run's tables (one per seed), pooled."""
    if w.pooled and tables:
        tally.record(f"pooled test of {len(tables)} table(s)", w.pooled(tables, size))


def traced(spans: Path) -> list[str]:
    """Interpreter arguments that run a command under the tracer into a fresh ``spans``."""
    return [str(HERE / "tracer.py"), str(fresh_dir(spans)), "--"]


def measure_end_to_end(w: Workload, runner: Runner, seed: int, seconds: float, tally: Tally) -> dict:
    out = fresh_dir(runner.work / "out")
    setups, walls, rss, tables = [], [], [], []
    start, i = time.perf_counter(), 0
    while time.perf_counter() - start < seconds or not i:
        args = command(w, seed, i)
        if i % SETUP_EVERY == 0:
            helped = runner.cli([args[0], "--help"], out)
            if tally.record("--help", [] if helped.status == 0 else [helped.stderr.strip()]):
                setups.append(helped.wall_s)
        i += 1
        proc = run_checked(w, w.full, runner, CLI, args, out, tally)
        if proc:
            walls.append(proc.wall_s)
            rss.append(proc.rss_mb)
            if w.mc_table:
                tables.append(checks.read_table(out / w.mc_table))
    check_run(w, w.full, tables, tally)
    if "workers" in w.full:
        check_worker_identity(w, w.full, runner, args, out, tally)
    if not walls or not setups:
        return {}
    return {"wall_s": walls, "setup_s": setups, "peak_rss_mb": rss}


def check_worker_identity(w: Workload, size: dict, runner: Runner, args: list[str], out: Path, tally: Tally) -> None:
    """The same command with --workers 1 must write byte-identical files."""
    single = fresh_dir(runner.work / "workers1")
    serial = list(args)
    serial[serial.index("--workers") + 1] = "1"
    proc = runner.cli(serial, single)
    problems = [] if proc.status == 0 else [proc.stderr.strip()]
    for name in w.outputs(size):
        a, b = out / name, single / name
        if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
            problems.append(f"{name} differs between --workers {size['workers']} and --workers 1")
    tally.record("worker byte-identity", problems)


def measure_per_layer(w: Workload, runner: Runner, seed: int, seconds: float, tally: Tally) -> dict:
    out = fresh_dir(runner.work / "out")
    spans = runner.work / "spans"
    plain, traced_walls, layers, tables = [], [], [], []
    start, i = time.perf_counter(), 0
    while time.perf_counter() - start < seconds or not i:
        args = command(w, seed, i)
        i += 1
        proc = run_checked(w, w.full, runner, CLI, args, out, tally)
        if proc:
            plain.append(proc.wall_s)
            if w.mc_table:
                tables.append(checks.read_table(out / w.mc_table))
        proc = run_checked(w, w.full, runner, traced(spans), args, out, tally)
        if proc:
            traced_walls.append(proc.wall_s)
            layers.append(tracer.summarize(spans, w.full.get("workers", 1)))
    check_run(w, w.full, tables, tally)
    if "workers" in w.full:
        check_worker_identity(w, w.full, runner, args, out, tally)
    if not layers or not plain:
        return {}
    samples = {name: [m[name] for m in layers] for name in tracer.LAYER_METRICS}
    samples["trace.overhead_s"] = [statistics.median(traced_walls) - statistics.median(plain)]
    # time to a 1% relative standard error of the worst row, from the
    # command time and the plain runs' tables; 0 without a Monte-Carlo table
    scale = (checks.rse_max(tables) / TARGET_RSE) ** 2 if tables else 0.0
    samples["mc.time_to_1pct_s"] = [x * scale for x in samples["trace.command_s"]]
    return samples


def provenance(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},  # only this checkout's own repository
        ).stdout.strip() or "unknown (not a git checkout)"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (git unavailable)"
    src = hashlib.sha256()
    for path in sorted((root / "src" / "cbsfs").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "command": ["python", "-m", "cbsfs.cli", *WORKLOADS[workload].command(WORKLOADS[workload].full),
                    "--seed", f"{seed * 1000}+i for the i-th command"],
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_env": {name: os.environ.get(name) for name in BLAS_VARS},
    }


def report(samples: dict, units: dict, tally: Tally, prov: dict) -> None:
    metrics = {}
    for name, unit in units.items():
        values = samples.get(name)
        if not values:
            continue
        med, q1, q3 = summary(values)
        print(f"{name:24s} {med:14.6g} {unit:6s} q1={q1:.6g} q3={q3:.6g} runs={len(values)}")
        metrics[name] = {"value": med, "unit": unit}
    print("provenance " + json.dumps(prov, sort_keys=True))
    correct = tally.failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed, "metrics": metrics}))


def smoke_problems(w: Workload, proc: Proc, out: Path) -> list[str]:
    """The output check of one smoke command, then the pooled test of its table alone."""
    return check_output(w, w.smoke, proc, out) or (
        w.pooled([checks.read_table(out / w.mc_table)], w.smoke) if w.pooled else [])


def smoke(runner: Runner) -> int:
    """Every workload once at a tiny size, traced once, and every output
    check shown to reject a corrupted copy of the output it passed."""
    failures = []

    def expect(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        if not ok:
            failures.append(label)

    for name, w in WORKLOADS.items():
        args = w.command(w.smoke) + ["--seed", "1"]
        out, spans, tally = fresh_dir(runner.work / name), runner.work / "spans", Tally()
        expect(f"{name}: traced run passes its check", bool(run_checked(w, w.smoke, runner, traced(spans), args, out, tally)))
        metrics = tracer.summarize(spans, w.smoke.get("workers", 1))
        expect(f"{name}: traced run reports every per-layer metric", set(metrics) == set(tracer.LAYER_METRICS))
        proc = run_checked(w, w.smoke, runner, CLI, args, out, tally)
        expect(f"{name}: runs and passes its check", bool(proc))
        if not proc:
            continue
        if w.pooled:
            expect(f"{name}: passes the pooled Monte-Carlo test", not smoke_problems(w, proc, out))
        for label, corrupt in CORRUPTIONS[name]:
            bad = runner.work / f"{name}-bad"
            shutil.rmtree(bad, ignore_errors=True)
            shutil.copytree(out, bad)
            corrupt(bad)
            expect(f"{name}: check rejects {label}", bool(smoke_problems(w, proc, bad)))
        if "workers" in w.smoke:
            check_worker_identity(w, w.smoke, runner, args, out, tally)
            expect(f"{name}: --workers 1 output is byte-identical", tally.failed == 0)
            (out / w.outputs(w.smoke)[0]).write_text("corrupted\n")
            check_worker_identity(w, w.smoke, runner, args, out, tally)
            expect(f"{name}: byte-identity check rejects a corrupted output", tally.failed == 1)
    print(f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


def _edit_table(name: str, column: str, row: int, change: Callable[[dict], float]):
    def corrupt(out: Path) -> None:
        path = out / name
        lines = path.read_text().splitlines()
        first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        columns = lines[first].split(",")
        cells = lines[first + 1 + row].split(",")
        record = {c: float(v) if v else None for c, v in zip(columns, cells)}
        cells[columns.index(column)] = repr(change(record))
        lines[first + 1 + row] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")

    return corrupt


def _edit_trees(edit: Callable[[list[str], dict], None]):
    def corrupt(out: Path) -> None:
        newicks = (out / "trees.nwk").read_text().splitlines()
        doc = json.loads((out / "trees.json").read_text())
        edit(newicks, doc)
        (out / "trees.nwk").write_text("\n".join(newicks) + "\n")
        for record, newick in zip(doc["data"], newicks):
            record["newick"] = newick
        (out / "trees.json").write_text(json.dumps(doc))

    return corrupt


def _swap_leaf(newicks: list[str], doc: dict) -> None:
    newicks[0] = newicks[0].replace("X1:", "X2:", 1)


def _stretch_branch(newicks: list[str], doc: dict) -> None:
    newicks[0] = re.sub(r"X0:([^,();]+)", lambda m: f"X0:{float(m[1]) * (1 + 1e-6)!r}", newicks[0], count=1)


def _drop_record(newicks: list[str], doc: dict) -> None:
    newicks.pop()
    doc["data"].pop()


CORRUPTIONS = {
    "sfs-sim": [
        ("an mc_mean 5 SE off", _edit_table("sfs.csv", "mc_mean", 2, lambda r: r["mc_mean"] + 5 * r["mc_se"])),
        ("expected_xi off by 1e-7 relative",
         _edit_table("sfs.csv", "expected_xi", 4, lambda r: r["expected_xi"] * (1 + 1e-7))),
        ("a zero mc_se", _edit_table("sfs.csv", "mc_se", 0, lambda r: 0.0)),
    ],
    "clonal-sim": [
        ("an mc_mean 5 SE off", _edit_table("clonal.csv", "mc_mean", 1, lambda r: r["mc_mean"] - 5 * r["mc_se"])),
        ("an analytic value off by 1e-7 relative",
         _edit_table("clonal.csv", "analytic", 2, lambda r: r["analytic"] * (1 + 1e-7))),
    ],
    "sfs-expected": [
        ("expected_L off by 1e-7 relative",
         _edit_table("expected.csv", "expected_L", 3, lambda r: r["expected_L"] * (1 + 1e-7))),
        ("a non-positive expected_L", _edit_table("expected.csv", "expected_L", 0, lambda r: 0.0)),
    ],
    "sample-trees": [
        ("a repeated leaf label", _edit_trees(_swap_leaf)),
        ("a branch stretched by 1e-6 relative", _edit_trees(_stretch_branch)),
        ("a missing record", _edit_trees(_drop_record)),
    ],
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny run of every workload plus check self-tests")
    args = parser.parse_args(argv)
    if not args.smoke and not args.workload:
        parser.error("--workload is required unless --smoke is given")
    root = Path.cwd()
    if not (root / "src" / "cbsfs" / "cli.py").is_file():
        print(f"perfbench: no cbsfs sources under {root / 'src'}; run from the repository root", file=sys.stderr)
        return 2
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=scratch))
    try:
        runner = Runner(root, work)
        if args.smoke:
            return smoke(runner)
        w, tally = WORKLOADS[args.workload], Tally()
        if args.trace:
            samples = measure_per_layer(w, runner, args.seed, args.seconds, tally)
            units = PER_LAYER
        else:
            samples = measure_end_to_end(w, runner, args.seed, args.seconds, tally)
            units = END_TO_END
        if not samples:
            print("perfbench: no run of the workload succeeded", file=sys.stderr)
            return 1
        report(samples, units, tally, provenance(root, args.workload, args.seed, args.seconds, args.trace))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
