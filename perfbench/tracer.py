"""Traced run of one cbsfs CLI command, and the per-layer split of its spans.

Run as ``python perfbench/tracer.py SPANS_DIR -- <cbsfs arguments>`` with
``src`` on ``sys.path``.  It imports ``cbsfs.cli``, replaces every binding
of the functions in ``TRACED`` (in every ``cbsfs`` module that holds one,
since ``sfs``, ``clonal``, ``cli`` and ``verify`` import names directly)
by a wrapper that records a span, runs ``cbsfs.cli.main`` inside a root
span and writes the spans out when the command ends.  The package itself
is not modified.

A span is ``[pid, id, parent_pid, parent_id, name, start_ns, end_ns]``.
Spans stay in memory; the main process writes them at the end, and pool
workers (which inherit the wrappers under fork) write theirs when each
replicate chunk finishes, because they leave through ``os._exit``.
``summarize`` turns the files of one run into ``<module>.<metric>`` values.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import sys
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute, span name); "Class.method" patches the class.  Each
# span name is "<module>.<operation>", the module being its layer.
TRACED = [
    ("cbsfs._mc", "replicate_rng", "mc.rng"),
    ("cbsfs._mc", "map_replicates", "mc.map"),
    ("cbsfs._mc", "_run_chunk", "mc.chunk"),
    ("cbsfs._mc", "mean_and_se", "mc.mean_and_se"),
    ("cbsfs.genealogy", "sample_population", "genealogy.draw"),
    ("cbsfs.genealogy", "sample_zetas", "genealogy.draw"),
    ("cbsfs.genealogy", "Lk_all", "genealogy.lk"),
    ("cbsfs.genealogy", "population_tree_length", "genealogy.length"),
    ("cbsfs.genealogy", "sample_tree_length", "genealogy.length"),
    ("cbsfs.genealogy", "LeafConfig.to_dict", "genealogy.serialize"),
    ("cbsfs.genealogy", "ZetaVector.to_dict", "genealogy.serialize"),
    ("cbsfs.tree", "build_tree", "tree.build"),
    ("cbsfs.tree", "drop_mutations", "tree.mutate"),
    ("cbsfs.tree", "newick_export", "tree.newick"),
    ("cbsfs.tree", "GenealogyTree.to_dict", "tree.serialize"),
    ("cbsfs.tree", "MutationOverlay.to_dict", "tree.serialize"),
    ("cbsfs.sfs", "expected_sfs", "sfs.expected"),
    ("cbsfs.sfs", "s_ell", "sfs.s_ell"),
    ("cbsfs.sfs", "simulate_sfs", "sfs.simulate"),
    ("cbsfs.sfs", "_sfs_replicate", "sfs.replicate"),
    ("cbsfs.specfun", "adaptive_quad", "specfun.quad"),
    ("cbsfs.clonal", "mc_clonal", "clonal.mc"),
    ("cbsfs.clonal", "_clonal_replicate", "clonal.replicate"),
    ("cbsfs.clonal", "e_zcl_pow_r", "clonal.analytic"),
    ("cbsfs.clonal", "e_zcl_pow", "clonal.analytic"),
    ("cbsfs.clonal", "clonal_summary", "clonal.analytic"),
    ("cbsfs.reports", "write_csv", "reports.write"),
    ("cbsfs.reports", "write_json_doc", "reports.write"),
    ("cbsfs.reports", "write_text", "reports.write"),
]

ROOT = "cli.main"
MODULES = ["cli", "mc", "genealogy", "tree", "sfs", "specfun", "clonal", "reports"]

# Every per-layer metric with its unit, in report order.  Sums over calls
# and over processes; "_s" values are inclusive span time unless "self".
LAYER_METRICS = {
    **{f"{m}.self_s": "s" for m in MODULES},
    "cli.import_s": "s",
    "mc.rng_s": "s",
    "mc.rng_calls": "count",
    "mc.map_s": "s",
    "mc.parallel_eff": "ratio",
    "genealogy.draw_s": "s",
    "genealogy.draw_calls": "count",
    "genealogy.redraws": "count",
    "genealogy.lk_s": "s",
    "genealogy.lk_calls": "count",
    "genealogy.length_s": "s",
    "tree.build_s": "s",
    "tree.mutate_s": "s",
    "tree.newick_s": "s",
    "tree.serialize_s": "s",
    "tree.nodes": "count",
    "tree.mutations": "count",
    "sfs.expected_s": "s",
    "sfs.s_ell_s": "s",
    "sfs.s_ell_calls": "count",
    "specfun.quad_s": "s",
    "specfun.quad_calls": "count",
    "specfun.quad_evals": "count",
    "specfun.evals_per_quad": "ratio",
    "clonal.mc_s": "s",
    "clonal.analytic_s": "s",
    "reports.write_s": "s",
    "reports.bytes": "bytes",
    "trace.command_s": "s",
    "trace.coverage": "ratio",
}


class Recorder:
    """Spans and counters of one process; reset in a forked child."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.next_id = 0
        self.stack: list[tuple[int, int]] = []
        self.spans: list[list] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.flushes = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # the stack is kept: the forking span becomes the child's parent
        self.pid = os.getpid()
        self.next_id = 0
        self.spans = []
        self.counters = defaultdict(int)
        self.flushes = 0

    def wrap(self, fn, name, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else (0, -1)
            sid = (self.pid, self.next_id)
            self.next_id += 1
            self.stack.append(sid)
            start = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self.stack.pop()
                self.spans.append([*sid, *parent, name, start, end])
            if after is not None:
                after(out, args, kwargs)
            return out

        return traced

    def flush(self) -> None:
        """Write this process's spans and counters to a new file and drop them."""
        tag = "main" if self.pid == self.main_pid else f"w{self.flushes}"
        self.flushes += 1
        path = self.out_dir / f"spans-{self.pid}-{tag}.json"
        path.write_text(json.dumps({"spans": self.spans, "counters": self.counters}))
        self.spans = []
        self.counters = defaultdict(int)


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def install(rec: Recorder) -> None:
    """Replace every binding of each traced function in the cbsfs modules."""
    import cbsfs.cli  # noqa: F401  (imports every module the CLI uses)

    def count(key, measure):
        def after(out, args, kwargs):
            rec.counters[key] += measure(out, args, kwargs)

        return after

    def flush_if_worker(out, args, kwargs):
        if rec.pid != rec.main_pid:
            rec.flush()

    def file_bytes(out, args, kwargs):
        return Path(args[0]).stat().st_size

    after_hooks = {
        "tree.build": count("tree.nodes", lambda out, a, k: len(out.nodes)),
        "tree.mutate": count("tree.mutations", lambda out, a, k: len(out.atoms)),
        "reports.write": count("reports.bytes", file_bytes),
        "mc.chunk": flush_if_worker,
    }
    cbsfs_modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "cbsfs"]
    for module_name, dotted, name in TRACED:
        owner, attr = _resolve(sys.modules[module_name], dotted)
        original = getattr(owner, attr)
        fn = _counting_quad(original, rec) if name == "specfun.quad" else original
        wrapper = rec.wrap(fn, name, after_hooks.get(name))
        if "." in dotted:
            setattr(owner, attr, wrapper)
            continue
        for module in cbsfs_modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    class RedrawCounter(logging.Handler):
        def emit(self, record: logging.LogRecord) -> None:
            rec.counters["genealogy.redraws"] += 1

    logging.getLogger("cbsfs.genealogy").addHandler(RedrawCounter(logging.WARNING))


def _counting_quad(quad, rec: Recorder):
    """adaptive_quad that counts the evaluations of the integrand it receives."""

    @functools.wraps(quad)
    def counted_quad(func, *args, **kwargs):
        def counted(*x):
            rec.counters["specfun.quad_evals"] += 1
            return func(*x)

        return quad(counted, *args, **kwargs)

    return counted_quad


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS_DIR -- <cbsfs arguments>", file=sys.stderr)
        return 2
    out_dir = Path(argv[0])
    start = time.perf_counter_ns()
    import cbsfs.cli

    import_ns = time.perf_counter_ns() - start
    rec = Recorder(out_dir)
    install(rec)
    rec.counters["cli.import_ns"] = import_ns
    status = rec.wrap(cbsfs.cli.main, ROOT)(argv[2:])
    rec.flush()
    return status


def _self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the part of it that its children cover.

    Children in one process never overlap; pool-worker children of one
    span do, so the covered part is the union of the child intervals.
    """
    children = defaultdict(list)
    for s in spans:
        children[(s[2], s[3])].append((s[5], s[6]))
    out = []
    for s in spans:
        start, end = s[5], s[6]
        covered, reach = 0, start
        for a, b in sorted(children.get((s[0], s[1]), ())):
            a, b = max(a, reach), min(b, end)
            if b > a:
                covered += b - a
                reach = b
        out.append(end - start - covered)
    return out


def summarize(spans_dir: Path, workers: int) -> dict[str, float]:
    """Per-layer metrics of one traced command from its span files."""
    spans, counters = [], defaultdict(int)
    for path in sorted(spans_dir.glob("spans-*.json")):
        doc = json.loads(path.read_text())
        spans.extend(doc["spans"])
        for key, value in doc["counters"].items():
            counters[key] += value
    total = defaultdict(int)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for s, own in zip(spans, _self_times(spans)):
        total[s[4]] += s[6] - s[5]
        calls[s[4]] += 1
        self_ns[s[4].split(".")[0]] += own
    def sec(ns: int) -> float:
        return ns / 1e9

    busy = sum(self_ns.values())
    replicate_ns = total["mc.rng"] + total["sfs.replicate"] + total["clonal.replicate"]
    values = {f"{m}.self_s": sec(self_ns[m]) for m in MODULES}
    values.update(
        {
            "cli.import_s": sec(counters["cli.import_ns"]),
            "mc.rng_s": sec(total["mc.rng"]),
            "mc.rng_calls": calls["mc.rng"],
            "mc.map_s": sec(total["mc.map"]),
            "mc.parallel_eff": replicate_ns / (workers * total["mc.map"]) if total["mc.map"] else 0.0,
            "genealogy.draw_s": sec(total["genealogy.draw"]),
            "genealogy.draw_calls": calls["genealogy.draw"],
            "genealogy.redraws": counters["genealogy.redraws"],
            "genealogy.lk_s": sec(total["genealogy.lk"]),
            "genealogy.lk_calls": calls["genealogy.lk"],
            "genealogy.length_s": sec(total["genealogy.length"]),
            "tree.build_s": sec(total["tree.build"]),
            "tree.mutate_s": sec(total["tree.mutate"]),
            "tree.newick_s": sec(total["tree.newick"]),
            "tree.serialize_s": sec(total["tree.serialize"]),
            "tree.nodes": counters["tree.nodes"],
            "tree.mutations": counters["tree.mutations"],
            "sfs.expected_s": sec(total["sfs.expected"]),
            "sfs.s_ell_s": sec(total["sfs.s_ell"]),
            "sfs.s_ell_calls": calls["sfs.s_ell"],
            "specfun.quad_s": sec(total["specfun.quad"]),
            "specfun.quad_calls": calls["specfun.quad"],
            "specfun.quad_evals": counters["specfun.quad_evals"],
            "specfun.evals_per_quad": (
                counters["specfun.quad_evals"] / calls["specfun.quad"] if calls["specfun.quad"] else 0.0
            ),
            "clonal.mc_s": sec(total["clonal.mc"]),
            "clonal.analytic_s": sec(total["clonal.analytic"]),
            "reports.write_s": sec(total["reports.write"]),
            "reports.bytes": counters["reports.bytes"],
            "trace.command_s": sec(total[ROOT]),
            "trace.coverage": 1.0 - self_ns["cli"] / busy if busy else 0.0,
        }
    )
    assert set(values) == set(LAYER_METRICS)
    return values


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
