"""The benchmark tools reach package functions and CLI flags by name, and
check the files the CLI writes; each name must exist and each output pass."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cbsfs
from cbsfs.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _env():
    """This environment with the package's ``src`` first on PYTHONPATH."""
    src = str(Path(cbsfs.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves():
    tracer = _load("tracer")
    for module_name, dotted, _ in tracer.TRACED:
        owner, attr = tracer._resolve(importlib.import_module(module_name), dotted)
        assert callable(getattr(owner, attr, None)), (module_name, dotted)


def test_the_cli_import_loads_every_traced_module():
    # install() imports cbsfs.cli alone and then reads sys.modules for each
    # TRACED module: a CLI that stopped importing one would fail every traced
    # run, though each module still imports on its own (test above)
    modules = sorted({module_name for module_name, _, _ in _load("tracer").TRACED})
    code = "import sys, cbsfs.cli; print(*[m for m in sys.argv[1:] if m not in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code, *modules], capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "", f"not loaded by `import cbsfs.cli`: {proc.stdout.strip()}"


def test_reference_tool_imports():
    # loading runs only its imports (main() is behind __main__), so a renamed
    # _sfs_replicate, _clonal_replicate or e_zcl_pow_r fails here
    reference = _load("make_reference")
    assert callable(reference.main)


def test_workload_commands_parse(capsys):
    # every benchmark command, and the `<command> --help` set-up probe timed
    # before it, must stay valid under the CLI's flags
    run = _load("run")
    parser, _ = build_parser()
    for name, workload in run.WORKLOADS.items():
        for size in (workload.full, workload.smoke):
            argv = workload.command(size) + ["--seed", "1"]
            assert parser.parse_args(argv).command == argv[0], name
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([argv[0], "--help"])
        assert exc.value.code == 0, name
    capsys.readouterr()


def test_workload_outputs_pass_their_checks(tmp_path, monkeypatch, capsys):
    # the benchmark's output checks read the files' formats (the `sample`
    # record keys among them), so a format change that breaks one fails here
    run = _load("run")
    monkeypatch.chdir(tmp_path)
    for name, workload in run.WORKLOADS.items():
        assert main(workload.command(workload.smoke) + ["--seed", "1"]) == 0, name
        assert workload.check(tmp_path, workload.smoke) == [], name
    capsys.readouterr()


def test_pooled_blocks_are_traced_in_the_pool_processes(tmp_path):
    # the tracer flushes a pool process's spans when its wrapped _run_chunk
    # returns, so each block must run through _run_chunk in the process
    # that draws it: 2100 replicates are 3 blocks, and n-max 2 is 2 runs
    spans = tmp_path / "spans"
    spans.mkdir()
    command = ["clonal", "--mode", "simulate", "--n-max", "2", "--reps", "2100", "--workers", "2"]
    proc = subprocess.run([sys.executable, str(PERFBENCH / "tracer.py"), str(spans), "--", *command],
                          cwd=tmp_path, capture_output=True, text=True, env=_env())
    assert proc.returncode == 0, proc.stderr
    (main_file,) = spans.glob("spans-*-main.json")
    main_pid = int(main_file.name.split("-")[1])
    chunks = [span for path in spans.glob("spans-*-w*.json")
              for span in json.loads(path.read_text())["spans"] if span[4] == "mc.chunk"]
    pids = {span[0] for span in chunks}
    assert len(chunks) == 6
    assert len(pids) == 2 and main_pid not in pids
