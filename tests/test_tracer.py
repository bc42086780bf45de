"""The benchmark tools reach package functions and CLI flags by name, and
check the files the CLI writes; each name must exist and each output pass."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from cbsfs.cli import build_parser, main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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
