"""End-to-end CLI tests: determinism, formats, exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from itertools import chain
from pathlib import Path

import pytest

import cbsfs
from cbsfs import cli
from cbsfs._mc import BLOCK, replicate_blocks, replicate_rng
from cbsfs.cli import _sample_replicate, build_parser, main
from cbsfs.clonal import e_zcl_pow_r
from cbsfs.model import ModelParams
from cbsfs.reports import sample_item, write_sample, write_text
from cbsfs.sfs import expected_sfs, g1
from cbsfs.tree import RootMode, build_tree, newick_export
from oracles import sample_records
from replay import leaf_config_from_dict, zeta_vector_from_dict


def run(*argv):
    return main([str(a) for a in argv])


def all_records(fn, args, reps, seed):
    """Every record the block function ``fn`` draws, in replicate order."""
    return list(chain.from_iterable(replicate_blocks(fn, args, reps, seed)))


def row_texts(rows):
    """The Newick line and the JSON item of each ``sample`` row, in order."""
    return [(row[0], sample_item(i, row)) for i, row in enumerate(rows)]


def record_texts(records):
    """The Newick text and the compact sorted-key ``json.dumps`` of each
    oracle record with its replicate index, in order."""
    dumps = [json.dumps({"replicate": i, **r}, sort_keys=True, separators=(",", ":")) for i, r in enumerate(records)]
    return [(record["newick"], item) for record, item in zip(records, dumps)]


def run_python(*args, cwd=None, env=None):
    """A fresh interpreter with the package on its path (module state such
    as sys.modules and logging handlers starts clean), under ``env`` on top
    of this process's environment."""
    src = str(Path(cbsfs.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, **(env or {}), "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=cwd
    )


class TestSampleCommand:
    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("sample", "--n", 4, "--reps", 3, "--seed", 42, "--out", a) == 0
        assert run("sample", "--n", 4, "--reps", 3, "--seed", 42, "--out", b) == 0
        assert a.with_suffix(".nwk").read_bytes() == b.with_suffix(".nwk").read_bytes()
        assert a.with_suffix(".json").read_bytes() == b.with_suffix(".json").read_bytes()

    def test_replicate_count_and_schema(self, tmp_path):
        out = tmp_path / "run"
        assert run("sample", "--n", 3, "--reps", 3, "--seed", 1, "--out", out) == 0
        lines = out.with_suffix(".nwk").read_text().strip().splitlines()
        assert len(lines) == 3
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["schema_version"] == 4
        assert len(doc["data"]) == 3
        for i, record in enumerate(doc["data"]):
            # each record holds its draw once: no tree, no derived key
            assert record["replicate"] == i
            assert set(record) == {"replicate", "leaf_config", "zetas", "mutations", "newick"}
            assert set(record["leaf_config"]) == {"positions", "labels"}
            assert set(record["zetas"]) == {"zetas"}
            assert set(record["mutations"]) == {"atoms"}

    def test_single_leaf_degenerate(self, tmp_path):
        out = tmp_path / "one"
        assert run("sample", "--n", 1, "--reps", 1, "--seed", 5, "--root-mode", "sample",
                   "--out", out) == 0
        assert out.with_suffix(".nwk").read_text().strip() == "(X0:0.0);"

    @pytest.mark.parametrize("root_mode", ["sample", "population"])
    @pytest.mark.parametrize("n", [1, 7, 50])
    def test_records_replay(self, tmp_path, n, root_mode):
        # every record rebuilds its tree and Newick line from its own draw,
        # and each mutation atom names an edge of that tree
        out = tmp_path / "run"
        assert run("sample", "--n", n, "--reps", 4, "--seed", 9, "--root-mode", root_mode,
                   "--out", out) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        lines = out.with_suffix(".nwk").read_text().splitlines()
        assert len(doc["data"]) == len(lines) == 4
        mode = RootMode(doc["config"]["root_mode"])
        atoms = 0
        for record, line in zip(doc["data"], lines):
            tree = build_tree(
                leaf_config_from_dict(record["leaf_config"]),
                zeta_vector_from_dict(record["zetas"]),
                mode,
            )
            assert newick_export(tree) == record["newick"] == line
            lengths = {child: length for child, _, length in tree.edges()}
            for edge, depth in record["mutations"]["atoms"]:
                assert edge != tree.root and 0.0 <= depth < lengths[edge]
            atoms += len(record["mutations"]["atoms"])
        assert atoms or (n, root_mode) == (1, "sample")  # that tree has no edge

    @pytest.mark.parametrize("z0", [None, 2.0])
    @pytest.mark.parametrize("mu", [1.0, 5.0])
    @pytest.mark.parametrize("root_mode", list(RootMode))
    @pytest.mark.parametrize("n", [1, 2, 3, 10, 200])
    def test_block_trees_match_the_tree_by_tree_records(self, n, root_mode, mu, z0):
        # the text rows from the block's parent array against json.dumps of
        # each row's build_tree, drop_mutations and newick_export records,
        # draw for draw
        args = (ModelParams(beta=1.0, theta=1.0, mu=mu), n, z0, root_mode)
        drawn = all_records(_sample_replicate, args, 300, seed=n)
        assert row_texts(drawn) == record_texts(all_records(sample_records, args, 300, seed=n))

    def test_block_trees_match_across_a_block_boundary(self):
        # the second block's trees use that block's own stream
        args = (ModelParams(beta=1.0, theta=1.0, mu=1.0), 10, None, RootMode.POPULATION_MRCA)
        drawn = all_records(_sample_replicate, args, BLOCK + 1, seed=3)
        assert row_texts(drawn) == record_texts(all_records(sample_records, args, BLOCK + 1, seed=3))

    def test_collision_warnings_stay_silent(self, tmp_path):
        # on an interval of subnormal size the cumulative gaps tie: the
        # command says so in one line, naming --z0, and logs nothing else
        proc = run_python("-m", "cbsfs.cli", "sample", "--n", "200", "--z0", "5e-321",
                          "--reps", "1", "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            "cbsfs: no finite result at --beta 1.0 --theta 1.0 --mu 1.0 --seed 1 --reps 1 --n 200 "
            "--z0 5e-321 --root-mode population: two of the 200 leaf positions round to one float; "
            "raise --z0"
        ]
        assert list(tmp_path.iterdir()) == []

    def test_error_in_a_later_block_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # the first block is already in the temporary files when the second fails
        drawn = []

        def fail_on_second_block(args, rng, count):
            drawn.append(count)
            if len(drawn) == 2:
                raise ValueError("second block failed")
            return _sample_replicate(args, rng, count)

        out = tmp_path / "x"
        argv = ["sample", "--n", 3, "--reps", 3 * BLOCK, "--workers", 1, "--out", out]
        monkeypatch.setattr(cli, "_sample_replicate", fail_on_second_block)
        assert run(*argv) == 1
        assert capsys.readouterr().err == "cbsfs: second block failed\n"
        assert drawn == [BLOCK, BLOCK]
        assert list(tmp_path.iterdir()) == []
        # a previous pair at --out stays byte for byte
        monkeypatch.undo()
        assert run("sample", "--n", 4, "--reps", 5, "--out", out) == 0
        previous = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        monkeypatch.setattr(cli, "_sample_replicate", fail_on_second_block)
        drawn.clear()
        assert run(*argv) == 1
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == previous

    @pytest.mark.parametrize("workers", [1, 2])
    def test_atom_budget_rejects_a_block_before_writing(self, tmp_path, capsys, monkeypatch, workers):
        out = tmp_path / "x"
        assert run("sample", "--n", 4, "--reps", 5, "--out", out) == 0
        previous = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        capsys.readouterr()
        # 500 trees of 4 leaves at mu = 1 hold about 800 atoms
        monkeypatch.setattr(cli, "ATOM_BUDGET", 100)
        assert run("sample", "--n", 4, "--reps", 500, "--workers", workers, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("cbsfs: a block of 500 replicates would hold about ")
        assert "lower --mu" in err and err.count("\n") == 1
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == previous

    def test_memory_is_bounded_by_the_block(self, tmp_path):
        # the records go to disk block by block, so four blocks peak as high
        # as one (a run that held every record peaked 2.7 times as high)
        def peak(reps):
            tracemalloc.start()
            try:
                assert run("sample", "--n", 5, "--reps", reps, "--out", tmp_path / "x") == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert run("sample", "--n", 5, "--reps", 2, "--out", tmp_path / "x") == 0  # first-use caches
        assert peak(4 * BLOCK) <= 1.25 * peak(BLOCK)

    @pytest.mark.parametrize("n", [50, 200])
    def test_one_block_peaks_below_fourteen_arrays(self, tmp_path, n):
        # a block is drawn as arrays of shape (BLOCK, n+1) and its rows are
        # written as they are rendered; holding the block's records as
        # Python floats and strings, a run peaked at 20 to 23 such arrays
        bound = 14 * BLOCK * (n + 1) * 8
        assert run("sample", "--n", n, "--reps", 2, "--out", tmp_path / "x") == 0  # first-use caches
        tracemalloc.start()
        try:
            assert run("sample", "--n", n, "--reps", BLOCK, "--out", tmp_path / "x") == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    @pytest.mark.parametrize(
        "argv, digests",
        [
            (["--n", 50],
             ("e1fa6a781a677176d993f41b0f34b3ac2518f33fcd35571d377f76074e18084d",
              "e59810c3fd9a77086f67ab62915d2a7b6cbe65997526a9a7f5d7544146e86cf3")),
            (["--n", 30, "--root-mode", "sample", "--z0", 0.5, "--mu", 30],
             ("74174aacaf78e6df79860422a71531ec34931b8bca962f6e4661a91eda21a4b2",
              "2985e1e6b714e818d135717f00a233e8420048a4e85402afb5da9fe85f66630c")),
            (["--n", 1],
             ("a19d743bbf9b93d5c3c3edecf9b960d62ef74d5ff85bbe2f719ecaa7a80bdf6b",
              "1afe87f46431f2fdffcbb50e9db0673bb374c726656e91f8d0ea8674f7c0b67e")),
        ],
        ids=["population-root-n50", "sample-root-z0-mu30", "n1"],
    )
    def test_bytes_are_pinned(self, tmp_path, argv, digests):
        # the SHA-256 of both files, as json.dumps wrote each record before
        # the rows were rendered by hand: the bytes hold across versions
        out = tmp_path / "s"
        assert run("sample", *argv, "--reps", 20, "--seed", 7, "--out", out) == 0
        got = tuple(hashlib.sha256(out.with_suffix(suffix).read_bytes()).hexdigest() for suffix in (".nwk", ".json"))
        assert got == digests


class TestSfsCommand:
    def test_expected_csv_layout(self, tmp_path):
        out = tmp_path / "sfs.csv"
        assert run("sfs", "--mode", "expected", "--n", 5, "--z0", 1.5, "--out", out) == 0
        lines = out.read_text().splitlines()
        header = [line for line in lines if not line.startswith("#")][0]
        assert header == "k,expected_L,expected_xi,mc_mean,mc_se"
        assert "# beta=1.0" in lines and "# z0=1.5" in lines
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == 4  # k = 1..4

    def test_workers_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sfs", "--mode", "simulate", "--n", 5, "--z0", 1.0, "--reps", 200,
                "--seed", 9, "--out"]
        assert run(*base, a, "--workers", 1) == 0
        assert run(*base, b, "--workers", 3) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_out_into_new_directory(self, tmp_path):
        out = tmp_path / "new" / "nested" / "sfs.csv"
        assert run("sfs", "--mode", "expected", "--n", 3, "--z0", 1.0, "--out", out) == 0
        assert out.read_text().startswith("# cbsfs sfs")

    def test_json_format(self, tmp_path):
        out = tmp_path / "sfs.json"
        assert run("sfs", "--mode", "expected", "--n", 4, "--z0", 1.0,
                   "--format", "json", "--out", out) == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 4
        assert [row["k"] for row in doc["data"]] == [1, 2, 3]

    def test_simulate_keeps_expected_columns(self, tmp_path):
        # simulate mode writes the same analytic columns as expected mode,
        # and expected_xi is mu times expected_L
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["sfs", "--n", 8, "--z0", 1.5, "--mu", 0.7, "--out"]
        assert run(*base, a, "--mode", "expected") == 0
        assert run(*base, b, "--mode", "simulate", "--reps", 50) == 0
        rows = [
            [line.split(",")[:3] for line in path.read_text().splitlines()
             if not line.startswith("#")][1:]
            for path in (a, b)
        ]
        assert rows[0] == rows[1] and len(rows[0]) == 7
        for _, length, xi in rows[0]:
            assert xi == repr(0.7 * float(length))

    @pytest.mark.parametrize("z0", [None, 0.7], ids=["averaged", "z0"])
    @pytest.mark.parametrize("beta, theta, mu", [(1.0, 1.0, 1.0), (0.5, 3.0, 2.0), (1e-3, 1e4, 0.7)])
    def test_columns_are_the_library_table(self, tmp_path, beta, theta, mu, z0):
        # expected_L is the time unit and expected_xi alpha times the table
        # in model units at x0 = 2 theta z0, bit for bit
        params, n, out = ModelParams(beta, theta, mu), 20, tmp_path / "sfs.csv"
        given = [] if z0 is None else ["--z0", z0]
        assert run("sfs", "--mode", "expected", "--n", n, "--beta", beta, "--theta", theta,
                   "--mu", mu, *given, "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
        table = expected_sfs(n, None if z0 is None else params.model_size(z0)).tolist()
        assert [float(row[1]) for row in rows] == [params.time_unit * length for length in table]
        assert [float(row[2]) for row in rows] == [params.alpha * length for length in table]


@pytest.mark.parametrize(
    "argv",
    [["sfs", "--mode", "simulate", "--n", 6, "--z0", 1.0],
     ["sfs", "--mode", "simulate", "--sim-mode", "poisson-counts", "--n", 6, "--z0", 1.0],
     ["clonal", "--mode", "simulate", "--n-max", 3],
     ["sample", "--n", 4]],
    ids=["sfs", "sfs-poisson", "clonal", "sample"],
)
def test_workers_do_not_change_bytes_over_blocks(tmp_path, argv):
    # three whole blocks and a ragged tail, spread over a pool of three
    reps = 3 * BLOCK + 37
    files = []
    for workers in (1, 3):
        out = tmp_path / str(workers)
        assert run(*argv, "--reps", reps, "--seed", 5, "--workers", workers, "--out", out / "x.csv") == 0
        files.append({path.name: path.read_bytes() for path in out.iterdir()})
    assert files[0] == files[1]
    assert len(files[0]) == (2 if argv[0] == "sample" else 1)


class TestDensityCommand:
    def test_monotone_output(self, tmp_path):
        out = tmp_path / "density.csv"
        assert run("density", "--r-min", 0.05, "--r-max", 3.0, "--points", 40,
                   "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        fs = [float(f) for _, f in rows]
        assert len(fs) == 40 and all(a > b for a, b in zip(fs, fs[1:]))


class TestG1Command:
    def test_zero_row_exact(self, tmp_path):
        out = tmp_path / "g1.csv"
        assert run("g1", "--z", "0.5,2", "--u-points", 5, "--out", out) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == "u,g1[z=0.5],g1[z=2.0]"
        assert lines[1] == "0.0,0.0,0.0"
        assert len(lines) == 6

    def test_cell_is_g1(self, tmp_path):
        out = tmp_path / "g1.csv"
        assert run("g1", "--z", "0.5,2", "--u-points", 5, "--out", out) == 0
        lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
        assert lines[2].split(",") == ["0.25", repr(g1(0.5, 0.25)), repr(g1(2.0, 0.25))]

    def test_large_z_is_finite(self, tmp_path):
        # g1 tends to -1 as z grows; 2 z u stays finite up to z = 1e100
        out = tmp_path / "g1.csv"
        assert run("g1", "--z", "1e5,1e100", "--u-points", 3, "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
        assert rows == [[repr(u), repr(g1(1e5, u)), repr(g1(1e100, u))] for u in (0.0, 0.5, 1.0)]
        assert [row[2] for row in rows] == ["0.0", "-1.0", "-1.0"]


class TestClonalCommand:
    def test_analytic_matches_library(self, tmp_path):
        out = tmp_path / "clonal.csv"
        assert run("clonal", "--mode", "analytic", "--n-max", 3, "--mu", 2.0,
                   "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        params = ModelParams(1.0, 1.0, 2.0)
        for n, row in enumerate(rows, start=1):
            assert float(row[1]) == pytest.approx(e_zcl_pow_r(params, n), rel=1e-12)
            assert row[2] == "" and row[3] == ""

    @pytest.mark.parametrize("statistic", ["zpow_r", "zpow"])
    def test_large_alpha_rows_are_positive(self, tmp_path, statistic):
        # alpha = 1000: every moment up to n = 120 is a normal float
        # (E[Z_cl^106] is 7.52e-185), so no row is written as 0.0
        out = tmp_path / "clonal.csv"
        assert run("clonal", "--mu", 2000, "--n-max", 120, "--statistic", statistic, "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        assert [int(row[0]) for row in rows] == list(range(1, 121))
        assert all(float(row[1]) > 1e-300 for row in rows)

    def test_mu_zero_with_underflowing_two_beta_theta(self, tmp_path, capsys):
        # 2 beta theta underflows to 0: alpha is 0 at mu = 0 and undefined above
        out = tmp_path / "clonal.csv"
        assert run("clonal", "--mu", 0, "--beta", 1e-320, "--theta", 1e-10, "--out", out) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()
                if line and not line.startswith("#")][1:]
        # E[Z0^{n-1}] = n! / (2 theta)^{n-1}
        expected = [1.0, 1e10, 1.5e20, 3e30, 7.5e40]
        assert [float(row[1]) for row in rows] == pytest.approx(expected, rel=1e-15)
        capsys.readouterr()
        assert run("clonal", "--mu", 1, "--beta", 1e-320, "--theta", 1e-10, "--out", out) == 1
        err = capsys.readouterr().err
        assert err.startswith("cbsfs: no finite result at --beta 1e-320 --theta 1e-10 --mu 1.0 ")
        assert err.endswith(": 2 beta theta underflows to 0 in alpha = mu / (2 beta theta)\n")


class TestVerifyCommand:
    @pytest.mark.parametrize(
        "flags",
        [("--suite", "all"),
         ("--suite", "all", "--mu", 0),
         ("--suite", "quadrature-identities", "--theta", 1000)],
        ids=["all", "all-mu0", "quadrature-theta1000"],
    )
    def test_suite_passes(self, capsys, flags):
        # at the command's 4 SE margin and its replicate floors
        assert run("verify", *flags) == 0
        captured = capsys.readouterr()
        assert "[PASS]" in captured.out and "[FAIL]" not in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "flags, failed",
        [
            # alpha = mu / (2 beta theta) overflows before a replicate is drawn
            (("--suite", "sfs-mc", "--mu", "1e308", "--beta", "0.01"),
             ["sfs-mc suite — no finite result: alpha = mu / (2 beta theta) overflows"]),
            # the squares behind the standard error overflow: an SE of inf
            # once gave |z| = 0
            (("--suite", "sfs-mc", "--theta", "1e-300"),
             [f"simulated spectrum vs expected at z0 = {i}/theta (4 SE) — max |z| = inf over k=1..9 "
              "at 2000 reps" for i in (1, 2)]),
            # 1 - e^{-2 beta theta t} underflows: the density terms are inf and
            # their difference nan, which max() skipped
            (("--suite", "quadrature-identities", "--beta", "5e-324"),
             ["density = branch + spine quadratures — max dev nan",
              "density asymptotes — r->0 inf, r->inf inf",
              "surviving-mass density total = c(t) — max dev inf",
              "surviving-mass density mean = decay — max dev 1.00e+00"]),
        ],
        ids=["sfs-mc-alpha-overflow", "sfs-mc-se-overflow", "quadrature-beta-5e-324"],
    )
    def test_checks_on_values_that_are_not_finite_fail(self, tmp_path, capsys, flags, failed):
        report = tmp_path / "report.txt"
        assert run("verify", *flags, "--out", report) == 1
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line[len("[FAIL] "):] for line in lines if line.startswith("[FAIL]")] == failed
        assert lines[-1].endswith(f"checks passed in suite {flags[1]!r}")
        assert report.read_text().splitlines() == lines

    def test_unknown_suite_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("verify", "--suite", "not-a-suite")
        assert exc.value.code == 2
        assert "invalid choice: 'not-a-suite'" in capsys.readouterr().err

    def test_specfun_suite(self, tmp_path):
        report = tmp_path / "report.txt"
        assert run("verify", "--suite", "specfun", "--out", report) == 0
        assert "[PASS]" in report.read_text()


class TestConfigFile:
    def test_file_values_and_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("theta=2.0\nn=4\nseed=11\n# comment\nmu=0.5\n")
        out = tmp_path / "sfs.csv"
        assert run("--config", cfg, "sfs", "--mode", "expected", "--z0", 1.0,
                   "--n", 6, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert "# theta=2.0" in lines and "# mu=0.5" in lines
        assert "# n=6" in lines  # flag wins over the file
        assert "# seed=11" in lines

    def test_bad_config_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense=1\n")
        assert run("--config", cfg, "verify", "--suite", "specfun") == 2

    @pytest.mark.parametrize(
        "line, message",
        [("seed=1.5", "seed must be of type int, got '1.5'"),
         ("format=xml", "format must be one of csv, json, got 'xml'")],
        ids=["type", "choice"],
    )
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run("--config", cfg, "g1", "--out", tmp_path / "g1.csv") == 2
        err = capsys.readouterr().err
        assert "run.cfg:1: " + message in err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    def test_key_the_command_does_not_take_is_skipped(self, tmp_path):
        # one file serves every command; g1 reads no sample size
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n=4\n")
        out = tmp_path / "g1.csv"
        assert run("--config", cfg, "g1", "--u-points", 2, "--out", out) == 0
        assert not any(line.startswith("# n=") for line in out.read_text().splitlines())

    def test_flag_overrides_file_choice(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\n")
        out = tmp_path / "g1.csv"
        assert run("--config", cfg, "g1", "--u-points", 2, "--format", "csv", "--out", out) == 0
        assert out.read_text().startswith("# cbsfs g1\n")
        assert "# format=csv" in out.read_text().splitlines()

    def test_negative_seed_from_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=-1\n")
        assert run("--config", cfg, "sample", "--reps", 2, "--out", tmp_path / "trees") == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def _settings(command):
    """The options of a command's parser that its file header should echo."""
    _, commands = build_parser()
    return [action.dest for action in commands[command]._actions
            if action.dest not in ("help", "out", "workers")]


class TestHeaderProvenance:
    @pytest.mark.parametrize(
        "argv, extra",
        [
            (["sfs", "--n", 3], []),
            (["density", "--points", 3], []),
            (["g1", "--u-points", 2], []),
            (["clonal", "--n-max", 1], ["e_r", "e_zcl", "cov_r_z0"]),
        ],
        ids=["sfs", "density", "g1", "clonal"],
    )
    def test_csv_header_echoes_the_command_settings(self, tmp_path, argv, extra):
        out = tmp_path / "x.csv"
        assert run(*argv, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[:2] == [f"# cbsfs {argv[0]}", "# schema_version=4"]
        keys = [line[2:].split("=", 1)[0] for line in lines[2:] if line.startswith("#")]
        assert keys == _settings(argv[0]) + extra

    def test_sample_config_echoes_the_command_settings(self, tmp_path):
        base = tmp_path / "trees"
        assert run("sample", "--n", 3, "--reps", 1, "--out", base) == 0
        doc = json.loads(base.with_suffix(".json").read_text())
        assert sorted(doc["config"]) == sorted(_settings("sample"))

    def test_sim_mode_is_echoed(self, tmp_path):
        out = tmp_path / "sfs.csv"
        assert run("sfs", "--mode", "simulate", "--sim-mode", "poisson-counts", "--n", 3,
                   "--reps", 10, "--out", out) == 0
        assert "# sim_mode=poisson-counts" in out.read_text().splitlines()

    @pytest.mark.parametrize(
        "argv",
        [["g1", "--theta", "2"], ["clonal", "--z0", "3"], ["density", "--n", "5"],
         ["clonal", "--n", "3"]],
        ids=["g1-theta", "clonal-z0", "density-n", "clonal-n-not-n-max"],
    )
    def test_untaken_flag_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--out", tmp_path / "x.csv")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        # reported against the command's own usage, which lists its flags
        assert err.startswith(f"usage: cbsfs {argv[0]} [-h]")
        assert f"cbsfs {argv[0]}: error: unrecognized arguments: {' '.join(argv[1:])}" in err
        assert list(tmp_path.iterdir()) == []


class TestBadFlags:
    def test_invalid_grid(self, tmp_path):
        assert run("density", "--r-min", 2.0, "--r-max", 1.0,
                   "--out", tmp_path / "x.csv") == 1

    def test_invalid_z_list(self, tmp_path):
        assert run("g1", "--z", "-1.0", "--out", tmp_path / "x.csv") == 1

    @pytest.mark.parametrize("z", ["x", "1,x", "1,-2"])
    def test_bad_z_names_the_flag(self, tmp_path, capsys, z):
        assert run("g1", "--z", z, "--out", tmp_path / "x.csv") == 1
        assert capsys.readouterr().err == (
            f"cbsfs: --z needs a comma list of positive finite values, got {z!r}\n")
        assert list(tmp_path.iterdir()) == []

    def test_workers_above_the_bound(self, tmp_path, capsys, monkeypatch):
        # rejected before a pool exists: a pool that is built fails the test
        # without starting a process
        import concurrent.futures

        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError(f"a pool was built with {kwargs}")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        out = tmp_path / "x.csv"
        assert run("clonal", "--mode", "simulate", "--n-max", 1, "--reps", 200,
                   "--workers", 100000, "--out", out) == 1
        assert capsys.readouterr().err == f"cbsfs: --workers must be <= {cli.MAX_WORKERS}, got 100000\n"
        assert list(tmp_path.iterdir()) == []

    def test_clonal_too_few_reps(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("clonal", "--mode", "simulate", "--n-max", 2, "--reps", 5,
                   "--out", out) == 1
        assert "reps >= 100" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -3])
    def test_nonpositive_workers(self, tmp_path, capsys, workers):
        # rejected by every command that takes --workers, also in a mode that
        # starts none
        out = tmp_path / "x.csv"
        assert run("sfs", "--mode", "simulate", "--n", 3, "--reps", 10,
                   "--workers", workers, "--out", out) == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert run("sfs", "--mode", "expected", "--n", 3,
                   "--workers", workers, "--out", out) == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert not out.exists()
        base = tmp_path / "trees"
        assert run("sample", "--n", 3, "--reps", 2, "--workers", workers, "--out", base) == 1
        assert "workers must be >= 1" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert run("sfs", "--mode", "simulate", "--n", 3, "--reps", 10, "--seed", -1,
                   "--out", out) == 1
        assert "seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sample", "--reps", 2], ["sfs"], ["sfs", "--mode", "simulate"]],
                             ids=["sample", "sfs-expected", "sfs-simulate"])
    def test_nonpositive_z0(self, tmp_path, capsys, argv):
        assert run(*argv, "--z0", -1.0, "--out", tmp_path / "x") == 1
        assert capsys.readouterr().err == "cbsfs: z0 must be positive and finite, got -1.0\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_single_replicate_has_no_standard_error(self, tmp_path, capsys, fmt):
        out = tmp_path / f"x.{fmt}"
        assert run("sfs", "--mode", "simulate", "--n", 3, "--reps", 1,
                   "--format", fmt, "--out", out) == 1
        assert "reps >= 2" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["density", "--r-max", "inf", "--format", "json"], ""),
            (["density", "--r-min", "1e-300", "--r-max", "1e300"], ""),
            (["g1", "--z", "inf"], ""),
            # x = 2 z u overflows from u = 0.9 on
            (["g1", "--z", "1e308"], "--z 1e308 --u-points 101: x = 2 z u overflows at z = 1e+308, u = 0.9"),
            (["sfs", "--mode", "simulate", "--z0", "inf", "--reps", 10], ""),
            (["sample", "--z0", "inf", "--reps", 2], ""),
            (["clonal", "--mu", "1e300"], ""),
            # the command's settings, as flags, name where the result overflowed
            (["clonal", "--n-max", "400"],
             "--n-max 400 --statistic zpow_r: E[Z_cl^215 R] is inf, not a positive finite float"),
            (["sample", "--n", "200", "--z0", "1e-320", "--reps", "1"], ""),
            (["sfs", "--mode", "simulate", "--n", "200", "--z0", "1e-320", "--reps", "2"], ""),
            # x0 v = 2 theta z0 v underflows to 0 at the smallest quadrature node
            (["sfs", "--n", "5", "--z0", "1e-310"], "--z0 1e-310 --format csv --mode expected --sim-mode expected-lengths: x0 = 2e-310 is too small"),
            # the density underflows to 0 at the end of the grid
            (["density", "--r-max", "400"], "density values must be positive"),
            # the grid points coincide
            (["density", "--r-min", "1", "--r-max", "1.0000000000000002", "--points", "3"],
             "density must decrease along the grid"),
            # the density is 0 everywhere
            (["density", "--mu", "0"], "density needs --mu > 0"),
            # mutation counts with Poisson means beyond what can be drawn
            (["sample", "--n", "5", "--reps", "3", "--theta", "1e-150"],
             "lower --mu, or raise --beta or --theta"),
            (["sample", "--n", "5", "--reps", "3", "--beta", "1e-300"],
             "lower --mu, or raise --beta or --theta"),
            (["sfs", "--mode", "simulate", "--sim-mode", "poisson-counts", "--mu", "1e300",
              "--n", "5", "--reps", "2"], "lower --mu, or raise --beta or --theta"),
            # in their unit every depth underflows to 0, so the tree has edges of length 0
            (["sample", "--n", "50", "--reps", "5", "--beta", "1e305", "--theta", "700", "--z0", "1e-317"],
             "--z0 1e-317 --root-mode population: tied branch depths give a tree edge of length 0"),
            # 2 beta theta overflows: the time unit is 0
            (["sfs", "--mode", "simulate", "--n", "5", "--reps", "20", "--beta", "1e305",
              "--theta", "1e3"], "the time unit 1 / (2 beta theta) is 0.0, not a positive finite float"),
            (["sample", "--n", "1", "--reps", "2", "--beta", "1e305", "--theta", "1e3"],
             "the time unit 1 / (2 beta theta) is 0.0, not a positive finite float"),
            # the time unit overflows
            (["sample", "--n", "3", "--reps", "2", "--beta", "5e-324", "--mu", "0"],
             "the time unit 1 / (2 beta theta) is inf, not a positive finite float"),
            (["sfs", "--mode", "simulate", "--n", "3", "--reps", "20", "--theta", "1e-310"],
             "the time unit 1 / (2 beta theta) is inf, not a positive finite float"),
            (["sfs", "--beta", "5e-324", "--z0", "1"], "the time unit 1 / (2 beta theta) is inf"),
            (["sfs", "--theta", "5e-324"], "the time unit 1 / (2 beta theta) is inf"),
            # alpha overflows
            (["clonal", "--beta", "5e-324", "--statistic", "zpow"], "alpha = mu / (2 beta theta) overflows"),
            # Z0^4 is finite, its square is not: at the size unit 5e38, Z0^4 is
            # 6e154 x0^4, and the squared deviations overflow unless 100 sizes
            # x0 ~ Gamma(2, 1) all hold x0^4 within 0.2 of their mean
            (["clonal", "--mode", "simulate", "--theta", "1e-39", "--mu", "0", "--reps", "100"],
             "not CSV compliant: inf"),
            # the units are finite, but a depth, a position or a length times its unit is not
            (["sample", "--n", "3", "--reps", "50", "--beta", "5e-309", "--mu", "0"],
             "a position or branch depth leaves the float range in its unit"),
            (["sample", "--n", "3", "--reps", "50", "--theta", "6e-309", "--beta", "1e10", "--mu", "0"],
             "a position or branch depth leaves the float range in its unit"),
            (["sfs", "--beta", "3e-309", "--z0", "1", "--mu", "0"], "not CSV compliant: inf"),
            # sizes below the float range, as leaf positions on their interval
            (["sample", "--n", "200", "--z0", "5e-321", "--reps", "1"],
             "two of the 200 leaf positions round to one float; raise --z0"),
            # a conditioned size beyond the draw's range
            (["sfs", "--mode", "simulate", "--n", "3", "--reps", "2", "--z0", "1e300"],
             "the size x0 = 2e+300 is outside (0, 1e+250]"),
            # the points of a grid, beyond the bound
            (["density", "--points", str(cli.MAX_POINTS + 1)], f"--points must be <= {cli.MAX_POINTS}"),
            (["g1", "--u-points", str(cli.MAX_POINTS + 1)], f"--u-points must be <= {cli.MAX_POINTS}"),
            # the moment of a row leaves the float range: the row loop stops there
            (["clonal", "--theta", "1e262", "--n-max", "3"], "E[Z_cl^2 R] is 0.0, not a positive finite float"),
            (["clonal", "--theta", "1e-178", "--n-max", "3"], "E[Z_cl^0 R] is 0.0, not a positive finite float"),
            (["clonal", "--mu", "0", "--n-max", "100000"], "E[Z_cl^196 R] is inf, not a positive finite float"),
        ],
        ids=["density-r-max-inf", "density-ratio-overflow", "g1-z-inf", "g1-z-1e308",
             "sfs-z0-inf", "sample-z0-inf", "clonal-mu-1e300", "clonal-n-max-400",
             "sample-z0-subnormal", "sfs-z0-subnormal", "sfs-z0-underflow",
             "density-underflow", "density-grid-coincident", "density-mu-0",
             "sample-poisson-theta-1e-150", "sample-poisson-beta-1e-300", "sfs-poisson-mu-1e300",
             "sample-tied-depths-beta-1e305", "sfs-zero-depths-beta-1e305",
             "sample-zero-depths-beta-1e305", "sample-depth-overflow-beta-5e-324",
             "sfs-position-overflow-theta-1e-310", "sfs-lengths-overflow-beta-5e-324",
             "sfs-sizes-overflow-theta-5e-324", "clonal-alpha-overflow", "clonal-se-overflow",
             "sample-depth-overflow-beta-5e-309", "sample-position-overflow-theta-6e-309",
             "sfs-lengths-overflow-beta-3e-309", "sample-collisions-z0-5e-321", "sfs-z0-1e300",
             "density-points-above-the-bound", "g1-u-points-above-the-bound",
             "clonal-moment-underflow-theta-1e262", "clonal-moment-underflow-theta-1e-178",
             "clonal-first-row-out-of-range"],
    )
    # numpy's warning, printed before the one-line message, is an error here
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_no_finite_result_writes_nothing(self, tmp_path, capsys, argv, message):
        assert run(*argv, "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err.startswith("cbsfs: ") and message in err and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["depths", "positions"])
    def test_a_block_value_that_is_not_finite_writes_nothing(self, tmp_path, capsys, monkeypatch, where, value):
        # the rows are rendered by hand, not by json.dumps(allow_nan=False):
        # the block refuses such a value before its first row
        def spoiled(draw, which):
            def spoil(*args):
                arrays = draw(*args)
                arrays[which][3, 2] = value
                return arrays
            return spoil

        if where == "depths":
            monkeypatch.setattr(cli, "sample_block", spoiled(cli.sample_block, 1))
        else:
            monkeypatch.setattr(cli, "leaf_positions", spoiled(cli.leaf_positions, 0))
        assert run("sample", "--n", 5, "--reps", 10, "--out", tmp_path / "x") == 1
        err = capsys.readouterr().err
        assert err.startswith("cbsfs: no finite result at --beta 1.0 ") and err.count("\n") == 1
        assert err.endswith(": a position or branch depth leaves the float range in its unit\n")
        assert list(tmp_path.iterdir()) == []


class TestWholeFiles:
    def test_failed_write_keeps_previous_file(self, tmp_path):
        out = tmp_path / "report.txt"
        write_text(out, ["previous"])
        # a lone surrogate cannot be encoded: the write fails part way
        with pytest.raises(UnicodeEncodeError):
            write_text(out, ["partial", "\udcff"])
        assert out.read_text() == "previous\n"
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]

    def test_streamed_sample_matches_the_whole_documents(self, tmp_path):
        # the .json is the one compact sorted-key dump of the whole document
        # of the oracle's records, over blocks of 2, 0 and 3 rows
        args = (ModelParams(beta=1.0, theta=1.0, mu=3.0), 6, None, RootMode.SAMPLE_MRCA)
        rows = list(_sample_replicate(args, replicate_rng(4, 0), 5))
        records = sample_records(args, replicate_rng(4, 0), 5)
        pairs = [("n", 6), ("z0", None), ("root_mode", "sample")]
        write_sample(tmp_path / "s", pairs, iter([rows[:2], [], iter(rows[2:])]))
        doc = {"command": "sample", "schema_version": 4, "config": dict(pairs),
               "data": [{"replicate": i, **record} for i, record in enumerate(records)]}
        text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert (tmp_path / "s.json").read_text() == text + "\n"
        assert (tmp_path / "s.nwk").read_text() == "".join(r["newick"] + "\n" for r in records)


def test_import_leaves_scipy_stats_and_integrate_unloaded():
    # scipy.special, .stats and .integrate together more than doubled the
    # CLI's start-up time; the routes that use them import them when called
    code = "import sys, cbsfs.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = run_python("-c", code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_expected_spectrum_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the averaged table sums its z0 nodes into one integrand before the
    # Beta kernel; averaging one table per node took a (nodes x rule) by
    # (rule x l) matrix product, whose last bits moved with the thread count
    written = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}.csv"
        argv = ["sfs", "--mode", "expected", "--n", "200", "--out", str(out)]
        proc = run_python("-m", "cbsfs.cli", *argv,
                          env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads})
        assert proc.returncode == 0, proc.stderr
        written.append(out.read_bytes())
    assert written[0] == written[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "20", "--reps", "3"],
        ["clonal", "--mode", "simulate", "--n-max", "3", "--reps", "100", "--workers", "2"],
        ["sfs", "--mode", "expected", "--n", "200"],
        ["sfs", "--mode", "simulate", "--n", "20", "--z0", "2", "--reps", "50"],
        ["density"],
    ],
    ids=["sample", "clonal-simulate", "sfs-expected", "sfs-simulate", "density"],
)
def test_commands_leave_scipy_unloaded(tmp_path, argv):
    # scipy.special alone took about 0.3 s to load, and its Laguerre roots
    # pulled in scipy.linalg; these commands need neither
    code = (
        "import sys; from cbsfs.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    proc = run_python("-c", code, *argv, "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize(
    "argv",
    [
        ["sfs", "--mode", "expected", "--n", "200"],
        ["sfs", "--mode", "expected", "--n", "200", "--z0", "2"],
        ["sfs", "--mode", "simulate", "--n", "20", "--z0", "2", "--reps", "50"],
    ],
    ids=["sfs-expected", "sfs-expected-z0", "sfs-simulate"],
)
def test_sfs_leaves_numpy_polynomial_unloaded(tmp_path, argv):
    # both Gauss rules of the spectrum tables are frozen constants: building
    # them loaded numpy.polynomial (and ran LAPACK's eigenvalue routines)
    code = (
        "import sys; from cbsfs.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, 'numpy.polynomial' in sys.modules)"
    )
    proc = run_python("-c", code, *argv, "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["sfs", "--mode", "expected", "--n", "20"],
        ["sample", "--n", "20", "--reps", "3"],
    ],
    ids=["import", "sfs-expected", "sample"],
)
def test_single_process_commands_leave_the_pool_unloaded(tmp_path, argv):
    # concurrent.futures.process loads multiprocessing, which a command
    # needs only when it starts a pool (--workers > 1); the package logs
    # nothing, so it loads no logging either
    modules = ("multiprocessing", "concurrent.futures", "concurrent.futures.process", "logging")
    code = (
        "import sys; from cbsfs.cli import main; "
        "rc = main(sys.argv[1:]) if sys.argv[1:] else 0; "
        f"print(rc, [m for m in {modules!r} if m in sys.modules])"
    )
    out = ["--out", str(tmp_path / "out")] if argv else []
    proc = run_python("-c", code, *argv, *out, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 []"


@pytest.mark.parametrize(
    "argv",
    [
        ["sample", "--n", "20", "--reps", "3", "--workers", "2"],
        ["clonal", "--mode", "simulate", "--n-max", "3", "--reps", "100", "--workers", "2"],
        ["sfs", "--mode", "simulate", "--n", "20", "--z0", "2", "--reps", "50", "--workers", "2"],
    ],
    ids=["sample", "clonal-simulate", "sfs-simulate"],
)
def test_pooled_commands_draw_only_in_the_pool(tmp_path, argv):
    # numpy.random loads hashlib and OpenSSL (5.5 MB of resident memory);
    # with a pool every block is drawn there, also when there is one block.
    code = (
        "import sys; from cbsfs.cli import main; rc = main(sys.argv[1:]); "
        "print(rc, 'numpy.random' in sys.modules)"
    )
    proc = run_python("-c", code, *argv, "--out", str(tmp_path / "out"), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"
