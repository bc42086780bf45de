"""Record the reference data the output checks compare against.

Run once, from the repository root, at the commit the references should
describe::

    PYTHONPATH=src python3 perfbench/make_reference.py

It writes, for the sizes the benchmark runs at:

- ``reference/sfs-expected-n{20,200}.csv``: the expected spectrum averaged
  over z0, as ``cbsfs sfs --mode expected`` prints it;
- ``reference/sfs-sim-expected-n{10,50}.csv``: the same at z0 = 2, the
  analytic columns of the sfs-sim table;
- ``reference/sfs-sim-sd.json``: for the sfs-sim command, the per-replicate
  standard deviation of mu * L_k over 60 000 replicates (seeds 1000..1059);
- ``reference/clonal-sim.json``: for n = 1..5, the closed form
  E[Z_cl^(n-1) R] and the per-replicate standard deviation of the
  clonal-sim statistic over 200 000 replicates, with replicate indices
  from 10^6 on, which no benchmark command reaches.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from cbsfs._mc import map_replicates, replicate_rng
from cbsfs.cli import main as cli_main
from cbsfs.clonal import _clonal_replicate, e_zcl_pow_r
from cbsfs.model import ModelParams
from cbsfs.sfs import _sfs_replicate

OUT = Path(__file__).resolve().parent / "reference"
CLONAL_N_MAX = 5
CLONAL_REPS = 200_000


def main() -> None:
    OUT.mkdir(exist_ok=True)
    for n in (20, 200):
        cli_main(["sfs", "--mode", "expected", "--n", str(n), "--out", str(OUT / f"sfs-expected-n{n}.csv")])
    for n in (10, 50):
        cli_main(["sfs", "--mode", "expected", "--n", str(n), "--z0", "2.0",
                  "--out", str(OUT / f"sfs-sim-expected-n{n}.csv")])
    params = ModelParams(beta=1.0, theta=1.0, mu=1.0)
    sd = {}
    for n in (10, 50):
        values = np.concatenate(
            [map_replicates(_sfs_replicate, (params, n, 2.0, "expected-lengths"), 1000, seed)
             for seed in range(1000, 1060)]
        )
        sd[f"n{n}"] = values.std(axis=0, ddof=1).tolist()
    (OUT / "sfs-sim-sd.json").write_text(json.dumps(sd, indent=1) + "\n")
    clonal = {"analytic": [], "sd": []}
    for n in range(1, CLONAL_N_MAX + 1):
        values = [_clonal_replicate((params, n, "zpow_r"), replicate_rng(0, i))
                  for i in range(10**6, 10**6 + CLONAL_REPS)]
        clonal["analytic"].append(e_zcl_pow_r(params, n))
        clonal["sd"].append(float(np.std(values, ddof=1)))
    (OUT / "clonal-sim.json").write_text(json.dumps(clonal, indent=1) + "\n")


if __name__ == "__main__":
    main()
