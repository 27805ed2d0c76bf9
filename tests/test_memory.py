"""Peak memory of the transport records, the renewal check, the CSV lines
drawn through the writer and the manifest hash, traced with tracemalloc
(numpy reports its allocations to it), so the bounds do not depend on the
allocator or the machine."""

import argparse
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np

from immunoepi import between_host as bh
from immunoepi import cli

from conftest import make_between

MIB = 1 << 20
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def traced_peak(fn, *args, **kwargs):
    """fn's result and the peak bytes traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_transport_records_cost_about_the_returned_arrays():
    params = make_between(0.2, 0.05)
    n_omega = 100
    w = np.linspace(0.0, params.omega0, n_omega + 1)
    dt = 0.8 * (params.omega0 / n_omega) / float(np.max(params.g(w)))
    init = bh.StructuredState(S=10.0, I=0.5 * np.exp(-w), V=0.0, B=0.0)
    # warm-up: first-call caches are not part of the run's cost
    bh.simulate_epidemic(params, init, 10 * dt, n_omega, dt)
    run, peak = traced_peak(bh.simulate_epidemic, params, init, 4000 * dt, n_omega, dt)
    assert run.t.size == 4001
    returned = sum(
        getattr(run, name).nbytes
        for name in ("omega", "t", "S", "I_total", "V", "B", "F", "snapshot_t", "snapshots")
    ) + run.final.I.nbytes
    assert peak < 1.5 * returned


def test_renewal_check_keeps_two_transport_rows(tmp_path):
    # bh_env.json at its own horizon: n = 80 000 steps of dt = 0.0125, over
    # 28 memory windows of m = 2 800 steps. The transport records its S and
    # F rows only, and the renewal its S, F and S*F arrays of m + 1 + n
    # values and no time column; the gaps are taken in place. So the peak
    # is about 2 + 3*(1 + m/n) = 5.1 rows of n + 1 floats, with slack
    doc = json.loads((CONFIGS / "bh_env.json").read_text())
    args = argparse.Namespace(grid_refine=1)

    def check(t_max):
        doc["run"]["t_max"] = t_max
        path = tmp_path / f"bh_env_{t_max}.json"
        path.write_text(json.dumps(doc))
        summary, files = cli._cmd_renewal_check(cli.load_scenario(path), args)
        return summary, sum(1 for _ in files["renewal.csv"])

    check(1.0)  # warm-up: imports and first-call caches are not the check's cost
    (summary, n_lines), peak = traced_peak(check, 1000.0)
    n = 80_000
    assert summary["memory_window"] / summary["grid"]["dt"] == 2_800
    # a header, then the rows at every output_stride = 80th step (the last
    # among them)
    assert doc["run"]["output_stride"] == 80
    assert n_lines == 1_002
    assert peak < 6 * 8 * (n + 1)


def test_manifest_hash_reads_in_chunks(tmp_path):
    path = tmp_path / "blob.bin"
    data = np.random.default_rng(0).bytes(4 * MIB)
    path.write_bytes(data)
    expected = hashlib.sha256(data).hexdigest()
    del data
    digest, peak = traced_peak(cli._sha256, path)
    assert digest == expected
    assert peak < 2 * MIB


def test_empty_file_hash(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    assert cli._sha256(path) == hashlib.sha256(b"").hexdigest()


def test_csv_writer_streams_a_large_table(tmp_path):
    columns = list(np.random.default_rng(1).standard_normal((5, 100_000)))
    lines = cli._csv_lines("a,b,c,d,e", *columns)  # nothing is formatted yet
    _, peak = traced_peak(cli._write, tmp_path / "table.csv", lines)
    assert peak < 2 * MIB
    assert sum(1 for _ in open(tmp_path / "table.csv")) == 100_001


def test_csv_writer_streams_a_wide_table(tmp_path):
    # the epi-sim snapshot layout: a time column beside 401 density columns,
    # 3.2 MB in all; blocks are bounded by values, not rows
    rng = np.random.default_rng(2)
    t, snapshots = rng.standard_normal(1001), rng.standard_normal((1001, 401))
    header = "t," + ",".join(f"w{i}" for i in range(401))
    _, peak = traced_peak(cli._write, tmp_path / "wide.csv", cli._csv_lines(header, t, snapshots))
    assert peak < 2 * MIB
    assert sum(1 for _ in open(tmp_path / "wide.csv")) == 1002
