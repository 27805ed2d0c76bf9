"""Peak memory of the transport records, the CSV writer and the manifest
hash, traced with tracemalloc (numpy reports its allocations to it), so the
bounds do not depend on the allocator or the machine."""

import hashlib
import tracemalloc

import numpy as np

from immunoepi import between_host as bh
from immunoepi import cli

from conftest import make_between

MIB = 1 << 20


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
    _, peak = traced_peak(cli._write_rows, tmp_path / "table.csv", "a,b,c,d,e", *columns)
    assert peak < 2 * MIB
    assert sum(1 for _ in open(tmp_path / "table.csv")) == 100_001


def test_csv_writer_streams_a_wide_table(tmp_path):
    # the epi-sim snapshot layout: a time column beside 401 density columns,
    # 3.2 MB in all; blocks are bounded by values, not rows
    rng = np.random.default_rng(2)
    t, snapshots = rng.standard_normal(1001), rng.standard_normal((1001, 401))
    header = "t," + ",".join(f"w{i}" for i in range(401))
    _, peak = traced_peak(cli._write_rows, tmp_path / "wide.csv", header, t, snapshots)
    assert peak < 2 * MIB
    assert sum(1 for _ in open(tmp_path / "wide.csv")) == 1002
