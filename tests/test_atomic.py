"""The one write-then-rename helper (:mod:`repro.utils.atomic`): racing
writers of one target never consume each other's temporary file, and
a failed write leaves the old file and no temporary file behind --
for the internal documents and for every user-facing export."""

import json
import os
import sys
import threading

import pytest

from repro import Simulation
from repro.cli import main
from repro.core.config import PAPER_4WIDE_PERFECT
from repro.core.stats import SimulationStatistics
from repro.exec.unit import atomic_write_json
from repro.fpga.device import VIRTEX4_LX40
from repro.sweep import SweepOutcome, SweepResult
from repro.utils.atomic import atomic_path


def test_threads_writing_one_target_do_not_collide(tmp_path):
    """Two job threads of one server can write the same cache entry;
    a temporary file named per process only let one thread rename
    away (or truncate) the other's and fail with FileNotFoundError."""
    target = tmp_path / "entry.json"
    failures = []

    def writer(index: int) -> None:
        for round_ in range(300):
            try:
                atomic_write_json(target, {"writer": index,
                                           "round": round_})
            except OSError as error:
                failures.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=writer, args=(index,))
                   for index in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert json.loads(target.read_text())["round"] == 299
    assert list(tmp_path.iterdir()) == [target]


def test_error_keeps_the_old_file_and_no_temporary(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_path(target) as tmp:
            tmp.write_text("new, but never finished")
            raise RuntimeError("mid-write failure")
    assert target.read_text() == "old"
    assert list(tmp_path.iterdir()) == [target]


def test_success_replaces_the_target(tmp_path):
    target = tmp_path / "out.json"
    target.write_text("old")
    with atomic_path(target) as tmp:
        assert tmp.parent == target.parent and tmp != target
        tmp.write_text("new")
    assert target.read_text() == "new"
    assert list(tmp_path.iterdir()) == [target]


# -- user-facing exports -----------------------------------------------

def _sweep_result() -> SweepResult:
    outcomes = tuple(
        SweepOutcome(key=f"point{rob}", params=(("rob_entries", rob),),
                     config=PAPER_4WIDE_PERFECT,
                     stats=SimulationStatistics(), from_checkpoint=False)
        for rob in (8, 16))
    return SweepResult(outcomes=outcomes, workload="gzip", budget=1,
                       seed=7)


def _stats_merge(directory, target):
    """``resim stats merge`` over a 2-shard point's result files."""
    assert main(["sweep", "gzip", "--rob", "16", "--budget", "1200",
                 "--segment-records", "64", "--shards", "2",
                 "--results-dir", str(directory / "sweep")]) == 0
    shard_files = sorted(str(path) for path in
                         (directory / "sweep").glob("*.s*of2.json"))
    main(["stats", "merge", *shard_files, "--output", str(target)])


EXPORTS = {
    "sweep-json": lambda directory, target:
        _sweep_result().to_json(target),
    "sweep-csv": lambda directory, target:
        _sweep_result().to_csv(target, devices=(VIRTEX4_LX40,)),
    "session-json": lambda directory, target:
        Simulation.for_workload("gzip").with_budget(300).run()
        .to_json(target),
    "stats-merge": _stats_merge,
    "vhdl": lambda directory, target: main(["vhdl", str(target.parent)]),
}


@pytest.mark.parametrize("export", sorted(EXPORTS))
def test_failed_export_keeps_the_old_file(tmp_path, monkeypatch, export):
    """Every export renames a finished temporary file over its target:
    when that rename fails, the previous file is left byte-identical
    and the temporary file is gone."""
    target = tmp_path / "out" / "export"
    target.parent.mkdir()
    if export == "vhdl":
        # The predictor entities are the files the command writes.
        main(["vhdl", str(target.parent)])
        target = sorted(target.parent.iterdir())[0]
    target.write_bytes(b"previous export\n")

    real_replace = os.replace

    def replace(source, destination):
        # Only the export's own rename fails: the sweep behind
        # ``stats merge`` still lands its checkpoints.
        if os.fspath(destination) == os.fspath(target):
            raise OSError("simulated rename failure")
        return real_replace(source, destination)

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="simulated rename failure"):
        EXPORTS[export](tmp_path, target)
    assert target.read_bytes() == b"previous export\n"
    assert not [path for path in target.parent.iterdir()
                if path.name.endswith(".tmp")]


def test_csv_row_failure_keeps_the_old_file(tmp_path, monkeypatch):
    """A row that fails to format mid-loop must not truncate the
    previous export."""
    target = tmp_path / "sweep.csv"
    target.write_text("previous export\n")

    def broken_mips(self, device):
        raise ValueError("row formatting failed")

    monkeypatch.setattr(SweepOutcome, "mips", broken_mips)
    with pytest.raises(ValueError, match="row formatting failed"):
        _sweep_result().to_csv(target, devices=(VIRTEX4_LX40,))
    assert target.read_text() == "previous export\n"
    assert list(tmp_path.iterdir()) == [target]
