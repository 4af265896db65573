"""The one write-then-rename helper (:mod:`repro.utils.atomic`): racing
writers of one target never consume each other's temporary file, and
a failed write leaves the old file and no temporary file behind."""

import json
import sys
import threading

import pytest

from repro.exec.unit import atomic_write_json
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
