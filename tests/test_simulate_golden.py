"""Golden output of ``resim simulate``.

The files under ``tests/golden/simulate/`` hold what ``resim simulate``
prints for one stored trace, for a workload, and for a region-sampled
run, plus the ``[progress]`` lines and the predictor-mismatch warning
it writes to stderr.  Every way of running one design point must keep
these bytes, on both engine tiers.
"""

from pathlib import Path

import pytest

from repro.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "simulate"

#: The stored trace every trace-file case replays: 3,302 records in 13
#: segments.
TRACE_ARGS = ("gzip", "--budget", "3000", "--segment-records", "256")


@pytest.fixture(scope="module")
def trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "gzip.rtrc"
    assert main(["trace", *TRACE_ARGS[:1], str(path),
                 *TRACE_ARGS[1:]]) == 0
    return path


def run(capsys, argv: list[str]) -> tuple[str, str]:
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    return captured.out, captured.err


def golden(name: str) -> str:
    return (GOLDEN / name).read_text()


@pytest.mark.parametrize("engine", ["specialized", "reference"])
class TestSimulateGolden:
    def test_trace_file(self, capsys, trace, engine):
        out, err = run(capsys, ["simulate", "--trace-file", str(trace),
                                "--engine", engine])
        assert out == golden("trace_file.stdout")
        assert err == ""

    def test_workload(self, capsys, engine):
        out, err = run(capsys, ["simulate", "gzip", "--budget", "3000",
                                "--engine", engine])
        assert out == golden("workload.stdout")
        assert err == ""

    def test_sample_regions(self, capsys, trace, engine):
        out, err = run(capsys, ["simulate", "--trace-file", str(trace),
                                "--sample-regions", "4",
                                "--engine", engine])
        assert out == golden("sample_regions.stdout")
        assert err == golden("sample_regions.stderr")

    def test_progress_and_predictor_mismatch(self, capsys, trace, engine):
        out, err = run(capsys, ["simulate", "--trace-file", str(trace),
                                "--config", "2wide-cache", "--progress",
                                "--progress-records", "500",
                                "--engine", engine])
        assert out == golden("mismatch.stdout")
        assert err == golden("mismatch_progress.stderr")
