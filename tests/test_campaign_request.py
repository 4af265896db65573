"""One request document for each CLI command and ``resim serve``.

``resim sweep``/``search`` and a served campaign build the same request
document and run it through
:func:`~repro.sweep.campaign.normalize_campaign` and
:func:`~repro.sweep.campaign.run_campaign`; ``resim simulate`` and a
served simulate build the same simulate request and run it through
:func:`~repro.exec.point.normalize_simulate` and
:func:`~repro.exec.point.run_point`.  These tests pin that:

* **CLI ≡ served** — a generated request run through ``repro.cli.main``
  (a ``--json`` export, or the printed report) and through an
  in-process :class:`~repro.serve.CampaignService` yields the same
  sweep document or statistics;
* **stable identity** — the request keys of every pre-existing document
  shape are unchanged (coalescing and journaled jobs depend on them);
* **loud schema** — unknown fields, non-positive sizes and sampling
  parameters without sampling are rejected by name at normalization;
* **one declaration** — the CLI defaults and the README's field table
  are the :data:`~repro.sweep.fields.FIELDS` rows.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cli import (
    _campaign_request,
    _simulate_request,
    build_parser,
    main,
)
from repro.exec import normalize_simulate
from repro.serialize import stats_from_dict
from repro.serve import CampaignService
from repro.serve.jobs import request_key
from repro.session import SessionError, Simulation
from repro.sweep import SweepError
from repro.sweep.campaign import CAMPAIGN_FIELDS, normalize_campaign
from repro.sweep.fields import FIELDS
from repro.trace.fileio import DEFAULT_SEGMENT_RECORDS

README = Path(__file__).resolve().parents[1] / "README.md"

BUDGET = 1500

#: Small integer axes, their ``resim sweep`` flags, and the values a
#: generated request draws from.
AXIS_VALUES = {
    "lsq_entries": ("--lsq", (4, 8)),
    "rob_entries": ("--rob", (8, 16, 32)),
    "width": ("--width", (2, 4)),
}


def sweep_request(**fields) -> dict:
    return {"kind": "sweep", "workload": "gzip", "budget": BUDGET,
            "axes": {"rob_entries": [8, 16]}, **fields}


@st.composite
def campaign_requests(draw) -> dict:
    names = draw(st.lists(st.sampled_from(sorted(AXIS_VALUES)),
                          min_size=1, max_size=2, unique=True))
    axes = {name: sorted(draw(st.lists(
                st.sampled_from(AXIS_VALUES[name][1]), min_size=1,
                max_size=2, unique=True)))
            for name in names}
    request = {"kind": draw(st.sampled_from(("sweep", "search"))),
               "workload": "gzip", "axes": axes,
               "budget": draw(st.integers(600, 1200)),
               "seed": draw(st.integers(1, 9)),
               "segment_records": 200}
    split = draw(st.sampled_from(("full", "shards", "regions")))
    if split == "shards":
        request["shards"] = 2
    elif split == "regions":
        request.update(sampling="regions",
                       regions=draw(st.integers(1, 3)),
                       region_seed=draw(st.integers(0, 3)))
    if request["kind"] == "search":
        request.update(strategy=draw(st.sampled_from(
                           ("grid", "random", "hillclimb"))),
                       metric=draw(st.sampled_from(("ipc", "cycles"))),
                       samples=draw(st.integers(1, 3)),
                       search_seed=draw(st.integers(1, 5)))
    return request


def cli_argv(request: dict, results_dir: Path, export: Path) -> list[str]:
    """The ``resim sweep``/``search`` invocation of one request."""
    argv = [request["kind"], request["workload"],
            "--budget", str(request["budget"]),
            "--seed", str(request["seed"]),
            "--segment-records", str(request["segment_records"]),
            "--shards", str(request.get("shards", 1)),
            "--results-dir", str(results_dir), "--json", str(export)]
    for name, values in request["axes"].items():
        argv += [AXIS_VALUES[name][0], ",".join(map(str, values))]
    if "sampling" in request:
        argv += ["--sample-regions", str(request["regions"]),
                 "--region-seed", str(request["region_seed"])]
    if request["kind"] == "search":
        argv += ["--strategy", request["strategy"],
                 "--metric", request["metric"],
                 "--samples", str(request["samples"]),
                 "--search-seed", str(request["search_seed"])]
    return argv


@settings(max_examples=6, deadline=None)
@given(campaign_requests())
# Axes out of name order, as in ``resim sweep --rob 8,16 --lsq 4,8``.
@example({"kind": "sweep", "workload": "gzip", "budget": 800, "seed": 3,
          "segment_records": 200,
          "axes": {"rob_entries": [8, 16], "lsq_entries": [4, 8]}})
def test_cli_result_equals_served_result(request):
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        export = scratch / "cli.json"
        assert main(cli_argv(request, scratch / "cli", export)) == 0
        service = CampaignService(scratch / "root")
        try:
            job, _ = service.submit(request)
            service.manager.wait(job.job_id, timeout=300)
            assert job.state == "done", job.error
            served = service.manager.result_document(job.job_id)
        finally:
            service.close()
        assert served["sweep"] == json.loads(export.read_text())


@st.composite
def simulate_requests(draw) -> dict:
    """A simulate request over the stored trace ``TRACE``, with or
    without region sampling."""
    spec = {"trace_file": "TRACE",
            "config": draw(st.sampled_from(("4wide-perfect",
                                            "2wide-cache"))),
            "engine": draw(st.sampled_from(("specialized",
                                            "reference")))}
    request = {"kind": "simulate", "spec": spec}
    if draw(st.booleans()):
        request.update(sampling="regions",
                       regions=draw(st.integers(1, 4)),
                       region_seed=draw(st.integers(0, 3)),
                       region_warmup=draw(st.integers(0, 2)))
    return request


def simulate_argv(request: dict) -> list[str]:
    """The ``resim simulate`` invocation of one simulate request."""
    spec = request["spec"]
    argv = ["simulate", "--trace-file", spec["trace_file"],
            "--config", spec["config"], "--engine", spec["engine"]]
    if "sampling" in request:
        argv += ["--sample-regions", str(request["regions"]),
                 "--region-seed", str(request["region_seed"]),
                 "--region-warmup", str(request["region_warmup"])]
    return argv


@pytest.fixture(scope="module")
def stored_trace(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("simulate") / "gzip.rtrc"
    assert main(["trace", "gzip", str(path), "--budget", "2000",
                 "--segment-records", "200"]) == 0
    return str(path)


@settings(max_examples=6, deadline=None)
@given(request=simulate_requests())
@example(request={"kind": "simulate",
                  "spec": {"trace_file": "TRACE", "config": "2wide-cache",
                           "engine": "specialized"},
                  "sampling": "regions", "regions": 4, "region_seed": 0,
                  "region_warmup": 1})
def test_cli_simulate_equals_served_simulate(stored_trace, request):
    """``resim simulate`` prints the report of the statistics a served
    simulate of the same request returns; the CLI's request normalizes
    to the served one."""
    request = {**request,
               "spec": {**request["spec"], "trace_file": stored_trace}}
    argv = simulate_argv(request)
    assert normalize_simulate(_simulate_request(
        build_parser().parse_args(argv))) == normalize_simulate(request)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), \
            contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0
    with tempfile.TemporaryDirectory() as scratch:
        service = CampaignService(scratch)
        try:
            job, _ = service.submit(request)
            service.manager.wait(job.job_id, timeout=300)
            assert job.state == "done", job.error
            served = service.manager.result_document(job.job_id)
        finally:
            service.close()
    report = stats_from_dict(served["stats"]).report()
    assert printed.getvalue().startswith(report + "\n\n")
    assert ("sampled" in served) == ("sampling" in request)
    assert ("cache_key" in served) != ("sampling" in request)


class TestRequestKeys:
    """Request keys computed by the service before the campaign module
    existed; every pre-existing document shape must keep its key."""

    @pytest.mark.parametrize("request_document, key", [
        (sweep_request(), "8697c85a38bdb4b20fc796f6923fb6342722a6ed"),
        (sweep_request(sampling="regions", regions=4),
         "bf4fabbaaa775e40478be34292e9be56fceed4dc"),
        ({"kind": "search", "workload": "gzip", "budget": BUDGET,
          "axes": {"rob_entries": [8, 16], "width": [2, 4]},
          "strategy": "random", "samples": 3, "search_seed": 5},
         "67ea33b9c80db28fe2b9e772b0526a03c67e0c30"),
        (sweep_request(engine="reference"),
         "eb50eeebf3107bf728b156073fb2932a5aba333b"),
        # Spelled-out defaults, reordered keys and axes, tuple values.
        ({"workload": "gzip", "seed": 7, "kind": "sweep",
          "config": "4wide-perfect", "budget": BUDGET, "shards": 1,
          "axes": {"rob_entries": (8, 16)}, "sampling": "full",
          "engine": "specialized",
          "segment_records": DEFAULT_SEGMENT_RECORDS},
         "8697c85a38bdb4b20fc796f6923fb6342722a6ed"),
        ({"kind": "search", "axes": {"width": [2, 4],
                                     "rob_entries": [8, 16]}},
         "5b86c2d5879216619f1701603b5f6490467615e0"),
        ({"kind": "simulate", "spec": {"workload": "gzip",
                                       "budget": BUDGET}},
         "c027bd036bcbdbb30157973fddc3bd5daeb04849"),
        ({"kind": "simulate", "spec": {"workload": "gzip",
                                       "budget": BUDGET,
                                       "engine": "reference"}},
         "c1b4f021ddd2d0753b04a2c9cd08e572c1b5d912"),
        ({"kind": "simulate", "spec": {"trace_file": "traces/gzip.rtrc",
                                       "config": "2wide-cache"}},
         "28465d3c9ae988258c0c07fb13fc9bd6eb743e61"),
        # Spelled-out defaults and reordered keys.
        ({"spec": {"budget": BUDGET, "seed": 7, "config": "4wide-perfect",
                   "workload": "gzip", "schema": 1,
                   "engine": "specialized"}, "kind": "simulate"},
         "c027bd036bcbdbb30157973fddc3bd5daeb04849"),
        ({"kind": "simulate", "spec": {"workload": "vecsum", "budget": 800,
                                       "warmup_instructions": 100,
                                       "max_cycles": 100_000}},
         "2aabbc163144e3c1c5e8209e0189790fb02d562f"),
    ])
    def test_request_key_is_stable(self, tmp_path, request_document, key):
        service = CampaignService(tmp_path, autostart=False)
        try:
            normalized = service.validate_request(request_document)
        finally:
            service.close()
        assert request_key(normalized) == key


class TestNormalizeCampaign:
    def test_segment_records_is_a_request_field(self):
        assert "segment_records" not in normalize_campaign(
            sweep_request(segment_records=DEFAULT_SEGMENT_RECORDS))
        assert normalize_campaign(sweep_request(segment_records=200))[
            "segment_records"] == 200

    @pytest.mark.parametrize("kind, field", [
        ("sweep", "budjet"),
        ("sweep", "strategy"),  # a search field
        ("search", "sample"),
        ("sweep", "workers"),  # execution stays CLI-side
        ("sweep", "sort"),  # presentation stays CLI-side
    ])
    def test_unknown_fields_are_named(self, kind, field):
        with pytest.raises(SweepError) as raised:
            normalize_campaign({**sweep_request(kind=kind), field: 1})
        message = str(raised.value)
        assert repr(field) in message
        assert ", ".join(sorted(CAMPAIGN_FIELDS[kind])) in message

    @pytest.mark.parametrize("fields, message", [
        ({"budget": 0}, "budget must be >= 1, got 0"),
        ({"shards": 0}, "shards must be >= 1, got 0"),
        ({"segment_records": 0}, "segment_records must be >= 1, got 0"),
        ({"kind": "search", "samples": 0}, "samples must be >= 1, got 0"),
        ({"kind": "search", "max_steps": -1},
         "max_steps must be >= 0, got -1"),
        ({"kind": "search", "metric": "goodness"}, "unknown metric"),
        ({"kind": "search", "strategy": "oracle"},
         "unknown search strategy"),
    ])
    def test_bad_values_are_rejected(self, fields, message):
        with pytest.raises(SweepError, match=message):
            normalize_campaign(sweep_request(**fields))

    @pytest.mark.parametrize("config", ["nope", {"width": 4}, 17],
                             ids=["unknown-name", "partial-dict", "int"])
    def test_one_config_refusal(self, config, tmp_path):
        """A spec, a campaign request and ``resim spec hash`` resolve
        a config through one resolver and refuse a bad one with one
        message (exit 1 from the CLI, never a traceback)."""
        with pytest.raises(SessionError) as spec_error:
            Simulation.from_spec({"workload": "gzip", "config": config})
        message = str(spec_error.value)
        with pytest.raises(SweepError) as request_error:
            normalize_campaign(sweep_request(config=config))
        assert str(request_error.value) == message
        saved = tmp_path / "spec.json"
        saved.write_text(json.dumps({"workload": "gzip",
                                     "config": config}))
        with pytest.raises(SystemExit) as cli_exit:
            main(["spec", "hash", "--file", str(saved)])
        assert cli_exit.value.code == message

    def test_axes_run_in_name_order(self):
        axes = {"width": [4, 2], "rob_entries": [16, 8]}
        normalized = normalize_campaign(sweep_request(axes=axes))
        assert list(normalized["axes"].items()) \
            == [("rob_entries", [16, 8]), ("width", [4, 2])]

    @pytest.mark.parametrize("sampling", [{}, {"sampling": "full"}],
                             ids=["absent", "full"])
    @pytest.mark.parametrize("field", ["regions", "region_seed",
                                       "region_warmup"])
    def test_sampling_parameters_need_sampling(self, sampling, field):
        with pytest.raises(SweepError, match=f"'{field}'.*applies only "
                                             f"with \"sampling\""):
            normalize_campaign(sweep_request(**sampling, **{field: 3}))

    @pytest.mark.parametrize("kind", ["sweep", "search"])
    @pytest.mark.parametrize("flags, fields", [
        ([], {}),
        (["--sample-regions", "4"], {"sampling": "regions", "regions": 4}),
    ], ids=["full", "regions"])
    def test_cli_defaults_are_the_request_defaults(self, kind, flags,
                                                   fields):
        """A bare ``resim sweep``/``search`` sends the defaults the
        service fills in."""
        args = build_parser().parse_args([kind, "gzip", "--rob", "8",
                                          *flags])
        cli = normalize_campaign(_campaign_request(args))
        served = normalize_campaign({"kind": kind, "workload": "gzip",
                                     "axes": {"rob_entries": [8]},
                                     **fields})
        assert cli == served


@pytest.mark.parametrize("flags, fields", [
    ([], {}),
    (["--sample-regions", "4"], {"sampling": "regions", "regions": 4}),
], ids=["full", "regions"])
def test_cli_simulate_defaults_are_the_request_defaults(flags, fields):
    """A bare ``resim simulate --trace-file F`` sends the defaults the
    service fills in."""
    args = build_parser().parse_args(["simulate", "--trace-file", "t.rtrc",
                                      *flags])
    assert normalize_simulate(_simulate_request(args)) == normalize_simulate(
        {"kind": "simulate", "spec": {"trace_file": "t.rtrc"}, **fields})


@pytest.mark.parametrize("restriction", [
    {"segments": [0, 2]}, {"warmup_instructions": 100}])
def test_sampled_simulate_refuses_a_restricted_spec(restriction):
    """The plan sets every region's segments and warmup, so a spec that
    sets them too is refused at normalization, not mid-job."""
    spec = {"trace_file": "t.rtrc", **restriction}
    normalize_simulate({"kind": "simulate", "spec": spec})
    with pytest.raises(ValueError, match="sets its regions' segments "
                                         "and warmup_instructions"):
        normalize_simulate({"kind": "simulate", "spec": spec,
                            "sampling": "regions"})


@pytest.mark.parametrize("command", [
    ["sweep", "gzip", "--rob", "8"],
    ["search", "gzip", "--rob", "8"],
    ["simulate", "gzip"],
], ids=["sweep", "search", "simulate"])
@pytest.mark.parametrize("flag", ["--region-seed", "--region-warmup"])
def test_sampling_flags_need_sample_regions(tmp_path, command, flag):
    """Exits before simulating anything: the results directory is never
    created."""
    results = tmp_path / "results"
    extra = [] if command[0] == "simulate" else ["--results-dir",
                                                 str(results)]
    with pytest.raises(SystemExit,
                       match=f"\\({flag}\\) applies only .*--sample-regions"):
        main([*command, *extra, flag, "2", "--budget", "500"])
    assert not results.exists()


def readme_field_rows() -> dict[str, dict]:
    """The README's request-field table, one dict per row."""
    lines = README.read_text().splitlines()
    start = lines.index(
        "| field | type | default | `resim sweep`/`search` flag |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, kind, default, flag = (
            cell.strip() for cell in line.strip("|").split("|"))
        match = re.fullmatch(r"`(\w+)`( \(search\))?", name)
        assert match, f"README field cell {name!r}"
        rows[match[1]] = {"search_only": bool(match[2]), "type": kind,
                          "default": default, "flag": flag}
    return rows


def test_readme_field_table_is_the_field_table():
    rows = readme_field_rows()
    assert list(rows) == list(FIELDS)
    for name, field in FIELDS.items():
        row = rows[name]
        assert row["search_only"] == (field.kinds == ("search",)), name
        default = "required" if field.default is None \
            else f"`{json.dumps(field.default)}`" \
            if isinstance(field.default, str) else str(field.default)
        assert row["default"] == default, name
        if field.type is int:
            minimum = "" if field.minimum is None \
                else f" ≥ {field.minimum}"
            assert row["type"] == f"integer{minimum}", name
        for choice in field.choices:
            assert f'`"{choice}"`' in row["type"], name
        flag = re.match(r"`([-\w]+)", row["flag"])
        assert (flag and flag[1]) == (field.flag or None), name
