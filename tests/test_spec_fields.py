"""The run-spec field table: one row per ``Simulation`` spec key.

* identity — specs with every optional key set keep the spec and cache
  keys computed before the table existed (literals below), so
  documents, checkpoints and cached results stay addressable;
* round trip — for drawn valid specs, ``from_spec(s).to_spec()``
  gives ``s`` without its omitted defaults and reads back to itself,
  and ``canonical_spec`` ignores omitted defaults and key order;
* one check — drawn ill-typed or below-minimum values raise
  :class:`SessionError` naming the key;
* docs — the README's spec-key table is the table.
"""

import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.serve.canon import cache_key
from repro.session import (
    CONFIGS,
    DEVICES,
    SPEC_FIELDS,
    SessionError,
    Simulation,
)

README = Path(__file__).resolve().parents[1] / "README.md"

#: Every optional key set to a non-default value.
WORKLOAD_SPEC = {
    "schema": 1, "workload": "bzip2", "config": "2wide-cache",
    "budget": 1234, "seed": 11, "start_pc": 4096,
    "update_predictor_at_commit": False,
    "devices": ["xc4vlx40", "xc5vlx50t"],
    "warmup_instructions": 100, "roi_instructions": 500,
    "max_cycles": 99999, "engine": "reference"}
TRACE_SPEC = {
    "schema": 1, "trace_file": "traces/gzip.rtrc", "segments": [1, 3],
    "config": "4wide-perfect", "budget": 2000, "seed": 3,
    "start_pc": 8192, "update_predictor_at_commit": False,
    "devices": ["xc5vlx50t"], "warmup_instructions": 64,
    "roi_instructions": 256, "max_cycles": 50000, "engine": "reference"}
TRACE_DIGEST = "0123456789abcdef" * 4

#: (spec, trace digest, spec_key, cache_key at engine version 1.0.0),
#: computed before the spec keys were declared as rows.
PINNED = (
    (WORKLOAD_SPEC, None, "096601a47118c6a6f7ff6e09962787143aefef8e",
     "6d6d33ac6a5052bdedbee9230bea207f94b85d00"),
    (TRACE_SPEC, TRACE_DIGEST, "0cd1f0cad4845a73dbfecaccd383548e3c1681d3",
     "fe049d1f5106058b3edaa3b5c3d27bff15e40f39"),
)

#: The plain-value rows (the rest have code of their own).
VALUE_KEYS = ("budget", "seed", "start_pc", "update_predictor_at_commit",
              "warmup_instructions", "roi_instructions", "max_cycles",
              "engine")


@pytest.mark.parametrize("spec, digest, spec_key, key", PINNED,
                         ids=["workload", "trace-file"])
def test_keys_are_pinned(spec, digest, spec_key, key):
    simulation = Simulation.from_spec(spec)
    assert simulation.spec_key() == spec_key
    assert cache_key(spec, trace_digest=digest,
                     engine_version="1.0.0") == key
    assert simulation.to_spec() == spec
    assert list(simulation.to_spec()) == list(spec)


def _valid_value(field):
    if field.type is bool:
        return st.booleans()
    if field.choices:
        return st.sampled_from(field.choices)
    values = st.integers(min_value=field.minimum or 0, max_value=10**9)
    if field.minimum is None:
        values = st.integers(min_value=-10**9, max_value=10**9)
    return st.none() | values if field.nullable else values


@st.composite
def valid_specs(draw) -> dict:
    spec: dict = {}
    if draw(st.booleans()):
        spec["workload"] = draw(st.sampled_from(("gzip", "vecsum")))
    else:
        spec["trace_file"] = draw(st.sampled_from(("a.rtrc", "t/b.rtrc")))
        if draw(st.booleans()):
            lo = draw(st.integers(0, 50))
            spec["segments"] = [lo, lo + draw(st.integers(1, 50))]
    if draw(st.booleans()):
        spec["config"] = draw(st.sampled_from(sorted(CONFIGS)))
    if draw(st.booleans()):
        spec["devices"] = draw(st.lists(st.sampled_from(sorted(DEVICES)),
                                        max_size=3))
    for key in VALUE_KEYS:
        if draw(st.booleans()):
            spec[key] = draw(_valid_value(SPEC_FIELDS[key]))
    return spec


@settings(max_examples=150, deadline=None)
@given(spec=valid_specs(), order=st.randoms(use_true_random=False))
def test_valid_specs_round_trip_and_canonicalize(spec, order):
    written = Simulation.from_spec(spec).to_spec()
    assert Simulation.from_spec(written).to_spec() == written
    for key, field in SPEC_FIELDS.items():
        if key in written:
            assert written[key] == spec.get(key, field.default), key
        else:
            assert field.omit_default, key
            assert spec.get(key, field.default) == field.default, key
    canonical = Simulation.from_spec(spec).canonical_spec()
    items = [(key, spec.get(key, field.default))
             for key, field in SPEC_FIELDS.items()]
    order.shuffle(items)
    assert Simulation.from_spec(dict(items)).canonical_spec() == canonical
    assert list(canonical) == sorted(canonical)
    assert "engine" not in canonical


def _bad_value(field):
    bad = st.sampled_from(("500", "false", 1.5, [], {}))
    if field.type is int:
        bad |= st.booleans() | st.floats(allow_nan=False)
        if field.minimum is not None:
            bad |= st.integers(max_value=field.minimum - 1)
    elif field.type is bool:
        bad |= st.integers() | st.none()
    else:
        bad |= st.text().filter(lambda text: text not in field.choices)
    if not field.nullable and field.type is int:
        bad |= st.none()
    return bad


@settings(max_examples=200, deadline=None)
@given(data=st.data(), key=st.sampled_from(VALUE_KEYS))
def test_refused_values_name_their_key(data, key):
    value = data.draw(_bad_value(SPEC_FIELDS[key]), label=key)
    with pytest.raises(SessionError,
                       match=f"^{key} must be |^unknown {key} "):
        Simulation.from_spec({"workload": "gzip", key: value})


def readme_spec_rows() -> dict[str, dict]:
    """The README's simulate-spec key table, one dict per row."""
    lines = README.read_text().splitlines()
    start = lines.index("| key | type | default | omitted at default |")
    rows = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        name, kind, default, omitted = (
            cell.strip() for cell in line.strip("|").split("|"))
        match = re.fullmatch(r"`(\w+)`", name)
        assert match, f"README spec-key cell {name!r}"
        rows[match[1]] = {"type": kind, "default": default,
                          "omitted": omitted}
    return rows


def test_readme_spec_table_is_the_spec_table():
    rows = readme_spec_rows()
    assert list(rows) == list(SPEC_FIELDS)
    for name, field in SPEC_FIELDS.items():
        row = rows[name]
        assert row["default"] == f"`{json.dumps(field.default)}`", name
        assert row["omitted"] == ("yes" if field.omit_default else "no"), \
            name
        if field.type is int:
            minimum = "" if field.minimum is None \
                else f" ≥ {field.minimum}"
            nullable = " or `null`" if field.nullable else ""
            assert row["type"] == f"integer{minimum}{nullable}", name
        if field.type is bool:
            assert row["type"] == "boolean", name
        for choice in field.choices:
            assert f'`"{choice}"`' in row["type"], name
