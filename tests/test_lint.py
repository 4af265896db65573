"""resim-lint: fixture tests per rule, suppression mechanics, and the
repo-wide zero-findings self-run that CI gates on.

Every rule gets at least one minimal *bad* snippet it must fire on
and the corresponding *good* idiom it must stay silent on — the rule
set is only trustworthy if both directions are pinned.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:  # tools/ is repo tooling, not a
    sys.path.insert(0, str(REPO_ROOT))  # package under src/

from tools.lint import all_rules, lint_paths, lint_source  # noqa: E402
from tools.lint.framework import (  # noqa: E402
    FileContext,
    lint_contexts,
    module_name_for,
)

SRC = REPO_ROOT / "src"


def rules_of(findings) -> list[str]:
    return sorted({finding.rule for finding in findings})


def fires(source: str, rule: str, *, module: str = "repro.fixture"
          ) -> bool:
    return rule in rules_of(lint_source(source, module=module))


# ---------------------------------------------------------------------
# D101 — stdlib random
# ---------------------------------------------------------------------


class TestUnseededRandom:
    def test_module_level_random_fires(self):
        assert fires("import random\nx = random.random()\n", "D101")

    def test_unseeded_random_instance_fires(self):
        assert fires("import random\nr = random.Random()\n", "D101")

    def test_system_random_fires(self):
        assert fires("import random\nr = random.SystemRandom()\n",
                     "D101")

    def test_from_import_fires(self):
        assert fires("from random import choice\n", "D101")

    def test_aliased_import_fires(self):
        assert fires("import random as rnd\nx = rnd.shuffle(items)\n",
                     "D101")

    def test_seeded_random_instance_is_silent(self):
        assert not fires("import random\nr = random.Random(42)\n",
                         "D101")

    def test_repo_rng_is_silent(self):
        good = ("from repro.utils.rng import XorShiftRNG\n"
                "rng = XorShiftRNG(7)\nx = rng.random()\n")
        assert rules_of(lint_source(good)) == []

    def test_unrelated_name_random_is_silent(self):
        # A local object that happens to be called "random" is not
        # the stdlib module.
        assert not fires("random = make_sampler()\n"
                         "x = random.next_u64()\n", "D101")


# ---------------------------------------------------------------------
# D102 — wall clock into results
# ---------------------------------------------------------------------


class TestWallClockInResults:
    def test_dict_literal_fires(self):
        assert fires("import time\n"
                     "payload = {'finished_at': time.time()}\n",
                     "D102")

    def test_result_assignment_fires(self):
        assert fires("import time\nresult_stamp = time.time()\n",
                     "D102")

    def test_json_dumps_argument_fires(self):
        assert fires(
            "import json, time\n"
            "s = json.dumps([time.time()], sort_keys=True)\n",
            "D102")

    def test_datetime_now_in_document_fires(self):
        assert fires("from datetime import datetime\n"
                     "doc = {'at': datetime.now().isoformat()}\n",
                     "D102")

    def test_from_import_time_fires(self):
        assert fires("from time import time\n"
                     "checkpoint_age = time()\n", "D102")

    def test_lease_aging_is_silent(self):
        good = ("import time\n"
                "def stale(path, horizon):\n"
                "    now = time.time()\n"
                "    return now - path.stat().st_mtime > horizon\n")
        assert not fires(good, "D102")

    def test_monotonic_timeout_is_silent(self):
        assert not fires("import time\ndeadline = time.time() + 5\n",
                         "D102")


# ---------------------------------------------------------------------
# D103 — bare set iteration
# ---------------------------------------------------------------------


class TestBareSetIteration:
    def test_for_loop_fires(self):
        assert fires("for x in {1, 2, 3}:\n    emit(x)\n", "D103")

    def test_list_call_fires(self):
        assert fires("order = list({'a', 'b'})\n", "D103")

    def test_join_fires(self):
        assert fires("s = ','.join(set(names))\n", "D103")

    def test_list_comprehension_fires(self):
        assert fires("out = [x for x in set(xs)]\n", "D103")

    def test_sorted_is_silent(self):
        assert not fires("for x in sorted({3, 1, 2}):\n    emit(x)\n",
                         "D103")

    def test_order_free_consumers_are_silent(self):
        good = ("n = len({1, 2})\n"
                "ok = any(x > 1 for x in {1, 2})\n"
                "everything = all(x for x in set(xs))\n"
                "m = max({4, 5})\n")
        assert not fires(good, "D103")

    def test_set_comprehension_is_silent(self):
        assert not fires("keys = {k for k in set(xs)}\n", "D103")

    def test_membership_is_silent(self):
        assert not fires("ok = x in {1, 2, 3}\n", "D103")


# ---------------------------------------------------------------------
# D104 — unsorted directory listings
# ---------------------------------------------------------------------


class TestUnsortedListing:
    def test_listdir_for_loop_fires(self):
        assert fires("import os\nfor f in os.listdir(d):\n    run(f)\n",
                     "D104")

    def test_glob_comprehension_fires(self):
        assert fires(
            "from pathlib import Path\n"
            "units = [p for p in Path(d).glob('*.json')]\n", "D104")

    def test_iterdir_fires(self):
        assert fires("for entry in root.iterdir():\n    queue(entry)\n",
                     "D104")

    def test_glob_module_fires(self):
        assert fires("import glob\n"
                     "for name in glob.glob('*.rtrc'):\n    load(name)\n",
                     "D104")

    def test_list_materialization_fires(self):
        assert fires("pending = list(root.glob('*.json'))\n", "D104")

    def test_sorted_is_silent(self):
        assert not fires(
            "for f in sorted(root.glob('*.json')):\n    run(f)\n",
            "D104")

    def test_existence_checks_are_silent(self):
        good = ("drained = not any(root.glob('*.json'))\n"
                "count = len(set(root.glob('*.json')))\n"
                "names = {p.name for p in root.glob('*.json')}\n")
        assert not fires(good, "D104")

    def test_listing_passed_to_helper_fires(self):
        assert fires(
            "def claim_all(paths):\n"
            "    for path in paths:\n"
            "        claim(path)\n"
            "def drain(root):\n"
            "    claim_all(root.glob('*.json'))\n", "D104")

    def test_listing_passed_to_method_by_keyword_fires(self):
        assert fires(
            "class Queue:\n"
            "    def _claim_all(self, *, paths):\n"
            "        return [claim(path) for path in paths]\n"
            "    def drain(self):\n"
            "        self._claim_all(paths=self.root.iterdir())\n",
            "D104")

    def test_order_free_helper_is_silent(self):
        good = ("def pending(paths):\n"
                "    return len(set(paths)) + any(p.stem for p in paths)\n"
                "def claim_all(paths):\n"
                "    for path in paths:\n"
                "        claim(path)\n"
                "n = pending(root.glob('*.json'))\n"
                "claim_all(sorted(root.glob('*.json')))\n")
        assert not fires(good, "D104")

    def test_helper_that_rebinds_its_parameter_is_silent(self):
        sorts_first = ("def claim_all(paths):\n"
                       "    paths = sorted(paths)\n"
                       "    for path in paths:\n"
                       "        claim(path)\n"
                       "claim_all(root.glob('*.json'))\n")
        shadows = ("def claim_all(paths):\n"
                   "    def each(paths):\n"
                   "        return paths\n"
                   "    firsts = [p for paths in groups for p in paths]\n"
                   "    return each(sorted(paths)), firsts\n"
                   "claim_all(root.glob('*.json'))\n")
        assert not fires(sorts_first, "D104")
        assert not fires(shadows, "D104")


# ---------------------------------------------------------------------
# D105 — canonical JSON
# ---------------------------------------------------------------------


class TestUnsortedJson:
    def test_dumps_without_sort_keys_fires(self):
        assert fires("import json\ns = json.dumps(doc)\n", "D105")

    def test_dump_without_sort_keys_fires(self):
        assert fires("import json\njson.dump(doc, handle)\n", "D105")

    def test_sort_keys_false_fires(self):
        assert fires("import json\n"
                     "s = json.dumps(doc, sort_keys=False)\n", "D105")

    def test_from_import_fires(self):
        assert fires("from json import dumps\ns = dumps(doc)\n",
                     "D105")

    def test_sort_keys_true_is_silent(self):
        assert not fires(
            "import json\ns = json.dumps(doc, sort_keys=True)\n",
            "D105")

    def test_loads_is_silent(self):
        assert not fires("import json\nd = json.loads(text)\n",
                         "D105")


# ---------------------------------------------------------------------
# S201 — atomic writes in the protocol layer
# ---------------------------------------------------------------------


class TestNonAtomicWrite:
    MODULE = "repro.exec.fixture"

    def test_bare_open_write_fires(self):
        assert fires("def save(path, text):\n"
                     "    with open(path, 'w') as h:\n"
                     "        h.write(text)\n",
                     "S201", module=self.MODULE)

    def test_write_text_fires(self):
        assert fires("def save(result_path, text):\n"
                     "    result_path.write_text(text)\n",
                     "S201", module=self.MODULE)

    def test_append_mode_fires(self):
        assert fires("h = open(log_path, 'a')\n", "S201",
                     module=self.MODULE)

    def test_tmp_then_replace_is_silent(self):
        good = ("import os\n"
                "def save(path, text, tmp):\n"
                "    tmp.write_text(text)\n"
                "    os.replace(tmp, path)\n")
        assert not fires(good, "S201", module=self.MODULE)

    def test_read_mode_is_silent(self):
        assert not fires("text = open(path).read()\n"
                         "rb = open(path, 'rb').read()\n",
                         "S201", module=self.MODULE)

    def test_outside_protocol_layer_is_silent(self):
        # User-facing exports (CSV/JSON tables) may write directly.
        assert not fires("def export(path, text):\n"
                         "    path.write_text(text)\n",
                         "S201", module="repro.sweep.result")


# ---------------------------------------------------------------------
# S202 — paired codecs
# ---------------------------------------------------------------------


class TestOneWayCodec:
    def test_to_dict_without_from_dict_fires(self):
        assert fires("class C:\n"
                     "    def to_dict(self):\n"
                     "        return {}\n", "S202")

    def test_from_spec_without_to_spec_fires(self):
        assert fires("class C:\n"
                     "    @classmethod\n"
                     "    def from_spec(cls, spec):\n"
                     "        return cls()\n", "S202")

    def test_paired_codec_is_silent(self):
        good = ("class C:\n"
                "    def to_dict(self):\n"
                "        return {}\n"
                "    @classmethod\n"
                "    def from_dict(cls, data):\n"
                "        return cls()\n")
        assert not fires(good, "S202")

    def test_plain_class_is_silent(self):
        assert not fires("class C:\n"
                         "    def describe(self):\n"
                         "        return 'C'\n", "S202")


# ---------------------------------------------------------------------
# S203 — registered classes carry their name
# ---------------------------------------------------------------------

_REGISTRY_PREAMBLE = (
    "class _R:\n"
    "    def register(self, key, **kw):\n"
    "        def deco(cls):\n"
    "            return cls\n"
    "        return deco\n"
    "BACKENDS = _R()\n"
)


class TestRegisteredClassName:
    def test_missing_name_fires(self):
        assert fires(_REGISTRY_PREAMBLE +
                     "@BACKENDS.register('fast')\n"
                     "class FastBackend:\n"
                     "    pass\n", "S203")

    def test_mismatched_name_fires(self):
        assert fires(_REGISTRY_PREAMBLE +
                     "@BACKENDS.register('fast')\n"
                     "class FastBackend:\n"
                     "    name = 'slow'\n", "S203")

    def test_matching_name_is_silent(self):
        assert not fires(_REGISTRY_PREAMBLE +
                         "@BACKENDS.register('fast')\n"
                         "class FastBackend:\n"
                         "    name = 'fast'\n", "S203")

    def test_lowercase_registry_is_ignored(self):
        # Only ALL_CAPS module-level registries mark component
        # families; arbitrary .register() decorators don't.
        assert not fires("@app.register('route')\n"
                         "class Handler:\n"
                         "    pass\n", "S203")


# ---------------------------------------------------------------------
# X301 — float into Counter64
# ---------------------------------------------------------------------


class TestFloatIntoCounter:
    def test_division_into_increment_fires(self):
        assert fires("stats.major_cycles.increment(cycles / 2)\n",
                     "X301")

    def test_float_literal_constructor_fires(self):
        assert fires("c = Counter64(1.5)\n", "X301")

    def test_float_call_fires(self):
        assert fires("c.increment(float(raw))\n", "X301")

    def test_integer_arithmetic_is_silent(self):
        good = ("c.increment(cycles // 2)\n"
                "c.increment(int(raw))\n"
                "k = Counter64(total % (1 << 64))\n")
        assert not fires(good, "X301")


# ---------------------------------------------------------------------
# X304 — float weights into a weighted merge
# ---------------------------------------------------------------------


class TestFloatWeightsIntoMerge:
    def test_float_literal_weight_fires(self):
        assert fires("stats.merge(parts, weights=[0.5, 0.5])\n",
                     "X304")

    def test_division_weight_fires(self):
        assert fires(
            "m = base.merge(rest, weights=[w / total for w in ws])\n",
            "X304")

    def test_float_conversion_fires(self):
        assert fires(
            "base.merge(rest, weights=[float(w) for w in ws])\n",
            "X304")

    def test_integer_weights_are_silent(self):
        good = ("stats.merge(parts, weights=[1, 2, 3])\n"
                "base.merge(rest, weights=[int(w) for w in ws])\n"
                "base.merge(rest, weights=sizes)\n")
        assert not fires(good, "X304")

    def test_unweighted_merge_is_silent(self):
        assert not fires("stats.merge(parts, shards=prov)\n", "X304")

    def test_float_elsewhere_in_call_is_silent(self):
        # Only the weights keyword is counter-scaling; other float
        # arguments to some unrelated .merge() are not X304's business.
        assert not fires("frames.merge(other, alpha=0.5)\n", "X304")


# ---------------------------------------------------------------------
# X302 — merge completeness (project rule over the real sources)
# ---------------------------------------------------------------------


def _contexts(stats_source: str, shard_source: str):
    return [
        FileContext("stats.py", "repro.core.stats", stats_source),
        FileContext("shard.py", "repro.exec.shard", shard_source),
    ]


class TestMergeCompleteness:
    STATS = (SRC / "repro/core/stats.py").read_text()
    SHARD = (SRC / "repro/exec/shard.py").read_text()

    def test_real_sources_are_complete(self):
        findings = lint_contexts(
            _contexts(self.STATS, self.SHARD)).findings
        assert [f for f in findings if f.rule == "X302"] == []

    def test_unmergeable_new_field_fires(self):
        mutated = self.STATS.replace(
            "    shards: list | None = None",
            "    shards: list | None = None\n"
            "    run_label: str = \"\"")
        assert mutated != self.STATS, "anchor drifted"
        findings = [f for f in lint_contexts(
            _contexts(mutated, self.SHARD)).findings
            if f.rule == "X302"]
        assert len(findings) == 1
        assert "run_label" in findings[0].message

    def test_special_cased_field_is_covered(self):
        # "shards" is not a counter, but merge() names it -> silent.
        findings = [f for f in lint_contexts(
            _contexts(self.STATS, self.SHARD)).findings
            if f.rule == "X302" and "shards" in f.message]
        assert findings == []

    def test_exact_sum_entry_must_be_counter(self):
        mutated = self.SHARD.replace('"taken_branches",',
                                     '"ifq_occupancy",')
        assert mutated != self.SHARD, "anchor drifted"
        findings = [f for f in lint_contexts(
            _contexts(self.STATS, mutated)).findings
            if f.rule == "X302"]
        assert len(findings) == 1
        assert "ifq_occupancy" in findings[0].message

    def test_unknown_exact_sum_entry_fires(self):
        mutated = self.SHARD.replace('"taken_branches",',
                                     '"no_such_counter",')
        findings = [f for f in lint_contexts(
            _contexts(self.STATS, mutated)).findings
            if f.rule == "X302"]
        assert len(findings) == 1


# ---------------------------------------------------------------------
# X303 — specialized-engine counter coverage (project rule)
# ---------------------------------------------------------------------


def _specialize_contexts(stats_source: str, specialize_source: str):
    return [
        FileContext("stats.py", "repro.core.stats", stats_source),
        FileContext("specialize.py", "repro.core.specialize",
                    specialize_source),
    ]


class TestSpecializedCounterCoverage:
    STATS = (SRC / "repro/core/stats.py").read_text()
    SPECIALIZE = (SRC / "repro/core/specialize.py").read_text()

    def test_real_sources_are_complete(self):
        findings = lint_contexts(
            _specialize_contexts(self.STATS, self.SPECIALIZE)).findings
        assert [f for f in findings if f.rule == "X303"] == []

    def test_missing_raw_counter_fires(self):
        mutated = self.SPECIALIZE.replace('"taken_branches",', '')
        assert mutated != self.SPECIALIZE, "anchor drifted"
        findings = [f for f in lint_contexts(
            _specialize_contexts(self.STATS, mutated)).findings
            if f.rule == "X303"]
        assert len(findings) == 1
        assert "taken_branches" in findings[0].message

    def test_non_counter_raw_entry_fires(self):
        mutated = self.SPECIALIZE.replace('"taken_branches",',
                                          '"ifq_occupancy",')
        findings = [f for f in lint_contexts(
            _specialize_contexts(self.STATS, mutated)).findings
            if f.rule == "X303"]
        # ifq_occupancy is a sampler, and taken_branches went missing.
        assert len(findings) == 2

    def test_subset_without_specialize_is_silent(self):
        findings = lint_contexts([
            FileContext("stats.py", "repro.core.stats", self.STATS),
        ]).findings
        assert [f for f in findings if f.rule == "X303"] == []


# ---------------------------------------------------------------------
# Suppression mechanics
# ---------------------------------------------------------------------


class TestSuppressions:
    BAD = "import json\ns = json.dumps(doc)"

    def test_justified_trailing_suppression_silences(self):
        source = (self.BAD +
                  "  # resim-lint: disable=D105 -- fixture exception\n")
        assert rules_of(lint_source(source)) == []

    def test_justified_preceding_line_suppression_silences(self):
        source = ("import json\n"
                  "# resim-lint: disable=D105 -- fixture exception\n"
                  "s = json.dumps(doc)\n")
        assert rules_of(lint_source(source)) == []

    def test_multiline_justification_silences(self):
        source = ("import json\n"
                  "# resim-lint: disable=D105 -- a justification\n"
                  "# that wraps over two comment lines\n"
                  "s = json.dumps(doc)\n")
        assert rules_of(lint_source(source)) == []

    def test_unjustified_suppression_is_its_own_finding(self):
        source = self.BAD + "  # resim-lint: disable=D105\n"
        got = rules_of(lint_source(source))
        assert "L001" in got      # the naked disable comment
        assert "D105" in got      # and it silences nothing

    def test_unused_suppression_is_flagged(self):
        source = ("x = 1  # resim-lint: disable=D105 -- "
                  "stale suppression kept by accident\n")
        assert rules_of(lint_source(source)) == ["L002"]

    def test_wrong_rule_id_does_not_silence(self):
        source = (self.BAD +
                  "  # resim-lint: disable=D101 -- wrong rule\n")
        got = rules_of(lint_source(source))
        assert "D105" in got and "L002" in got

    def test_multiple_rules_in_one_comment(self):
        source = ("import json, time\n"
                  "# resim-lint: disable=D105,D102 -- fixture checks "
                  "both families on one line\n"
                  "payload = {'at': json.dumps({'t': time.time()})}\n")
        assert rules_of(lint_source(source)) == []

    def test_select_disables_unused_reporting(self):
        source = (self.BAD +
                  "  # resim-lint: disable=D105 -- justified\n")
        findings = lint_source(source, select={"D101"})
        assert rules_of(findings) == []


# ---------------------------------------------------------------------
# Framework plumbing
# ---------------------------------------------------------------------


class TestFramework:
    def test_module_name_for_repo_layout(self):
        assert module_name_for(
            Path("src/repro/exec/queue.py")) == "repro.exec.queue"
        assert module_name_for(
            Path("/abs/src/repro/core/stats.py")) == "repro.core.stats"
        assert module_name_for(
            Path("src/repro/exec/__init__.py")) == "repro.exec"
        assert module_name_for(Path("scratch.py")) == "scratch"

    def test_rule_registry_is_populated_and_documented(self):
        rules = all_rules()
        ids = [rule.id for rule in rules]
        assert ids == sorted(ids)
        for family in ("D101", "D102", "D103", "D104", "D105",
                       "S201", "S202", "S203", "X301", "X302",
                       "X303", "X304"):
            assert family in ids
        for rule in rules:
            assert rule.title, rule.id
            assert rule.rationale, rule.id

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        report = lint_paths([bad])
        assert rules_of(report.findings) == ["E999"]

    def test_report_json_shape(self, tmp_path):
        target = tmp_path / "snippet.py"
        target.write_text("import json\ns = json.dumps(d)\n")
        report = lint_paths([tmp_path])
        payload = report.to_dict()
        assert payload["version"] == 1
        assert payload["files_checked"] == 1
        assert payload["counts"] == {"D105": 1}
        (finding,) = payload["findings"]
        assert finding["rule"] == "D105"
        assert finding["line"] == 2

    def test_findings_sorted_by_location(self, tmp_path):
        target = tmp_path / "two.py"
        target.write_text("import json\n"
                          "a = json.dumps(d)\n"
                          "b = json.dumps(d)\n")
        report = lint_paths([target])
        assert [f.line for f in report.findings] == [2, 3]


# ---------------------------------------------------------------------
# The gate: the repository lints clean
# ---------------------------------------------------------------------


class TestSelfRun:
    def test_src_has_zero_unsuppressed_findings(self):
        report = lint_paths([SRC])
        assert report.clean, "\n".join(
            finding.render() for finding in report.findings)
        assert report.files_checked > 50

    def test_every_suppression_in_src_is_justified_and_used(self):
        # lint_paths already turns unjustified (L001) or unused
        # (L002) suppressions into findings; count the honored ones
        # so a suppression sneaking in shows up in review.
        report = lint_paths([SRC])
        assert report.suppressions_honored == 1

    def test_linter_package_lints_itself(self):
        report = lint_paths([REPO_ROOT / "tools" / "lint"])
        assert report.clean, "\n".join(
            finding.render() for finding in report.findings)


# ---------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------


@pytest.fixture()
def dirty_tree(tmp_path):
    (tmp_path / "bad.py").write_text("import json\n"
                                     "s = json.dumps(doc)\n")
    return tmp_path


class TestEntryPoints:
    def _run_module(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "tools.lint", *argv],
            capture_output=True, text=True, cwd=REPO_ROOT)

    def test_python_dash_m_clean_exit_zero(self):
        proc = self._run_module(str(SRC))
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_python_dash_m_findings_exit_one(self, dirty_tree):
        proc = self._run_module(str(dirty_tree))
        assert proc.returncode == 1
        assert "D105" in proc.stdout

    def test_json_format(self, dirty_tree):
        proc = self._run_module(str(dirty_tree), "--format", "json")
        payload = json.loads(proc.stdout)
        assert payload["counts"] == {"D105": 1}

    def test_unknown_rule_select_exits_two(self):
        proc = self._run_module("--select", "Z999")
        assert proc.returncode == 2

    def test_missing_path_exits_two(self):
        proc = self._run_module("definitely/not/here")
        assert proc.returncode == 2

    def test_resim_lint_subcommand(self, dirty_tree):
        from repro.cli import main
        assert main(["lint", str(SRC)]) == 0
        assert main(["lint", str(dirty_tree)]) == 1

    def test_resim_lint_list_rules(self, capsys):
        from repro.cli import main
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "D101" in out and "X302" in out
