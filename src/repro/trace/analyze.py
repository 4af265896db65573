"""Per-segment trace profiles — the measurement half of region sampling.

ROADMAP calls trace analytics plus region-sampled (SimPoint-style)
simulation the biggest lever for long-trace throughput: most segments
of a long trace are statistically redundant, so a design point can be
estimated from a few *representative* segment ranges instead of a full
replay.  Picking representatives needs per-segment behaviour summaries;
this module computes them in **one streaming pass** over a stored v2
trace:

* record mix (branch / load / store fractions) and branch taken-rate;
* functional-bpred **misprediction density**: wrong-path *blocks* per
  record.  Records carry no misprediction flag, but every mispredicted
  branch injects one contiguous tagged (wrong-path) block, so each
  untagged→tagged transition marks exactly one misprediction of the
  generation-time functional predictor;
* a **basic-block vector** (BBV) over committed PCs.  Records carry no
  PC either — like the engine, the analyzer reconstructs it from
  sequential flow (+4 per committed record) plus the targets of taken
  branches, then folds each committed record into a fixed-dimension
  bucket keyed by its basic block's start PC.  Two segments executing
  the same code regions land in the same buckets, which is what lets
  k-means (:mod:`repro.exec.regions`) cluster "same phase" segments.

Profiles persist as a JSON sidecar next to the trace
(``<trace>.rprof``, written atomically) keyed to the trace's *content
digest*, so a stale sidecar — the trace was regenerated in place — is
detected and recomputed rather than trusted.  ``resim trace analyze``
surfaces the same pass on the command line.

A profile is a pure function of the trace bytes and ``bbv_dim``, so
each process measures it at most once: :func:`ensure_profile` keeps
every profile it measured in a small digest-keyed memo, and a trace
that lands in another directory with no sidecar is served from there
instead of being decoded again.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

from repro.trace.fileio import (
    TraceFileError,
    iter_trace_blocks,
    read_trace_layout,
)
from repro.trace.record import RecordKind
from repro.utils.atomic import atomic_path
from repro.utils.memo import BoundedMemo

#: Profile sidecar schema; bump on incompatible layout changes.
PROFILE_SCHEMA = 1

#: Sidecar filename suffix, appended to the full trace filename
#: (``gzip.trace`` → ``gzip.trace.rprof``).
PROFILE_SUFFIX = ".rprof"

#: Basic-block-vector dimensionality.  Block-start PCs hash into this
#: many buckets; 32 keeps sidecars small while separating program
#: phases that touch different code.
DEFAULT_BBV_DIM = 32

#: Profiles the in-process memo holds at most (least recently used
#: first out).  A sidecar is a few tens of kilobytes of JSON.
PROFILE_MEMO_ENTRIES = 32

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1


class ProfileError(ValueError):
    """Raised for malformed or mismatched profile sidecars."""


def trace_content_digest(path: str | Path, *,
                         chunk_bytes: int = 1 << 20) -> str:
    """Content digest of a stored trace file: streamed SHA-256 over
    the raw bytes, constant memory regardless of trace length.

    The same derivation keys the campaign-service result cache
    (:func:`repro.serve.canon.trace_digest` delegates here), so a
    profile and a cached result that reference one digest reference
    one trace content.
    """
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            while chunk := handle.read(chunk_bytes):
                digest.update(chunk)
    except OSError as error:
        raise ProfileError(
            f"cannot digest trace file {path}: "
            f"{error.strerror or error}") from error
    return f"sha256:{digest.hexdigest()}"


def _mix(value: int) -> int:
    """Deterministic 64-bit integer mixer (SplitMix64 finalizer).

    Python's builtin ``hash`` is salted per process; BBV buckets must
    be stable across runs and hosts, so block-start PCs go through a
    fixed mixer instead.
    """
    value &= _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


@dataclass
class SegmentProfile:
    """Behaviour summary of one trace segment."""

    index: int
    records: int = 0
    committed: int = 0
    wrong_path: int = 0
    wrong_path_blocks: int = 0
    branches: int = 0
    taken_branches: int = 0
    loads: int = 0
    stores: int = 0
    bbv: list[int] = field(default_factory=list)

    def features(self) -> tuple[float, ...]:
        """The normalized feature vector k-means clusters on.

        Fractions of the segment's records (mix, taken-rate,
        misprediction density) followed by the L1-normalized BBV; all
        components lie in [0, 1], so no axis dominates the distance.
        """
        records = self.records or 1
        committed = self.committed or 1
        head = (
            self.branches / records,
            self.loads / records,
            self.stores / records,
            self.taken_branches / records,
            self.wrong_path / records,
            self.wrong_path_blocks / records,
        )
        return head + tuple(count / committed for count in self.bbv)

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "records": self.records,
            "committed": self.committed,
            "wrong_path": self.wrong_path,
            "wrong_path_blocks": self.wrong_path_blocks,
            "branches": self.branches,
            "taken_branches": self.taken_branches,
            "loads": self.loads,
            "stores": self.stores,
            "bbv": list(self.bbv),
        }

    @classmethod
    def from_dict(cls, data: dict) -> SegmentProfile:
        """Parse one sidecar entry, rejecting counts no trace can
        produce (every record is committed or wrong-path, every
        committed record lands in exactly one BBV bucket, and the mix
        counters are committed records)."""
        try:
            segment = cls(
                index=int(data["index"]),
                records=int(data["records"]),
                committed=int(data["committed"]),
                wrong_path=int(data["wrong_path"]),
                wrong_path_blocks=int(data["wrong_path_blocks"]),
                branches=int(data["branches"]),
                taken_branches=int(data["taken_branches"]),
                loads=int(data["loads"]),
                stores=int(data["stores"]),
                bbv=[int(count) for count in data["bbv"]],
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProfileError(
                f"malformed segment profile entry: {error!r}") from None
        s = segment
        consistent = (
            # With the relations below, this makes every count
            # non-negative.
            min(s.wrong_path_blocks, s.taken_branches, s.loads, s.stores,
                *s.bbv) >= 0
            and s.records == s.committed + s.wrong_path
            and sum(s.bbv) == s.committed
            and s.taken_branches <= s.branches
            and s.branches + s.loads + s.stores <= s.committed
            and s.wrong_path_blocks <= s.wrong_path
        )
        if not consistent:
            raise ProfileError(
                f"profile segment {segment.index} has inconsistent "
                f"counts")
        return segment


@dataclass
class TraceProfile:
    """All segment profiles of one trace, plus the identity that ties
    them to the trace content they were measured from."""

    digest: str
    bbv_dim: int
    segments: list[SegmentProfile]

    @property
    def total_records(self) -> int:
        return sum(segment.records for segment in self.segments)

    @property
    def total_committed(self) -> int:
        return sum(segment.committed for segment in self.segments)

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "trace": {"digest": self.digest,
                      "segments": len(self.segments),
                      "records": self.total_records},
            "parameters": {"bbv_dim": self.bbv_dim},
            "segments": [segment.to_dict() for segment in self.segments],
        }

    @classmethod
    def from_dict(cls, data: dict) -> TraceProfile:
        if not isinstance(data, dict) \
                or data.get("schema") != PROFILE_SCHEMA:
            raise ProfileError(
                f"unsupported profile schema {data.get('schema')!r} "
                f"(this version reads schema {PROFILE_SCHEMA})")
        trace = data.get("trace")
        parameters = data.get("parameters")
        entries = data.get("segments")
        if not isinstance(trace, dict) or not isinstance(parameters, dict) \
                or not isinstance(entries, list):
            raise ProfileError("malformed profile document")
        profile = cls(
            digest=str(trace.get("digest", "")),
            bbv_dim=int(parameters.get("bbv_dim", 0)),
            segments=[SegmentProfile.from_dict(entry)
                      for entry in entries],
        )
        for position, segment in enumerate(profile.segments):
            if segment.index != position \
                    or len(segment.bbv) != profile.bbv_dim:
                raise ProfileError(
                    f"profile segment {position} is inconsistent "
                    f"(index {segment.index}, "
                    f"{len(segment.bbv)}-bucket BBV)")
        if trace.get("segments") != len(profile.segments) \
                or trace.get("records") != profile.total_records:
            raise ProfileError(
                f"profile header claims {trace.get('segments')!r} "
                f"segment(s) and {trace.get('records')!r} record(s); "
                f"its entries hold {len(profile.segments)} and "
                f"{profile.total_records}")
        return profile

    def summary(self) -> str:
        """Human-readable per-trace report (``resim trace analyze``)."""
        records = self.total_records or 1
        branches = sum(s.branches for s in self.segments)
        taken = sum(s.taken_branches for s in self.segments)
        lines = [
            f"segments             : {len(self.segments)}",
            f"records              : {self.total_records}"
            f" ({self.total_committed} committed)",
            f"branches             : {branches}"
            f" ({taken} taken)",
            f"loads / stores       : {sum(s.loads for s in self.segments)}"
            f" / {sum(s.stores for s in self.segments)}",
            f"wrong-path blocks    : "
            f"{sum(s.wrong_path_blocks for s in self.segments)}"
            f" ({sum(s.wrong_path for s in self.segments)} records)",
            f"misprediction density: "
            f"{sum(s.wrong_path_blocks for s in self.segments) / records:.4f}"
            f" per record",
            f"BBV dimension        : {self.bbv_dim}",
            f"trace digest         : {self.digest}",
        ]
        return "\n".join(lines)


def analyze_trace(path: str | Path, *,
                  bbv_dim: int = DEFAULT_BBV_DIM) -> TraceProfile:
    """Profile every segment of a stored trace in one streaming pass.

    Decodes segment by segment (constant memory), carrying the
    reconstructed committed PC and the wrong-path block state across
    segment boundaries — exactly the continuity the engine itself sees
    when it replays the whole file.  Never memoized: this is the
    measurement itself.  The digest is taken after the pass, so a
    profile always names bytes that were on disk when it finished.
    """
    if bbv_dim < 1:
        raise ProfileError(f"bbv_dim must be >= 1, got {bbv_dim}")
    layout = read_trace_layout(path)
    profiles = []
    pc = 0
    block_start = 0
    previous_tagged = False
    bucket = _mix(block_start) % bbv_dim
    branch, memory = RecordKind.BRANCH.value, RecordKind.MEMORY.value
    rows = chain.from_iterable(iter_trace_blocks(path, layout=layout))
    for segment in layout.segments:
        bbv = [0] * bbv_dim
        committed = wrong_path = wrong_path_blocks = 0
        branches = taken_branches = loads = stores = 0
        # Rows in the ROW_FIELDS layout: f1 is an M row's is_store, f2
        # and f3 a B row's taken and target.
        for kind, tag, _, _, _, _, f1, f2, f3 in islice(
                rows, segment.record_count):
            if tag:
                wrong_path += 1
                if not previous_tagged:
                    wrong_path_blocks += 1
                previous_tagged = True
                # Wrong-path records never advance the committed PC.
                continue
            previous_tagged = False
            committed += 1
            bbv[bucket] += 1
            if kind == branch:
                branches += 1
                if f2:
                    taken_branches += 1
                    pc = f3 & _MASK32
                else:
                    pc = (pc + 4) & _MASK32
                block_start = pc
                bucket = _mix(block_start) % bbv_dim
            else:
                if kind == memory:
                    if f1:
                        stores += 1
                    else:
                        loads += 1
                pc = (pc + 4) & _MASK32
        if committed + wrong_path < segment.record_count:
            raise TraceFileError(
                f"trace ends inside segment {segment.index}")
        profiles.append(SegmentProfile(
            index=segment.index, records=committed + wrong_path,
            committed=committed, wrong_path=wrong_path,
            wrong_path_blocks=wrong_path_blocks, branches=branches,
            taken_branches=taken_branches, loads=loads, stores=stores,
            bbv=bbv))
    # Drain the rows so the whole-file consistency checks run.
    for _ in rows:
        raise TraceFileError(
            "payload holds more records than the segment table claims")
    return TraceProfile(digest=trace_content_digest(path),
                        bbv_dim=bbv_dim, segments=profiles)


def profile_path(trace_path: str | Path) -> Path:
    """The sidecar path of a trace file (full name + ``.rprof``)."""
    trace = Path(trace_path)
    return trace.with_name(trace.name + PROFILE_SUFFIX)


def _sidecar_text(profile: TraceProfile) -> str:
    """The canonical sidecar bytes of a profile."""
    return json.dumps(profile.to_dict(), sort_keys=True)


def _write_sidecar(text: str, path: str | Path) -> None:
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    with atomic_path(target) as tmp:
        tmp.write_text(text)


def write_profile(profile: TraceProfile,
                  path: str | Path) -> None:
    """Atomically persist a profile sidecar (write-tmpfile-then-rename,
    the same durability idiom as every other protocol file: a crash
    mid-write leaves the old sidecar or none, never truncated JSON)."""
    _write_sidecar(_sidecar_text(profile), path)


def load_profile(trace_path: str | Path, *,
                 expected_digest: str | None = None,
                 ) -> TraceProfile | None:
    """The trace's sidecar profile, or ``None`` when absent, stale or
    inconsistent.

    Staleness is decided by content: the sidecar records the digest of
    the trace bytes it was measured from, and a mismatch (the trace
    was regenerated in place) reads as "no profile" — a stale profile
    silently steering region selection would be worse than a re-scan.
    """
    sidecar = profile_path(trace_path)
    try:
        payload = json.loads(sidecar.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    try:
        profile = TraceProfile.from_dict(payload)
    except ProfileError:
        return None
    digest = (expected_digest if expected_digest is not None
              else trace_content_digest(trace_path))
    if profile.digest != digest:
        return None
    return profile


# ----------------------------------------------------------------------
# Profile memo: each process measures a trace's profile at most once.
# ----------------------------------------------------------------------

#: ``(content digest, bbv_dim) -> sidecar text``.  Filled only by
#: :func:`_record_profile`, i.e. from a measurement, never from a
#: sidecar read off disk.
_PROFILES: BoundedMemo[tuple[str, int], str] = \
    BoundedMemo("trace profiles", PROFILE_MEMO_ENTRIES)


def _record_profile(trace_path: str | Path,
                    profile: TraceProfile) -> None:
    """Persist a freshly *measured* profile as the trace's sidecar and
    remember it in the process memo under its own digest — the one
    :func:`analyze_trace` took over the bytes it measured."""
    text = _sidecar_text(profile)
    _write_sidecar(text, profile_path(trace_path))
    _PROFILES.put((profile.digest, profile.bbv_dim), text)


#: Hit/miss/size counters of the in-process profile memo.  Process
#: telemetry only: never part of any statistics or result document.
profile_cache_info = _PROFILES.info
#: Drop every memoized profile and zero the counters (test isolation).
clear_profile_cache = _PROFILES.clear


def ensure_profile(trace_path: str | Path, *,
                   bbv_dim: int = DEFAULT_BBV_DIM,
                   force: bool = False) -> TraceProfile:
    """The trace's profile: from a digest-fresh sidecar, else from the
    process memo (writing the sidecar), else measured and persisted.

    The trace is hashed once for both lookups.  ``force`` re-analyzes
    unconditionally (and rewrites the sidecar); a sidecar whose BBV
    dimension differs from the requested one is treated as absent,
    since its vectors are not comparable.
    """
    if not force:
        digest = trace_content_digest(trace_path)
        profile = load_profile(trace_path, expected_digest=digest)
        if profile is not None and profile.bbv_dim == bbv_dim:
            return profile
        text = _PROFILES.get((digest, bbv_dim))
        if text is not None:
            _write_sidecar(text, profile_path(trace_path))
            return TraceProfile.from_dict(json.loads(text))
    profile = analyze_trace(trace_path, bbv_dim=bbv_dim)
    _record_profile(trace_path, profile)
    return profile
