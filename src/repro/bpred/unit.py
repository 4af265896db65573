"""The composite branch predictor unit (direction + BTB + RAS).

This is the component both trace generation and the ReSim fetch stage
share.  Exact agreement between the two is the central trace-driven
invariant (wrong-path blocks in the trace must be precisely the paths
ReSim's own predictor follows), and it holds because:

* ``predict`` performs no architectural state change (the RAS is
  *peeked*, not popped);
* all training — direction counters, BTB fill, RAS push/pop — happens
  in ``update``, which both sides call once per branch in program
  order (ReSim does so at Commit, per Section III of the paper);
* wrong-path (tagged) records never consult or train the unit.

Misprediction taxonomy (Section III of the paper):

* **misprediction** — wrong *direction* on a conditional branch;
  ReSim fetches the tagged wrong-path block until the branch resolves
  at Commit, then pays the mis-speculation penalty.
* **misfetch** — direction fine but the predicted *target* is wrong
  (BTB miss/alias, RAS mismatch) on a taken control-flow instruction;
  fetch pays the (3-cycle default) misfetch penalty and continues.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.bpred.base import DirectionPredictor, Prediction
from repro.bpred.bimodal import BimodalPredictor
from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.combining import CombiningPredictor
from repro.bpred.perfect import PerfectPredictor
from repro.bpred.ras import ReturnAddressStack
from repro.bpred.static_ import AlwaysNotTaken, AlwaysTaken
from repro.bpred.twolevel import TwoLevelPredictor
from repro.isa.instruction import INSTRUCTION_BYTES
from repro.isa.opcodes import BranchKind
from repro.utils.registry import Registry


@dataclass(frozen=True)
class PredictorConfig:
    """Full parameter set for one branch predictor instance.

    The same object parameterizes the Python model, the area estimator
    (:mod:`repro.fpga.area`) and the VHDL generator
    (:mod:`repro.fpga.vhdlgen`) — mirroring the paper's "script to
    produce VHDL code for the desired Branch Predictor according to the
    user parameters".

    The defaults are the paper's evaluation configuration: two-level
    with BHT=4, history length 8, PHT=4096; direct-mapped 512-entry
    BTB; 16-entry RAS.
    """

    scheme: str = "twolevel"  # twolevel|gshare|bimodal|comb|taken|nottaken|perfect
    l1_size: int = 4
    history_length: int = 8
    l2_size: int = 4096
    bimodal_size: int = 2048
    meta_size: int = 1024
    btb_entries: int = 512
    btb_assoc: int = 1
    ras_depth: int = 16

    @property
    def is_perfect(self) -> bool:
        return self.scheme == "perfect"

    def describe(self) -> str:
        if self.is_perfect:
            return "perfect BP"
        return (
            f"{self.scheme} BP, BTB {self.btb_entries}x{self.btb_assoc}, "
            f"RAS {self.ras_depth}"
        )


#: The exact configuration used in Section V.C of the paper.
PAPER_PREDICTOR = PredictorConfig()

#: Perfect prediction, used for the FAST comparison (Table 1, right).
PERFECT_PREDICTOR = PredictorConfig(scheme="perfect")

#: Direction-predictor scheme registry: scheme name → builder taking a
#: :class:`PredictorConfig`.  New schemes register here and are
#: immediately usable wherever schemes are named (sweep axes, session
#: specs, the ``--predictor`` CLI flag).
PREDICTORS: Registry = Registry("predictor scheme")


@PREDICTORS.register("twolevel")
def _build_twolevel(config: PredictorConfig) -> DirectionPredictor:
    return TwoLevelPredictor(
        l1_size=config.l1_size,
        history_length=config.history_length,
        l2_size=config.l2_size,
    )


@PREDICTORS.register("gshare")
def _build_gshare(config: PredictorConfig) -> DirectionPredictor:
    return TwoLevelPredictor(
        l1_size=1,
        history_length=config.history_length,
        l2_size=config.l2_size,
        xor=True,
    )


@PREDICTORS.register("bimodal")
def _build_bimodal(config: PredictorConfig) -> DirectionPredictor:
    return BimodalPredictor(table_size=config.bimodal_size)


@PREDICTORS.register("comb")
def _build_comb(config: PredictorConfig) -> DirectionPredictor:
    return CombiningPredictor(
        first=TwoLevelPredictor(
            l1_size=config.l1_size,
            history_length=config.history_length,
            l2_size=config.l2_size,
        ),
        second=BimodalPredictor(table_size=config.bimodal_size),
        meta_size=config.meta_size,
    )


@PREDICTORS.register("taken")
def _build_taken(config: PredictorConfig) -> DirectionPredictor:
    return AlwaysTaken()


@PREDICTORS.register("nottaken")
def _build_nottaken(config: PredictorConfig) -> DirectionPredictor:
    return AlwaysNotTaken()


@PREDICTORS.register("perfect")
def _build_perfect(config: PredictorConfig) -> DirectionPredictor:
    return PerfectPredictor()


#: The set of direction-predictor schemes
#: :func:`build_direction_predictor` accepts (kept as a tuple for
#: backward compatibility; the registry is the source of truth).
PREDICTOR_SCHEMES = PREDICTORS.names()


def build_direction_predictor(config: PredictorConfig) -> DirectionPredictor:
    """Instantiate the direction predictor a config describes.

    Raises :class:`~repro.utils.registry.RegistryError` (a
    ``ValueError``) for an unknown scheme.
    """
    return PREDICTORS.get(config.scheme)(config)


@dataclass(frozen=True)
class BranchResolution:
    """Comparison of a prediction against the traced actual outcome.

    ``fetch_redirects`` captures what the front end *actually does*: a
    taken direction prediction can only redirect fetch when a target is
    available (BTB hit / non-empty RAS).  A predicted-taken branch with
    no target therefore behaves like a not-taken prediction, which is
    how both SimpleScalar and the misprediction classification here
    treat it.
    """

    predicted_taken: bool
    predicted_target: int | None
    actual_taken: bool
    actual_target: int
    mispredicted: bool  # wrong effective direction: wrong-path + recovery
    misfetch: bool      # right direction, wrong/missing target: penalty only
    wrong_path_start: int | None = None  # fetch PC after the wrong decision

    @property
    def fetch_redirects(self) -> bool:
        return self.predicted_taken and self.predicted_target is not None


@dataclass
class PredictorStatistics:
    """Counters mirroring sim-bpred / sim-outorder branch statistics."""

    lookups: int = 0
    conditional: int = 0
    mispredictions: int = 0
    misfetches: int = 0
    btb_hits: int = 0
    btb_misses: int = 0
    ras_predictions: int = 0
    ras_correct: int = 0


class BranchPredictorUnit:
    """Direction predictor + BTB + RAS behind one interface."""

    def __init__(self, config: PredictorConfig = PAPER_PREDICTOR) -> None:
        self._config = config
        self._direction = build_direction_predictor(config)
        self._btb = BranchTargetBuffer(
            entries=config.btb_entries, assoc=config.btb_assoc
        )
        self._ras = ReturnAddressStack(depth=config.ras_depth)
        self.stats = PredictorStatistics()

    @property
    def config(self) -> PredictorConfig:
        return self._config

    @property
    def is_perfect(self) -> bool:
        return self._config.is_perfect

    # ------------------------------------------------------------------
    # Prediction and resolution
    # ------------------------------------------------------------------

    def resolve(
        self,
        pc: int,
        kind: BranchKind,
        actual_taken: bool,
        actual_target: int,
    ) -> BranchResolution:
        """Predict the branch at ``pc`` and classify the outcome.

        Stateless with respect to predictor training — call
        :meth:`update` separately, in program order.
        """
        self.stats.lookups += 1
        if self.is_perfect:
            return BranchResolution(
                predicted_taken=actual_taken,
                predicted_target=actual_target,
                actual_taken=actual_taken,
                actual_target=actual_target,
                mispredicted=False,
                misfetch=False,
            )

        if kind is BranchKind.COND:
            self.stats.conditional += 1
            predicted_taken = self._direction.predict(pc)
        else:
            predicted_taken = True  # jumps, calls, returns: always taken

        predicted_target: int | None
        if kind is BranchKind.RETURN:
            predicted_target = self._ras.peek()
            self.stats.ras_predictions += 1
            if predicted_target == actual_target:
                self.stats.ras_correct += 1
        else:
            predicted_target = self._btb.lookup(pc)
            if predicted_target is None:
                self.stats.btb_misses += 1
            else:
                self.stats.btb_hits += 1

        fetch_redirects = predicted_taken and predicted_target is not None
        mispredicted = False
        misfetch = False
        wrong_path_start: int | None = None
        if kind is BranchKind.COND:
            if fetch_redirects and not actual_taken:
                # Redirected down the (wrong) taken path.
                mispredicted = True
                wrong_path_start = predicted_target
            elif not fetch_redirects and actual_taken:
                # Stayed on the (wrong) sequential path — either a
                # not-taken direction or a taken prediction the BTB
                # could not serve.
                mispredicted = True
                wrong_path_start = pc + INSTRUCTION_BYTES
            elif fetch_redirects and actual_taken:
                misfetch = predicted_target != actual_target
        else:
            # Unconditional control flow is always taken; only the
            # target can be wrong (or unavailable) — a misfetch.
            misfetch = (not fetch_redirects
                        or predicted_target != actual_target)
        return BranchResolution(
            predicted_taken=predicted_taken,
            predicted_target=predicted_target,
            actual_taken=actual_taken,
            actual_target=actual_target,
            mispredicted=mispredicted,
            misfetch=misfetch,
            wrong_path_start=wrong_path_start,
        )

    def update(
        self,
        pc: int,
        kind: BranchKind,
        taken: bool,
        target: int,
        resolution: BranchResolution | None = None,
    ) -> None:
        """Train all predictor state, in program order.

        ReSim performs this at Commit ("updates the Branch Predictor in
        case of branch", Section III); the trace generator performs it
        at execution.  Both orders are architectural program order, so
        the state sequences are identical.
        """
        if self.is_perfect:
            return
        if resolution is not None and resolution.mispredicted:
            self.stats.mispredictions += 1
        if resolution is not None and resolution.misfetch:
            self.stats.misfetches += 1
        if kind is BranchKind.COND:
            self._direction.update(pc, taken)
        if taken and kind is not BranchKind.RETURN:
            self._btb.update(pc, target)
        if kind is BranchKind.CALL:
            self._ras.push(pc + INSTRUCTION_BYTES)
        elif kind is BranchKind.RETURN:
            self._ras.pop()

    def reset(self) -> None:
        self._direction.reset()
        self._btb.reset()
        self._ras.reset()
        self.stats = PredictorStatistics()

    @property
    def name(self) -> str:
        return self._direction.name
