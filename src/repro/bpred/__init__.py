"""Branch prediction substrate.

The paper's ReSim contains a fully parametric branch predictor made of
three cooperating structures (Section III): a **direction predictor**
(the evaluation uses a two-level scheme with a 4-entry branch history
table, 8-bit history registers and a 4096-entry PHT), a direct-mapped
512-entry **Branch Target Buffer**, and a 16-entry **Return Address
Stack**.  A script generates VHDL for any parameter combination — our
equivalent lives in :mod:`repro.fpga.vhdlgen` and consumes the same
:class:`PredictorConfig` used here.

Update discipline
-----------------
All predictor state is updated in *architectural program order* (ReSim
updates the predictor at Commit, per Section III).  The trace generator
uses the same discipline, which guarantees the central trace-driven
invariant: the generator and ReSim see identical predictor state at
every branch, so the wrong-path blocks injected into the trace are
exactly the ones ReSim's own predictions will follow.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.bpred.base": "DirectionPredictor Prediction",
    "repro.bpred.bimodal": "BimodalPredictor",
    "repro.bpred.btb": "BranchTargetBuffer",
    "repro.bpred.combining": "CombiningPredictor",
    "repro.bpred.perfect": "PerfectPredictor",
    "repro.bpred.ras": "ReturnAddressStack",
    "repro.bpred.static_": "AlwaysNotTaken AlwaysTaken",
    "repro.bpred.twolevel": "TwoLevelPredictor",
    "repro.bpred.unit": "BranchPredictorUnit PredictorConfig "
                        "build_direction_predictor",
})
