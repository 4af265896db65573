"""Parametric VHDL generation for the branch predictor.

Section III of the paper: *"We use a script to produce VHDL code for
the desired Branch Predictor according to the user parameters that
include: the RAS size, the number of entries and associativity of the
BTB, etc."*  This package is that script: it turns a
:class:`~repro.bpred.unit.PredictorConfig` into synthesizable VHDL
entities (direction predictor, BTB, RAS, and a wrapping unit).
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.fpga.vhdlgen.bpgen": "generate_branch_predictor_vhdl "
                                "generate_btb_vhdl generate_direction_vhdl "
                                "generate_ras_vhdl",
})
