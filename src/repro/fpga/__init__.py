"""FPGA substrate: device models, area estimation, VHDL generation.

The paper implements ReSim on Xilinx Virtex-4 (xc4vlx40) and Virtex-5
(xc5vlx50t) devices with ISE 9.1i, reaching minor-cycle frequencies of
84 and 105 MHz and the Table 4 area breakdown (~12K slices, 7 BRAMs).
Neither the devices nor the toolchain are available here, so this
package provides the documented substitution (DESIGN.md §2):

* :mod:`repro.fpga.device` — device descriptions (resources, achieved
  minor-cycle frequency, slice geometry);
* :mod:`repro.fpga.area` — a structure-level resource estimator that
  maps a :class:`~repro.core.config.ProcessorConfig` to slices / LUTs /
  BRAMs per pipeline stage and storage structure, calibrated against
  the paper's Table 4 so configuration *changes* (width, queue sizes,
  predictor geometry) scale the way the real design would;
* :mod:`repro.fpga.timing` — the frequency model and the serial-vs-
  parallel fetch ablation of Section IV (4x cost, 22 % slower);
* :mod:`repro.fpga.vhdlgen` — the paper's "script to produce VHDL code
  for the desired Branch Predictor according to the user parameters"
  (Section III), emitting synthesizable VHDL from a
  :class:`~repro.bpred.unit.PredictorConfig`.
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.fpga.area": "AreaEstimator AreaReport StageArea",
    "repro.fpga.device": "DEVICES FpgaDevice VIRTEX4_LX40 VIRTEX5_LX50T",
    "repro.fpga.timing": "FrequencyModel parallel_fetch_ablation",
    "repro.fpga.vhdlgen.bpgen": "generate_branch_predictor_vhdl",
})
