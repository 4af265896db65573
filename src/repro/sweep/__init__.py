"""Design-space sweeps: bulk simulation of one trace across many
configurations.

The paper positions ReSim for traces *"prepared off-line ... for bulk
simulations with varying design parameters"*; this package is that
workflow as a subsystem:

* :class:`~repro.sweep.spec.SweepSpec` — expand a parameter grid into
  validated, deduplicated :class:`ProcessorConfig` design points;
* :class:`~repro.sweep.runner.SweepRunner` — the one campaign
  constructor: generate/persist the workload trace once, turn design
  points into serializable work units, run them through any
  :class:`~repro.exec.ExecutionBackend` (in-process, process pool, or
  a multi-host directory queue drained by ``resim worker``),
  checkpoint every finished point so interrupted campaigns resume;
  ``.run()`` evaluates the whole grid, ``.search(strategy)`` what an
  adaptive strategy proposes one batch at a time;
* :mod:`~repro.sweep.search` — the strategies (:class:`GridSearch` /
  :class:`RandomSearch` / :class:`HillClimb`);
* :class:`~repro.sweep.result.SweepResult` — sort/filter/tabulate the
  outcomes and export them as JSON/CSV or Table 2-style comparison
  rows.

Quick start
-----------
>>> from repro.sweep import SweepRunner, SweepSpec, default_backend
>>> spec = SweepSpec(axes={"rob_entries": (8, 16, 32)})
>>> runner = SweepRunner(spec, "gzip", results_dir="sweep-out",
...                      budget=5_000, backend=default_backend(4))
>>> print(runner.run().sorted_by("ipc").table())  # doctest: +SKIP

Adaptive search over the same axes and checkpoints:

>>> from repro.sweep import HillClimb
>>> best = runner.search(HillClimb(spec)).best  # doctest: +SKIP
"""

from repro.utils.lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "repro.sweep.progress": "ProgressPrinter SweepProgress",
    "repro.sweep.result": "SweepOutcome SweepResult",
    "repro.sweep.runner": "SweepRunner default_backend",
    "repro.sweep.search": "GridSearch HillClimb RandomSearch SEARCHES "
                          "SearchError SearchResult SearchStrategy "
                          "make_strategy",
    "repro.sweep.spec": "Expansion SweepError SweepPoint SweepSpec",
})
