"""Experiment harnesses.

One module per experiment in DESIGN.md's index; E21–E23 are three specs
of one driver, :mod:`repro.experiments.fidelity`. Each exposes a
``run_*`` function returning row dicts and relies on
:mod:`repro.experiments.common` for table rendering. The benchmark modules
under ``benchmarks/`` are thin wrappers that execute these harnesses and
print the rows the paper's argument predicts.
"""

from .common import fmt_table, planes_under_test

__all__ = ["fmt_table", "planes_under_test"]
