"""The slot kernel: the arithmetic core behind the fast engines.

This package isolates the per-slot counts/codes computation:

- :class:`~repro.radio.kernels.base.CSRAdjacency` — a topology compiled
  to CSR index arrays;
- :class:`~repro.radio.kernels.scipy_csr.ScipyKernel` — one CSR row
  gather and bincount per (batched) slot; the exact arithmetic the fast
  engine has always computed;
- :class:`~repro.radio.kernels.sinr_csr.SinrCsr` — the per-edge signal
  arbitration the SINR collision model needs instead of counts.

On top of the kernel, :class:`~repro.radio.kernels.megabatch.MegaBatchPlan`
packs *heterogeneous* member topologies into one block-diagonal CSR
matrix so lanes of different cells share a single kernel call per
slot — the engine behind the ``"megabatch"`` execution backend of
:mod:`repro.experiments`.

The computation is exact integer accumulation, which no evaluation
order can change; ``tests/radio/test_kernels.py`` checks the kernel
against a per-row loop over the CSR arrays.
"""

from .base import CSRAdjacency
from .megabatch import MegaBatchPlan
from .scipy_csr import SCIPY_KERNEL, ScipyKernel
from .sinr_csr import SinrCsr, compile_sinr, sinr_arbitrate, sinr_arbitrate_many

__all__ = [
    "CSRAdjacency",
    "MegaBatchPlan",
    "SCIPY_KERNEL",
    "ScipyKernel",
    "SinrCsr",
    "compile_sinr",
    "sinr_arbitrate",
    "sinr_arbitrate_many",
]
