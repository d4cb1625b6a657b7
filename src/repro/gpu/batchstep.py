"""Empty placeholder for the removed batched warp-stepping core.

The batched core stepped many warps per popped issue event.  It gave no
measured speed gain over the plain fast core (:mod:`repro.gpu.fastcore`)
and crashed on multi-block programs, so it was deleted.  This module
still exists only because the benchmark's layer tracer
(``perfbench/layers.py``) imports it by name; once that import goes,
this file goes too.
"""
