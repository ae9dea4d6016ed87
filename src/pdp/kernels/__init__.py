"""Hot numerical kernels, implemented with numpy/scipy in ``_ref``.

``BACKEND`` names the implementation and is recorded with benchmark runs.
"""
from ._ref import cn_step_loop, march_half_bound, sturm_count_below, trisolve

BACKEND = "python"
