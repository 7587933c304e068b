"""One module per paper figure (see DESIGN.md's experiment index).

Every ``run_figXX`` function is deterministic given its ``seed`` and
returns a :class:`repro.metrics.Figure` carrying the same series/rows
the paper's figure plots, plus paper-vs-measured notes.  The benchmark
harness (``benchmarks/``) and ``python -m repro experiments`` both call
these entry points.
"""

from repro.experiments.fig01_lambda_latency import run_fig01
from repro.experiments.fig02_dockerfile_survey import run_fig02
from repro.experiments.fig04_container_startup import run_fig04
from repro.experiments.fig05_openfaas_breakdown import run_fig05
from repro.experiments.fig08_image_recognition import run_fig08
from repro.experiments.fig09_web_latency import run_fig09
from repro.experiments.fig10_prediction import run_fig10
from repro.experiments.fig11_trace import run_fig11
from repro.experiments.fig12_serial_parallel import run_fig12
from repro.experiments.fig13_linear import run_fig13
from repro.experiments.fig14_exp_burst import run_fig14
from repro.experiments.fig15_overhead import run_fig15
from repro.experiments.fig16_repurpose import run_fig16
from repro.experiments.runner import ALL_EXPERIMENTS, run_all

__all__ = [
    "ALL_EXPERIMENTS",
    "run_all",
    "run_fig01",
    "run_fig02",
    "run_fig04",
    "run_fig05",
    "run_fig08",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16",
]
