"""Benchmark harness: regenerate every table and figure of the evaluation.

See DESIGN.md section 4 for the experiment index.  The main entry points are

* :func:`repro.bench.harness.run_all` — run everything and write a report;
* :func:`repro.bench.harness.run_experiment` — run one experiment by id;
* the individual experiment functions in :mod:`repro.bench.experiments`.
"""

from .corpora import gov_collection, gov_collection_url_sorted, wiki_collection
from .experiments import (
    acceleration_ablation_table,
    baseline_retrieval_table,
    codec_ablation_table,
    dictionary_statistics_table,
    dynamic_update_table,
    length_histogram_figure,
    pruning_ablation_table,
    rlz_retrieval_table,
    sampling_policy_ablation_table,
)
from .fastpath import fastpath_benchmark
from .harness import EXPERIMENTS, run_all, run_experiment
from .cluster import cluster_benchmark
from .loadgen import LOAD_SCALES, LoadScale, load_benchmark, load_scale
from .network import network_benchmark
from .reporting import ResultTable
from .retrieval import RetrievalMeasurement, measure_retrieval
from .scale import BenchScale, current_scale
from .serving import serving_benchmark

__all__ = [
    "BenchScale",
    "EXPERIMENTS",
    "LOAD_SCALES",
    "LoadScale",
    "ResultTable",
    "RetrievalMeasurement",
    "acceleration_ablation_table",
    "baseline_retrieval_table",
    "codec_ablation_table",
    "current_scale",
    "dictionary_statistics_table",
    "dynamic_update_table",
    "fastpath_benchmark",
    "gov_collection",
    "gov_collection_url_sorted",
    "length_histogram_figure",
    "load_benchmark",
    "load_scale",
    "measure_retrieval",
    "cluster_benchmark",
    "network_benchmark",
    "pruning_ablation_table",
    "rlz_retrieval_table",
    "run_all",
    "run_experiment",
    "sampling_policy_ablation_table",
    "serving_benchmark",
    "wiki_collection",
]
