"""Top-level benchmark harness.

:func:`run_all` regenerates every table and figure of the paper's evaluation
(plus the ablations) at the current benchmark scale and writes the rendered
tables to a results file.  It is what the ``repro-bench`` console script and
the ``benchmarks/`` pytest targets call.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..search import AccessPatterns
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
from .fastpath import fastpath_benchmark, large_dictionary_benchmark
from .chaos import chaos_benchmark
from .cluster import cluster_benchmark
from .partition import partition_benchmark
from .network import network_benchmark
from .search import search_benchmark
from .reporting import ResultTable
from .scale import current_scale
from .serving import serving_benchmark

__all__ = ["EXPERIMENTS", "run_experiment", "run_all"]


def _table2() -> ResultTable:
    return dictionary_statistics_table(
        gov_collection(), "Table 2: dictionary statistics on the GOV2-like corpus"
    )


def _table3() -> ResultTable:
    return dictionary_statistics_table(
        wiki_collection(), "Table 3: dictionary statistics on the Wikipedia-like corpus"
    )


def _figure3() -> ResultTable:
    return length_histogram_figure(gov_collection())


def _table4() -> ResultTable:
    return rlz_retrieval_table(
        gov_collection(), "Table 4: rlz on the GOV2-like corpus (crawl order)"
    )


def _table5() -> ResultTable:
    return rlz_retrieval_table(
        gov_collection_url_sorted(),
        "Table 5: rlz on the URL-sorted GOV2-like corpus",
    )


def _table6() -> ResultTable:
    return baseline_retrieval_table(
        gov_collection(), "Table 6: baselines on the GOV2-like corpus (crawl order)"
    )


def _table7() -> ResultTable:
    return baseline_retrieval_table(
        gov_collection_url_sorted(),
        "Table 7: baselines on the URL-sorted GOV2-like corpus",
    )


def _table8() -> ResultTable:
    return rlz_retrieval_table(
        wiki_collection(), "Table 8: rlz on the Wikipedia-like corpus"
    )


def _table9() -> ResultTable:
    return baseline_retrieval_table(
        wiki_collection(), "Table 9: baselines on the Wikipedia-like corpus"
    )


def _table10() -> ResultTable:
    return dynamic_update_table(wiki_collection())


def _ablation_acceleration() -> ResultTable:
    return acceleration_ablation_table(gov_collection())


def _ablation_codecs() -> ResultTable:
    return codec_ablation_table(gov_collection())


def _ablation_sampling() -> ResultTable:
    return sampling_policy_ablation_table(gov_collection())


def _ablation_pruning() -> ResultTable:
    return pruning_ablation_table(gov_collection())


def _fastpath() -> ResultTable:
    return fastpath_benchmark()


def _fastpath_large_dict() -> ResultTable:
    return large_dictionary_benchmark()


def _fastpath_serving() -> ResultTable:
    return serving_benchmark()


def _fastpath_network() -> ResultTable:
    return network_benchmark()


def _fastpath_cluster() -> ResultTable:
    return cluster_benchmark()


def _fastpath_chaos() -> ResultTable:
    return chaos_benchmark()


def _fastpath_partition() -> ResultTable:
    return partition_benchmark()


def _fastpath_search() -> ResultTable:
    return search_benchmark()


#: Registry of experiment id -> function producing its result table.
EXPERIMENTS: Dict[str, Callable[[], ResultTable]] = {
    "table2": _table2,
    "table3": _table3,
    "figure3": _figure3,
    "table4": _table4,
    "table5": _table5,
    "table6": _table6,
    "table7": _table7,
    "table8": _table8,
    "table9": _table9,
    "table10": _table10,
    "ablation-acceleration": _ablation_acceleration,
    "ablation-codecs": _ablation_codecs,
    "ablation-sampling": _ablation_sampling,
    "ablation-pruning": _ablation_pruning,
    "fastpath": _fastpath,
    "fastpath-large-dict": _fastpath_large_dict,
    "fastpath-serving": _fastpath_serving,
    "fastpath-network": _fastpath_network,
    "fastpath-cluster": _fastpath_cluster,
    "fastpath-chaos": _fastpath_chaos,
    "fastpath-partition": _fastpath_partition,
    "fastpath-search": _fastpath_search,
}


def run_experiment(name: str) -> ResultTable:
    """Run one experiment by id (e.g. ``"table4"``)."""
    if name not in EXPERIMENTS:
        valid = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(f"unknown experiment {name!r}; valid ids: {valid}")
    return EXPERIMENTS[name]()


def run_all(
    output_path: Optional[str | Path] = None,
    experiments: Optional[List[str]] = None,
    echo: bool = True,
) -> List[ResultTable]:
    """Run the requested experiments (default: all) and collect their tables."""
    names = experiments or list(EXPERIMENTS)
    scale = current_scale()
    tables: List[ResultTable] = []
    for name in names:
        table = run_experiment(name)
        table.add_note(f"benchmark scale: {scale.name}")
        tables.append(table)
        if echo:
            table.print()
        if output_path is not None:
            table.save(output_path)
    return tables
