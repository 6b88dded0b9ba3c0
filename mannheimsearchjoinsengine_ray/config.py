"""Pipeline configuration.

Mirrors the reference's ~60-key config file (exemplar
``SearchJoins/searchJoins.conf``; loader ``Pipeline.getPipelineFromConfigFile``,
``SJ/pipelines/Pipeline.java:311-477``) as one dataclass.  Defaults are the
reference's shipped defaults where they exist.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

# Sentinel the reference stores for empty/cleaned-away values
# (SJ/utils/PipelineConfig.java:4).  In Arrow we use real nulls; the sentinel
# only survives inside string-typed scalar functions for parity.
NULL_VALUE = "null"


class KeyIdentificationType(enum.Enum):
    none = "none"
    single = "single"
    single_with_refine_attrs = "singleWithRefineAttrs"
    compound = "compaund"  # reference spelling


class RankingType(enum.Enum):
    query_table_coverage = "queryTableCoverage"
    entity_table_coverage = "entityTableCoverage"
    query_entity_sum = "queryEntitySum"
    query_table_coverage_normalized = "queryTableCoverageNormalized"


class NumericResolution(enum.Enum):
    median = "median"
    average = "average"
    voting = "voting"


class StringResolution(enum.Enum):
    longest = "longest"
    voting = "voting"


@dataclass
class PipelineConfig:
    # --- key identification (searchJoins.conf:3-12) ---
    key_identification: KeyIdentificationType = KeyIdentificationType.single
    key_uniqueness: float = 0.6
    avg_key_values_min: int = 3
    avg_key_values_max: int = 50
    remove_non_strings: bool = False

    # --- indexing / search (searchJoins.conf:31-50) ---
    top_k_candidates: int = 1000         # index.nmRetrievedDocsFromIndex
    max_edit_distance: int = 1           # fuzzy search depth
    max_file_size_mb: int = 115          # index.maxFileSize
    min_cols: int = 3                    # index.minCol
    min_rows: int = 5                    # index.minRow
    max_table_rows: int = 2_000_000      # search-time table-size cap
    refine_attrs_factor: float = 0.3     # scoring.refineAttrsFactor (conf:17)

    # --- fuzzy key match (FastJoin replacement; conf:56-59) ---
    fuzzy_min_confidence: float = 0.8
    minhash_num_perm: int = 64
    # bands=8 → rows-per-band r=8 → LSH S-curve threshold (1/b)^(1/r) ≈ 0.77,
    # matched to fuzzy_min_confidence=0.8: short entity labels share tokens
    # constantly, and a lower banding threshold floods verification with
    # low-Jaccard candidates (measured 460s → 9s on 60k labels)
    minhash_bands: int = 8
    shingle_size: int = 3

    # --- ranking / fusion (conf:60-77) ---
    ranking: RankingType = RankingType.query_table_coverage
    max_matched_tables: int = 100
    min_rank: float = 0.6

    # --- duplicate detection / resolution (conf:81-93) ---
    dup_string_threshold: float = 0.8    # data.duplicates.limit string (instance)
    dup_numeric_threshold: float = 0.4
    dup_string_threshold_label: float = 0.5   # with label evidence
    dup_numeric_threshold_label: float = 0.3
    label_threshold: float = 0.8
    numeric_resolution: NumericResolution = NumericResolution.median
    string_resolution: StringResolution = StringResolution.voting
    instance_sample_ratio: float = 1.0

    # --- density filters (conf: data.columnDensity / data.rowDensity) ---
    column_density: float = 0.3
    row_density: float = 0.3

    # --- custom stopwords / header filter (Pipeline.java:879-999) ---
    custom_stopwords: tuple[str, ...] = ()
    header_filter: tuple[str, ...] = ()

    # --- Ray execution knobs (new-engine only) ---
    num_index_shards: int = 16           # hash(ENTITY) shards for the inverted index
    link_shard_route: bool | None = None  # None=auto: shard-route the resolve when
    # the index exceeds link_index_replicate_limit; True/False force the mode
    link_index_replicate_limit: int = 256 << 20  # per-worker RESIDENT byte
    # ceiling for replicating the index (compared against _meta.json's
    # mem_bytes_est, not parquet file size)
    num_output_partitions: int = 16      # hash(subj) partitions of the triple sink
    cc_max_iterations: int = 50          # connected-components fixpoint cap


DEFAULT_CONFIG = PipelineConfig()
