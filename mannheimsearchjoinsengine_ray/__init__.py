"""mannheimsearchjoinsengine_ray — a Ray-Data-native knowledge-graph
construction engine with the data-processing capabilities of the Mannheim
Search Joins Engine (reference surveyed in SURVEY.md; read-only at
/root/reference).

Built from scratch on ray.data.Dataset pipelines: zero-copy Arrow
map_batches for extraction / triplification, task-form linking over
per-worker index caches, groupby/aggregate shuffles for canonicalization,
and a sorted partitioned-Parquet materialize with per-partition lineage
manifests.

Layout:
  functions/  — pure scalar/vectorized functions (normalizers, parsers,
                type guessing, units, similarity, hashing, text stats)
  sources/    — deterministic synthetic page-corpus generator + readers
  stages/     — Dataset -> Dataset stage implementations
  pipelines/  — end-to-end pipeline drivers (extract -> triples -> link ->
                canonicalize -> materialize) with checkpoint/resume
  state/      — sharded inverted-index build/load for the linker
"""

__version__ = "0.1.0"
