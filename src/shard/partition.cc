#include "shard/partition.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"

namespace idxsel::shard {

using workload::AttributeId;
using workload::QueryId;
using workload::TableId;

namespace {

/// Adds the schema of `out->tables` to `raw` with dense local ids, and
/// records each local attribute's global id in `out`, each global
/// attribute's local id in `global_to_local` and each table's local rank
/// in `table_rank`. Every table and attribute belongs to one shard, so
/// all shards can share the two maps.
void AddShardSchema(const workload::Workload& workload, ShardWorkload* out,
                    workload::Workload* raw,
                    std::vector<AttributeId>* global_to_local,
                    std::vector<uint32_t>* table_rank) {
  for (size_t r = 0; r < out->tables.size(); ++r) {
    const TableId t = out->tables[r];
    const workload::TableSchema& schema = workload.table(t);
    const TableId local_t = raw->AddTable(schema.name, schema.row_count);
    IDXSEL_CHECK_EQ(local_t, static_cast<TableId>(r));
    (*table_rank)[t] = static_cast<uint32_t>(r);
    for (AttributeId a : schema.attributes) {
      const workload::AttributeStats& stats = workload.attribute(a);
      (*global_to_local)[a] =
          raw->AddAttribute(local_t, stats.distinct_values, stats.value_size);
      out->attr_to_global.push_back(a);
    }
  }
}

/// Adds global query `q` to `raw` with local ids.
void AddShardQuery(const workload::Query& q,
                   const std::vector<AttributeId>& global_to_local,
                   const std::vector<uint32_t>& table_rank,
                   workload::Workload* raw) {
  std::vector<AttributeId> attrs;
  attrs.reserve(q.attributes.size());
  for (AttributeId a : q.attributes) attrs.push_back(global_to_local[a]);
  auto added =
      raw->AddQuery(table_rank[q.table], std::move(attrs), q.frequency, q.kind);
  IDXSEL_CHECK(added.ok());
}

/// Finalizes `raw` (queries in ascending global id order, `raw_to_global`
/// their global ids) into `out`, applying `compression`. A compressed
/// shard only reads `raw`'s schema and queries, so `raw` stays
/// unfinalized then.
void FinishShard(workload::Workload raw, std::vector<QueryId> raw_to_global,
                 const workload::CompressionOptions& compression,
                 ShardWorkload* out) {
  out->source_queries = raw.num_queries();
  if (compression.mode == workload::CompressionMode::kNone) {
    raw.Finalize();
    out->local = std::move(raw);
    out->query_to_global = std::move(raw_to_global);
    return;
  }
  workload::CompressedWorkload compressed =
      workload::CompressWorkload(raw, compression);
  out->local = std::move(compressed.workload);
  out->query_to_global.reserve(compressed.representative.size());
  for (QueryId r : compressed.representative) {
    out->query_to_global.push_back(raw_to_global[r]);
  }
}

}  // namespace

ShardWorkload BuildShardWorkload(
    const workload::Workload& workload, std::vector<TableId> tables,
    const workload::CompressionOptions& compression) {
  ShardWorkload out;
  out.tables = std::move(tables);
  workload::Workload raw;
  std::vector<AttributeId> global_to_local(workload.num_attributes(),
                                           workload::kInvalidAttribute);
  std::vector<uint32_t> table_rank(workload.num_tables(), ShardSet::kNoShard);
  AddShardSchema(workload, &out, &raw, &global_to_local, &table_rank);

  // Queries in ascending global id order, so local query ids order the
  // shard's queries exactly as the global workload does (the benefit sums
  // of Algorithm 1 then accumulate in the same order — bit-identity).
  std::vector<QueryId> raw_to_global;
  for (QueryId j = 0; j < workload.num_queries(); ++j) {
    const workload::Query& q = workload.query(j);
    if (table_rank[q.table] == ShardSet::kNoShard) continue;
    AddShardQuery(q, global_to_local, table_rank, &raw);
    raw_to_global.push_back(j);
  }
  FinishShard(std::move(raw), std::move(raw_to_global), compression, &out);
  return out;
}

ShardSet PartitionByTable(const workload::Workload& workload, size_t shards,
                          const workload::CompressionOptions& compression) {
  ShardSet set;
  set.table_shard.assign(workload.num_tables(), ShardSet::kNoShard);

  std::vector<char> has_queries(workload.num_tables(), 0);
  for (const workload::Query& q : workload.queries()) {
    has_queries[q.table] = 1;
  }
  size_t query_bearing = 0;
  for (char h : has_queries) query_bearing += h != 0;
  if (query_bearing == 0) return set;

  shards = std::max<size_t>(1, std::min(shards, query_bearing));
  set.shards.resize(shards);
  size_t rank = 0;
  for (TableId t = 0; t < workload.num_tables(); ++t) {
    if (!has_queries[t]) continue;
    const uint32_t s = static_cast<uint32_t>(rank % shards);
    set.table_shard[t] = s;
    set.shards[s].tables.push_back(t);
    ++rank;
  }

  // Every shard's view in one pass over the workload: the schema maps are
  // shared, and the queries are bucketed by shard in ascending global id
  // order — each bucket is exactly what BuildShardWorkload would collect.
  std::vector<workload::Workload> raw(shards);
  std::vector<std::vector<QueryId>> raw_to_global(shards);
  std::vector<AttributeId> global_to_local(workload.num_attributes(),
                                           workload::kInvalidAttribute);
  std::vector<uint32_t> table_rank(workload.num_tables(), ShardSet::kNoShard);
  for (size_t s = 0; s < shards; ++s) {
    AddShardSchema(workload, &set.shards[s], &raw[s], &global_to_local,
                   &table_rank);
  }
  for (QueryId j = 0; j < workload.num_queries(); ++j) {
    const workload::Query& q = workload.query(j);
    const uint32_t s = set.table_shard[q.table];
    AddShardQuery(q, global_to_local, table_rank, &raw[s]);
    raw_to_global[s].push_back(j);
  }
  for (size_t s = 0; s < shards; ++s) {
    FinishShard(std::move(raw[s]), std::move(raw_to_global[s]), compression,
                &set.shards[s]);
  }
  return set;
}

costmodel::Index ShardViewBackend::ToGlobal(const costmodel::Index& k) const {
  std::vector<AttributeId> attrs;
  attrs.reserve(k.width());
  for (AttributeId a : k.attributes()) {
    attrs.push_back(view_->attr_to_global[a]);
  }
  return costmodel::Index(std::move(attrs));
}

double ShardViewBackend::CostWithConfig(
    workload::QueryId j, const costmodel::IndexConfig& config) const {
  std::vector<costmodel::Index> translated;
  translated.reserve(config.size());
  for (const costmodel::Index& k : config.indexes()) {
    translated.push_back(ToGlobal(k));
  }
  return inner_->CostWithConfig(view_->query_to_global[j],
                                costmodel::IndexConfig(std::move(translated)));
}

}  // namespace idxsel::shard
