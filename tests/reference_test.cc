// Differential test of H6 against the naive reference
// (tests/reference/reference_h6.h): every production configuration of
// Algorithm 1 must reach the reference's decisions bit for bit.
//
// Matrix: two workload families (the paper's Example 1 generator and a
// low-cardinality one where multi-attribute moves pay off) x T in
// {1,2,3} tables x read-only / 20% writes x two seeds x budget share
// w in {0.05, 0.2, 0.5}, under each variant — plain, n_best_singles,
// max_index_width, prune_unused, pair_steps, swap_repair, and
// reconfiguration (existing selection + R). Each case runs production as
//   * SelectRecursive at threads 1 and 4,
//   * advisor::Recommend with shards = 4 (plain, multi-table cases),
//   * a serve warm re-selection after frequency shifts (plain cases).
// It also replays the seed corpus of tests/fuzz/fuzz_h6_reference.cc.
//
// Selection, memory, and every trace and runner-up step's kind, before,
// after, ratio and memory delta must be bit-equal to the reference;
// objectives must agree within 1e-9 relative (production maintains them
// incrementally, the reference recomputes them from scratch).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "advisor/advisor.h"
#include "common/check.h"
#include "common/random.h"
#include "core/recursive_selector.h"
#include "costmodel/cost_model.h"
#include "costmodel/reconfiguration.h"
#include "costmodel/what_if.h"
#include "reference/reference_h6.h"
#include "serve/service.h"
#include "workload/scalable_generator.h"

namespace idxsel {
namespace {

using core::ConstructionStep;
using core::RecursiveOptions;
using core::RecursiveResult;
using costmodel::CostModel;
using costmodel::IndexConfig;
using costmodel::ModelBackend;
using costmodel::ReconfigurationModel;
using costmodel::ReconfigurationParams;
using costmodel::WhatIfEngine;
using reference::Answer;
using reference::Diff;
using reference::FromResult;
using reference::ReferenceH6;
using reference::ReferenceResult;

enum class Variant {
  kPlain,
  kNBestSingles,
  kMaxWidth,
  kPruneUnused,
  kPairSteps,
  kSwapRepair,
  kReconfiguration,
};

const char* VariantName(Variant v) {
  switch (v) {
    case Variant::kPlain:
      return "Plain";
    case Variant::kNBestSingles:
      return "NBestSingles";
    case Variant::kMaxWidth:
      return "MaxWidth";
    case Variant::kPruneUnused:
      return "PruneUnused";
    case Variant::kPairSteps:
      return "PairSteps";
    case Variant::kSwapRepair:
      return "SwapRepair";
    case Variant::kReconfiguration:
      return "Reconfiguration";
  }
  return "?";
}

/// Low-cardinality workload: few distinct values per attribute and
/// multi-attribute queries, so appends, pairs, prunes and swaps all pay
/// off (Example 1's near-unique attributes mostly yield single-attribute
/// selections).
workload::Workload LowCardinalityWorkload(uint32_t tables, double write_share,
                                          uint64_t seed) {
  workload::Workload w;
  Rng rng(seed);
  for (uint32_t t = 0; t < tables; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    const workload::TableId table = w.AddTable(std::move(name), 100'000 * (t + 1));
    std::vector<workload::AttributeId> attrs;
    for (int i = 0; i < 8; ++i) {
      attrs.push_back(w.AddAttribute(
          table, static_cast<uint64_t>(rng.UniformInt(2, 400)),
          rng.NextDouble() < 0.5 ? 4u : 8u));
    }
    for (int j = 0; j < 14; ++j) {
      std::vector<workload::AttributeId> q;
      const int64_t width = rng.UniformInt(1, 4);
      for (int64_t k = 0; k < width; ++k) {
        q.push_back(attrs[static_cast<size_t>(rng.UniformInt(0, 7))]);
      }
      const auto kind = rng.NextDouble() < write_share
                            ? workload::QueryKind::kWrite
                            : workload::QueryKind::kRead;
      const auto added = w.AddQuery(
          table, std::move(q), static_cast<double>(rng.UniformInt(1, 1000)),
          kind);
      IDXSEL_CHECK(added.ok());
    }
  }
  w.Finalize();
  return w;
}

struct Env {
  workload::Workload w;
  std::unique_ptr<CostModel> model;
  std::unique_ptr<ModelBackend> backend;

  /// `example1`: the paper's Example 1 generator; otherwise the
  /// low-cardinality family above.
  Env(bool example1, uint32_t tables, double write_share, uint64_t seed) {
    if (example1) {
      workload::ScalableWorkloadParams params;
      params.num_tables = tables;
      params.attributes_per_table = 8;
      params.queries_per_table = 12;
      params.write_share = write_share;
      params.seed = seed;
      w = workload::GenerateScalableWorkload(params);
    } else {
      w = LowCardinalityWorkload(tables, write_share, seed);
    }
    model = std::make_unique<CostModel>(&w);
    backend = std::make_unique<ModelBackend>(model.get());
  }
};

Answer FromRecommendation(const advisor::Recommendation& rec) {
  return Answer{rec.selection, rec.cost_after, rec.memory, rec.trace, nullptr};
}

/// Options of one case; `existing`/`reconfiguration` are filled in by the
/// caller for the reconfiguration variant (the model must be bound to the
/// engine the run uses).
RecursiveOptions VariantOptions(Variant v, double budget) {
  RecursiveOptions options;
  options.budget = budget;
  switch (v) {
    case Variant::kPlain:
    case Variant::kReconfiguration:
      break;
    case Variant::kNBestSingles:
      options.n_best_singles = 4;
      break;
    case Variant::kMaxWidth:
      options.max_index_width = 2;
      break;
    case Variant::kPruneUnused:
      options.prune_unused = true;
      break;
    case Variant::kPairSteps:
      options.pair_steps = true;
      break;
    case Variant::kSwapRepair:
      options.swap_repair = true;
      break;
  }
  return options;
}

/// Runs `options` on a fresh engine (binding a reconfiguration model to it
/// when `existing` is set) and returns the production result.
RecursiveResult RunProduction(Env& env, RecursiveOptions options,
                              const IndexConfig* existing, size_t threads) {
  WhatIfEngine engine(&env.w, env.backend.get());
  const ReconfigurationModel model(&engine, ReconfigurationParams{100.0, 10.0});
  if (existing != nullptr) {
    options.existing = existing;
    options.reconfiguration = &model;
  }
  options.threads = threads;
  return core::SelectRecursive(engine, options);
}

ReferenceResult RunReference(Env& env, RecursiveOptions options,
                             const IndexConfig* existing) {
  WhatIfEngine engine(&env.w, env.backend.get());
  const ReconfigurationModel model(&engine, ReconfigurationParams{100.0, 10.0});
  if (existing != nullptr) {
    options.existing = existing;
    options.reconfiguration = &model;
  }
  return ReferenceH6(engine, options);
}

/// Serve leg: cold first round, then frequency shifts on every third
/// template and a warm incremental re-selection; the committed answer
/// must equal the reference on the shifted workload.
void CheckServeWarmRound(const Env& env, double budget,
                         const std::string& label, size_t* cases) {
  workload::NamedWorkload base;
  base.workload = env.w;
  for (workload::AttributeId i = 0; i < env.w.num_attributes(); ++i) {
    base.attribute_names.push_back(std::to_string(i));
  }
  serve::ServiceOptions options;
  options.advisor.strategy = advisor::StrategyKind::kRecursive;
  options.advisor.budget_bytes = budget;
  options.advisor.threads = 1;
  auto started = serve::AdvisorService::Start(
      base, serve::MakeModelBackendFactory(), options);
  ASSERT_TRUE(started.ok()) << label << started.status().ToString();
  serve::AdvisorService& service = **started;
  auto cold = service.Pump();
  ASSERT_TRUE(cold.ok() && cold->committed) << label;

  for (workload::QueryId j = 0; j < env.w.num_queries(); j += 3) {
    const workload::Query& q = env.w.query(j);
    serve::WorkloadDelta delta;
    delta.kind = serve::DeltaKind::kFrequencyShift;
    delta.table = q.table;
    delta.attributes = q.attributes;
    delta.frequency = q.frequency * (j % 2 == 0 ? 4.0 : 0.25);
    ASSERT_TRUE(service.Submit(delta).ok()) << label;
  }
  auto warm = service.Pump();
  ASSERT_TRUE(warm.ok() && warm->committed) << label;

  const workload::Workload& shifted = service.workload();
  const CostModel model(&shifted);
  ModelBackend backend(&model);
  WhatIfEngine engine(&shifted, &backend);
  RecursiveOptions ref_options;
  ref_options.budget = budget;
  const ReferenceResult want = ReferenceH6(engine, ref_options);
  EXPECT_EQ(Diff(FromRecommendation(service.Answer().recommendation), want),
            "")
      << label << " serve warm round";
  ++*cases;
  EXPECT_TRUE(service.Stop().ok());
}

class ReferenceTest : public ::testing::TestWithParam<Variant> {};

TEST_P(ReferenceTest, ProductionMatchesReference) {
  const Variant variant = GetParam();
  size_t cases = 0;
  for (bool example1 : {true, false}) {
  for (uint32_t tables : {1u, 2u, 3u}) {
    for (double write_share : {0.0, 0.2}) {
      for (uint64_t seed : {11u, 23u}) {
        Env env(example1, tables, write_share, seed);
        for (double w : {0.05, 0.2, 0.5}) {
          const double budget = env.model->Budget(w);
          const std::string label =
              std::string(VariantName(variant)) +
              (example1 ? " example1" : " low-cardinality") +
              " T=" + std::to_string(tables) +
              (write_share > 0.0 ? " writes" : " read-only") +
              " seed=" + std::to_string(seed) + " w=" + std::to_string(w);
          const RecursiveOptions options = VariantOptions(variant, budget);

          // The reconfiguration variant starts from the reference's own
          // plain selection at half the budget.
          IndexConfig existing;
          const IndexConfig* existing_ptr = nullptr;
          if (variant == Variant::kReconfiguration) {
            existing =
                RunReference(env, VariantOptions(Variant::kPlain, budget / 2),
                             nullptr)
                    .selection;
            existing_ptr = &existing;
          }

          const ReferenceResult want = RunReference(env, options, existing_ptr);
          ++cases;
          for (size_t threads : {1u, 4u}) {
            const RecursiveResult got =
                RunProduction(env, options, existing_ptr, threads);
            EXPECT_TRUE(got.status.ok()) << label;
            EXPECT_EQ(Diff(FromResult(got), want), "")
                << label << " threads=" << threads;
          }

          if (variant != Variant::kPlain) continue;
          if (tables >= 2) {
            WhatIfEngine engine(&env.w, env.backend.get());
            advisor::AdvisorOptions advice;
            advice.strategy = advisor::StrategyKind::kRecursive;
            advice.budget_bytes = budget;
            advice.shards = 4;
            advice.threads = 4;
            const auto rec = advisor::Recommend(engine, advice);
            ASSERT_TRUE(rec.ok()) << label << rec.status().ToString();
            EXPECT_EQ(Diff(FromRecommendation(*rec), want), "")
                << label << " shards=4";
          }
          CheckServeWarmRound(env, budget, label, &cases);
        }
      }
    }
  }
  }
  EXPECT_GE(cases, 72u);
}

TEST(ReferenceCorpusTest, FuzzSeedsMatchReference) {
  // The H6 fuzz harness's seeds include searched inputs whose runs commit
  // new pairs, append pairs, a prune and a swap — steps the generated
  // matrix above rarely or never commits.
  size_t seeds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(IDXSEL_H6_CORPUS_DIR)) {
    std::ifstream file(entry.path(), std::ios::binary);
    const std::vector<char> bytes((std::istreambuf_iterator<char>(file)),
                                  std::istreambuf_iterator<char>());
    EXPECT_EQ(reference::CheckEncodedCase(
                  reinterpret_cast<const uint8_t*>(bytes.data()),
                  bytes.size()),
              "")
        << entry.path();
    ++seeds;
  }
  EXPECT_GE(seeds, 13u);
}

INSTANTIATE_TEST_SUITE_P(
    Variants, ReferenceTest,
    ::testing::Values(Variant::kPlain, Variant::kNBestSingles,
                      Variant::kMaxWidth, Variant::kPruneUnused,
                      Variant::kPairSteps, Variant::kSwapRepair,
                      Variant::kReconfiguration),
    [](const ::testing::TestParamInfo<Variant>& param_info) {
      return std::string(VariantName(param_info.param));
    });

}  // namespace
}  // namespace idxsel
