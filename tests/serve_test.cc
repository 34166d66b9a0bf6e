// idxsel::serve test suite: delta wire format and admission control,
// backoff/breaker state machines, checkpoint durability (round trip +
// corruption -> clean cold start), deployment-plan prefix invariants,
// incremental re-selection (fewer what-if calls than a cold run), and the
// chaos soak — kill the service at every commit-protocol point, restart,
// and require the recovered state, epoch journal, and checkpoint to be
// byte-identical to a run that never crashed, at threads {1,4}.
// Companion to doc/serve.md.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "costmodel/cost_model.h"
#include "rt/fault_injection.h"
#include "serve/backoff.h"
#include "serve/checkpoint.h"
#include "serve/delta.h"
#include "serve/plan.h"
#include "serve/service.h"
#include "workload/parser.h"

namespace idxsel::serve {
namespace {

using costmodel::Index;
using costmodel::IndexConfig;
using workload::AttributeId;
using workload::NamedWorkload;
using workload::QueryKind;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Attribute ids in kBaseWorkload: ORDERS.id=0 .cust=1 .date=2 .status=3,
// ITEMS.order=4 .sku=5.
constexpr const char* kBaseWorkload = R"(
table ORDERS rows=100000
attr id distinct=100000
attr cust distinct=5000
attr date distinct=365
attr status distinct=5
table ITEMS rows=500000
attr order distinct=100000
attr sku distinct=20000
query ORDERS freq=500 attrs=cust,date
query ORDERS freq=300 attrs=status,date
query ORDERS freq=200 attrs=id
query ITEMS freq=400 attrs=order,sku
query ITEMS freq=100 write attrs=sku
)";

NamedWorkload BaseWorkload() {
  auto parsed = workload::ParseWorkload(kBaseWorkload);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return std::move(parsed).value();
}

WorkloadDelta ShiftDelta(workload::TableId table,
                         std::vector<AttributeId> attrs, double freq) {
  WorkloadDelta d;
  d.kind = DeltaKind::kFrequencyShift;
  d.table = table;
  d.attributes = std::move(attrs);
  d.frequency = freq;
  return d;
}

WorkloadDelta AddDelta(workload::TableId table, std::vector<AttributeId> attrs,
                       double freq, bool write = false) {
  WorkloadDelta d;
  d.kind = DeltaKind::kAddTemplate;
  d.table = table;
  d.attributes = std::move(attrs);
  d.frequency = freq;
  d.write = write;
  return d;
}

WorkloadDelta RemoveDelta(workload::TableId table,
                          std::vector<AttributeId> attrs) {
  WorkloadDelta d;
  d.kind = DeltaKind::kRemoveTemplate;
  d.table = table;
  d.attributes = std::move(attrs);
  return d;
}

WorkloadDelta BudgetDelta(double fraction, double bytes = 0.0) {
  WorkloadDelta d;
  d.kind = DeltaKind::kBudgetChange;
  d.budget_fraction = fraction;
  d.budget_bytes = bytes;
  return d;
}

std::string FreshDir(const std::string& name) {
  // IDXSEL_SERVE_ARTIFACT_DIR redirects all service state (checkpoints,
  // delta logs, epoch journals) somewhere durable — CI's serve-soak job
  // sets it so a failing soak uploads the exact on-disk state for
  // post-mortem instead of losing it with the runner's temp dir.
  const char* base = std::getenv("IDXSEL_SERVE_ARTIFACT_DIR");
  const std::string dir =
      (std::filesystem::path(base != nullptr && *base != '\0'
                                 ? base
                                 : ::testing::TempDir().c_str()) /
       name)
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return {};
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(body.data(), static_cast<std::streamsize>(body.size()));
}

/// Backend whose health the test flips: unhealthy -> every cost is NaN
/// (the engine sanitizes, the service's failure detector sees it). Fully
/// deterministic, no clocks, no probabilities.
class ToggleBackend : public costmodel::WhatIfBackend {
 public:
  ToggleBackend(const workload::Workload& w, const bool* healthy)
      : model_(&w), inner_(&model_), healthy_(healthy) {}

  double BaseCost(costmodel::QueryId j) const override {
    return *healthy_ ? inner_.BaseCost(j) : kNaN;
  }
  double CostWithIndex(costmodel::QueryId j,
                       const Index& k) const override {
    return *healthy_ ? inner_.CostWithIndex(j, k) : kNaN;
  }
  double CostWithConfig(costmodel::QueryId j,
                        const IndexConfig& config) const override {
    return *healthy_ ? inner_.CostWithConfig(j, config) : kNaN;
  }
  double IndexMemory(const Index& k) const override {
    return *healthy_ ? inner_.IndexMemory(k) : kNaN;
  }
  double MaintenanceCost(costmodel::QueryId j,
                         const Index& k) const override {
    return *healthy_ ? inner_.MaintenanceCost(j, k) : kNaN;
  }

 private:
  costmodel::CostModel model_;
  costmodel::ModelBackend inner_;
  const bool* healthy_;
};

BackendFactory MakeToggleFactory(const bool* healthy) {
  return [healthy](const workload::Workload& w)
             -> std::unique_ptr<costmodel::WhatIfBackend> {
    return std::make_unique<ToggleBackend>(w, healthy);
  };
}

/// Backend stack with fault injection in front of the analytic model.
class ChaosBackend : public costmodel::WhatIfBackend {
 public:
  ChaosBackend(const workload::Workload& w,
               const rt::FaultInjectionOptions& options)
      : model_(&w), inner_(&model_), chaos_(&inner_, options) {}

  double BaseCost(costmodel::QueryId j) const override {
    return chaos_.BaseCost(j);
  }
  double CostWithIndex(costmodel::QueryId j, const Index& k) const override {
    return chaos_.CostWithIndex(j, k);
  }
  double CostWithConfig(costmodel::QueryId j,
                        const IndexConfig& config) const override {
    return chaos_.CostWithConfig(j, config);
  }
  double IndexMemory(const Index& k) const override {
    return chaos_.IndexMemory(k);
  }
  double MaintenanceCost(costmodel::QueryId j,
                         const Index& k) const override {
    return chaos_.MaintenanceCost(j, k);
  }

  const rt::FaultInjectingBackend& chaos() const { return chaos_; }

 private:
  costmodel::CostModel model_;
  costmodel::ModelBackend inner_;
  rt::FaultInjectingBackend chaos_;
};

// ------------------------------------------------------------ Deltas

TEST(DeltaFormatTest, RoundTripsEveryKind) {
  const WorkloadDelta deltas[] = {
      AddDelta(1, {4, 5}, 123.456789012345, /*write=*/true),
      RemoveDelta(0, {1, 2}),
      ShiftDelta(0, {1, 2}, 0.1),
      BudgetDelta(0.35, 1.5e9),
  };
  for (const WorkloadDelta& d : deltas) {
    const std::string line = FormatDelta(d);
    auto back = ParseDelta(line);
    ASSERT_TRUE(back.ok()) << line << ": " << back.status().ToString();
    EXPECT_EQ(FormatDelta(back.value()), line);
    EXPECT_EQ(back->kind, d.kind);
    EXPECT_EQ(back->table, d.table);
    // Exact bit round trip of the payload doubles.
    EXPECT_EQ(back->frequency, d.frequency);
    EXPECT_EQ(back->budget_fraction, d.budget_fraction);
    EXPECT_EQ(back->budget_bytes, d.budget_bytes);
  }
  // Unsorted attribute lists canonicalize on parse (template identity is
  // the sorted set), so the round trip lands on the canonical line.
  auto unsorted = ParseDelta("shift table=0 attrs=2,1 freq=5");
  ASSERT_TRUE(unsorted.ok());
  EXPECT_EQ(FormatDelta(unsorted.value()), "shift table=0 attrs=1,2 freq=5");
}

TEST(DeltaFormatTest, RejectsMalformedLines) {
  const char* bad[] = {
      "",
      "frobnicate table=1",
      "add table=x freq=1 attrs=1",
      "add table=1 freq=0 attrs=1",     // non-positive frequency
      "add table=1 freq=1 attrs=",      // empty attribute list
      "shift table=1 attrs=1,2",        // missing freq
      "budget fraction=-1 bytes=0",
  };
  for (const char* line : bad) {
    EXPECT_FALSE(ParseDelta(line).ok()) << "accepted: " << line;
  }
}

TEST(DeltaFormatTest, ExactDoubleRoundTrips) {
  const double values[] = {0.0,    1.0,   0.1,  1.0 / 3.0, 1e-300,
                           2.5e17, 123.5, 1e24, 4000.00000000001};
  for (const double v : values) {
    const std::string text = FormatExactDouble(v);
    EXPECT_EQ(std::strtod(text.c_str(), nullptr), v) << text;
  }
}

TEST(DeltaQueueTest, CoalescesSameTemplateKeepingEarliestPosition) {
  DeltaQueue q(8);
  EXPECT_EQ(q.Push(ShiftDelta(0, {1, 2}, 100)), Admission::kAccepted);
  EXPECT_EQ(q.Push(ShiftDelta(0, {3}, 50)), Admission::kAccepted);
  // Unsorted attrs canonicalize to the same key; latest payload wins.
  EXPECT_EQ(q.Push(ShiftDelta(0, {2, 1}, 900)), Admission::kCoalesced);
  const auto drained = q.Drain();
  ASSERT_EQ(drained.size(), 2u);
  EXPECT_EQ(drained[0].frequency, 900.0);  // earliest position, new payload
  EXPECT_EQ(drained[1].frequency, 50.0);
}

TEST(DeltaQueueTest, AddSupersededByShiftStaysAdd) {
  DeltaQueue q(8);
  EXPECT_EQ(q.Push(AddDelta(1, {4}, 10)), Admission::kAccepted);
  EXPECT_EQ(q.Push(ShiftDelta(1, {4}, 70)), Admission::kCoalesced);
  const auto drained = q.Drain();
  ASSERT_EQ(drained.size(), 1u);
  EXPECT_EQ(drained[0].kind, DeltaKind::kAddTemplate);
  EXPECT_EQ(drained[0].frequency, 70.0);
}

TEST(DeltaQueueTest, ShedsOnlyNewEntriesAtCapacity) {
  DeltaQueue q(2);
  EXPECT_EQ(q.Push(ShiftDelta(0, {1}, 1)), Admission::kAccepted);
  EXPECT_EQ(q.Push(ShiftDelta(0, {2}, 1)), Admission::kAccepted);
  EXPECT_EQ(q.Push(ShiftDelta(0, {3}, 1)), Admission::kShed);
  // Coalescing an existing key is always admitted, even when full.
  EXPECT_EQ(q.Push(ShiftDelta(0, {1}, 5)), Admission::kCoalesced);
  EXPECT_EQ(q.size(), 2u);
}

// ------------------------------------------------------------ Backoff

TEST(BackoffTest, DeterministicGrowthWithinJitterBand) {
  BackoffOptions opts;
  opts.initial_seconds = 0.1;
  opts.multiplier = 2.0;
  opts.max_seconds = 0.5;
  opts.jitter = 0.25;
  opts.seed = 7;
  ExponentialBackoff a(opts), b(opts);
  double nominal = opts.initial_seconds;
  for (int i = 0; i < 8; ++i) {
    const double da = a.NextDelaySeconds();
    EXPECT_EQ(da, b.NextDelaySeconds()) << "same seed, same schedule";
    EXPECT_GE(da, nominal * (1.0 - opts.jitter) - 1e-12);
    EXPECT_LE(da, nominal + 1e-12);
    nominal = std::min(opts.max_seconds, nominal * opts.multiplier);
  }
  a.Reset();
  const double after_reset = a.NextDelaySeconds();
  EXPECT_LE(after_reset, opts.initial_seconds + 1e-12);
  EXPECT_GE(after_reset, opts.initial_seconds * (1.0 - opts.jitter) - 1e-12);
}

TEST(BreakerTest, TripOpenHalfOpenCloseLifecycle) {
  CircuitBreakerOptions opts;
  opts.trip_after_failures = 3;
  opts.open_ticks = 2;
  CircuitBreaker breaker(opts);
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordSuccess());  // resets the failure streak
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_FALSE(breaker.RecordFailure());
  EXPECT_TRUE(breaker.RecordFailure());  // third consecutive: trips
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  EXPECT_FALSE(breaker.AllowAttempt());
  EXPECT_FALSE(breaker.Tick());
  EXPECT_TRUE(breaker.Tick());  // second tick: half-open
  EXPECT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.AllowAttempt());
  EXPECT_TRUE(breaker.RecordFailure());  // probe failed: re-trips
  EXPECT_EQ(breaker.state(), BreakerState::kOpen);
  breaker.Tick();
  breaker.Tick();
  ASSERT_EQ(breaker.state(), BreakerState::kHalfOpen);
  EXPECT_TRUE(breaker.RecordSuccess());  // probe ok: closes
  EXPECT_EQ(breaker.state(), BreakerState::kClosed);
  EXPECT_EQ(breaker.trips(), 2u);
  EXPECT_EQ(breaker.closes(), 1u);
}

// ------------------------------------------------------------ Checkpoint

Checkpoint SampleCheckpoint() {
  Checkpoint cp;
  cp.epoch = 7;
  cp.cursor = 42;
  cp.budget_fraction = 0.25;
  cp.budget_bytes = 0.0;
  cp.drift = 123.456;
  cp.degraded = true;
  cp.cost_before = 1.25e9;
  cp.cost_after = 9.875e8;
  cp.memory = 3.5e6;
  cp.selection.Insert(Index({1, 2}));
  cp.selection.Insert(Index({5}));
  cp.plan.budget = 3.75e6;
  cp.plan.initial_memory = 2e6;
  cp.plan.final_memory = 3.5e6;
  PlanStep drop;
  drop.create = false;
  drop.index = Index({3});
  drop.benefit = 0.5;
  drop.memory_delta = -1e6;
  drop.memory_after = 1e6;
  cp.plan.steps.push_back(drop);
  PlanStep create;
  create.index = Index({1, 2});
  create.benefit = 1234.5;
  create.memory_delta = 2.5e6;
  create.memory_after = 3.5e6;
  cp.plan.steps.push_back(create);
  cp.workload_text = kBaseWorkload;
  return cp;
}

TEST(CheckpointTest, SerializeDeserializeRoundTrips) {
  const Checkpoint cp = SampleCheckpoint();
  const std::string body = SerializeCheckpoint(cp);
  auto back = DeserializeCheckpoint(body);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->epoch, cp.epoch);
  EXPECT_EQ(back->cursor, cp.cursor);
  EXPECT_EQ(back->budget_fraction, cp.budget_fraction);
  EXPECT_EQ(back->drift, cp.drift);
  EXPECT_EQ(back->degraded, cp.degraded);
  EXPECT_EQ(back->cost_before, cp.cost_before);
  EXPECT_EQ(back->cost_after, cp.cost_after);
  EXPECT_EQ(back->memory, cp.memory);
  EXPECT_EQ(back->selection.ToString(), cp.selection.ToString());
  EXPECT_EQ(back->plan.ToString(), cp.plan.ToString());
  EXPECT_EQ(back->workload_text, cp.workload_text);
  // Determinism: equal checkpoints, equal bytes.
  EXPECT_EQ(SerializeCheckpoint(back.value()), body);
}

TEST(CheckpointTest, RejectsTruncation) {
  const std::string body = SerializeCheckpoint(SampleCheckpoint());
  for (const size_t keep : {0u, 1u, 10u}) {
    auto result = DeserializeCheckpoint(body.substr(0, keep));
    EXPECT_FALSE(result.ok());
  }
  auto result = DeserializeCheckpoint(body.substr(0, body.size() - 10));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(CheckpointTest, RejectsBitFlip) {
  std::string body = SerializeCheckpoint(SampleCheckpoint());
  body[body.size() / 2] ^= 0x20;
  auto result = DeserializeCheckpoint(body);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("checksum"), std::string::npos)
      << result.status().ToString();
}

TEST(CheckpointTest, RejectsVersionSkewWithValidChecksum) {
  std::string body = SerializeCheckpoint(SampleCheckpoint());
  // Rewrite the magic, then restore a *valid* checksum so the version
  // check (not the checksum) is what rejects the file.
  const size_t magic_end = body.find('\n');
  std::string skewed = "idxsel.serve.checkpoint.v0" + body.substr(magic_end);
  const size_t checksum_at = skewed.rfind("checksum ");
  skewed.resize(checksum_at);
  char line[32];
  std::snprintf(line, sizeof(line), "checksum %016llx\n",
                static_cast<unsigned long long>(Fnv1a64(skewed)));
  skewed += line;
  auto result = DeserializeCheckpoint(skewed);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("version skew"), std::string::npos)
      << result.status().ToString();
}

TEST(CheckpointTest, SaveLoadAtomicAndMissingIsNotFound) {
  const std::string dir = FreshDir("serve_cp");
  const std::string path = dir + "/checkpoint.idxsel";
  EXPECT_EQ(LoadCheckpoint(path).status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(SaveCheckpoint(path, SampleCheckpoint()).ok());
  auto loaded = LoadCheckpoint(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->epoch, 7u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

// ------------------------------------------------------------ Service

ServiceOptions BaseServiceOptions() {
  ServiceOptions so;
  so.advisor.threads = 1;
  so.hooks.sleep = [](double) {};  // never actually sleep in tests
  return so;
}

TEST(ServiceTest, FirstPumpCommitsAndPlanPrefixesAreFeasible) {
  auto base = BaseWorkload();
  auto service =
      AdvisorService::Start(base, MakeModelBackendFactory(),
                            BaseServiceOptions());
  ASSERT_TRUE(service.ok()) << service.status().ToString();
  AdvisorService& svc = **service;
  EXPECT_TRUE(svc.Answer().degraded) << "no commitment yet";

  auto outcome = svc.Pump();
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->committed);
  EXPECT_EQ(outcome->epoch, 1u);

  const ServiceAnswer answer = svc.Answer();
  EXPECT_FALSE(answer.degraded);
  EXPECT_GT(answer.recommendation.selection.size(), 0u);
  EXPECT_LT(answer.recommendation.cost_after,
            answer.recommendation.cost_before);
  EXPECT_TRUE(ValidatePlanPrefixes(answer.plan).ok());
  // The initial plan is pure creates, most beneficial first.
  for (size_t i = 0; i < answer.plan.steps.size(); ++i) {
    EXPECT_TRUE(answer.plan.steps[i].create);
    if (i > 0) {
      EXPECT_LE(answer.plan.steps[i].benefit,
                answer.plan.steps[i - 1].benefit);
    }
  }

  // An idle pump is exactly that: no round, no new epoch.
  auto idle = svc.Pump();
  ASSERT_TRUE(idle.ok());
  EXPECT_FALSE(idle->ran_round);
  EXPECT_STREQ(idle->note, "idle");
  EXPECT_EQ(svc.Answer().epoch, 1u);
}

TEST(ServiceTest, FrequencyShiftReselectsIncrementally) {
  auto base = BaseWorkload();
  auto service = AdvisorService::Start(base, MakeModelBackendFactory(),
                                       BaseServiceOptions());
  ASSERT_TRUE(service.ok());
  AdvisorService& svc = **service;
  auto first = svc.Pump();
  ASSERT_TRUE(first.ok() && first->committed);
  const uint64_t cold_calls = first->whatif_calls;
  ASSERT_GT(cold_calls, 0u);

  // Invert the weight of the two hottest templates.
  ASSERT_TRUE(svc.Submit(ShiftDelta(0, {1, 2}, 50)).ok());
  ASSERT_TRUE(svc.Submit(ShiftDelta(0, {2, 3}, 900)).ok());
  auto second = svc.Pump();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second->committed);
  EXPECT_EQ(second->epoch, 2u);
  EXPECT_EQ(svc.stats().engine_rebuilds, 0u)
      << "frequency shifts must not rebuild the engine";

  // The warm engine answers the re-selection almost entirely from cache:
  // strictly fewer backend calls than the cold round (the bench asserts
  // the same on a bigger drift scenario).
  EXPECT_LT(second->whatif_calls, cold_calls);

  // The shifted workload really drives the answer.
  EXPECT_EQ(svc.workload().query(0).frequency, 50.0);
  EXPECT_EQ(svc.workload().query(1).frequency, 900.0);
  EXPECT_TRUE(ValidatePlanPrefixes(svc.Answer().plan).ok());
}

TEST(ServiceTest, StructuralDeltasRebuildAndReselect) {
  auto base = BaseWorkload();
  auto service = AdvisorService::Start(base, MakeModelBackendFactory(),
                                       BaseServiceOptions());
  ASSERT_TRUE(service.ok());
  AdvisorService& svc = **service;
  ASSERT_TRUE(svc.Pump().ok());
  const size_t queries_before = svc.workload().num_queries();

  ASSERT_TRUE(svc.Submit(AddDelta(1, {4}, 800)).ok());
  auto outcome = svc.Pump();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->committed);
  EXPECT_EQ(svc.workload().num_queries(), queries_before + 1);
  EXPECT_GE(svc.stats().engine_rebuilds, 1u);

  ASSERT_TRUE(svc.Submit(RemoveDelta(1, {4})).ok());
  ASSERT_TRUE(svc.Pump().ok());
  EXPECT_EQ(svc.workload().num_queries(), queries_before);

  // Unknown-template shift/remove deltas are counted and skipped.
  ASSERT_TRUE(svc.Submit(RemoveDelta(0, {0, 3})).ok());
  auto skipped = svc.Pump();
  ASSERT_TRUE(skipped.ok());
  EXPECT_EQ(svc.stats().deltas_skipped, 1u);
}

TEST(ServiceTest, BudgetShrinkEmitsDropsBeforeBlockedCreates) {
  auto base = BaseWorkload();
  ServiceOptions so = BaseServiceOptions();
  so.advisor.budget_fraction = 0.5;
  auto service = AdvisorService::Start(base, MakeModelBackendFactory(), so);
  ASSERT_TRUE(service.ok());
  AdvisorService& svc = **service;
  ASSERT_TRUE(svc.Pump().ok());
  const ServiceAnswer rich = svc.Answer();
  ASSERT_GT(rich.recommendation.selection.size(), 0u);

  ASSERT_TRUE(svc.Submit(BudgetDelta(0.05)).ok());
  auto outcome = svc.Pump();
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->committed);
  const ServiceAnswer poor = svc.Answer();
  EXPECT_LT(poor.recommendation.budget, rich.recommendation.budget);
  EXPECT_LE(poor.recommendation.memory,
            poor.recommendation.budget * (1.0 + 1e-9));
  // The morph plan starts from the rich incumbent and never exceeds the
  // *new* budget mid-flight.
  EXPECT_TRUE(ValidatePlanPrefixes(poor.plan).ok())
      << poor.plan.ToString();
  EXPECT_EQ(poor.plan.initial_memory, rich.recommendation.memory);
}

TEST(ServiceTest, QueueSheddingDegradesButKeepsServing) {
  auto base = BaseWorkload();
  ServiceOptions so = BaseServiceOptions();
  so.queue_capacity = 2;
  auto service = AdvisorService::Start(base, MakeModelBackendFactory(), so);
  ASSERT_TRUE(service.ok());
  AdvisorService& svc = **service;
  ASSERT_TRUE(svc.Pump().ok());
  EXPECT_FALSE(svc.Answer().degraded);

  ASSERT_TRUE(svc.Submit(ShiftDelta(0, {1, 2}, 10)).ok());
  ASSERT_TRUE(svc.Submit(ShiftDelta(0, {2, 3}, 20)).ok());
  const Status shed = svc.Submit(ShiftDelta(0, {0}, 30));
  EXPECT_EQ(shed.code(), StatusCode::kResourceLimit);
  EXPECT_EQ(svc.stats().deltas_shed, 1u);
  // Shedding flags the served answer degraded until the next commit.
  EXPECT_TRUE(svc.Answer().degraded);
  ASSERT_TRUE(svc.Pump().ok());
  EXPECT_FALSE(svc.Answer().degraded);
  EXPECT_EQ(svc.workload().query(2).frequency, 200.0)
      << "shed delta must not be applied";
}

TEST(ServiceTest, DriftThresholdAbsorbsSmallShifts) {
  auto base = BaseWorkload();
  const std::string dir = FreshDir("serve_drift");
  ServiceOptions so = BaseServiceOptions();
  so.dir = dir;
  so.drift_threshold = 0.10;  // re-select at >= 10% of total frequency
  auto service = AdvisorService::Start(base, MakeModelBackendFactory(), so);
  ASSERT_TRUE(service.ok());
  AdvisorService& svc = **service;
  ASSERT_TRUE(svc.Pump().ok());
  ASSERT_EQ(svc.Answer().epoch, 1u);

  // Total frequency is 1500; a +30 shift is 2% drift: absorbed.
  ASSERT_TRUE(svc.Submit(ShiftDelta(0, {2, 3}, 330)).ok());
  auto absorbed = svc.Pump();
  ASSERT_TRUE(absorbed.ok());
  EXPECT_FALSE(absorbed->ran_round);
  EXPECT_STREQ(absorbed->note, "absorbed");
  EXPECT_EQ(svc.Answer().epoch, 1u);
  EXPECT_EQ(svc.stats().absorb_commits, 1u);
  // The absorb still updated the durable cursor + workload.
  auto cp = LoadCheckpoint(svc.checkpoint_path());
  ASSERT_TRUE(cp.ok());
  EXPECT_EQ(cp->epoch, 1u);
  EXPECT_EQ(cp->cursor, 1u);
  EXPECT_GT(cp->drift, 0.0);

  // A further big shift crosses the threshold: re-selection.
  ASSERT_TRUE(svc.Submit(ShiftDelta(0, {1, 2}, 1300)).ok());
  auto reselect = svc.Pump();
  ASSERT_TRUE(reselect.ok());
  EXPECT_TRUE(reselect->committed);
  EXPECT_EQ(svc.Answer().epoch, 2u);
}

TEST(ServiceTest, RecoversFromCheckpointByteExactly) {
  auto base = BaseWorkload();
  const std::string dir = FreshDir("serve_recover");
  ServiceOptions so = BaseServiceOptions();
  so.dir = dir;

  std::string selection, checkpoint_bytes;
  double cost_after = 0.0, total_freq = 0.0;
  {
    auto service = AdvisorService::Start(base, MakeModelBackendFactory(), so);
    ASSERT_TRUE(service.ok());
    AdvisorService& svc = **service;
    ASSERT_TRUE(svc.Pump().ok());
    ASSERT_TRUE(svc.Submit(ShiftDelta(0, {1, 2}, 42.125)).ok());
    ASSERT_TRUE(svc.Submit(AddDelta(1, {4, 5}, 77)).ok());
    ASSERT_TRUE(svc.Pump().ok());
    ASSERT_EQ(svc.Answer().epoch, 2u);
    selection = svc.Answer().recommendation.selection.ToString();
    cost_after = svc.Answer().recommendation.cost_after;
    total_freq = svc.workload().total_frequency();
    ASSERT_TRUE(svc.Stop().ok());
    checkpoint_bytes = ReadFileOrEmpty(svc.checkpoint_path());
  }

  auto service = AdvisorService::Start(base, MakeModelBackendFactory(), so);
  ASSERT_TRUE(service.ok());
  AdvisorService& svc = **service;
  EXPECT_EQ(svc.stats().recoveries, 1u);
  EXPECT_EQ(svc.stats().cold_starts, 0u);
  EXPECT_EQ(svc.Answer().epoch, 2u);
  EXPECT_FALSE(svc.Answer().degraded);
  EXPECT_EQ(svc.Answer().recommendation.selection.ToString(), selection);
  EXPECT_EQ(svc.Answer().recommendation.cost_after, cost_after);
  EXPECT_EQ(svc.workload().total_frequency(), total_freq);
  EXPECT_EQ(svc.workload().query(0).frequency, 42.125);

  // The recovered service keeps committing: its next epoch checkpoint
  // must itself be parseable and monotone.
  ASSERT_TRUE(svc.Submit(ShiftDelta(1, {5}, 3)).ok());
  ASSERT_TRUE(svc.Pump().ok());
  EXPECT_EQ(svc.Answer().epoch, 3u);
  EXPECT_NE(ReadFileOrEmpty(svc.checkpoint_path()), checkpoint_bytes);
}

TEST(ServiceTest, CorruptCheckpointColdStartsCleanly) {
  auto base = BaseWorkload();
  const std::string dir = FreshDir("serve_corrupt");
  ServiceOptions so = BaseServiceOptions();
  so.dir = dir;
  {
    auto service = AdvisorService::Start(base, MakeModelBackendFactory(), so);
    ASSERT_TRUE(service.ok());
    ASSERT_TRUE((*service)->Submit(ShiftDelta(0, {1, 2}, 750)).ok());
    ASSERT_TRUE((*service)->Pump().ok());
    ASSERT_TRUE((*service)->Stop().ok());
  }
  const std::string cp_path = dir + "/checkpoint.idxsel";
  for (const char* mode : {"truncate", "flip", "garbage"}) {
    std::string body = ReadFileOrEmpty(cp_path);
    ASSERT_FALSE(body.empty());
    if (std::strcmp(mode, "truncate") == 0) {
      body.resize(body.size() / 2);
    } else if (std::strcmp(mode, "flip") == 0) {
      body[body.size() / 3] ^= 0x01;
    } else {
      body = "not a checkpoint at all\n";
    }
    WriteFile(cp_path, body);
    auto service = AdvisorService::Start(base, MakeModelBackendFactory(), so);
    ASSERT_TRUE(service.ok()) << mode << ": " << service.status().ToString();
    AdvisorService& svc = **service;
    EXPECT_EQ(svc.stats().cold_starts, 1u) << mode;
    EXPECT_EQ(svc.stats().recoveries, 0u) << mode;
    // The cold start replayed the full delta log onto the base workload,
    // so the shifted frequency survives even without a checkpoint.
    EXPECT_EQ(svc.stats().replayed_deltas, 1u) << mode;
    ASSERT_TRUE(svc.Pump().ok());
    EXPECT_EQ(svc.workload().query(0).frequency, 750.0) << mode;
    EXPECT_FALSE(svc.Answer().degraded);
    ASSERT_TRUE(svc.Stop().ok());
    // Leave the (now valid) checkpoint for the next corruption mode.
  }
}

TEST(ServiceTest, BreakerTripsDegradesAndSelfHeals) {
  auto base = BaseWorkload();
  bool healthy = true;
  ServiceOptions so = BaseServiceOptions();
  so.max_round_attempts = 3;
  so.breaker.trip_after_failures = 3;
  so.breaker.open_ticks = 2;
  auto service = AdvisorService::Start(base, MakeToggleFactory(&healthy), so);
  ASSERT_TRUE(service.ok());
  AdvisorService& svc = **service;
  ASSERT_TRUE(svc.Pump().ok());
  const ServiceAnswer good = svc.Answer();
  ASSERT_FALSE(good.degraded);

  // Backend goes bad: the round fails (sanitized garbage), retries with
  // flushed caches, and the third consecutive failure trips the breaker.
  healthy = false;
  ASSERT_TRUE(svc.Submit(ShiftDelta(0, {1, 2}, 5000)).ok());
  auto failed = svc.Pump();
  ASSERT_TRUE(failed.ok());
  EXPECT_FALSE(failed->committed);
  EXPECT_TRUE(failed->degraded);
  EXPECT_EQ(failed->attempts, 3u);
  EXPECT_EQ(svc.breaker_state(), BreakerState::kOpen);
  EXPECT_EQ(svc.stats().retries, 2u);
  EXPECT_EQ(svc.stats().breaker_trips, 1u);
  EXPECT_GE(svc.stats().cache_flushes, 3u);
  EXPECT_EQ(svc.state(), ServiceState::kDegraded);

  // While open the service fails fast — no round, stale answer, flagged.
  auto open1 = svc.Pump();
  ASSERT_TRUE(open1.ok());
  EXPECT_STREQ(open1->note, "breaker-open");
  const ServiceAnswer stale = svc.Answer();
  EXPECT_TRUE(stale.degraded);
  EXPECT_EQ(stale.recommendation.selection.ToString(),
            good.recommendation.selection.ToString())
      << "must keep serving the last commitment";

  // Second open tick half-opens; the probe fails against the sick
  // backend and snaps back to open.
  auto probe_fail = svc.Pump();
  ASSERT_TRUE(probe_fail.ok());
  EXPECT_STREQ(probe_fail->note, "probe-failed");
  EXPECT_EQ(svc.breaker_state(), BreakerState::kOpen);

  // Backend heals: two ticks to half-open, probe succeeds, caches are
  // flushed (they hold sanitized fallbacks), and the pending shift
  // finally commits a clean epoch.
  healthy = true;
  ASSERT_TRUE(svc.Pump().ok());  // tick 1
  auto healed = svc.Pump();      // tick 2: half-open -> probe -> round
  ASSERT_TRUE(healed.ok());
  EXPECT_TRUE(healed->committed);
  EXPECT_EQ(svc.breaker_state(), BreakerState::kClosed);
  EXPECT_EQ(svc.stats().breaker_closes, 1u);
  EXPECT_EQ(svc.state(), ServiceState::kIdle);
  const ServiceAnswer fresh = svc.Answer();
  EXPECT_FALSE(fresh.degraded);
  EXPECT_EQ(svc.workload().query(0).frequency, 5000.0);
  EXPECT_TRUE(std::isfinite(fresh.recommendation.cost_after));
}

TEST(ServiceTest, WatchdogCancelsHungRound) {
  auto base = BaseWorkload();
  rt::FaultInjectionOptions chaos;
  chaos.latency_probability = 1.0;
  chaos.latency_seconds = 0.05;
  ServiceOptions so = BaseServiceOptions();
  so.round_time_limit_seconds = 0.01;
  so.max_round_attempts = 1;
  so.breaker.trip_after_failures = 100;
  auto service = AdvisorService::Start(
      base,
      [&chaos](const workload::Workload& w)
          -> std::unique_ptr<costmodel::WhatIfBackend> {
        return std::make_unique<ChaosBackend>(w, chaos);
      },
      so);
  ASSERT_TRUE(service.ok());
  AdvisorService& svc = **service;
  auto outcome = svc.Pump();
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->committed);
  EXPECT_TRUE(outcome->degraded);
  EXPECT_GE(svc.stats().watchdog_cancels, 1u);
  EXPECT_EQ(svc.state(), ServiceState::kDegraded);
  EXPECT_TRUE(svc.Answer().degraded);
}

// ------------------------------------------------ FaultInjectingBackend

TEST(FaultInjectionBurstTest, RecurringOutagesAreSeedDeterministic) {
  auto base = BaseWorkload();
  costmodel::CostModel model(&base.workload);
  costmodel::ModelBackend inner(&model);
  rt::FaultInjectionOptions opts;
  opts.seed = 11;
  opts.healthy_calls = 5;
  opts.outage_burst = 3;
  opts.outage_gap_min = 2;
  opts.outage_gap_max = 6;

  auto schedule = [&](const rt::FaultInjectingBackend& backend) {
    std::vector<bool> failed;
    for (size_t call = 0; call < 200; ++call) {
      failed.push_back(std::isnan(backend.BaseCost(0)));
    }
    return failed;
  };
  rt::FaultInjectingBackend a(&inner, opts), b(&inner, opts);
  const auto fa = schedule(a), fb = schedule(b);
  EXPECT_EQ(fa, fb) << "same seed, same outage schedule";
  // The first healthy_calls are never corrupted.
  for (size_t i = 0; i < 5; ++i) EXPECT_FALSE(fa[i]) << "call " << i;
  // Bursts are exactly outage_burst long and separated by gaps in
  // [gap_min, gap_max].
  size_t i = 5, bursts = 0;
  while (i < fa.size()) {
    if (!fa[i]) {
      ++i;
      continue;
    }
    size_t len = 0;
    while (i < fa.size() && fa[i]) {
      ++len;
      ++i;
    }
    if (i == fa.size()) break;  // run truncated by the sample window
    EXPECT_EQ(len, 3u);
    ++bursts;
    size_t gap = 0;
    while (i + gap < fa.size() && !fa[i + gap]) ++gap;
    if (i + gap < fa.size()) {
      EXPECT_GE(gap, 2u);
      EXPECT_LE(gap, 6u);
    }
    i += gap;
  }
  EXPECT_GT(bursts, 3u) << "expected several bursts in 200 calls";
  EXPECT_EQ(a.stats().injected_outage, b.stats().injected_outage);
  EXPECT_GT(a.stats().injected_outage, 0u);

  // A different seed yields a different schedule.
  opts.seed = 12;
  rt::FaultInjectingBackend c(&inner, opts);
  EXPECT_NE(schedule(c), fa);
}

// ------------------------------------------------------------ Chaos soak

struct SimulatedCrash {};

struct SoakOp {
  bool is_pump = false;
  WorkloadDelta delta;
};

std::vector<SoakOp> SoakScript() {
  std::vector<SoakOp> ops;
  auto pump = [&] { ops.push_back({true, {}}); };
  auto submit = [&](const WorkloadDelta& d) { ops.push_back({false, d}); };
  pump();  // initial selection
  submit(ShiftDelta(0, {1, 2}, 120));
  submit(ShiftDelta(1, {4, 5}, 640));
  pump();
  submit(AddDelta(1, {4}, 350));
  submit(ShiftDelta(0, {0}, 10));
  pump();
  submit(BudgetDelta(0.08));
  pump();
  submit(RemoveDelta(0, {2, 3}));
  submit(ShiftDelta(0, {1, 2}, 2000));
  pump();
  pump();  // trailing idle pump
  return ops;
}

struct SoakResult {
  uint64_t epoch = 0;
  std::string selection;
  double cost_after = 0.0;
  std::string plan;
  std::string checkpoint_bytes;
  std::string epochs_bytes;
  std::string deltas_bytes;
  uint64_t hook_count = 0;  ///< hooks seen across all incarnations
  uint64_t restarts = 0;
};

/// Runs the soak script against `dir`, crashing (by throwing through the
/// commit-protocol hooks) at the `crash_at`-th hook invocation of each
/// incarnation's life, restarting until the script completes. crash_points
/// empty = fault-free. The op being executed when a crash hits is skipped
/// iff it was a Submit (its only hook fires after the delta is journaled);
/// a crashed Pump is re-executed against the recovered state.
SoakResult RunSoak(const NamedWorkload& base, const std::string& dir,
                   const std::vector<uint64_t>& crash_points, size_t threads) {
  SoakResult result;
  const std::vector<SoakOp> ops = SoakScript();
  size_t next_op = 0;
  size_t next_crash = 0;
  uint64_t hooks_seen = 0;

  while (true) {
    ServiceOptions so;
    so.advisor.threads = threads;
    so.dir = dir;
    so.hooks.sleep = [](double) {};
    so.hooks.at = [&](const char*) {
      ++hooks_seen;
      if (next_crash < crash_points.size() &&
          hooks_seen == crash_points[next_crash]) {
        ++next_crash;
        throw SimulatedCrash{};
      }
    };
    auto service = AdvisorService::Start(base, MakeModelBackendFactory(), so);
    EXPECT_TRUE(service.ok()) << service.status().ToString();
    if (!service.ok()) return result;
    AdvisorService& svc = **service;
    try {
      while (next_op < ops.size()) {
        const SoakOp& op = ops[next_op];
        if (op.is_pump) {
          auto outcome = svc.Pump();
          EXPECT_TRUE(outcome.ok()) << outcome.status().ToString();
          if (outcome->committed) {
            EXPECT_TRUE(ValidatePlanPrefixes(svc.Answer().plan).ok())
                << svc.Answer().plan.ToString();
          }
        } else {
          const Status submitted = svc.Submit(op.delta);
          EXPECT_TRUE(submitted.ok()) << submitted.ToString();
        }
        ++next_op;
      }
      const ServiceAnswer answer = svc.Answer();
      result.epoch = answer.epoch;
      result.selection = answer.recommendation.selection.ToString();
      result.cost_after = answer.recommendation.cost_after;
      result.plan = answer.plan.ToString();
      EXPECT_TRUE(svc.Stop().ok());
      result.checkpoint_bytes = ReadFileOrEmpty(svc.checkpoint_path());
      result.epochs_bytes = ReadFileOrEmpty(svc.epoch_log_path());
      result.deltas_bytes = ReadFileOrEmpty(svc.delta_log_path());
      result.hook_count = hooks_seen;
      return result;
    } catch (const SimulatedCrash&) {
      ++result.restarts;
      // A crash inside Submit fires only after the delta hit the log:
      // replay restores it, so the op must not be re-submitted.
      if (!ops[next_op].is_pump) ++next_op;
    }
  }
}

class ChaosSoakTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChaosSoakTest, KillAndRecoverIsByteIdenticalToFaultFreeRun) {
  const size_t threads = GetParam();
  auto base = BaseWorkload();

  const std::string tag = std::to_string(threads);
  const SoakResult clean =
      RunSoak(base, FreshDir("soak_clean_" + tag), {}, threads);
  ASSERT_GT(clean.epoch, 0u);
  ASSERT_GT(clean.hook_count, 0u);
  ASSERT_FALSE(clean.checkpoint_bytes.empty());
  ASSERT_FALSE(clean.epochs_bytes.empty());

  // Kill at every single hook point of the protocol, one run each.
  for (uint64_t crash_at = 1; crash_at <= clean.hook_count; ++crash_at) {
    const SoakResult crashed = RunSoak(
        base, FreshDir("soak_crash_" + tag), {crash_at}, threads);
    ASSERT_EQ(crashed.restarts, 1u) << "crash point " << crash_at;
    EXPECT_EQ(crashed.epoch, clean.epoch) << "crash point " << crash_at;
    EXPECT_EQ(crashed.selection, clean.selection)
        << "crash point " << crash_at;
    EXPECT_EQ(crashed.cost_after, clean.cost_after)
        << "crash point " << crash_at;
    EXPECT_EQ(crashed.plan, clean.plan) << "crash point " << crash_at;
    EXPECT_EQ(crashed.checkpoint_bytes, clean.checkpoint_bytes)
        << "crash point " << crash_at;
    EXPECT_EQ(crashed.epochs_bytes, clean.epochs_bytes)
        << "crash point " << crash_at;
    EXPECT_EQ(crashed.deltas_bytes, clean.deltas_bytes)
        << "crash point " << crash_at;
  }

  // Double kill: crash, recover, crash again mid-recovered-run.
  const SoakResult twice = RunSoak(base, FreshDir("soak_twice_" + tag),
                                   {3, clean.hook_count / 2 + 5}, threads);
  EXPECT_EQ(twice.restarts, 2u);
  EXPECT_EQ(twice.checkpoint_bytes, clean.checkpoint_bytes);
  EXPECT_EQ(twice.epochs_bytes, clean.epochs_bytes);
  EXPECT_EQ(twice.selection, clean.selection);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, ChaosSoakTest, ::testing::Values(size_t{1}, size_t{4}),
    [](const ::testing::TestParamInfo<size_t>& param_info) {
      return "Threads" + std::to_string(param_info.param);
    });

// ------------------------------------------------------ Workload updates

TEST(UpdateQueryFrequencyTest, MatchesFreshlyBuiltWorkloadBitExactly) {
  auto shifted = BaseWorkload();
  ASSERT_TRUE(shifted.workload.UpdateQueryFrequency(0, 1234.5625).ok());
  ASSERT_TRUE(shifted.workload.UpdateQueryFrequency(4, 0.375).ok());

  // Build the same workload from scratch with the shifted frequencies by
  // round-tripping through the textual format.
  auto text = workload::FormatWorkload(shifted.workload,
                                       shifted.attribute_names);
  ASSERT_TRUE(text.ok());
  auto fresh = workload::ParseWorkload(text.value());
  ASSERT_TRUE(fresh.ok());

  EXPECT_EQ(shifted.workload.total_frequency(),
            fresh->workload.total_frequency());
  EXPECT_EQ(shifted.workload.mean_query_width(),
            fresh->workload.mean_query_width());
  for (size_t a = 0; a < shifted.workload.num_attributes(); ++a) {
    EXPECT_EQ(shifted.workload.occurrence_weight(
                  static_cast<AttributeId>(a)),
              fresh->workload.occurrence_weight(static_cast<AttributeId>(a)))
        << "attribute " << a;
  }

  // Rejections: unknown query, non-positive frequency.
  EXPECT_FALSE(shifted.workload.UpdateQueryFrequency(99, 1.0).ok());
  EXPECT_FALSE(shifted.workload.UpdateQueryFrequency(0, 0.0).ok());
  EXPECT_FALSE(shifted.workload.UpdateQueryFrequency(0, -2.0).ok());
}

TEST(UpdateQueryFrequencyTest, MaintenanceInvalidationTracksShifts) {
  auto base = BaseWorkload();
  costmodel::CostModel model(&base.workload);
  costmodel::ModelBackend backend(&model);
  costmodel::WhatIfEngine engine(&base.workload, &backend);
  const Index sku({5});  // covered by the write template (query 4)
  const double penalty_before = engine.MaintenancePenalty(sku);
  ASSERT_GT(penalty_before, 0.0);

  ASSERT_TRUE(base.workload.UpdateQueryFrequency(4, 300.0).ok());
  engine.InvalidateFrequencyDependentCaches();
  const double penalty_after = engine.MaintenancePenalty(sku);
  EXPECT_DOUBLE_EQ(penalty_after, penalty_before * 3.0);

  // Per-execution costs were untouched: the shifted engine agrees with a
  // fresh engine without any further backend calls for cached pairs.
  costmodel::WhatIfEngine fresh(&base.workload, &backend);
  EXPECT_EQ(engine.CostWithIndex(4, sku), fresh.CostWithIndex(4, sku));
  EXPECT_EQ(engine.MaintenancePenalty(sku), fresh.MaintenancePenalty(sku));
}

}  // namespace
}  // namespace idxsel::serve
