#include "reference/reference_h6.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <optional>
#include <utility>

#include "common/check.h"
#include "common/float_cmp.h"
#include "costmodel/cost_model.h"
#include "costmodel/reconfiguration.h"

namespace idxsel::reference {
namespace {

using core::ConstructionStep;
using core::RecursiveOptions;
using core::StepKind;
using costmodel::Index;
using costmodel::IndexConfig;
using costmodel::WhatIfEngine;
using workload::AttributeId;
using workload::QueryId;

constexpr double kEps = 1e-9;
constexpr size_t kNone = ~size_t{0};

/// One candidate move. `replaced` is the selection position an append
/// replaces; kNone for new indexes.
struct Move {
  StepKind kind = StepKind::kNewSingle;
  size_t replaced = kNone;
  Index after;
  double value = 0.0;
  double delta_p = 0.0;
  double ratio = 0.0;
};

class Reference {
 public:
  Reference(WhatIfEngine& engine, const RecursiveOptions& options)
      : engine_(engine), w_(engine.workload()), opts_(options) {
    IDXSEL_CHECK(!options.multi_index_eval);
  }

  ReferenceResult Run() {
    RankSingles();
    ReferenceResult result;
    while (result.trace.size() < opts_.max_steps) {
      Refresh();
      std::optional<Move> best;
      std::optional<Move> runner_up;
      for (const Move& move : Enumerate()) Fold(move, &best, &runner_up);
      if (!best.has_value() || best->ratio <= opts_.min_ratio) break;

      ConstructionStep step;
      step.kind = best->kind;
      if (best->replaced != kNone) step.before = selection_[best->replaced];
      step.after = best->after;
      step.objective_before = Objective() + Reconfiguration();
      if (best->replaced == kNone) {
        selection_.push_back(best->after);
      } else {
        selection_[best->replaced] = best->after;
      }
      memory_ += best->delta_p;
      step.objective_after = Objective() + Reconfiguration();
      step.memory_delta = best->delta_p;
      step.ratio = best->ratio;
      result.trace.push_back(step);
      if (runner_up.has_value()) {
        ConstructionStep alt;
        alt.kind = runner_up->kind;
        alt.after = runner_up->after;
        alt.memory_delta = runner_up->delta_p;
        alt.ratio = runner_up->ratio;
        result.runners_up.push_back(alt);
      }
      if (opts_.prune_unused) Prune(&result);
    }
    if (opts_.swap_repair) SwapRepair(&result);

    for (const Index& k : selection_) result.selection.Insert(k);
    result.objective = Objective();
    result.memory = memory_;
    return result;
  }

 private:
  // -- Costs, straight from the definitions ----------------------------------

  /// f_j(k) for applicable k, f_j(0) otherwise.
  double CostOf(QueryId j, const Index& k) {
    return engine_.Applicable(j, k) ? engine_.CostWithIndex(j, k)
                                    : engine_.BaseCost(j);
  }

  /// Re-reads f_j(0), f_j(k) for every selected k, and cost_j(I).
  void Refresh() {
    const size_t n = w_.num_queries();
    base_.assign(n, 0.0);
    current_.assign(n, 0.0);
    costs_.assign(selection_.size(), std::vector<double>(n, 0.0));
    for (QueryId j = 0; j < n; ++j) {
      base_[j] = engine_.BaseCost(j);
      current_[j] = base_[j];
      for (size_t p = 0; p < selection_.size(); ++p) {
        costs_[p][j] = CostOf(j, selection_[p]);
        current_[j] = std::min(current_[j], costs_[p][j]);
      }
    }
  }

  /// cost_j of the current selection with position `skip` removed (kNone:
  /// nothing removed) and an index costing `added` for j added.
  double CostWith(QueryId j, size_t skip, double added) const {
    double cost = std::min(base_[j], added);
    for (size_t p = 0; p < selection_.size(); ++p) {
      if (p != skip) cost = std::min(cost, costs_[p][j]);
    }
    return cost;
  }

  /// dF of replacing position `skip` (kNone: nothing) by `after`, summed
  /// over every query in ascending id.
  double DeltaF(size_t skip, const Index& after) {
    double delta = 0.0;
    for (QueryId j = 0; j < w_.num_queries(); ++j) {
      delta += w_.query(j).frequency *
               (current_[j] - CostWith(j, skip, CostOf(j, after)));
    }
    return delta;
  }

  /// F + maintenance of the current selection.
  double Objective() {
    Refresh();
    double total = 0.0;
    for (QueryId j = 0; j < w_.num_queries(); ++j) {
      total += w_.query(j).frequency * current_[j];
    }
    for (const Index& k : selection_) total += engine_.MaintenancePenalty(k);
    return total;
  }

  /// F + maintenance of an arbitrary configuration.
  double ConfigObjective(const IndexConfig& config) {
    double total = 0.0;
    for (QueryId j = 0; j < w_.num_queries(); ++j) {
      double cost = engine_.BaseCost(j);
      for (const Index& k : config.indexes()) {
        cost = std::min(cost, CostOf(j, k));
      }
      total += w_.query(j).frequency * cost;
    }
    for (const Index& k : config.indexes()) {
      total += engine_.MaintenancePenalty(k);
    }
    return total;
  }

  bool InExisting(const Index& k) const {
    return opts_.existing != nullptr && opts_.existing->Contains(k);
  }

  /// R(I, I-bar) of the current selection; 0 without a model.
  double Reconfiguration() const {
    if (opts_.reconfiguration == nullptr) return 0.0;
    IndexConfig current;
    for (const Index& k : selection_) current.Insert(k);
    const IndexConfig empty;
    return opts_.reconfiguration->Cost(
        current, opts_.existing != nullptr ? *opts_.existing : empty);
  }

  /// dR of creating `added` in place of `removed` (nullptr: nothing).
  double ReconfigurationDelta(const Index* removed, const Index& added) const {
    if (opts_.reconfiguration == nullptr) return 0.0;
    double delta = 0.0;
    if (!InExisting(added)) delta += opts_.reconfiguration->CreateCost(added);
    if (removed != nullptr && !InExisting(*removed)) {
      delta -= opts_.reconfiguration->CreateCost(*removed);
    }
    return delta;
  }

  /// Selection position owning query j, kNone when no index beats f_j(0).
  size_t Owner(QueryId j) const {
    if (!(current_[j] < base_[j])) return kNone;
    for (size_t p = 0; p < selection_.size(); ++p) {
      if (ExactlyEqual(costs_[p][j], current_[j])) return p;
    }
    return kNone;
  }

  bool SingleSelected(AttributeId i) const {
    for (const Index& k : selection_) {
      if (k.width() == 1 && k.leading() == i) return true;
    }
    return false;
  }

  /// True iff q_j holds every attribute of k.
  bool Covers(QueryId j, const Index& k) const {
    return k.CoverablePrefixLength(w_.query(j).attributes) == k.width();
  }

  // -- Algorithm 1 -------------------------------------------------------------

  /// Step 2: rank every single-attribute index against the empty
  /// selection and keep the n best as new-single candidates.
  void RankSingles() {
    Refresh();
    std::vector<std::pair<double, AttributeId>> ranked;
    for (AttributeId i = 0; i < w_.num_attributes(); ++i) {
      const Index k(i);
      const double ratio =
          DeltaF(kNone, k) / std::max(1.0, engine_.IndexMemory(k));
      ranked.emplace_back(-ratio, i);
    }
    std::sort(ranked.begin(), ranked.end());
    ranked.resize(std::min(opts_.n_best_singles, ranked.size()));
    for (const auto& entry : ranked) eligible_.push_back(entry.second);
    std::sort(eligible_.begin(), eligible_.end());
  }

  Move NewMove(StepKind kind, Index after) {
    Move move;
    move.kind = kind;
    move.value = DeltaF(kNone, after) - ReconfigurationDelta(nullptr, after) -
                 engine_.MaintenancePenalty(after);
    move.delta_p = engine_.IndexMemory(after);
    move.after = std::move(after);
    return move;
  }

  Move ReplaceMove(StepKind kind, size_t pos, Index after) {
    const Index& k = selection_[pos];
    Move move;
    move.kind = kind;
    move.replaced = pos;
    move.value = DeltaF(pos, after) - ReconfigurationDelta(&k, after) -
                 (engine_.MaintenancePenalty(after) -
                  engine_.MaintenancePenalty(k));
    move.delta_p = engine_.IndexMemory(after) - engine_.IndexMemory(k);
    move.after = std::move(after);
    return move;
  }

  /// Every candidate move of the round, in consideration order.
  std::vector<Move> Enumerate() {
    std::vector<Move> moves;
    for (AttributeId i : eligible_) {
      if (!SingleSelected(i)) moves.push_back(NewMove(StepKind::kNewSingle,
                                                      Index(i)));
    }
    for (size_t pos = 0; pos < selection_.size(); ++pos) {
      const Index k = selection_[pos];
      if (k.width() >= opts_.max_index_width) continue;
      std::vector<AttributeId> extensions;
      for (QueryId j = 0; j < w_.num_queries(); ++j) {
        if (!Covers(j, k)) continue;
        for (AttributeId a : w_.query(j).attributes) {
          if (!k.Contains(a)) extensions.push_back(a);
        }
      }
      std::sort(extensions.begin(), extensions.end());
      extensions.erase(std::unique(extensions.begin(), extensions.end()),
                       extensions.end());
      for (AttributeId a : extensions) {
        moves.push_back(ReplaceMove(StepKind::kAppend, pos, k.Append(a)));
      }
    }
    if (!opts_.pair_steps) return moves;

    for (AttributeId a : eligible_) {
      std::vector<AttributeId> partners;
      for (QueryId j = 0; j < w_.num_queries(); ++j) {
        const auto& attrs = w_.query(j).attributes;
        if (!std::binary_search(attrs.begin(), attrs.end(), a)) continue;
        for (AttributeId b : attrs) {
          if (b != a) partners.push_back(b);
        }
      }
      std::sort(partners.begin(), partners.end());
      partners.erase(std::unique(partners.begin(), partners.end()),
                     partners.end());
      for (AttributeId b : partners) {
        moves.push_back(NewMove(StepKind::kNewPair, Index(a).Append(b)));
      }
    }
    for (size_t pos = 0; pos < selection_.size(); ++pos) {
      const Index k = selection_[pos];
      if (k.width() + 2 > opts_.max_index_width) continue;
      std::vector<std::pair<AttributeId, AttributeId>> pairs;
      for (QueryId j = 0; j < w_.num_queries(); ++j) {
        if (!Covers(j, k)) continue;
        for (AttributeId a : w_.query(j).attributes) {
          if (k.Contains(a)) continue;
          for (AttributeId b : w_.query(j).attributes) {
            if (b != a && !k.Contains(b)) pairs.emplace_back(a, b);
          }
        }
      }
      std::sort(pairs.begin(), pairs.end());
      pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
      for (const auto& [a, b] : pairs) {
        moves.push_back(
            ReplaceMove(StepKind::kAppendPair, pos, k.Append(a).Append(b)));
      }
    }
    return moves;
  }

  static bool Better(const Move& a, const Move& b) {
    if (!ExactlyEqual(a.ratio, b.ratio)) return a.ratio > b.ratio;
    return a.after < b.after;
  }

  void Fold(Move move, std::optional<Move>* best,
            std::optional<Move>* runner_up) const {
    if (!(move.value > kEps) || !(move.delta_p > 0.0)) return;
    if (memory_ + move.delta_p > opts_.budget + kEps) return;
    move.ratio = move.value / move.delta_p;
    if (!best->has_value() || Better(move, **best)) {
      if (best->has_value()) *runner_up = *best;
      *best = std::move(move);
    } else if (!runner_up->has_value() || Better(move, **runner_up)) {
      *runner_up = std::move(move);
    }
  }

  /// Remark 1(2): drop every selected index that owns no query, highest
  /// position first.
  void Prune(ReferenceResult* result) {
    Refresh();
    std::vector<char> used(selection_.size(), 0);
    for (QueryId j = 0; j < w_.num_queries(); ++j) {
      const size_t owner = Owner(j);
      if (owner != kNone) used[owner] = 1;
    }
    for (size_t p = selection_.size(); p-- > 0;) {
      if (used[p]) continue;
      ConstructionStep step;
      step.kind = StepKind::kPrune;
      step.before = selection_[p];
      step.objective_before = Objective();
      const double memory = engine_.IndexMemory(selection_[p]);
      step.memory_delta = -memory;
      memory_ -= memory;
      selection_.erase(selection_.begin() + static_cast<long>(p));
      step.objective_after = Objective();
      result->trace.push_back(step);
    }
  }

  /// Post-construction repair: evict the least valuable indexes to afford
  /// a single-attribute index that no longer fits, when that strictly
  /// lowers the objective.
  void SwapRepair(ReferenceResult* result) {
    bool improved = true;
    while (improved) {
      improved = false;
      Refresh();
      std::vector<double> removal(selection_.size(), 0.0);
      for (QueryId j = 0; j < w_.num_queries(); ++j) {
        const size_t owner = Owner(j);
        if (owner == kNone) continue;
        const double second =
            CostWith(j, owner, std::numeric_limits<double>::infinity());
        removal[owner] += w_.query(j).frequency * (second - current_[j]);
      }
      for (size_t p = 0; p < selection_.size(); ++p) {
        removal[p] -= engine_.MaintenancePenalty(selection_[p]);
      }
      std::vector<size_t> order(selection_.size());
      for (size_t p = 0; p < order.size(); ++p) order[p] = p;
      std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
        return removal[x] < removal[y];
      });

      for (AttributeId i : eligible_) {
        if (SingleSelected(i)) continue;
        const Index k(i);
        if (DeltaF(kNone, k) - engine_.MaintenancePenalty(k) <= kEps) {
          continue;
        }
        const double need = engine_.IndexMemory(k);
        double available = opts_.budget - memory_;
        if (need <= available) continue;
        std::vector<char> evicted(selection_.size(), 0);
        for (size_t p : order) {
          if (available >= need) break;
          available += engine_.IndexMemory(selection_[p]);
          evicted[p] = 1;
        }
        if (available < need) continue;
        IndexConfig hypothetical;
        for (size_t p = 0; p < selection_.size(); ++p) {
          if (!evicted[p]) hypothetical.Insert(selection_[p]);
        }
        hypothetical.Insert(k);
        const double objective = Objective();
        if (ConfigObjective(hypothetical) >= objective * (1.0 - 1e-12)) {
          continue;
        }

        ConstructionStep step;
        step.kind = StepKind::kSwap;
        step.after = k;
        step.objective_before = objective;
        selection_ = hypothetical.indexes();
        memory_ = 0.0;
        for (const Index& kept : selection_) {
          memory_ += engine_.IndexMemory(kept);
        }
        step.objective_after = Objective();
        result->trace.push_back(step);
        improved = true;
        break;
      }
    }
  }

  WhatIfEngine& engine_;
  const workload::Workload& w_;
  const RecursiveOptions& opts_;

  std::vector<Index> selection_;  ///< By position, in commit order.
  double memory_ = 0.0;           ///< P: running sum of committed dP.
  std::vector<AttributeId> eligible_;

  // Snapshot of the current selection, rebuilt by Refresh().
  std::vector<double> base_;                ///< f_j(0)
  std::vector<std::vector<double>> costs_;  ///< [position][query]
  std::vector<double> current_;             ///< cost_j(I)
};

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

bool Close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(std::abs(a), std::abs(b));
}

std::string Num(double x) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

/// First difference between two step lists ("" when they agree).
std::string DiffSteps(const char* what, const std::vector<ConstructionStep>& got,
                      const std::vector<ConstructionStep>& want,
                      bool objectives) {
  if (got.size() != want.size()) {
    return std::string(what) + " length " + std::to_string(got.size()) +
           " vs reference " + std::to_string(want.size());
  }
  for (size_t s = 0; s < got.size(); ++s) {
    const ConstructionStep& g = got[s];
    const ConstructionStep& r = want[s];
    const std::string at = std::string(what) + " step " + std::to_string(s);
    if (g.kind != r.kind) return at + ": kind differs";
    if (!(g.before == r.before)) {
      return at + ": before " + g.before.ToString() + " vs " +
             r.before.ToString();
    }
    if (!(g.after == r.after)) {
      return at + ": after " + g.after.ToString() + " vs " +
             r.after.ToString();
    }
    if (!SameBits(g.ratio, r.ratio)) {
      return at + " " + g.after.ToString() + ": ratio " + Num(g.ratio) +
             " vs " + Num(r.ratio);
    }
    if (!SameBits(g.memory_delta, r.memory_delta)) {
      return at + ": memory delta " + Num(g.memory_delta) + " vs " +
             Num(r.memory_delta);
    }
    if (objectives && (!Close(g.objective_before, r.objective_before) ||
                       !Close(g.objective_after, r.objective_after))) {
      return at + ": objective " + Num(g.objective_before) + " -> " +
             Num(g.objective_after) + " vs " + Num(r.objective_before) +
             " -> " + Num(r.objective_after);
    }
  }
  return "";
}

/// Sequential reader of a fuzz input; bytes past the end read as 0.
class Bytes {
 public:
  Bytes(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  uint8_t Next() { return pos_ < size_ ? data_[pos_++] : 0; }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

/// Decodes a small finalized workload; false when it has no query.
bool DecodeWorkload(Bytes& in, workload::Workload* w) {
  const uint32_t tables = 1 + in.Next() % 2;
  std::vector<std::vector<AttributeId>> attrs(tables);
  for (uint32_t t = 0; t < tables; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    const workload::TableId table =
        w->AddTable(std::move(name), 10'000 * (t + 1));
    const uint32_t count = 1 + in.Next() % 10;
    for (uint32_t i = 0; i < count; ++i) {
      const uint64_t distinct = 1 + uint64_t{in.Next()} * 37;
      const uint32_t size = (in.Next() & 1) != 0 ? 8u : 4u;
      attrs[t].push_back(w->AddAttribute(table, distinct, size));
    }
  }
  const uint32_t queries = 1 + in.Next() % 20;
  for (uint32_t j = 0; j < queries; ++j) {
    const uint32_t t = in.Next() % tables;
    const uint32_t width = 1 + in.Next() % 4;
    std::vector<AttributeId> q;
    for (uint32_t k = 0; k < width; ++k) {
      q.push_back(attrs[t][in.Next() % attrs[t].size()]);
    }
    const double frequency = 1.0 + in.Next();
    const auto kind = (in.Next() & 1) != 0 ? workload::QueryKind::kWrite
                                           : workload::QueryKind::kRead;
    (void)w->AddQuery(t, std::move(q), frequency, kind);
  }
  w->Finalize();
  return w->num_queries() > 0;
}

}  // namespace

ReferenceResult ReferenceH6(WhatIfEngine& engine,
                            const RecursiveOptions& options) {
  return Reference(engine, options).Run();
}

Answer FromResult(const core::RecursiveResult& result) {
  return Answer{result.selection, result.objective, result.memory,
                result.trace, &result.runners_up};
}

std::string Diff(const Answer& got, const ReferenceResult& want) {
  if (!(got.selection == want.selection)) {
    return "selection " + got.selection.ToString() + " vs reference " +
           want.selection.ToString();
  }
  if (!SameBits(got.memory, want.memory)) {
    return "memory " + Num(got.memory) + " vs " + Num(want.memory);
  }
  if (!Close(got.objective, want.objective)) {
    return "objective " + Num(got.objective) + " vs " + Num(want.objective);
  }
  std::string diff = DiffSteps("trace", got.trace, want.trace, true);
  if (diff.empty() && got.runners_up != nullptr) {
    diff = DiffSteps("runner-up", *got.runners_up, want.runners_up, false);
  }
  return diff;
}


std::string CheckEncodedCase(const uint8_t* data, size_t size) {
  Bytes in(data, size);
  workload::Workload w;
  if (!DecodeWorkload(in, &w)) return "";
  const costmodel::CostModel model(&w);
  costmodel::ModelBackend backend(&model);

  RecursiveOptions options;
  options.budget = model.Budget(in.Next() / 255.0);
  const uint8_t variant = in.Next() % 7;
  const uint8_t param = in.Next();
  switch (variant) {
    case 1:
      options.n_best_singles = 1 + param % 6;
      break;
    case 2:
      options.max_index_width = 1 + param % 3;
      break;
    case 3:
      options.prune_unused = true;
      break;
    case 4:
      options.pair_steps = true;
      break;
    case 5:
      options.swap_repair = true;
      break;
    default:
      break;
  }

  // Each side binds its reconfiguration model to its own engine.
  IndexConfig existing;
  const costmodel::ReconfigurationParams rparams{static_cast<double>(param),
                                                 1.0};
  if (variant == 6) {
    WhatIfEngine engine(&w, &backend);
    RecursiveOptions half;
    half.budget = options.budget / 2;
    existing = ReferenceH6(engine, half).selection;
    options.existing = &existing;
  }

  WhatIfEngine ref_engine(&w, &backend);
  const costmodel::ReconfigurationModel ref_model(&ref_engine, rparams);
  RecursiveOptions ref_options = options;
  if (variant == 6) ref_options.reconfiguration = &ref_model;
  const ReferenceResult want = ReferenceH6(ref_engine, ref_options);

  WhatIfEngine engine(&w, &backend);
  const costmodel::ReconfigurationModel prod_model(&engine, rparams);
  if (variant == 6) options.reconfiguration = &prod_model;
  const std::string diff =
      Diff(FromResult(core::SelectRecursive(engine, options)), want);
  return diff.empty() ? diff
                      : "variant " + std::to_string(variant) + ": " + diff;
}

}  // namespace idxsel::reference
