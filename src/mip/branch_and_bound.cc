#include "mip/branch_and_bound.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <deque>
#include <queue>

#include "common/stopwatch.h"
#include "common/telemetry.h"
#include "exec/parallel_for.h"
#include "obs/obs.h"

namespace idxsel::mip {
namespace {

constexpr double kEps = 1e-9;

/// State shared by every engine of one parallel solve. The incumbent
/// benefit is a monotone max used *only* to strengthen pruning (any pruned
/// subtree is provably within the optimality gap of some achieved
/// solution, exactly the serial guarantee); each engine keeps recording
/// incumbents locally so the reduction stays timing-independent.
struct SharedState {
  std::atomic<double> best_benefit{0.0};
  std::atomic<uint64_t> nodes{0};
  std::atomic<bool> stopped{false};
  std::atomic<bool> timeout{false};
};

void AtomicMax(std::atomic<double>& target, double value) {
  double cur = target.load(std::memory_order_relaxed);
  while (value > cur &&
         !target.compare_exchange_weak(cur, value,
                                       std::memory_order_relaxed)) {
  }
}

/// One branching decision along a path from the root.
struct Decision {
  uint32_t k = 0;
  bool in = false;
};

/// DFS visit order of two subtree roots (include branch first). Paths from
/// one splitter form an antichain, so the first differing decision decides.
bool DfsBefore(const std::vector<Decision>& a,
               const std::vector<Decision>& b) {
  const size_t n = std::min(a.size(), b.size());
  for (size_t i = 0; i < n; ++i) {
    if (a[i].k != b[i].k) return a[i].k < b[i].k;  // defensive; see above
    if (a[i].in != b[i].in) return a[i].in;
  }
  return a.size() < b.size();
}

/// Depth-first branch-and-bound engine; see header for the method. With a
/// SharedState attached it doubles as the splitter / per-subtree worker of
/// the parallel solve.
class Engine {
 public:
  Engine(const Problem& problem, const SolveOptions& options,
         SharedState* shared = nullptr, const Stopwatch* clock = nullptr)
      : p_(problem),
        opts_(options),
        shared_(shared),
        clock_(clock != nullptr ? clock : &own_watch_),
        state_(problem.num_candidates(), kFree),
        cur_cost_(problem.base_cost) {}

  SolveResult Run() {
    obs::Span solve_span("mip", "mip.solve");
    SeedGreedy();
    Dfs(0.0);

    SolveResult result;
    result.nodes = nodes_;
    result.bound_cutoffs = bound_cutoffs_;
    result.incumbent_updates = incumbent_updates_;
    result.seconds_to_best = seconds_to_best_;
    result.wall_seconds = clock_->ElapsedSeconds();
    result.objective = p_.TotalBaseCost() - incumbent_benefit_;
    result.selected = incumbent_;
    // Proven bound: explored subtrees are exact; pruned/abandoned ones
    // contribute their recorded cost lower bounds.
    result.best_bound = std::min(result.objective, pruned_lb_min_);
    result.gap = Gap(result.objective, result.best_bound);
    result.proven_optimal = !stopped_ && result.gap <= opts_.mip_gap + kEps;
    if (stopped_) {
      result.status = timeout_ ? Status::Timeout("time limit reached")
                               : Status::ResourceLimit("node limit reached");
    } else {
      result.status = Status::Ok();
    }
    PublishObs(result);
    if (obs::Enabled()) {
      solve_span.SetArg("nodes", static_cast<double>(nodes_));
    }
    return result;
  }

  static double Gap(double objective, double bound) {
    const double denom = std::max(std::abs(objective), 1e-10);
    return std::max(0.0, objective - bound) / denom;
  }

  static void PublishObs(const SolveResult& result) {
    obs::Registry& registry = obs::Registry::Default();
    registry.GetCounter("idxsel.mip.solves")->Add(1);
    registry.GetCounter("idxsel.mip.nodes")->Add(result.nodes);
    registry.GetCounter("idxsel.mip.bound_cutoffs")->Add(result.bound_cutoffs);
    registry.GetCounter("idxsel.mip.incumbent_updates")
        ->Add(result.incumbent_updates);
    registry.GetGauge("idxsel.mip.last_time_to_incumbent_ns")
        ->Set(static_cast<int64_t>(result.seconds_to_best * 1e9));
    if (obs::Enabled()) {
      registry.GetHistogram("idxsel.mip.solve_latency_ns")
          ->Record(static_cast<uint64_t>(result.wall_seconds * 1e9));
    }
  }

  /// Root incumbent from lazy density greedy.
  void SeedGreedy() {
    const std::vector<uint32_t> greedy = GreedyByDensity(p_);
    double greedy_benefit = 0.0;
    std::vector<std::pair<uint32_t, double>> undo;
    for (uint32_t k : greedy) greedy_benefit += Apply(k, &undo);
    RecordGreedyIncumbent(greedy, greedy_benefit);
    for (uint32_t k : greedy) used_memory_ -= p_.candidate_memory[k];
    Revert(undo);
  }

  /// Adopts a known-feasible incumbent without counting an update (the
  /// engine that found it already did).
  void SeedIncumbent(std::vector<uint32_t> selection, double benefit) {
    incumbent_ = std::move(selection);
    incumbent_benefit_ = benefit;
  }

  /// Splitter probe of one node: replays `path`, evaluates the node with
  /// the serial bound/branch logic (counting it as an explored node), and
  /// restores the root state. `resolved` means the node needs no
  /// branching (leaf / monotone shortcut / pruned / stopped) and any
  /// incumbent or bound it produced has been recorded.
  struct Expansion {
    bool resolved = true;
    uint32_t branch_k = 0;
    double node_ub = 0.0;
  };
  Expansion ExpandPath(const std::vector<Decision>& path) {
    std::vector<std::pair<uint32_t, double>> undo;
    const double benefit = ApplyPath(path, &undo);
    ++nodes_;
    if (shared_ != nullptr) {
      shared_->nodes.fetch_add(1, std::memory_order_relaxed);
    }
    const NodeEval ev = EvaluateNode(benefit);
    RevertPath(path, undo);
    return Expansion{ev.resolved, ev.branch_k, ev.node_ub};
  }

  /// Per-subtree worker entry: replays `path` and exhausts the subtree.
  void RunSubtree(const std::vector<Decision>& path) {
    std::vector<std::pair<uint32_t, double>> undo;
    const double benefit = ApplyPath(path, &undo);
    Dfs(benefit);
    // No revert: the engine is dedicated to this subtree.
  }

  double incumbent_benefit() const { return incumbent_benefit_; }
  const std::vector<uint32_t>& incumbent() const { return incumbent_; }
  double pruned_lb_min() const { return pruned_lb_min_; }
  uint64_t nodes() const { return nodes_; }
  uint64_t bound_cutoffs() const { return bound_cutoffs_; }
  uint64_t incumbent_updates() const { return incumbent_updates_; }
  double seconds_to_best() const { return seconds_to_best_; }
  bool stopped() const { return stopped_; }
  bool timed_out() const { return timeout_; }

 private:
  enum CandidateState : char { kFree = 0, kIn = 1, kOut = 2 };

  /// Exact *net* marginal benefit of k against the current cur_cost_
  /// state: read gains minus k's modular selection penalty.
  double Marginal(uint32_t k) const {
    double mu = -p_.penalty(k);
    for (const QueryCost& qc : p_.candidate_costs[k]) {
      const double gain = cur_cost_[qc.query] - qc.cost;
      if (gain > 0.0) mu += p_.query_weight[qc.query] * gain;
    }
    return mu;
  }

  /// Commits k: updates per-query costs (with undo log) and the running
  /// memory total; returns the exact net marginal benefit realized.
  double Apply(uint32_t k, std::vector<std::pair<uint32_t, double>>* undo) {
    double mu = -p_.penalty(k);
    for (const QueryCost& qc : p_.candidate_costs[k]) {
      const double gain = cur_cost_[qc.query] - qc.cost;
      if (gain > 0.0) {
        mu += p_.query_weight[qc.query] * gain;
        undo->emplace_back(qc.query, cur_cost_[qc.query]);
        cur_cost_[qc.query] = qc.cost;
      }
    }
    used_memory_ += p_.candidate_memory[k];
    return mu;
  }

  void Revert(const std::vector<std::pair<uint32_t, double>>& undo) {
    // Replay in reverse so overlapping updates restore correctly.
    for (auto it = undo.rbegin(); it != undo.rend(); ++it) {
      cur_cost_[it->first] = it->second;
    }
  }

  /// Replays a decision path from the root state; the returned benefit is
  /// accumulated include-by-include, i.e. with the same FP summation order
  /// the serial DFS would use reaching this node.
  double ApplyPath(const std::vector<Decision>& path,
                   std::vector<std::pair<uint32_t, double>>* undo) {
    double benefit = 0.0;
    for (const Decision& d : path) {
      state_[d.k] = d.in ? kIn : kOut;
      if (d.in) benefit += Apply(d.k, undo);
    }
    return benefit;
  }

  void RevertPath(const std::vector<Decision>& path,
                  const std::vector<std::pair<uint32_t, double>>& undo) {
    Revert(undo);
    for (const Decision& d : path) {
      if (d.in) used_memory_ -= p_.candidate_memory[d.k];
      state_[d.k] = kFree;
    }
  }

  void RecordIncumbent(double benefit) {
    if (benefit > incumbent_benefit_ + kEps) {
      incumbent_benefit_ = benefit;
      incumbent_.clear();
      for (uint32_t k = 0; k < state_.size(); ++k) {
        if (state_[k] == kIn) incumbent_.push_back(k);
      }
      NoteIncumbentImproved();
    }
  }

  /// Records an incumbent coming from the root greedy (selection passed in
  /// `GreedyByDensity` order rather than via state_).
  void RecordGreedyIncumbent(const std::vector<uint32_t>& selection,
                             double benefit) {
    if (benefit > incumbent_benefit_ + kEps) {
      incumbent_benefit_ = benefit;
      incumbent_ = selection;
      NoteIncumbentImproved();
    }
  }

  /// Telemetry on strict incumbent improvements: count them and remember
  /// when the (eventually final) incumbent was reached — the
  /// time-to-incumbent the paper's DNF discussion cares about. Improved
  /// incumbents also strengthen every other lane's pruning via the shared
  /// monotone best.
  void NoteIncumbentImproved() {
    ++incumbent_updates_;
    seconds_to_best_ = clock_->ElapsedSeconds();
    if (shared_ != nullptr) {
      AtomicMax(shared_->best_benefit, incumbent_benefit_);
    }
  }

  bool Deadline() {
    if (stopped_) return true;
    if (shared_ != nullptr &&
        shared_->stopped.load(std::memory_order_relaxed)) {
      stopped_ = true;
      timeout_ = shared_->timeout.load(std::memory_order_relaxed);
      return true;
    }
    const uint64_t nodes_seen =
        shared_ != nullptr ? shared_->nodes.load(std::memory_order_relaxed)
                           : nodes_;
    if (nodes_seen >= opts_.max_nodes) {
      stopped_ = true;
      timeout_ = false;
      Broadcast();
      return true;
    }
    if ((nodes_ & 0x3f) == 0 &&
        (clock_->ElapsedSeconds() > opts_.time_limit_seconds ||
         opts_.deadline.expired())) {
      stopped_ = true;
      timeout_ = true;
      Broadcast();
      return true;
    }
    return false;
  }

  void Broadcast() {
    if (shared_ == nullptr) return;
    // timeout before stopped: a lane observing stopped sees why.
    shared_->timeout.store(timeout_, std::memory_order_relaxed);
    shared_->stopped.store(true, std::memory_order_release);
  }

  void RecordPrunedBound(double node_benefit_ub) {
    const double lb = p_.TotalBaseCost() - node_benefit_ub;
    pruned_lb_min_ = std::min(pruned_lb_min_, lb);
  }

  /// Evaluation of one node: bounds, leaf/shortcut resolution, pruning and
  /// deadline handling — everything the serial DFS does before branching.
  /// `resolved` means no subtree exploration is needed (and any incumbent
  /// or pruned bound was recorded); otherwise branch on `branch_k` (the
  /// fractional knapsack's critical item), include branch first.
  struct NodeEval {
    bool resolved = true;
    uint32_t branch_k = 0;
    double node_ub = 0.0;
  };
  NodeEval EvaluateNode(double current_benefit) {
    // Two complementary upper bounds on the additional benefit:
    //  * fractional knapsack over marginal values (budget-aware, but
    //    overcounts when candidates cannibalize each other), and
    //  * per-query potential: no query can improve past the cheapest cost
    //    any affordable free candidate offers it (overlap-aware, but
    //    budget-blind).
    // The node bound is the minimum of the two.
    struct Item {
      double mu;
      double density;
      uint32_t k;
    };
    std::vector<Item> items;
    const double remaining = p_.budget - used_memory_;
    query_floor_ = cur_cost_;
    for (uint32_t k = 0; k < state_.size(); ++k) {
      if (state_[k] != kFree) continue;
      if (p_.candidate_memory[k] > remaining + kEps) continue;
      const double mu = Marginal(k);
      if (mu <= kEps) continue;
      for (const QueryCost& qc : p_.candidate_costs[k]) {
        if (qc.cost < query_floor_[qc.query]) {
          query_floor_[qc.query] = qc.cost;
        }
      }
      items.push_back(Item{mu, mu / std::max(kEps, p_.candidate_memory[k]), k});
    }

    if (items.empty()) {
      RecordIncumbent(current_benefit);
      return NodeEval{};
    }

    // Monotonicity shortcut: without selection penalties, benefits only
    // grow with the selection, so if every remaining beneficial candidate
    // fits the leftover budget simultaneously, taking all of them is the
    // exact subtree optimum — no branching needed. (This also makes the
    // budget-unconstrained case, where the knapsack bound is weakest, O(1)
    // nodes.) With penalties the objective is no longer monotone and the
    // shortcut is disabled.
    double items_weight = 0.0;
    for (const Item& item : items) {
      items_weight += p_.candidate_memory[item.k];
    }
    if (!p_.has_penalties() && items_weight <= remaining + kEps) {
      std::vector<std::pair<uint32_t, double>> undo;
      double benefit = current_benefit;
      for (const Item& item : items) {
        state_[item.k] = kIn;
        benefit += Apply(item.k, &undo);
      }
      RecordIncumbent(benefit);
      for (const Item& item : items) {
        state_[item.k] = kFree;
        used_memory_ -= p_.candidate_memory[item.k];
      }
      Revert(undo);
      return NodeEval{};
    }

    std::sort(items.begin(), items.end(), [](const Item& x, const Item& y) {
      if (x.density != y.density) return x.density > y.density;
      return x.k < y.k;
    });
    double fill = remaining;
    double knapsack = 0.0;
    uint32_t branch_k = items.front().k;
    for (const Item& item : items) {
      const double w = p_.candidate_memory[item.k];
      if (w <= fill) {
        knapsack += item.mu;
        fill -= w;
      } else {
        knapsack += item.mu * (fill / w);
        branch_k = item.k;  // critical item
        break;
      }
    }

    double query_potential = 0.0;
    for (size_t j = 0; j < cur_cost_.size(); ++j) {
      query_potential += p_.query_weight[j] * (cur_cost_[j] - query_floor_[j]);
    }

    const double node_ub =
        current_benefit + std::min(knapsack, query_potential);
    // Pruning uses the strongest achieved benefit available — the shared
    // monotone best under parallel solves — with the serial gap margin, so
    // a pruned subtree is always within the optimality gap of a solution
    // some lane has actually recorded.
    double pruning_benefit = incumbent_benefit_;
    if (shared_ != nullptr) {
      pruning_benefit = std::max(
          pruning_benefit, shared_->best_benefit.load(std::memory_order_relaxed));
    }
    const double incumbent_cost = p_.TotalBaseCost() - pruning_benefit;
    const double gap_abs =
        opts_.mip_gap * std::max(std::abs(incumbent_cost), 1e-10);
    const double node_lb_cost = p_.TotalBaseCost() - node_ub;
    if (node_lb_cost >= incumbent_cost - gap_abs - kEps) {
      ++bound_cutoffs_;
      RecordPrunedBound(node_ub);
      return NodeEval{};
    }
    if (Deadline()) {
      RecordPrunedBound(node_ub);
      return NodeEval{};
    }
    return NodeEval{false, branch_k, node_ub};
  }

  void Dfs(double current_benefit) {
    ++nodes_;
    if (shared_ != nullptr) {
      shared_->nodes.fetch_add(1, std::memory_order_relaxed);
    }
    const NodeEval ev = EvaluateNode(current_benefit);
    if (ev.resolved) return;

    // Include branch first (greedy-like dive).
    {
      state_[ev.branch_k] = kIn;
      std::vector<std::pair<uint32_t, double>> undo;
      const double mu = Apply(ev.branch_k, &undo);
      Dfs(current_benefit + mu);
      used_memory_ -= p_.candidate_memory[ev.branch_k];
      Revert(undo);
      state_[ev.branch_k] = kFree;
    }
    if (stopped_) {
      // The exclude branch is abandoned; its optimum is covered by node_ub.
      RecordPrunedBound(ev.node_ub);
      return;
    }
    {
      state_[ev.branch_k] = kOut;
      Dfs(current_benefit);
      state_[ev.branch_k] = kFree;
    }
  }

  const Problem& p_;
  SolveOptions opts_;
  SharedState* shared_;
  Stopwatch own_watch_;
  const Stopwatch* clock_;  ///< Shared solve clock under parallel runs.

  std::vector<char> state_;
  std::vector<double> cur_cost_;
  double used_memory_ = 0.0;

  double incumbent_benefit_ = 0.0;
  std::vector<uint32_t> incumbent_;

  std::vector<double> query_floor_;  // per-node scratch for the query bound
  double pruned_lb_min_ = std::numeric_limits<double>::infinity();
  uint64_t nodes_ = 0;
  uint64_t bound_cutoffs_ = 0;
  uint64_t incumbent_updates_ = 0;
  double seconds_to_best_ = 0.0;
  bool stopped_ = false;
  bool timeout_ = false;
};

/// Parallel solve: deterministic BFS split into a thread-count-independent
/// set of subproblems, exec::ParallelFor execution with a shared incumbent
/// for pruning, DFS-ordered deterministic reduction. See doc/parallelism.md.
SolveResult SolveParallel(const Problem& problem, const SolveOptions& opts,
                          size_t threads) {
  obs::Span solve_span("mip", "mip.solve");
  Stopwatch watch;
  SharedState shared;
  Engine splitter(problem, opts, &shared, &watch);
  splitter.SeedGreedy();

  // Phase 1 — deterministic splitter: expand a BFS frontier with the
  // *serial* branching rule until enough open subproblems exist. The
  // target is a constant (not a function of `threads`), so every thread
  // count decomposes the tree identically — the basis of the cross-count
  // determinism guarantee.
  constexpr size_t kSplitTarget = 64;
  struct PathItem {
    std::vector<Decision> path;
    double ub;  ///< Benefit upper bound inherited from the parent node.
  };
  std::deque<PathItem> frontier;
  frontier.push_back(
      PathItem{{}, std::numeric_limits<double>::infinity()});
  size_t expansions = 0;
  while (!frontier.empty() && frontier.size() < kSplitTarget &&
         expansions < 8 * kSplitTarget && !splitter.stopped()) {
    PathItem item = std::move(frontier.front());
    frontier.pop_front();
    ++expansions;
    const Engine::Expansion ex = splitter.ExpandPath(item.path);
    if (ex.resolved) continue;  // incumbent / pruned bound recorded
    PathItem in{item.path, ex.node_ub};
    in.path.push_back(Decision{ex.branch_k, true});
    PathItem out{std::move(item.path), ex.node_ub};
    out.path.push_back(Decision{ex.branch_k, false});
    frontier.push_back(std::move(in));
    frontier.push_back(std::move(out));
  }

  double abandoned_lb_min = std::numeric_limits<double>::infinity();
  if (splitter.stopped()) {
    // Deadline or node limit hit while splitting: the unexplored
    // subproblems are abandoned; account their inherited bounds like the
    // serial engine accounts abandoned exclude-branches.
    for (const PathItem& item : frontier) {
      abandoned_lb_min =
          std::min(abandoned_lb_min, problem.TotalBaseCost() - item.ub);
    }
    frontier.clear();
  }

  // Phase 2 — solve the subproblems on `threads` lanes. Jobs are
  // claimed in DFS order (include-dives first, like the serial engine)
  // and each starts from the splitter's deterministic incumbent; the
  // shared best only tightens pruning.
  std::vector<PathItem> jobs(std::make_move_iterator(frontier.begin()),
                             std::make_move_iterator(frontier.end()));
  std::sort(jobs.begin(), jobs.end(), [](const PathItem& a,
                                         const PathItem& b) {
    return DfsBefore(a.path, b.path);
  });
  struct JobOutcome {
    double benefit = 0.0;
    std::vector<uint32_t> selection;
    bool improved = false;
    uint64_t nodes = 0;
    uint64_t bound_cutoffs = 0;
    uint64_t incumbent_updates = 0;
    double pruned_lb_min = std::numeric_limits<double>::infinity();
    double seconds_to_best = 0.0;
    bool stopped = false;
    bool timed_out = false;
  };
  std::vector<JobOutcome> outcomes(jobs.size());
  exec::ParallelFor(threads, jobs.size(), [&](size_t i) {
    Engine job(problem, opts, &shared, &watch);
    job.SeedIncumbent(splitter.incumbent(), splitter.incumbent_benefit());
    job.RunSubtree(jobs[i].path);
    JobOutcome& out = outcomes[i];
    out.benefit = job.incumbent_benefit();
    out.improved =
        job.incumbent_benefit() > splitter.incumbent_benefit() + kEps;
    if (out.improved) out.selection = job.incumbent();
    out.nodes = job.nodes();
    out.bound_cutoffs = job.bound_cutoffs();
    out.incumbent_updates = job.incumbent_updates();
    out.pruned_lb_min = job.pruned_lb_min();
    out.seconds_to_best = job.seconds_to_best();
    out.stopped = job.stopped();
    out.timed_out = job.timed_out();
  });

  // Phase 3 — deterministic reduction, mirroring the serial incumbent
  // rule (strictly-eps-better replaces) over subtrees in DFS order.
  double best_benefit = splitter.incumbent_benefit();
  std::vector<uint32_t> best_selection = splitter.incumbent();
  double seconds_to_best = splitter.seconds_to_best();
  for (const JobOutcome& out : outcomes) {
    if (out.improved && out.benefit > best_benefit + kEps) {
      best_benefit = out.benefit;
      best_selection = out.selection;
      seconds_to_best = out.seconds_to_best;
    }
  }

  SolveResult result;
  result.nodes = splitter.nodes();
  result.bound_cutoffs = splitter.bound_cutoffs();
  result.incumbent_updates = splitter.incumbent_updates();
  double pruned_lb_min = std::min(splitter.pruned_lb_min(), abandoned_lb_min);
  bool stopped = splitter.stopped();
  bool timed_out = splitter.timed_out();
  for (const JobOutcome& out : outcomes) {
    result.nodes += out.nodes;
    result.bound_cutoffs += out.bound_cutoffs;
    result.incumbent_updates += out.incumbent_updates;
    pruned_lb_min = std::min(pruned_lb_min, out.pruned_lb_min);
    stopped = stopped || out.stopped;
    timed_out = timed_out || out.timed_out;
  }
  result.seconds_to_best = seconds_to_best;
  result.wall_seconds = watch.ElapsedSeconds();
  result.objective = problem.TotalBaseCost() - best_benefit;
  result.selected = std::move(best_selection);
  result.best_bound = std::min(result.objective, pruned_lb_min);
  result.gap = Engine::Gap(result.objective, result.best_bound);
  result.proven_optimal = !stopped && result.gap <= opts.mip_gap + kEps;
  if (stopped) {
    result.status = timed_out
                        ? Status::Timeout("time limit reached")
                        : Status::ResourceLimit("node limit reached");
  } else {
    result.status = Status::Ok();
  }
  Engine::PublishObs(result);
  obs::Registry::Default()
      .GetCounter("idxsel.mip.parallel_jobs")
      ->Add(jobs.size());
  if (obs::Enabled()) {
    solve_span.SetArg("nodes", static_cast<double>(result.nodes));
    solve_span.SetArg("jobs", static_cast<double>(jobs.size()));
  }
  return result;
}

}  // namespace

std::vector<uint32_t> GreedyByDensity(const Problem& problem) {
  // CELF lazy greedy: cached marginals only shrink as the selection grows,
  // so a stale queue entry is an upper bound and can be re-evaluated on pop.
  struct Entry {
    double density;
    uint32_t k;
    uint64_t stamp;
    bool operator<(const Entry& other) const {
      if (density != other.density) return density < other.density;
      return k > other.k;
    }
  };
  std::vector<double> cur_cost = problem.base_cost;
  auto marginal = [&](uint32_t k) {
    double mu = -problem.penalty(k);
    for (const QueryCost& qc : problem.candidate_costs[k]) {
      const double gain = cur_cost[qc.query] - qc.cost;
      if (gain > 0.0) mu += problem.query_weight[qc.query] * gain;
    }
    return mu;
  };

  std::priority_queue<Entry> queue;
  for (uint32_t k = 0; k < problem.num_candidates(); ++k) {
    if (problem.candidate_memory[k] > problem.budget + kEps) continue;
    const double mu = marginal(k);
    if (mu <= kEps) continue;
    queue.push(Entry{mu / std::max(kEps, problem.candidate_memory[k]), k, 0});
  }

  std::vector<uint32_t> selection;
  double used = 0.0;
  uint64_t stamp = 0;
  while (!queue.empty()) {
    Entry top = queue.top();
    queue.pop();
    if (used + problem.candidate_memory[top.k] > problem.budget + kEps) {
      continue;  // no longer affordable; drop
    }
    if (top.stamp != stamp) {
      const double mu = marginal(top.k);
      if (mu <= kEps) continue;
      queue.push(
          Entry{mu / std::max(kEps, problem.candidate_memory[top.k]), top.k,
                stamp});
      continue;
    }
    // Fresh top entry: take it.
    for (const QueryCost& qc : problem.candidate_costs[top.k]) {
      if (qc.cost < cur_cost[qc.query]) cur_cost[qc.query] = qc.cost;
    }
    used += problem.candidate_memory[top.k];
    selection.push_back(top.k);
    ++stamp;
  }
  std::sort(selection.begin(), selection.end());
  return selection;
}

SolveResult Solve(const Problem& problem, const SolveOptions& options) {
  const size_t threads = exec::ResolveThreads(options.threads);
  SolveResult result;
  if (threads <= 1 || problem.num_candidates() == 0) {
    Engine engine(problem, options);
    result = engine.Run();
  } else {
    result = SolveParallel(problem, options, threads);
  }
  // Decision provenance for the solver layer, emitted through the
  // telemetry bridge (the mip layer must not see obs). Only the
  // thread-count-independent end-state goes in: node/cutoff counts,
  // bounds, and the gap vary run-to-run under shared-incumbent pruning.
  if (telemetry::JournalActive()) {
    telemetry::JournalEvent event;
    event.strategy = "mip";
    event.action = "solve";
    event.round = 1;
    event.objective_after = result.objective;
    const std::string note =
        std::string(result.status.ok()
                        ? (result.proven_optimal ? "optimal" : "gap-target")
                        : "limit") +
        " selected=" + std::to_string(result.selected.size());
    event.note = note.c_str();
    telemetry::EmitJournal(event);
  }
  return result;
}

}  // namespace idxsel::mip
