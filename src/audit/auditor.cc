#include "audit/auditor.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/check.h"
#include "kernel/kernel.h"

namespace idxsel::audit {

namespace {

/// Bit-identical double comparison: the dense tables and the hashed
/// caches must hold the *same* computation's result, so even a 1-ulp
/// difference is a coherence bug, and NaN payloads must round-trip.
bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

}  // namespace

std::string AuditReport::Summary() const {
  char buf[96];
  if (ok()) {
    std::snprintf(buf, sizeof(buf), "audit ok: %llu ids, %llu slots",
                  static_cast<unsigned long long>(ids_checked),
                  static_cast<unsigned long long>(slots_checked));
    return buf;
  }
  std::snprintf(buf, sizeof(buf),
                "audit FAILED: %llu violation(s) in %llu ids / %llu slots",
                static_cast<unsigned long long>(violation_count),
                static_cast<unsigned long long>(ids_checked),
                static_cast<unsigned long long>(slots_checked));
  std::string out = buf;
  for (const std::string& v : violations) {
    out += "\n  ";
    out += v;
  }
  if (violation_count > violations.size()) {
    out += "\n  ... (";
    out += std::to_string(violation_count - violations.size());
    out += " more)";
  }
  return out;
}

void AuditReport::Merge(const AuditReport& other) {
  ids_checked += other.ids_checked;
  slots_checked += other.slots_checked;
  violation_count += other.violation_count;
  for (const std::string& v : other.violations) {
    if (violations.size() >= kMaxMessages) break;
    violations.push_back(v);
  }
}

void AuditReport::AddViolation(std::string message) {
  ++violation_count;
  if (violations.size() < kMaxMessages) {
    violations.push_back(std::move(message));
  }
}

InvariantAuditor::InvariantAuditor(const costmodel::WhatIfEngine* engine)
    : engine_(engine) {
  IDXSEL_CHECK(engine != nullptr);
}

AuditReport InvariantAuditor::AuditCostTables() const {
  AuditReport report;
  const kernel::IndexArena& arena = engine_->arena();
  const workload::Workload& w = engine_->workload();
  const size_t n = arena.size();
  for (kernel::IndexId id = 0; id < n; ++id) {
    ++report.ids_checked;
    const costmodel::Index k = engine_->MaterializeIndex(id);
    const auto& posting = w.queries_with(arena.leading(id));

    // Dense cost row vs hashed cost cache under the canonical key.
    for (uint32_t slot = 0; slot < posting.size(); ++slot) {
      const double dense = engine_->PeekDenseCost(id, slot);
      if (std::isnan(dense)) continue;  // unset slot: nothing to validate
      ++report.slots_checked;
      const workload::QueryId j = posting[slot];
      double hashed = 0.0;
      if (!engine_->PeekCachedCost(j, k, &hashed)) {
        report.AddViolation(
            "dense cost slot (id=" + std::to_string(id) + ", query=" +
            std::to_string(j) +
            ") is set but the hashed cache has no entry for the canonical "
            "key — InheritCostRow copied a slot whose source was never "
            "filed, or canonicalization diverged");
        continue;
      }
      if (!SameBits(dense, hashed)) {
        report.AddViolation(
            "dense cost slot (id=" + std::to_string(id) + ", query=" +
            std::to_string(j) + ") holds " + std::to_string(dense) +
            " but the hashed cache holds " + std::to_string(hashed) +
            " — the two layouts answered the same what-if question "
            "differently");
      }
    }

    // Dense memory table vs hashed memory cache (keyed by the full index).
    const double dense_mem = engine_->PeekDenseMemory(id);
    if (!std::isnan(dense_mem)) {
      ++report.slots_checked;
      double hashed_mem = 0.0;
      if (!engine_->PeekCachedMemory(k, &hashed_mem)) {
        report.AddViolation("dense memory entry for id=" +
                            std::to_string(id) +
                            " is set but the hashed memory cache has no "
                            "entry for the index");
      } else if (!SameBits(dense_mem, hashed_mem)) {
        report.AddViolation(
            "dense memory entry for id=" + std::to_string(id) + " holds " +
            std::to_string(dense_mem) + " but the hashed cache holds " +
            std::to_string(hashed_mem));
      }
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditArenaMasks() const {
  AuditReport report;
  const kernel::IndexArena& arena = engine_->arena();
  const size_t n = arena.size();
  for (kernel::IndexId id = 0; id < n; ++id) {
    ++report.ids_checked;
    const uint32_t width = arena.width(id);
    const workload::AttributeId* attrs = arena.attrs(id);
    if (width == 0) {
      report.AddViolation("arena id=" + std::to_string(id) +
                          " has width 0 (empty tuples are not indexes)");
      continue;
    }
    const uint64_t expected = kernel::MaskOf(attrs, width);
    if (arena.mask(id) != expected) {
      report.AddViolation(
          "arena id=" + std::to_string(id) +
          " precomputed mask disagrees with MaskOf(attrs) — mask-based "
          "applicability filters are unsound for this tuple");
    }
    if (arena.leading(id) != attrs[0]) {
      report.AddViolation("arena id=" + std::to_string(id) +
                          " leading() is not attrs[0]");
    }
    // Index tuples never repeat an attribute; widths are tiny, so the
    // quadratic scan is cheaper than sorting a scratch copy.
    for (uint32_t u = 0; u < width; ++u) {
      for (uint32_t v = u + 1; v < width; ++v) {
        if (attrs[u] == attrs[v]) {
          report.AddViolation("arena id=" + std::to_string(id) +
                              " repeats attribute " +
                              std::to_string(attrs[u]));
        }
      }
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditPostingLists() const {
  AuditReport report;
  const workload::Workload& w = engine_->workload();
  for (workload::AttributeId a = 0; a < w.num_attributes(); ++a) {
    ++report.ids_checked;
    const auto& posting = w.queries_with(a);
    for (size_t i = 0; i < posting.size(); ++i) {
      ++report.slots_checked;
      if (i > 0 && posting[i - 1] >= posting[i]) {
        report.AddViolation(
            "posting list of attribute " + std::to_string(a) +
            " is not strictly ascending at position " + std::to_string(i) +
            " — posting-list cursors and dense row slots assume sorted, "
            "duplicate-free postings");
      }
      const auto& q_attrs = w.query(posting[i]).attributes;
      if (!std::binary_search(q_attrs.begin(), q_attrs.end(), a)) {
        report.AddViolation("posting list of attribute " +
                            std::to_string(a) + " lists query " +
                            std::to_string(posting[i]) +
                            " which does not reference the attribute");
      }
    }
  }
  return report;
}

AuditReport InvariantAuditor::AuditAll() const {
  AuditReport report = AuditCostTables();
  report.Merge(AuditArenaMasks());
  report.Merge(AuditPostingLists());
  return report;
}

void InvariantAuditor::CheckClean(const AuditReport& report) {
  if (report.ok()) return;
  std::fprintf(stderr, "%s\n", report.Summary().c_str());
  IDXSEL_CHECK(report.ok() && "invariant audit failed");
}

}  // namespace idxsel::audit
