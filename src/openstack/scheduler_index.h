// Capacity-indexed placement engine: a segment tree over the fleet
// keeps per-subtree maxima of free vCPUs, free memory, and reliability
// so a pick descends from the root pruning infeasible subtrees —
// O(log n) per query on typical fleets instead of the reference
// engine's O(n) scan — while incremental leaf updates keep the index
// consistent through every allocate/release/crash/reboot/migration.
//
// Bit-identity with ReferenceScheduler is by construction:
//
//   kFirstFit      first feasible leaf in fleet order;
//   kRoundRobin    first feasible leaf in [cursor, n) then [0, cursor),
//                  cursor advanced exactly like the reference;
//   weighted       the tree is built over a permutation sorted by
//                  (policy_weight desc, fleet slot asc), so the first
//                  feasible leaf in permutation order IS the reference
//                  strict-> argmax with its earliest-slot tie-break.
//
// The contract: every change to a bound node's capacity, up state,
// utilization or reliability is signalled with node_changed(), which
// rewrites that node's leaf at once and marks its slot dirty.
// refresh_weights() re-weighs only the dirty slots and moves each to
// its (weight desc, slot asc) place, rewriting rank_ and the leaves
// only over the positions that moved, plus their ancestors. bind()'s
// sort-and-build is the one full pass (a refresh that a quarter of the
// fleet signalled reuses it), so a freshly bound engine over the same
// nodes is the oracle the incremental index must equal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "openstack/scheduler.h"

namespace uniserver::osk {

/// O(log n) engine; see file comment for the identity argument.
class IndexedScheduler final : public PlacementEngine {
 public:
  explicit IndexedScheduler(SchedulerPolicy policy)
      : PlacementEngine(policy) {}

  void bind(std::vector<ComputeNode*> nodes) override;
  ComputeNode* pick(const hv::Vm& vm, bool critical,
                    const PlacementConstraint& constraint = {}) override;
  void node_changed(const ComputeNode* node) override;
  void refresh_weights() override;

  /// The node pick() would return now, without counting a pick or
  /// moving the round-robin cursor.
  ComputeNode* peek(const hv::Vm& vm, bool critical,
                    const PlacementConstraint& constraint = {}) const;

  /// Compares the permutation, ranks, weights and every tree node with
  /// `other`'s. Returns "" when equal, else the first difference; the
  /// differential suites compare against a freshly bound engine.
  std::string differs_from(const IndexedScheduler& other) const;

  /// Audits the whole index against live node state: every leaf
  /// aggregate, every internal max, the permutation/rank inverse pair,
  /// each bound node's slot and the weight sort order. Returns "" when
  /// consistent, else a description of the first inconsistency. The
  /// property-based suite runs it after every mutation.
  std::string self_check() const;

 private:
  /// Per-subtree maxima. A down node (or tree padding) contributes the
  /// empty aggregate, which no request can satisfy.
  struct Aggregate {
    int max_free_vcpus{-1};
    double max_free_memory_mb{-1.0};
    double max_reliability{-2.0};
  };

  static Aggregate combine(const Aggregate& a, const Aggregate& b);
  static bool same(const Aggregate& a, const Aggregate& b);
  Aggregate leaf_aggregate(std::uint32_t slot) const;
  /// True when some node in the subtree *might* satisfy the request
  /// (necessary, not sufficient: the maxima may live on different
  /// nodes, so leaves are re-checked exactly).
  bool may_satisfy(const Aggregate& agg, const hv::Vm& vm,
                   bool critical) const;
  /// Recomputes every leaf from node state and rebuilds the internal
  /// levels bottom-up. O(n).
  void rebuild_tree();
  /// Re-weighs every slot, sorts perm_, rewrites rank_ and rebuilds the
  /// tree: bind(), and a refresh that most of the fleet signalled.
  void sort_and_build();
  /// Recomputes one leaf and its root path. O(log n).
  void update_position(std::size_t pos);
  /// Recombines the ancestors of the leaves at positions [lo, hi].
  void update_ancestors(std::size_t lo, std::size_t hi);
  /// refresh_weights() re-sorts the whole permutation when at least
  /// 1/kFullSortDivisor of the fleet was signalled since the last one.
  static constexpr std::size_t kFullSortDivisor = 4;
  /// (weight desc, slot asc): the first feasible leaf in this order is
  /// exactly the reference's strict-> argmax with its first-slot
  /// tie-break.
  static bool ahead(double weight_a, std::uint32_t a, double weight_b,
                    std::uint32_t b);
  /// First feasible tree position in the policy's search order, or -1.
  long locate(const hv::Vm& vm, bool critical,
              const PlacementConstraint& constraint,
              std::uint64_t& scanned) const;
  /// First feasible tree position in [lo, hi), or -1. `scanned`
  /// accumulates the number of leaves exactly evaluated.
  long find_first(std::size_t t, std::size_t t_lo, std::size_t t_hi,
                  std::size_t lo, std::size_t hi, const hv::Vm& vm,
                  bool critical, const PlacementConstraint& constraint,
                  std::uint64_t& scanned) const;

  std::vector<ComputeNode*> nodes_;
  /// Tree position -> fleet slot. Identity for positional policies;
  /// (weight desc, slot asc) for weighted ones.
  std::vector<std::uint32_t> perm_;
  /// Fleet slot -> tree position (inverse of perm_).
  std::vector<std::uint32_t> rank_;
  /// Cached policy weight per fleet slot (weighted policies only).
  std::vector<double> weights_;
  /// Slots signalled since the last refresh (weighted policies only),
  /// each listed once; dirty_flag_ marks the listed ones.
  std::vector<std::uint32_t> dirty_;
  std::vector<std::uint8_t> dirty_flag_;
  /// refresh_weights() scratch: the re-weighed slots that move, and the
  /// other slots of the span they move within.
  struct Entry {
    std::uint32_t slot;
    double weight;
    Aggregate leaf;
  };
  std::vector<Entry> moved_;
  std::vector<Entry> kept_;
  /// Leaf capacity (power of two >= fleet size); tree_ is 1-based with
  /// leaves at [cap_, cap_ + n).
  std::size_t cap_{1};
  std::vector<Aggregate> tree_;
  std::size_t round_robin_cursor_{0};
};

}  // namespace uniserver::osk
