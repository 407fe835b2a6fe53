#include "openstack/scheduler_index.h"

#include <algorithm>
#include <sstream>

#include "telemetry/telemetry.h"

namespace uniserver::osk {

namespace {
struct IndexMetrics {
  PickMetrics& pick = pick_metrics();
  telemetry::Counter& updates = telemetry::counter(
      "cloud.sched.index_updates", "updates",
      "Incremental capacity-index leaf updates (one node changed)");
  telemetry::Counter& rebuilds = telemetry::counter(
      "cloud.sched.index_rebuilds", "rebuilds",
      "Full capacity-index rebuilds (bind or fleet-wide weight refresh)");
  telemetry::Gauge& nodes = telemetry::gauge(
      "cloud.sched.index_nodes", "nodes",
      "Fleet size currently bound to the indexed placement engine");
};

IndexMetrics& metrics() {
  static IndexMetrics m;
  return m;
}

bool is_weighted(SchedulerPolicy policy) {
  return policy != SchedulerPolicy::kFirstFit &&
         policy != SchedulerPolicy::kRoundRobin;
}
}  // namespace

IndexedScheduler::Aggregate IndexedScheduler::combine(const Aggregate& a,
                                                      const Aggregate& b) {
  Aggregate out;
  out.max_free_vcpus = std::max(a.max_free_vcpus, b.max_free_vcpus);
  out.max_free_memory_mb =
      std::max(a.max_free_memory_mb, b.max_free_memory_mb);
  out.max_reliability = std::max(a.max_reliability, b.max_reliability);
  return out;
}

IndexedScheduler::Aggregate IndexedScheduler::leaf_aggregate(
    std::uint32_t slot) const {
  const ComputeNode& node = *nodes_[slot];
  if (!node.up()) return {};
  Aggregate out;
  out.max_free_vcpus = node.free_vcpus();
  out.max_free_memory_mb = node.free_memory_mb();
  out.max_reliability = node.metrics().reliability;
  return out;
}

bool IndexedScheduler::may_satisfy(const Aggregate& agg, const hv::Vm& vm,
                                   bool critical) const {
  if (agg.max_free_vcpus < vm.vcpus) return false;
  if (agg.max_free_memory_mb < vm.memory_mb) return false;
  if (critical && agg.max_reliability < kCriticalReliabilityFloor) {
    return false;
  }
  return true;
}

void IndexedScheduler::rebuild_tree() {
  for (std::size_t pos = 0; pos < cap_; ++pos) {
    tree_[cap_ + pos] =
        pos < perm_.size() ? leaf_aggregate(perm_[pos]) : Aggregate{};
  }
  for (std::size_t t = cap_ - 1; t >= 1; --t) {
    tree_[t] = combine(tree_[2 * t], tree_[2 * t + 1]);
  }
  metrics().rebuilds.add();
}

void IndexedScheduler::update_position(std::size_t pos) {
  std::size_t t = cap_ + pos;
  tree_[t] = leaf_aggregate(perm_[pos]);
  for (t /= 2; t >= 1; t /= 2) {
    tree_[t] = combine(tree_[2 * t], tree_[2 * t + 1]);
  }
  metrics().updates.add();
}

void IndexedScheduler::bind(std::vector<ComputeNode*> nodes) {
  require_slot_order(nodes);
  nodes_ = std::move(nodes);
  round_robin_cursor_ = 0;
  const std::size_t n = nodes_.size();

  perm_.resize(n);
  rank_.resize(n);
  weights_.assign(n, 0.0);
  for (std::size_t slot = 0; slot < n; ++slot) {
    perm_[slot] = static_cast<std::uint32_t>(slot);
    rank_[slot] = static_cast<std::uint32_t>(slot);
  }

  cap_ = 1;
  while (cap_ < std::max<std::size_t>(n, 1)) cap_ *= 2;
  tree_.assign(2 * cap_, Aggregate{});

  metrics().nodes.set(static_cast<double>(n));
  // Weighted policies need the initial weight ordering; refresh_weights
  // also performs the first full tree build.
  refresh_weights();
}

void IndexedScheduler::refresh_weights() {
  const std::size_t n = nodes_.size();
  if (is_weighted(policy_)) {
    for (std::size_t slot = 0; slot < n; ++slot) {
      weights_[slot] = policy_weight(policy_, *nodes_[slot]);
    }
    // (weight desc, slot asc): the first feasible leaf in this order is
    // exactly the reference's strict-> argmax with its first-slot
    // tie-break.
    std::sort(perm_.begin(), perm_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                if (weights_[a] != weights_[b]) {
                  return weights_[a] > weights_[b];
                }
                return a < b;
              });
    for (std::size_t pos = 0; pos < n; ++pos) {
      rank_[perm_[pos]] = static_cast<std::uint32_t>(pos);
    }
  }
  // Reliability (and, for weighted policies, the permutation) may have
  // moved on every node: recompute all leaves in one O(n) pass instead
  // of n O(log n) point updates.
  rebuild_tree();
}

void IndexedScheduler::node_changed(const ComputeNode* node) {
  const std::size_t slot = node->slot();
  if (slot >= nodes_.size() || nodes_[slot] != node) return;
  update_position(rank_[slot]);
}

long IndexedScheduler::find_first(std::size_t t, std::size_t t_lo,
                                  std::size_t t_hi, std::size_t lo,
                                  std::size_t hi, const hv::Vm& vm,
                                  bool critical,
                                  const PlacementConstraint& constraint,
                                  std::uint64_t& scanned) const {
  if (hi <= t_lo || t_hi <= lo) return -1;
  if (!may_satisfy(tree_[t], vm, critical)) return -1;
  if (t_hi - t_lo == 1) {
    ++scanned;
    return pick_feasible(*nodes_[perm_[t_lo]], vm, critical, constraint)
               ? static_cast<long>(t_lo)
               : -1;
  }
  const std::size_t mid = t_lo + (t_hi - t_lo) / 2;
  const long left =
      find_first(2 * t, t_lo, mid, lo, hi, vm, critical, constraint, scanned);
  if (left >= 0) return left;
  return find_first(2 * t + 1, mid, t_hi, lo, hi, vm, critical, constraint,
                    scanned);
}

ComputeNode* IndexedScheduler::pick(const hv::Vm& vm, bool critical,
                                    const PlacementConstraint& constraint) {
  metrics().pick.picks.add();
  if (nodes_.empty()) return nullptr;
  const std::size_t n = nodes_.size();
  std::uint64_t scanned = 0;

  long pos = -1;
  if (policy_ == SchedulerPolicy::kRoundRobin) {
    pos = find_first(1, 0, cap_, round_robin_cursor_, n, vm, critical,
                     constraint, scanned);
    if (pos < 0) {
      pos = find_first(1, 0, cap_, 0, round_robin_cursor_, vm, critical,
                       constraint, scanned);
    }
  } else {
    pos = find_first(1, 0, cap_, 0, n, vm, critical, constraint, scanned);
  }
  metrics().pick.scan_nodes.add(scanned);
  if (pos < 0) return nullptr;

  const std::uint32_t slot = perm_[static_cast<std::size_t>(pos)];
  if (policy_ == SchedulerPolicy::kRoundRobin) {
    round_robin_cursor_ = (static_cast<std::size_t>(slot) + 1) % n;
  }
  return nodes_[slot];
}

std::string IndexedScheduler::self_check() const {
  std::ostringstream err;
  const std::size_t n = nodes_.size();
  if (perm_.size() != n || rank_.size() != n || weights_.size() != n) {
    err << "index arrays sized " << perm_.size() << "/" << rank_.size()
        << "/" << weights_.size() << " for fleet of " << n;
    return err.str();
  }
  if (tree_.size() != 2 * cap_ || cap_ < std::max<std::size_t>(n, 1)) {
    err << "tree capacity " << cap_ << " for fleet of " << n;
    return err.str();
  }
  for (std::size_t slot = 0; slot < n; ++slot) {
    if (rank_[slot] >= n || perm_[rank_[slot]] != slot) {
      err << "perm/rank not inverse at slot " << slot;
      return err.str();
    }
    if (nodes_[slot]->slot() != slot) {
      err << nodes_[slot]->name() << " is bound off its slot " << slot;
      return err.str();
    }
  }
  if (is_weighted(policy_)) {
    for (std::size_t pos = 0; pos + 1 < n; ++pos) {
      const std::uint32_t a = perm_[pos];
      const std::uint32_t b = perm_[pos + 1];
      const bool ordered =
          weights_[a] != weights_[b] ? weights_[a] > weights_[b] : a < b;
      if (!ordered) {
        err << "weight order violated at position " << pos;
        return err.str();
      }
    }
  }
  for (std::size_t pos = 0; pos < cap_; ++pos) {
    const Aggregate want =
        pos < n ? leaf_aggregate(perm_[pos]) : Aggregate{};
    const Aggregate& got = tree_[cap_ + pos];
    if (got.max_free_vcpus != want.max_free_vcpus ||
        got.max_free_memory_mb != want.max_free_memory_mb ||
        got.max_reliability != want.max_reliability) {
      err << "leaf " << pos << " stale vs node "
          << (pos < n ? nodes_[perm_[pos]]->name() : "<padding>");
      return err.str();
    }
  }
  for (std::size_t t = cap_ - 1; t >= 1; --t) {
    const Aggregate want = combine(tree_[2 * t], tree_[2 * t + 1]);
    if (tree_[t].max_free_vcpus != want.max_free_vcpus ||
        tree_[t].max_free_memory_mb != want.max_free_memory_mb ||
        tree_[t].max_reliability != want.max_reliability) {
      err << "internal aggregate " << t << " inconsistent";
      return err.str();
    }
  }
  return {};
}

}  // namespace uniserver::osk
