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
      "Incremental capacity-index updates (one node signalled or re-weighed)");
  telemetry::Counter& rebuilds = telemetry::counter(
      "cloud.sched.index_rebuilds", "rebuilds",
      "Full capacity-index builds (bind, or a refresh most nodes signalled)");
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

bool IndexedScheduler::same(const Aggregate& a, const Aggregate& b) {
  return a.max_free_vcpus == b.max_free_vcpus &&
         a.max_free_memory_mb == b.max_free_memory_mb &&
         a.max_reliability == b.max_reliability;
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
  // An ancestor that comes out unchanged leaves every one above it so.
  for (t /= 2; t >= 1; t /= 2) {
    const Aggregate parent = combine(tree_[2 * t], tree_[2 * t + 1]);
    if (same(parent, tree_[t])) break;
    tree_[t] = parent;
  }
  metrics().updates.add();
}

void IndexedScheduler::update_ancestors(std::size_t lo, std::size_t hi) {
  for (std::size_t a = (cap_ + lo) / 2, b = (cap_ + hi) / 2; a >= 1;
       a /= 2, b /= 2) {
    for (std::size_t t = a; t <= b; ++t) {
      tree_[t] = combine(tree_[2 * t], tree_[2 * t + 1]);
    }
  }
}

bool IndexedScheduler::ahead(double weight_a, std::uint32_t a,
                             double weight_b, std::uint32_t b) {
  return weight_a != weight_b ? weight_a > weight_b : a < b;
}

void IndexedScheduler::bind(std::vector<ComputeNode*> nodes) {
  require_slot_order(nodes);
  nodes_ = std::move(nodes);
  round_robin_cursor_ = 0;
  const std::size_t n = nodes_.size();

  perm_.resize(n);
  rank_.resize(n);
  weights_.assign(n, 0.0);
  dirty_.clear();
  dirty_flag_.assign(n, 0);
  for (std::size_t slot = 0; slot < n; ++slot) {
    perm_[slot] = static_cast<std::uint32_t>(slot);
  }

  cap_ = 1;
  while (cap_ < std::max<std::size_t>(n, 1)) cap_ *= 2;
  tree_.assign(2 * cap_, Aggregate{});
  sort_and_build();

  metrics().nodes.set(static_cast<double>(n));
}

void IndexedScheduler::sort_and_build() {
  const std::size_t n = nodes_.size();
  if (is_weighted(policy_)) {
    for (std::size_t slot = 0; slot < n; ++slot) {
      weights_[slot] = policy_weight(policy_, *nodes_[slot]);
    }
    std::sort(perm_.begin(), perm_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return ahead(weights_[a], a, weights_[b], b);
              });
  }
  for (std::size_t pos = 0; pos < n; ++pos) {
    rank_[perm_[pos]] = static_cast<std::uint32_t>(pos);
  }
  rebuild_tree();
}

void IndexedScheduler::refresh_weights() {
  // When a quarter of the fleet or more was signalled, one sort of the
  // whole permutation costs less than placing each slot (measured: on a
  // 48-node fleet whose every node moves each tick the merge below took
  // 2.4x as long).
  if (dirty_.size() * kFullSortDivisor >= nodes_.size() && !dirty_.empty()) {
    for (const std::uint32_t slot : dirty_) dirty_flag_[slot] = 0;
    dirty_.clear();
    sort_and_build();
    return;
  }
  // Re-weigh the dirty slots. perm_ is still sorted by the cached
  // weights, so a binary search finds where each moved slot's new key
  // falls; [lo, hi] spans every position a moved slot leaves or enters.
  // Outside it nothing moves: before lo every slot precedes all new
  // keys, after hi none does.
  moved_.clear();
  std::size_t lo = nodes_.size();
  std::size_t hi = 0;
  for (const std::uint32_t slot : dirty_) {
    const double weight = policy_weight(policy_, *nodes_[slot]);
    if (weight == weights_[slot]) {
      dirty_flag_[slot] = 0;
      continue;
    }
    const std::size_t from = rank_[slot];
    const std::size_t to = static_cast<std::size_t>(
        std::partition_point(perm_.begin(), perm_.end(),
                             [&](std::uint32_t other) {
                               return ahead(weights_[other], other, weight,
                                            slot);
                             }) -
        perm_.begin());
    lo = std::min({lo, from, to});
    hi = std::max({hi, from, to == 0 ? 0 : to - 1});
    moved_.push_back(Entry{slot, weight, tree_[cap_ + from]});
  }
  dirty_.clear();
  if (moved_.empty()) return;

  // Merge the moved slots, in their new order, with the span's other
  // slots, which keep theirs. Leaves travel with their slots; a moved
  // slot keeps dirty_flag_ set until the merge has passed it.
  for (const Entry& entry : moved_) weights_[entry.slot] = entry.weight;
  std::sort(moved_.begin(), moved_.end(), [](const Entry& a, const Entry& b) {
    return ahead(a.weight, a.slot, b.weight, b.slot);
  });
  kept_.clear();
  for (std::size_t pos = lo; pos <= hi; ++pos) {
    const std::uint32_t slot = perm_[pos];
    if (dirty_flag_[slot] == 0) {
      kept_.push_back(Entry{slot, weights_[slot], tree_[cap_ + pos]});
    }
  }
  std::size_t next_moved = 0;
  std::size_t next_kept = 0;
  for (std::size_t pos = lo; pos <= hi; ++pos) {
    const bool take_moved =
        next_kept == kept_.size() ||
        (next_moved < moved_.size() &&
         ahead(moved_[next_moved].weight, moved_[next_moved].slot,
               kept_[next_kept].weight, kept_[next_kept].slot));
    const Entry& entry =
        take_moved ? moved_[next_moved++] : kept_[next_kept++];
    perm_[pos] = entry.slot;
    rank_[entry.slot] = static_cast<std::uint32_t>(pos);
    tree_[cap_ + pos] = entry.leaf;
    dirty_flag_[entry.slot] = 0;
  }
  update_ancestors(lo, hi);
  metrics().updates.add(moved_.size());
}

void IndexedScheduler::node_changed(const ComputeNode* node) {
  const std::size_t slot = node->slot();
  if (slot >= nodes_.size() || nodes_[slot] != node) return;
  update_position(rank_[slot]);
  if (is_weighted(policy_) && dirty_flag_[slot] == 0) {
    dirty_flag_[slot] = 1;
    dirty_.push_back(static_cast<std::uint32_t>(slot));
  }
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

long IndexedScheduler::locate(const hv::Vm& vm, bool critical,
                              const PlacementConstraint& constraint,
                              std::uint64_t& scanned) const {
  const std::size_t n = nodes_.size();
  if (policy_ != SchedulerPolicy::kRoundRobin) {
    return find_first(1, 0, cap_, 0, n, vm, critical, constraint, scanned);
  }
  const long pos = find_first(1, 0, cap_, round_robin_cursor_, n, vm,
                              critical, constraint, scanned);
  if (pos >= 0) return pos;
  return find_first(1, 0, cap_, 0, round_robin_cursor_, vm, critical,
                    constraint, scanned);
}

ComputeNode* IndexedScheduler::pick(const hv::Vm& vm, bool critical,
                                    const PlacementConstraint& constraint) {
  metrics().pick.picks.add();
  if (nodes_.empty()) return nullptr;
  std::uint64_t scanned = 0;
  const long pos = locate(vm, critical, constraint, scanned);
  metrics().pick.scan_nodes.add(scanned);
  if (pos < 0) return nullptr;

  const std::uint32_t slot = perm_[static_cast<std::size_t>(pos)];
  if (policy_ == SchedulerPolicy::kRoundRobin) {
    round_robin_cursor_ = (static_cast<std::size_t>(slot) + 1) % nodes_.size();
  }
  return nodes_[slot];
}

ComputeNode* IndexedScheduler::peek(
    const hv::Vm& vm, bool critical,
    const PlacementConstraint& constraint) const {
  if (nodes_.empty()) return nullptr;
  std::uint64_t scanned = 0;
  const long pos = locate(vm, critical, constraint, scanned);
  return pos < 0 ? nullptr : nodes_[perm_[static_cast<std::size_t>(pos)]];
}

std::string IndexedScheduler::differs_from(
    const IndexedScheduler& other) const {
  std::ostringstream err;
  if (policy_ != other.policy_ || nodes_ != other.nodes_ ||
      cap_ != other.cap_) {
    return "bound to a different policy or fleet";
  }
  for (std::size_t pos = 0; pos < perm_.size(); ++pos) {
    if (perm_[pos] != other.perm_[pos]) {
      err << "position " << pos << " holds slot " << perm_[pos] << ", not "
          << other.perm_[pos];
      return err.str();
    }
  }
  for (std::size_t slot = 0; slot < nodes_.size(); ++slot) {
    if (rank_[slot] != other.rank_[slot] ||
        weights_[slot] != other.weights_[slot]) {
      err << "slot " << slot << " rank " << rank_[slot] << " weight "
          << weights_[slot] << ", not " << other.rank_[slot] << " / "
          << other.weights_[slot];
      return err.str();
    }
  }
  for (std::size_t t = 1; t < tree_.size(); ++t) {
    if (!same(tree_[t], other.tree_[t])) {
      err << (t >= cap_ ? "leaf " : "internal aggregate ")
          << (t >= cap_ ? t - cap_ : t) << " differs";
      return err.str();
    }
  }
  return {};
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
      if (!ahead(weights_[a], a, weights_[b], b)) {
        err << "weight order violated at position " << pos;
        return err.str();
      }
    }
  }
  for (std::size_t pos = 0; pos < cap_; ++pos) {
    const Aggregate want =
        pos < n ? leaf_aggregate(perm_[pos]) : Aggregate{};
    if (!same(tree_[cap_ + pos], want)) {
      err << "leaf " << pos << " stale vs node "
          << (pos < n ? nodes_[perm_[pos]]->name() : "<padding>");
      return err.str();
    }
  }
  for (std::size_t t = cap_ - 1; t >= 1; --t) {
    if (!same(tree_[t], combine(tree_[2 * t], tree_[2 * t + 1]))) {
      err << "internal aggregate " << t << " inconsistent";
      return err.str();
    }
  }
  return {};
}

}  // namespace uniserver::osk
