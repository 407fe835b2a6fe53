#include "fuzz/oracles.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>

namespace uniserver::fuzz {

namespace {

Seconds checkpoint_time(const StackView& view) {
  if (view.des != nullptr) return view.des->now();
  if (view.cloud != nullptr) return view.cloud->now();
  return Seconds{0.0};
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

bool hv_error_accounting_consistent(const hv::HvStats& stats) {
  return stats.uncorrected_resolved == stats.uncorrected_seen;
}

bool cloud_books_balance(const osk::CloudStats& stats,
                         std::size_t active_vms) {
  return stats.accepted == stats.completed + stats.lost_to_errors +
                               stats.lost_to_node_crash +
                               static_cast<std::uint64_t>(active_vms);
}

void VmConservationOracle::check(const StackView& view,
                                 std::vector<Violation>& out) {
  if (view.cloud == nullptr) return;
  const Seconds at = checkpoint_time(view);
  const auto placements = view.cloud->active_placements();

  if (!cloud_books_balance(view.cloud->stats(), placements.size())) {
    const auto& s = view.cloud->stats();
    out.push_back(Violation{
        name(),
        "books out of balance: accepted=" + std::to_string(s.accepted) +
            " completed=" + std::to_string(s.completed) +
            " lost_to_errors=" + std::to_string(s.lost_to_errors) +
            " lost_to_node_crash=" + std::to_string(s.lost_to_node_crash) +
            " active=" + std::to_string(placements.size()),
        at});
  }

  // Count where each VM id actually lives across the fleet.
  std::map<std::uint64_t, int> residency;
  for (const osk::ComputeNode* node : view.cloud->node_views()) {
    for (const auto& [id, vm] : node->hypervisor().vms()) ++residency[id];
  }

  for (const auto& placement : placements) {
    const auto it = residency.find(placement.id);
    if (it == residency.end()) {
      out.push_back(Violation{
          name(),
          "vm " + std::to_string(placement.id) +
              " is on the cloud's books but resident on no node",
          at});
    } else if (it->second > 1) {
      out.push_back(Violation{
          name(),
          "vm " + std::to_string(placement.id) + " is resident on " +
              std::to_string(it->second) + " nodes",
          at});
    } else if (placement.node != nullptr &&
               !placement.node->hypervisor().vms().contains(placement.id)) {
      out.push_back(Violation{
          name(),
          "vm " + std::to_string(placement.id) +
              " is not on the node the cloud placed it on",
          at});
    }
  }

  // The reverse direction: a resident VM the control plane forgot.
  std::size_t tracked = 0;
  for (const auto& placement : placements) {
    if (residency.contains(placement.id)) ++tracked;
  }
  std::size_t resident_total = 0;
  for (const auto& [id, count] : residency) {
    resident_total += static_cast<std::size_t>(count);
  }
  if (resident_total > tracked) {
    out.push_back(Violation{
        name(),
        "fleet hosts " + std::to_string(resident_total) +
            " VM placements but only " + std::to_string(tracked) +
            " are on the cloud's books (ghost VM)",
        at});
  }
}

void EnergyBalanceOracle::check(const StackView& view,
                                std::vector<Violation>& out) {
  if (view.cloud == nullptr) return;
  const osk::CloudStats& stats = view.cloud->stats();
  double node_sum_kwh = 0.0;
  for (const osk::ComputeNode* node : view.cloud->node_views()) {
    node_sum_kwh += node->metrics().energy_kwh;
  }
  const double expected = node_sum_kwh + stats.migration_energy_kwh;
  const double drift = std::fabs(stats.total_energy_kwh - expected);
  const double scale = std::max(1.0, std::fabs(stats.total_energy_kwh));
  if (drift > rel_tolerance_ * scale) {
    out.push_back(Violation{
        name(),
        "cluster total " + fmt(stats.total_energy_kwh) +
            " kWh != node sum " + fmt(node_sum_kwh) + " + migration " +
            fmt(stats.migration_energy_kwh) + " (drift " + fmt(drift) + ")",
        checkpoint_time(view)});
  }
}

void MonotoneTimeOracle::check(const StackView& view,
                               std::vector<Violation>& out) {
  if (view.des != nullptr) {
    const double now = view.des->now().value;
    if (now < last_des_s_) {
      out.push_back(Violation{
          name(),
          "DES time went backwards: " + fmt(last_des_s_) + " -> " + fmt(now),
          view.des->now()});
    }
    last_des_s_ = std::max(last_des_s_, now);
  }
  if (view.cloud != nullptr) {
    const double now = view.cloud->now().value;
    if (now < last_cloud_s_) {
      out.push_back(Violation{
          name(),
          "cloud time went backwards: " + fmt(last_cloud_s_) + " -> " +
              fmt(now),
          view.cloud->now()});
    }
    last_cloud_s_ = std::max(last_cloud_s_, now);
  }
}

void EopSafetyOracle::check(const StackView& view,
                            std::vector<Violation>& out) {
  if (view.cloud == nullptr) return;
  for (const osk::ComputeNode* node : view.cloud->node_views()) {
    const hv::HvStats& stats = node->hypervisor().stats();
    if (!hv_error_accounting_consistent(stats)) {
      out.push_back(Violation{
          name(),
          node->name() + ": " + std::to_string(stats.uncorrected_seen) +
              " uncorrected errors seen but only " +
              std::to_string(stats.uncorrected_resolved) +
              " carry a disposition",
          checkpoint_time(view)});
    }
  }
}

void TelemetryConsistencyOracle::check(const StackView& view,
                                       std::vector<Violation>& out) {
  if (view.registry == nullptr) return;
  const Seconds at = checkpoint_time(view);
  const auto snapshot = view.registry->snapshot();

  // snapshot() is sorted by name, and last_counters_ preserves that
  // order, so one merge pass compares the two.
  std::vector<std::pair<std::string, double>> current;
  current.reserve(snapshot.size());
  for (const auto& sample : snapshot) {
    if (sample.meta.type != telemetry::MetricType::kCounter) continue;
    current.emplace_back(sample.meta.name, sample.value);
  }

  std::size_t i = 0;
  for (const auto& [prev_name, prev_value] : last_counters_) {
    while (i < current.size() && current[i].first < prev_name) ++i;
    if (i >= current.size() || current[i].first != prev_name) {
      out.push_back(Violation{
          name(), "counter '" + prev_name + "' disappeared from the catalog",
          at});
      continue;
    }
    if (current[i].second < prev_value) {
      out.push_back(Violation{
          name(),
          "counter '" + prev_name + "' decreased: " + fmt(prev_value) +
              " -> " + fmt(current[i].second),
          at});
    }
  }
  last_counters_ = std::move(current);
}

void MigrationConservationOracle::check(const StackView& view,
                                        std::vector<Violation>& out) {
  if (view.cloud == nullptr) return;
  const Seconds at = checkpoint_time(view);
  const osk::MigrationOrchestrator& orch = view.cloud->migrations();
  const osk::MigrationStats& books = orch.stats();

  const std::uint64_t in_flight =
      static_cast<std::uint64_t>(orch.tickets().size());
  if (books.submitted != books.completed + books.cancelled + in_flight) {
    out.push_back(Violation{
        name(),
        "orchestrator books out of balance: submitted=" +
            std::to_string(books.submitted) +
            " completed=" + std::to_string(books.completed) +
            " cancelled=" + std::to_string(books.cancelled) +
            " in_flight=" + std::to_string(in_flight),
        at});
  }

  // Where the control plane believes each active VM lives.
  std::map<std::uint64_t, const osk::ComputeNode*> booked;
  for (const auto& placement : view.cloud->active_placements()) {
    booked[placement.id] = placement.node;
  }

  for (const auto& [vm_id, ticket] : orch.tickets()) {
    if (ticket.source == nullptr || ticket.dest == nullptr ||
        ticket.source == ticket.dest) {
      out.push_back(Violation{
          name(), "ticket for vm " + std::to_string(vm_id) +
                      " has a degenerate source/destination pair",
          at});
      continue;
    }
    // Before the cutover the VM runs on the source; after a post-copy
    // ownership switch it runs on the destination. Either way it must
    // exist exactly once, on the side the phase dictates, and the
    // cloud's books must agree.
    const bool switched = ticket.phase == osk::MigrationPhase::kPostCopy;
    const osk::ComputeNode* expected_home =
        switched ? ticket.dest : ticket.source;
    const osk::ComputeNode* other =
        switched ? ticket.source : ticket.dest;
    if (!expected_home->hypervisor().vms().contains(vm_id)) {
      out.push_back(Violation{
          name(), "vm " + std::to_string(vm_id) + " (" +
                      to_string(ticket.phase) +
                      ") is not resident on its expected side " +
                      expected_home->name(),
          at});
    }
    if (other->hypervisor().vms().contains(vm_id)) {
      out.push_back(Violation{
          name(), "vm " + std::to_string(vm_id) + " (" +
                      to_string(ticket.phase) +
                      ") is resident on both sides of its migration",
          at});
    }
    const auto it = booked.find(vm_id);
    if (it == booked.end()) {
      out.push_back(Violation{
          name(), "vm " + std::to_string(vm_id) +
                      " has a live migration ticket but left the "
                      "cloud's books",
          at});
    } else if (it->second != nullptr && it->second != expected_home) {
      out.push_back(Violation{
          name(), "cloud books place vm " + std::to_string(vm_id) +
                      " on " + it->second->name() + " but its " +
                      to_string(ticket.phase) + " ticket says " +
                      expected_home->name(),
          at});
    }
    if (!switched && !ticket.dest->up()) {
      out.push_back(Violation{
          name(), "vm " + std::to_string(vm_id) +
                      " is migrating toward down node " +
                      ticket.dest->name() +
                      " (crash should have cancelled the ticket)",
          at});
    }
  }
}

void MigrationEnergyOracle::check(const StackView& view,
                                  std::vector<Violation>& out) {
  if (view.cloud == nullptr) return;
  const Seconds at = checkpoint_time(view);
  const osk::CloudStats& stats = view.cloud->stats();
  const osk::MigrationStats& books = view.cloud->migrations().stats();

  // The cloud's migration energy, accrued per round, must equal the
  // orchestrator's bytes moved at the model's rate — including rounds
  // of still-in-flight or later-cancelled tickets.
  const double joule_per_mb = osk::MigrationModel::kJoulePerMb;
  const double expected_kwh =
      Joule{books.transferred_mb * joule_per_mb}.kwh();
  const double drift = std::fabs(stats.migration_energy_kwh - expected_kwh);
  const double scale = std::max(1.0, std::fabs(expected_kwh));
  if (drift > rel_tolerance_ * scale) {
    out.push_back(Violation{
        name(),
        "migration energy " + fmt(stats.migration_energy_kwh) +
            " kWh != " + fmt(books.transferred_mb) + " MB at " +
            fmt(joule_per_mb) + " J/MB (" + fmt(expected_kwh) + " kWh)",
        at});
  }
}

bool serve_books_balance(const serve::ServeStats& stats,
                         std::size_t outstanding) {
  return stats.generated == stats.admitted + stats.dropped_overload +
                                stats.dropped_unroutable &&
         stats.admitted == stats.completed + stats.dropped_lost +
                               static_cast<std::uint64_t>(outstanding);
}

void ServeSloOracle::check(const StackView& view,
                           std::vector<Violation>& out) {
  if (view.cloud == nullptr || view.cloud->serving() == nullptr) return;
  const Seconds at = checkpoint_time(view);
  const serve::ServeLayer& layer = *view.cloud->serving();
  const serve::ServeStats& s = layer.stats();

  if (!serve_books_balance(s, layer.outstanding())) {
    out.push_back(Violation{
        name(),
        "request books out of balance: generated=" +
            std::to_string(s.generated) +
            " admitted=" + std::to_string(s.admitted) +
            " completed=" + std::to_string(s.completed) +
            " dropped_overload=" + std::to_string(s.dropped_overload) +
            " dropped_unroutable=" + std::to_string(s.dropped_unroutable) +
            " dropped_lost=" + std::to_string(s.dropped_lost) +
            " outstanding=" + std::to_string(layer.outstanding()),
        at});
  }

  // A request can violate at most one SLO, and only admitted requests
  // carry one; the critical tally is a subset of the total.
  if (s.slo_violations > s.admitted) {
    out.push_back(Violation{
        name(),
        "more SLO violations (" + std::to_string(s.slo_violations) +
            ") than admitted requests (" + std::to_string(s.admitted) + ")",
        at});
  }
  if (s.slo_violations_critical > s.slo_violations) {
    out.push_back(Violation{
        name(),
        "critical SLO violations (" +
            std::to_string(s.slo_violations_critical) +
            ") exceed the total tally (" + std::to_string(s.slo_violations) +
            ")",
        at});
  }

  // Every serving counter is cumulative; none may ever step backwards.
  const auto monotone = [&](const char* field, std::uint64_t prev,
                            std::uint64_t cur) {
    if (cur < prev) {
      out.push_back(Violation{
          name(), std::string("counter '") + field + "' decreased: " +
                      std::to_string(prev) + " -> " + std::to_string(cur),
          at});
    }
  };
  monotone("generated", last_.generated, s.generated);
  monotone("admitted", last_.admitted, s.admitted);
  monotone("completed", last_.completed, s.completed);
  monotone("dropped_overload", last_.dropped_overload, s.dropped_overload);
  monotone("dropped_unroutable", last_.dropped_unroutable,
           s.dropped_unroutable);
  monotone("dropped_lost", last_.dropped_lost, s.dropped_lost);
  monotone("slo_violations", last_.slo_violations, s.slo_violations);
  monotone("slo_violations_critical", last_.slo_violations_critical,
           s.slo_violations_critical);
  monotone("stalls", last_.stalls, s.stalls);
  last_ = s;
}

std::vector<std::unique_ptr<Oracle>> default_oracles() {
  std::vector<std::unique_ptr<Oracle>> oracles;
  oracles.push_back(std::make_unique<VmConservationOracle>());
  oracles.push_back(std::make_unique<EnergyBalanceOracle>());
  oracles.push_back(std::make_unique<MonotoneTimeOracle>());
  oracles.push_back(std::make_unique<EopSafetyOracle>());
  oracles.push_back(std::make_unique<TelemetryConsistencyOracle>());
  oracles.push_back(std::make_unique<MigrationConservationOracle>());
  oracles.push_back(std::make_unique<MigrationEnergyOracle>());
  oracles.push_back(std::make_unique<ServeSloOracle>());
  return oracles;
}

}  // namespace uniserver::fuzz
