#include "core/placement.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>

#include "common/string_util.h"
#include "telemetry/types.h"

namespace cloudsurv::core {

namespace {

using telemetry::kSecondsPerDay;
using telemetry::SloLadder;
using telemetry::Timestamp;

enum class ReplayEventKind { kRelease = 0, kResize = 1, kPlace = 2 };

struct ReplayEvent {
  Timestamp ts;
  ReplayEventKind kind;
  telemetry::DatabaseId db;
  int dtus = 0;       ///< For kPlace: initial DTUs. For kResize: new DTUs.
  /// For kRelease: true when the tenant really dropped inside the
  /// window (vs the synthetic end-of-window release of a survivor).
  bool observed_drop = false;
};

/// Builds the chronologically sorted create/resize/release stream the
/// replay walks. Ordering at equal timestamps: one database's own
/// lifecycle stays causal (place, resize, release — zero-lifetime
/// databases drop in the second they are created); across databases,
/// capacity is freed before new placements consume it.
std::vector<ReplayEvent> BuildReplayEvents(
    const telemetry::TelemetryStore& store) {
  std::vector<ReplayEvent> events;
  for (const auto& record : store.databases()) {
    ReplayEvent place;
    place.ts = record.created_at;
    place.kind = ReplayEventKind::kPlace;
    place.db = record.id;
    place.dtus = SloLadder()[record.initial_slo_index].dtus;
    events.push_back(place);
    for (const auto& change : record.slo_changes) {
      if (change.timestamp >= store.window_end()) continue;
      ReplayEvent resize;
      resize.ts = change.timestamp;
      resize.kind = ReplayEventKind::kResize;
      resize.db = record.id;
      resize.dtus = SloLadder()[change.new_slo_index].dtus;
      events.push_back(resize);
    }
    ReplayEvent release;
    release.ts = record.dropped_at.has_value()
                     ? std::min(*record.dropped_at, store.window_end())
                     : store.window_end();
    release.kind = ReplayEventKind::kRelease;
    release.db = record.id;
    release.observed_drop =
        record.dropped_at.has_value() && *record.dropped_at <= store.window_end();
    events.push_back(release);
  }
  std::sort(events.begin(), events.end(),
            [](const ReplayEvent& a, const ReplayEvent& b) {
              if (a.ts != b.ts) return a.ts < b.ts;
              if (a.db == b.db) {
                return static_cast<int>(a.kind) > static_cast<int>(b.kind);
              }
              if (a.kind != b.kind) {
                return static_cast<int>(a.kind) < static_cast<int>(b.kind);
              }
              return a.db < b.db;
            });
  return events;
}

/// Converts a `DeploymentConfig` period to whole seconds. The product is
/// checked in double before the cast: a value that is not finite, under
/// one second (the rollout grid could never advance) or past int64
/// range is rejected.
Result<int64_t> PeriodSeconds(double days, const char* name) {
  constexpr double kInt64Limit = 9223372036854775808.0;  // 2^63
  const double seconds = days * static_cast<double>(kSecondsPerDay);
  if (!std::isfinite(seconds) || seconds < 1.0 || seconds >= kInt64Limit) {
    char message[160];
    std::snprintf(message, sizeof(message),
                  "%s must be at least one second and under 2^63 "
                  "seconds, got %g days",
                  name, days);
    return Status::InvalidArgument(message);
  }
  return static_cast<int64_t>(seconds);
}

}  // namespace

std::string DeploymentReport::ToString() const {
  std::string out =
      "databases=" + std::to_string(num_databases) +
      " placements=" + std::to_string(placements) +
      " rejected=" + std::to_string(rejected) +
      " moves=" + std::to_string(moves) +
      " spillovers=" + std::to_string(spillovers) +
      " disruptions=" + std::to_string(disruptions) +
      " avoided=" + std::to_string(avoided_disruptions) +
      " transparent=" + std::to_string(transparent_disruptions) +
      " sla_violations=" + std::to_string(sla_violations) +
      " node_days=" + FormatDouble(node_days, 1) +
      " infra_cost=" + FormatDouble(infra_cost, 2) +
      " ops_cost=" + FormatDouble(ops_cost, 2) +
      " total_cost=" + FormatDouble(total_cost, 2) +
      " mean_fragmentation=" + FormatDouble(mean_fragmentation, 3);
  return out;
}

std::string DeploymentReport::ToJson() const {
  std::string out = "{";
  out += "\"num_databases\": " + std::to_string(num_databases);
  out += ", \"placements\": " + std::to_string(placements);
  out += ", \"rejected\": " + std::to_string(rejected);
  out += ", \"moves\": " + std::to_string(moves);
  out += ", \"spillovers\": " + std::to_string(spillovers);
  out += ", \"disruptions\": " + std::to_string(disruptions);
  out += ", \"avoided_disruptions\": " + std::to_string(avoided_disruptions);
  out += ", \"transparent_disruptions\": " +
         std::to_string(transparent_disruptions);
  out += ", \"sla_violations\": " + std::to_string(sla_violations);
  out += ", \"node_days\": " + FormatDouble(node_days, 3);
  out += ", \"infra_cost\": " + FormatDouble(infra_cost, 2);
  out += ", \"ops_cost\": " + FormatDouble(ops_cost, 2);
  out += ", \"total_cost\": " + FormatDouble(total_cost, 2);
  out += ", \"mean_fragmentation\": " + FormatDouble(mean_fragmentation, 4);
  out += ", \"per_architecture\": [";
  for (size_t i = 0; i < per_architecture.size(); ++i) {
    const ArchitectureUsage& u = per_architecture[i];
    if (i > 0) out += ", ";
    out += "{\"name\": \"" + u.name + "\"";
    out += ", \"placements\": " + std::to_string(u.placements);
    out += ", \"nodes_used\": " + std::to_string(u.nodes_used);
    out += ", \"peak_active_nodes\": " + std::to_string(u.peak_active_nodes);
    out += ", \"node_days\": " + FormatDouble(u.node_days, 3);
    out += ", \"infra_cost\": " + FormatDouble(u.infra_cost, 2);
    out += ", \"ops_cost\": " + FormatDouble(u.ops_cost, 2);
    out += ", \"mean_fragmentation\": " + FormatDouble(u.mean_fragmentation, 4);
    out += "}";
  }
  out += "]}";
  return out;
}

namespace {

struct DeployNode {
  int free_dtus = 0;
  int tenants = 0;
};

struct ArchFleet {
  std::vector<DeployNode> nodes;
  size_t active = 0;       ///< Non-empty nodes right now.
  int64_t occupied = 0;    ///< Occupied DTUs right now.
  double node_seconds = 0.0;
  double frag_weighted = 0.0;
  double active_seconds = 0.0;
};

struct DeployedTenant {
  size_t arch = 0;
  size_t node = 0;
  int dtus = 0;
  Timestamp created = 0;
};

}  // namespace

Result<DeploymentReport> SimulateDeployment(
    const telemetry::TelemetryStore& store,
    const ArchitectureAssignmentPlan& plan,
    const ArchitectureCatalog& catalog, const DeploymentConfig& config) {
  if (!store.finalized()) {
    return Status::FailedPrecondition("store is not finalized");
  }
  CLOUDSURV_ASSIGN_OR_RETURN(
      const int64_t interval_s,
      PeriodSeconds(config.maintenance_interval_days,
                    "maintenance_interval_days"));
  CLOUDSURV_ASSIGN_OR_RETURN(
      const int64_t grace_s,
      PeriodSeconds(config.stale_grace_days, "stale_grace_days"));
  if (catalog.size() == 0) {
    return Status::InvalidArgument("catalog is empty");
  }
  if (plan.default_index >= catalog.size()) {
    return Status::InvalidArgument("plan default_index out of range");
  }
  for (const auto& [db, arch] : plan.assignments) {
    if (arch >= catalog.size()) {
      return Status::InvalidArgument(
          "plan assigns database " + std::to_string(db) +
          " to architecture index " + std::to_string(arch) +
          ", catalog has " + std::to_string(catalog.size()));
    }
  }

  DeploymentReport report;
  report.num_databases = store.num_databases();
  report.per_architecture.resize(catalog.size());
  for (size_t a = 0; a < catalog.size(); ++a) {
    report.per_architecture[a].name = catalog.at(a).name();
  }

  const Timestamp window_start = store.window_start();
  const Timestamp window_end = store.window_end();
  // Rollouts at window_start + k * interval_s inside the window. The
  // comparison against the remaining window keeps a huge interval from
  // overflowing the timestamp.
  std::vector<Timestamp> rollouts;
  for (Timestamp t = window_start; interval_s < window_end - t;) {
    t += interval_s;
    rollouts.push_back(t);
  }

  std::vector<ArchFleet> fleets(catalog.size());
  // Ordered map so rollout sweeps (and their floating-point cost sums)
  // visit tenants in a platform-independent order.
  std::map<telemetry::DatabaseId, DeployedTenant> tenants;
  double global_frag_weighted = 0.0;
  double global_active_seconds = 0.0;
  Timestamp prev_ts = window_start;

  auto advance_time = [&](Timestamp to) {
    if (to <= prev_ts) return;
    const double dt = static_cast<double>(to - prev_ts);
    double total_capacity = 0.0;
    double total_occupied = 0.0;
    for (size_t a = 0; a < fleets.size(); ++a) {
      ArchFleet& fleet = fleets[a];
      if (fleet.active == 0) continue;
      const double capacity =
          static_cast<double>(fleet.active) *
          static_cast<double>(catalog.at(a).node_capacity_dtus());
      fleet.node_seconds += static_cast<double>(fleet.active) * dt;
      fleet.frag_weighted +=
          (capacity - static_cast<double>(fleet.occupied)) / capacity * dt;
      fleet.active_seconds += dt;
      total_capacity += capacity;
      total_occupied += static_cast<double>(fleet.occupied);
    }
    if (total_capacity > 0.0) {
      global_frag_weighted +=
          (total_capacity - total_occupied) / total_capacity * dt;
      global_active_seconds += dt;
    }
    prev_ts = to;
  };

  // Places `dtus` for `db`, cascading preferred -> default -> first
  // fitting tier. Returns false when no architecture's node can ever
  // host the SLO.
  auto place_tenant = [&](telemetry::DatabaseId db, int dtus,
                          Timestamp created, size_t preferred) {
    size_t arch = catalog.size();
    for (size_t candidate :
         {preferred, plan.default_index}) {
      if (catalog.at(candidate).node_capacity_dtus() >= dtus) {
        arch = candidate;
        break;
      }
    }
    if (arch == catalog.size()) {
      for (size_t a = 0; a < catalog.size(); ++a) {
        if (catalog.at(a).node_capacity_dtus() >= dtus) {
          arch = a;
          break;
        }
      }
    }
    if (arch == catalog.size()) return false;
    if (arch != preferred) ++report.spillovers;
    ArchFleet& fleet = fleets[arch];
    size_t chosen = fleet.nodes.size();
    for (size_t n = 0; n < fleet.nodes.size(); ++n) {
      if (fleet.nodes[n].free_dtus >= dtus) {
        chosen = n;
        break;
      }
    }
    if (chosen == fleet.nodes.size()) {
      DeployNode fresh;
      fresh.free_dtus = catalog.at(arch).node_capacity_dtus();
      fleet.nodes.push_back(fresh);
      ++report.per_architecture[arch].nodes_used;
    }
    DeployNode& node = fleet.nodes[chosen];
    if (node.tenants == 0) {
      ++fleet.active;
      report.per_architecture[arch].peak_active_nodes = std::max(
          report.per_architecture[arch].peak_active_nodes, fleet.active);
    }
    node.free_dtus -= dtus;
    node.tenants += 1;
    fleet.occupied += dtus;
    report.per_architecture[arch].ops_cost += catalog.at(arch).attach_cost();
    tenants[db] = DeployedTenant{arch, chosen, dtus, created};
    return true;
  };

  auto detach_tenant = [&](std::map<telemetry::DatabaseId,
                                    DeployedTenant>::iterator it) {
    const DeployedTenant& tenant = it->second;
    ArchFleet& fleet = fleets[tenant.arch];
    DeployNode& node = fleet.nodes[tenant.node];
    node.free_dtus += tenant.dtus;
    node.tenants -= 1;
    if (node.tenants == 0) --fleet.active;
    fleet.occupied -= tenant.dtus;
    tenants.erase(it);
  };

  auto do_rollout = [&](Timestamp ts) {
    for (const auto& [db, tenant] : tenants) {
      const Architecture& arch = catalog.at(tenant.arch);
      if (arch.defers_maintenance()) {
        // An alive tenant was created at or before `ts`, so the age
        // cannot overflow where `created + grace_s` could.
        if (ts - tenant.created < grace_s) {
          ++report.avoided_disruptions;
          continue;
        }
        // Past the grace period the rollout force-updates the tenant.
        ++report.disruptions;
        ++report.sla_violations;
      } else if (arch.transparent_maintenance()) {
        ++report.transparent_disruptions;
      } else {
        ++report.disruptions;
        ++report.sla_violations;
      }
      report.per_architecture[tenant.arch].ops_cost +=
          arch.DisruptionCost(tenant.dtus);
    }
  };

  const std::vector<ReplayEvent> events = BuildReplayEvents(store);
  size_t next_rollout = 0;
  for (const ReplayEvent& event : events) {
    while (next_rollout < rollouts.size() &&
           rollouts[next_rollout] < event.ts) {
      advance_time(rollouts[next_rollout]);
      do_rollout(rollouts[next_rollout]);
      ++next_rollout;
    }
    advance_time(event.ts);

    switch (event.kind) {
      case ReplayEventKind::kPlace: {
        const size_t preferred = plan.ArchitectureOf(event.db);
        if (place_tenant(event.db, event.dtus, event.ts, preferred)) {
          ++report.placements;
          ++report.per_architecture[tenants[event.db].arch].placements;
        } else {
          ++report.rejected;
          ++report.sla_violations;
        }
        break;
      }
      case ReplayEventKind::kResize: {
        auto it = tenants.find(event.db);
        if (it == tenants.end()) break;
        DeployedTenant& tenant = it->second;
        ArchFleet& fleet = fleets[tenant.arch];
        DeployNode& node = fleet.nodes[tenant.node];
        const int delta = event.dtus - tenant.dtus;
        if (delta <= node.free_dtus) {
          node.free_dtus -= delta;
          fleet.occupied += delta;
          tenant.dtus = event.dtus;
          break;
        }
        // The grow no longer fits: relocate (tenant-visible).
        const Timestamp created = tenant.created;
        const size_t old_arch = tenant.arch;
        report.per_architecture[old_arch].ops_cost +=
            catalog.at(old_arch).detach_cost();
        detach_tenant(it);
        if (place_tenant(event.db, event.dtus, created,
                         plan.ArchitectureOf(event.db))) {
          ++report.moves;
          ++report.sla_violations;
        } else {
          ++report.rejected;
          ++report.sla_violations;
        }
        break;
      }
      case ReplayEventKind::kRelease: {
        auto it = tenants.find(event.db);
        if (it == tenants.end()) break;
        // Survivors released at window end are an accounting artifact,
        // not a real departure — no detach work is charged for them.
        if (event.observed_drop) {
          report.per_architecture[it->second.arch].ops_cost +=
              catalog.at(it->second.arch).detach_cost();
        }
        detach_tenant(it);
        break;
      }
    }
  }
  while (next_rollout < rollouts.size()) {
    advance_time(rollouts[next_rollout]);
    do_rollout(rollouts[next_rollout]);
    ++next_rollout;
  }

  for (size_t a = 0; a < catalog.size(); ++a) {
    ArchitectureUsage& usage = report.per_architecture[a];
    usage.node_days =
        fleets[a].node_seconds / static_cast<double>(kSecondsPerDay);
    usage.infra_cost = usage.node_days * catalog.at(a).node_price_per_day();
    usage.mean_fragmentation =
        fleets[a].active_seconds > 0.0
            ? fleets[a].frag_weighted / fleets[a].active_seconds
            : 0.0;
    report.node_days += usage.node_days;
    report.infra_cost += usage.infra_cost;
    report.ops_cost += usage.ops_cost;
  }
  report.total_cost = report.infra_cost + report.ops_cost;
  report.mean_fragmentation =
      global_active_seconds > 0.0
          ? global_frag_weighted / global_active_seconds
          : 0.0;
  return report;
}

}  // namespace cloudsurv::core
