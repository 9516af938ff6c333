// Pipeline benchmark harness.
//
// Drives one seeded workload through the public cloudsurv API —
// simulator -> serving (ScoringEngine) -> telemetry -> features -> ml ->
// core (train, assess, place) — and prints one raw JSON document as the
// last line of stdout. `run.py` turns that document into the metrics the
// benchmark reports; all percentile, median and self-time arithmetic
// lives there (pbstats.py), so this file only measures and checks.
//
// Rules that keep the numbers steady (see README.md for the measured
// noise behind each one):
//  * every thread count is fixed here: 2 pool workers per engine, 2
//    training threads, and no pool on AssessMany;
//  * load generation happens before set-up and is never timed;
//  * an untimed warm-up runs first, so one-time lazy set-up (registry
//    series, thread start, cold code) stays out of the timed window;
//  * the timed window is repeated until `--seconds` of it were measured,
//    and set-up is sampled several times, so run.py reports medians.

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "core/architecture.h"
#include "core/placement.h"
#include "core/prediction.h"
#include "core/provisioning.h"
#include "core/service.h"
#include "ml/flat_forest.h"
#include "obs/metrics.h"
#include "serving/scoring_engine.h"
#include "simulator/archetypes.h"
#include "simulator/region.h"
#include "simulator/stream.h"
#include "telemetry/civil_time.h"
#include "telemetry/events.h"
#include "telemetry/store.h"

namespace {

using namespace cloudsurv;
using Clock = std::chrono::steady_clock;
using telemetry::DatabaseId;
using telemetry::Event;
using telemetry::Timestamp;

constexpr size_t kPoolWorkers = 2;
constexpr int kTrainThreads = 2;
constexpr size_t kShards = 16;
constexpr int kMinReps = 3;
constexpr int kMaxReps = 40;
constexpr int kMinSetupSamples = 7;
constexpr int kWarmupDays = 5;
constexpr size_t kStreamModelSubs = 1000;
constexpr size_t kChurnSubsPerRegion = 6000;
constexpr double kLongDays = 30.0;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double CpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Num(uint64_t v) { return std::to_string(v); }

// ---------------------------------------------------------------------
// Spans: kept in memory during the traced replay, written as JSON lines
// at exit. A span's parent is the innermost span open when it began.

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(std::string name) {
    const int id = static_cast<int>(spans_.size());
    Span span;
    span.name = std::move(name);
    span.parent = open_.empty() ? -1 : open_.back();
    span.start_ns = NowNs();
    spans_.push_back(std::move(span));
    open_.push_back(id);
    return id;
  }

  void End(int id, uint64_t items) {
    spans_[static_cast<size_t>(id)].end_ns = NowNs();
    spans_[static_cast<size_t>(id)].items = items;
    if (!open_.empty() && open_.back() == id) open_.pop_back();
  }

  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %" PRId64
                   ", \"end_ns\": %" PRId64 ", \"parent\": %d, \"items\": %" PRIu64
                   "}\n",
                   i, s.name.c_str(), s.start_ns, s.end_ns, s.parent, s.items);
    }
    return std::fclose(f) == 0;
  }

 private:
  struct Span {
    std::string name;
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int parent = -1;
    uint64_t items = 0;
  };

  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                origin_)
        .count();
  }

  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op when `tracer` is null (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(uint64_t n) { items_ = n; }

 private:
  Tracer* tracer_;
  int id_;
  uint64_t items_ = 0;
};

// ---------------------------------------------------------------------
// Registry snapshots: per metric family (summed over label sets), the
// counter value, histogram sample count and sum, or gauge level.

struct FamilyTotals {
  bool gauge = false;
  double value = 0.0;
  double count = 0.0;
  double sum = 0.0;
};
using RegistrySnapshot = std::map<std::string, FamilyTotals>;

RegistrySnapshot SnapshotRegistry() {
  RegistrySnapshot snap;
  for (const obs::SeriesRef& s : obs::Registry::Default().Series()) {
    FamilyTotals& t = snap[s.name];
    switch (s.type) {
      case obs::MetricType::kCounter:
        t.value += static_cast<double>(s.counter->Value());
        break;
      case obs::MetricType::kGauge:
        t.gauge = true;
        t.value += s.gauge->Value();
        break;
      case obs::MetricType::kHistogram:
        t.count += static_cast<double>(s.histogram->Count());
        t.sum += s.histogram->Sum();
        break;
    }
  }
  return snap;
}

/// {"family": {"value": d, "count": d, "sum": d}, ...} of after - before
/// (gauges report their level at `after`).
std::string RegistryDeltaJson(const RegistrySnapshot& before,
                              const RegistrySnapshot& after) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, a] : after) {
    FamilyTotals b;
    if (auto it = before.find(name); it != before.end()) b = it->second;
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " +
           Num(a.gauge ? a.value : a.value - b.value) +
           ", \"count\": " + Num(a.count - b.count) +
           ", \"sum\": " + Num(a.sum - b.sum) + "}";
  }
  return out + "}";
}

double ResidentBytes() {
  return telemetry::columnar::GlobalMetrics().resident_bytes->Value();
}

/// Prints each phase's wall time to stderr, so the cost of a run outside
/// its timed window stays visible.
class PhaseLog {
 public:
  void Mark(const char* phase) {
    const auto now = Clock::now();
    std::fprintf(stderr, "pipebench: %-16s %7.2f s\n", phase,
                 SecondsBetween(last_, now));
    last_ = now;
  }

 private:
  Clock::time_point last_ = Clock::now();
};

// ---------------------------------------------------------------------
// Arguments

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value, &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value, &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return false;
      }
      args->trace = value[0] == '1';
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !args->workload.empty();
}

// ---------------------------------------------------------------------
// Generation (harness work, never timed by a metric)

struct RegionInput {
  simulator::RegionConfig config;
  std::vector<std::vector<Event>> partitions;
  std::vector<Timestamp> partition_end;
  uint64_t events = 0;
};

Result<RegionInput> GenerateRegion(const simulator::RegionConfig& config,
                                   int64_t partition_seconds, Tracer* tracer) {
  ScopedSpan span(tracer, "simulator.generate");
  RegionInput input;
  input.config = config;
  simulator::StreamOptions options;
  options.partition_seconds = partition_seconds;
  CLOUDSURV_ASSIGN_OR_RETURN(simulator::RegionEventStream stream,
                             simulator::RegionEventStream::Open(config, options));
  while (!stream.Done()) {
    simulator::RegionEventStream::Partition part = stream.NextPartition();
    input.events += part.events.size();
    input.partition_end.push_back(part.end);
    input.partitions.push_back(std::move(part.events));
  }
  span.set_items(input.events);
  return input;
}

std::vector<std::vector<Event>> CopyPartitions(const RegionInput& input,
                                               size_t limit) {
  const size_t n = std::min(limit, input.partitions.size());
  return std::vector<std::vector<Event>>(input.partitions.begin(),
                                         input.partitions.begin() +
                                             static_cast<std::ptrdiff_t>(n));
}

/// Reserve + AppendEvents per partition, then Finalize — the store
/// build that plan-offline times as set-up and stream-churn uses as the
/// check's reference.
Result<telemetry::TelemetryStore> BuildStore(
    const simulator::RegionConfig& config,
    std::vector<std::vector<Event>> partitions, Tracer* tracer) {
  telemetry::TelemetryStore store(config.name, config.utc_offset_minutes,
                                  config.holidays, config.window_start,
                                  config.window_end);
  for (std::vector<Event>& part : partitions) {
    ScopedSpan span(tracer, "telemetry.append");
    span.set_items(part.size());
    store.Reserve(part.size());
    CLOUDSURV_RETURN_NOT_OK(store.AppendEvents(std::move(part)));
  }
  {
    ScopedSpan span(tracer, "telemetry.finalize");
    CLOUDSURV_RETURN_NOT_OK(store.Finalize());
  }
  return store;
}

// ---------------------------------------------------------------------
// Decisions, labels and placement shared by both workload kinds

struct Decision {
  DatabaseId id = 0;
  int label = 0;
  uint64_t prob_bits = 0;
  bool confident = false;

  bool operator==(const Decision& o) const {
    return id == o.id && label == o.label && prob_bits == o.prob_bits &&
           confident == o.confident;
  }
};

Decision MakeDecision(DatabaseId id,
                      const core::LongevityService::Assessment& a) {
  Decision d;
  d.id = id;
  d.label = a.predicted_label;
  std::memcpy(&d.prob_bits, &a.positive_probability, sizeof(d.prob_bits));
  d.confident = a.confident;
  return d;
}

struct Accuracy {
  uint64_t labelled = 0;
  uint64_t correct = 0;
};

/// True lifespan of `record` if it is determinable at window end: the
/// database was dropped inside the window, or it outlived the 30-day
/// threshold while still alive.
std::optional<int> TrueLabel(const telemetry::TelemetryStore& store,
                             const telemetry::DatabaseRecord& record) {
  const bool dropped = record.dropped_at.has_value() &&
                       *record.dropped_at <= store.window_end();
  const double days = record.ObservedLifespanDays(store.window_end());
  if (!dropped && days <= kLongDays) return std::nullopt;
  return days > kLongDays ? 1 : 0;
}

core::PredictionOutcome MakeOutcome(const telemetry::TelemetryStore& store,
                                    const telemetry::DatabaseRecord& record,
                                    const Decision& d, double probability) {
  core::PredictionOutcome o;
  o.id = record.id;
  o.predicted_label = d.label;
  o.positive_probability = probability;
  o.confident = d.confident;
  o.duration_days = record.ObservedLifespanDays(store.window_end());
  o.observed = record.dropped_at.has_value() &&
               *record.dropped_at <= store.window_end();
  o.true_label = o.duration_days > kLongDays ? 1 : 0;
  return o;
}

struct PolicyTotals {
  double total_cost = 0.0;
  uint64_t sla_violations = 0;
  uint64_t placements = 0;
  uint64_t rejected = 0;
  uint64_t databases = 0;
  uint64_t inconsistent = 0;  ///< Reports breaking an accounting identity.
};

Status PlaceAndReplay(const telemetry::TelemetryStore& store,
                      const std::vector<core::PredictionOutcome>& outcomes,
                      const char* policy_name, Tracer* tracer,
                      PolicyTotals* totals) {
  const core::ArchitectureCatalog catalog =
      core::ArchitectureCatalog::Default();
  std::unique_ptr<core::PlacementPolicy> policy =
      core::MakePlacementPolicy(policy_name);
  if (policy == nullptr) return Status::InvalidArgument(policy_name);
  std::optional<core::ArchitectureAssignmentPlan> plan;
  {
    ScopedSpan span(tracer, "core.place.assign");
    CLOUDSURV_ASSIGN_OR_RETURN(plan, policy->Assign(store, outcomes, catalog));
  }
  ScopedSpan span(tracer, "core.place.replay");
  CLOUDSURV_ASSIGN_OR_RETURN(
      core::DeploymentReport report,
      core::SimulateDeployment(store, *plan, catalog, core::DeploymentConfig()));
  span.set_items(report.num_databases);
  totals->total_cost += report.total_cost;
  totals->sla_violations += report.sla_violations;
  totals->placements += report.placements;
  totals->rejected += report.rejected;
  totals->databases += report.num_databases;
  if (report.placements + report.rejected != report.num_databases ||
      report.num_databases != store.num_databases() ||
      report.total_cost != report.infra_cost + report.ops_cost) {
    ++totals->inconsistent;
  }
  return Status::OK();
}

std::string PolicyJson(const PolicyTotals& t) {
  return "{\"total_cost\": " + Num(t.total_cost) +
         ", \"sla_violations\": " + Num(t.sla_violations) +
         ", \"placements\": " + Num(t.placements) +
         ", \"rejected\": " + Num(t.rejected) +
         ", \"databases\": " + Num(t.databases) +
         ", \"inconsistent\": " + Num(t.inconsistent) + "}";
}

/// Failure accounting: operations attempted and operations failed.
struct Ledger {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;

  void Fail(uint64_t n, std::string why) {
    if (n == 0) return;
    failed += n;
    notes.push_back(std::to_string(n) + " " + why);
  }
};

std::string NotesJson(const Ledger& ledger) {
  std::string out = "[";
  for (size_t i = 0; i < ledger.notes.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ledger.notes[i] + "\"";
  }
  return out + "]";
}

core::LongevityService::Options TrainOptions(uint64_t seed) {
  core::LongevityService::Options options;
  options.forest_params.num_threads = kTrainThreads;
  options.seed = seed;
  return options;
}

bool EnoughMeasured(int reps, double measured_s, double seconds) {
  return reps >= kMaxReps || (reps >= kMinReps && measured_s >= seconds);
}

std::string JoinNums(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ", ";
    out += Num(v[i]);
  }
  return out + "]";
}

// ---------------------------------------------------------------------
// stream-churn: one ScoringEngine per region, fed a simulated day at a
// time by one closed-loop thread that polls at each day's end. Every
// region uses an automation-only mix, so most tracked databases drop
// before they mature.

simulator::ArchetypeMix AutomationOnlyMix() {
  simulator::ArchetypeMix mix;
  mix.weights.fill(0.0);
  mix.weights[static_cast<size_t>(simulator::Archetype::kCiEphemeralBot)] = 0.35;
  mix.weights[static_cast<size_t>(simulator::Archetype::kDevTestCycler)] = 0.45;
  mix.weights[static_cast<size_t>(simulator::Archetype::kBatchRefresher)] = 0.20;
  return mix;
}

struct Engines {
  std::shared_ptr<const core::LongevityService> model;
  std::vector<std::unique_ptr<serving::ScoringEngine>> engines;
};

/// The system's own set-up: load the packed model, then construct and
/// publish one engine per region.
Result<Engines> SetUpEngines(const std::vector<RegionInput>& regions,
                             const std::string& artifact_path,
                             size_t workers, Tracer* tracer) {
  Engines out;
  {
    ScopedSpan span(tracer, "artifact.load");
    CLOUDSURV_ASSIGN_OR_RETURN(core::LongevityService loaded,
                               core::LongevityService::LoadArtifact(artifact_path));
    out.model = std::make_shared<const core::LongevityService>(std::move(loaded));
  }
  for (const RegionInput& region : regions) {
    const simulator::RegionConfig& c = region.config;
    serving::RegionContext ctx;
    ctx.region_name = c.name;
    ctx.utc_offset_minutes = c.utc_offset_minutes;
    ctx.holidays = c.holidays;
    ctx.window_start = c.window_start;
    ctx.window_end = c.window_end;
    serving::ScoringEngine::Options options;
    options.num_threads = workers;
    options.num_shards = kShards;
    options.observe_days = out.model->options().observe_days;
    auto engine = std::make_unique<serving::ScoringEngine>(ctx, options);
    CLOUDSURV_RETURN_NOT_OK(
        engine->registry().Publish("pipebench", out.model).status());
    out.engines.push_back(std::move(engine));
  }
  return out;
}

struct ReplayResult {
  double setup_s = 0.0;
  double job_s = 0.0;
  double cpu_s = 0.0;
  uint64_t events = 0;
  uint64_t rejected = 0;
  double poll_busy_s = 0.0;
  /// (Poll wall time in ms, decisions it returned), Poll only.
  std::vector<std::pair<double, uint64_t>> polls;
  uint64_t drain_decisions = 0;
  /// Per region, sorted by database id (Poll and Drain).
  std::vector<std::vector<Decision>> decisions;
  uint64_t tracked = 0, cancelled = 0, scored = 0, skipped = 0;
  uint64_t direct_reads = 0;
  double resident_bytes = 0.0;
  std::string setup_delta = "{}";
  std::string window_delta = "{}";
};

/// One replay: copy the inputs (untimed), set up (timed as set-up),
/// then ingest/poll every day and drain (the timed window).
Result<ReplayResult> Replay(const std::vector<RegionInput>& regions,
                            const std::string& artifact_path, size_t workers,
                            size_t max_days, Tracer* tracer,
                            bool keep_decisions) {
  std::vector<std::vector<std::vector<Event>>> inputs;
  for (const RegionInput& region : regions) {
    inputs.push_back(CopyPartitions(region, max_days));
  }
  ReplayResult result;
  const RegistrySnapshot reg0 = tracer ? SnapshotRegistry() : RegistrySnapshot();
  const auto s0 = Clock::now();
  CLOUDSURV_ASSIGN_OR_RETURN(Engines set,
                             SetUpEngines(regions, artifact_path, workers, tracer));
  result.setup_s = SecondsBetween(s0, Clock::now());
  const RegistrySnapshot reg1 = tracer ? SnapshotRegistry() : RegistrySnapshot();

  result.decisions.resize(regions.size());
  const double c0 = CpuSeconds();
  const auto t0 = Clock::now();
  {
    ScopedSpan job(tracer, "job");
    size_t days = 0;
    for (const auto& region : inputs) days = std::max(days, region.size());
    for (size_t day = 0; day < days; ++day) {
      for (size_t r = 0; r < regions.size(); ++r) {
        if (day >= inputs[r].size()) continue;
        serving::ScoringEngine& engine = *set.engines[r];
        std::vector<Event>& batch = inputs[r][day];
        {
          ScopedSpan span(tracer, "serving.ingest");
          span.set_items(batch.size());
          for (Event& event : batch) {
            if (!engine.Ingest(std::move(event)).ok()) ++result.rejected;
          }
        }
        result.events += batch.size();
        std::vector<serving::ScoredDatabase> polled;
        const auto p0 = Clock::now();
        {
          ScopedSpan span(tracer, "serving.poll");
          CLOUDSURV_ASSIGN_OR_RETURN(polled,
                                     engine.Poll(regions[r].partition_end[day]));
          span.set_items(polled.size());
        }
        const double poll_s = SecondsBetween(p0, Clock::now());
        result.poll_busy_s += poll_s;
        result.polls.emplace_back(1e3 * poll_s, polled.size());
        if (keep_decisions) {
          for (const serving::ScoredDatabase& s : polled) {
            result.decisions[r].push_back(MakeDecision(s.database_id, s.assessment));
          }
        }
      }
    }
    for (size_t r = 0; r < regions.size(); ++r) {
      ScopedSpan span(tracer, "serving.drain");
      CLOUDSURV_ASSIGN_OR_RETURN(std::vector<serving::ScoredDatabase> rest,
                                 set.engines[r]->Drain());
      span.set_items(rest.size());
      result.drain_decisions += rest.size();
      if (keep_decisions) {
        for (const serving::ScoredDatabase& s : rest) {
          result.decisions[r].push_back(MakeDecision(s.database_id, s.assessment));
        }
      }
    }
  }
  result.job_s = SecondsBetween(t0, Clock::now());
  result.cpu_s = CpuSeconds() - c0;
  result.resident_bytes = ResidentBytes();
  if (tracer != nullptr) {
    const RegistrySnapshot reg2 = SnapshotRegistry();
    result.setup_delta = RegistryDeltaJson(reg0, reg1);
    result.window_delta = RegistryDeltaJson(reg1, reg2);
  }
  for (auto& d : result.decisions) {
    std::sort(d.begin(), d.end(),
              [](const Decision& a, const Decision& b) { return a.id < b.id; });
  }
  for (const auto& engine : set.engines) {
    const serving::EngineMetrics m = engine->Metrics();
    result.tracked += m.databases_tracked;
    result.cancelled += m.databases_cancelled;
    result.scored += m.databases_scored;
    result.skipped += m.databases_skipped;
    result.direct_reads += m.direct_read_batches;
  }
  return result;
}

/// Checks every streamed decision of one region against AssessMany on
/// a harness store built from the same events, then scores accuracy and
/// prices naive vs longevity placement of those decisions.
Status CheckRegion(const RegionInput& region,
                   const core::LongevityService& model,
                   const std::vector<Decision>& streamed, Tracer* tracer,
                   Ledger* ledger, Accuracy* accuracy, PolicyTotals* naive,
                   PolicyTotals* longevity) {
  CLOUDSURV_ASSIGN_OR_RETURN(
      telemetry::TelemetryStore store,
      BuildStore(region.config, CopyPartitions(region, SIZE_MAX), tracer));
  std::vector<DatabaseId> ids;
  ids.reserve(store.num_databases());
  for (const auto& record : store.databases()) ids.push_back(record.id);
  std::optional<std::vector<std::optional<core::LongevityService::Assessment>>>
      reference;
  {
    ScopedSpan span(tracer, "core.assess");
    span.set_items(ids.size());
    CLOUDSURV_ASSIGN_OR_RETURN(reference,
                               model.AssessMany(store, ids, ml::FlatForest::BatchOptions()));
  }
  std::map<DatabaseId, size_t> expected;
  for (size_t i = 0; i < ids.size(); ++i) {
    if ((*reference)[i].has_value()) expected.emplace(ids[i], i);
  }
  uint64_t mismatched = 0;
  std::vector<core::PredictionOutcome> outcomes;
  outcomes.reserve(streamed.size());
  for (const Decision& d : streamed) {
    auto it = expected.find(d.id);
    if (it == expected.end() ||
        !(MakeDecision(d.id, *(*reference)[it->second]) == d)) {
      ++mismatched;
      continue;
    }
    const auto record = store.databases()[it->second];
    const std::optional<int> truth = TrueLabel(store, record);
    if (truth.has_value()) {
      ++accuracy->labelled;
      if (*truth == d.label) ++accuracy->correct;
    }
    outcomes.push_back(MakeOutcome(store, record, d,
                                   (*reference)[it->second]->positive_probability));
  }
  ledger->Fail(mismatched, "streamed decisions differ from AssessMany (" +
                               region.config.name + ")");
  const uint64_t missing = expected.size() + mismatched - streamed.size();
  ledger->Fail(missing, "due decisions never streamed (" + region.config.name + ")");
  CLOUDSURV_RETURN_NOT_OK(PlaceAndReplay(store, outcomes, "naive", tracer, naive));
  CLOUDSURV_RETURN_NOT_OK(
      PlaceAndReplay(store, outcomes, "longevity", tracer, longevity));
  return Status::OK();
}

Result<std::string> RunStream(const Args& args, Tracer* tracer,
                              Ledger* ledger) {
  PhaseLog phase;
  // Inputs: three regions, daily partitions, generated before set-up.
  std::vector<RegionInput> regions;
  double generate_s = 0.0;
  uint64_t generated = 0;
  for (int r = 1; r <= 3; ++r) {
    CLOUDSURV_ASSIGN_OR_RETURN(
        simulator::RegionConfig config,
        simulator::MakeRegionPreset(r, kChurnSubsPerRegion,
                                    args.seed + static_cast<uint64_t>(r - 1)));
    config.mix = AutomationOnlyMix();
    const auto g0 = Clock::now();
    CLOUDSURV_ASSIGN_OR_RETURN(
        RegionInput input,
        GenerateRegion(config, telemetry::kSecondsPerDay, tracer));
    generate_s += SecondsBetween(g0, Clock::now());
    generated += input.events;
    regions.push_back(std::move(input));
  }

  phase.Mark("generate");
  // The model is trained and packed before set-up; set-up loads it.
  const std::string artifact_path = args.work_dir + "/model-" + args.workload +
                                    "-" + std::to_string(args.seed) + ".csrv";
  {
    CLOUDSURV_ASSIGN_OR_RETURN(
        simulator::RegionConfig config,
        simulator::MakeRegionPreset(1, kStreamModelSubs, args.seed + 1000));
    CLOUDSURV_ASSIGN_OR_RETURN(telemetry::TelemetryStore history,
                               simulator::SimulateRegion(config));
    std::optional<core::LongevityService> trained;
    {
      ScopedSpan span(tracer, "core.train");
      CLOUDSURV_ASSIGN_OR_RETURN(
          trained, core::LongevityService::Train(history, TrainOptions(args.seed)));
    }
    CLOUDSURV_RETURN_NOT_OK(trained->SaveArtifact(artifact_path));
  }

  phase.Mark("train model");
  // Warm-up: a few days through throwaway engines.
  CLOUDSURV_RETURN_NOT_OK(
      Replay(regions, artifact_path, kPoolWorkers, kWarmupDays, nullptr, false)
          .status());
  phase.Mark("warm-up");

  // Timed replays. A traced run spends half its budget untraced (the
  // base of trace.overhead), then makes one traced replay.
  std::vector<ReplayResult> reps;
  std::vector<double> setup_samples;
  double measured = 0.0;
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  std::vector<std::vector<Decision>> first;
  uint64_t diverged = 0;
  while (!EnoughMeasured(static_cast<int>(reps.size()), measured, budget)) {
    CLOUDSURV_ASSIGN_OR_RETURN(
        ReplayResult rep, Replay(regions, artifact_path, kPoolWorkers, SIZE_MAX,
                                 nullptr, /*keep_decisions=*/true));
    measured += rep.job_s;
    setup_samples.push_back(rep.setup_s);
    if (first.empty()) {
      first = std::move(rep.decisions);
    } else {
      for (size_t r = 0; r < first.size(); ++r) {
        if (rep.decisions[r] != first[r]) ++diverged;
      }
    }
    rep.decisions.clear();
    reps.push_back(std::move(rep));
  }
  ledger->Fail(diverged, "regions whose decisions changed between replays");
  while (static_cast<int>(setup_samples.size()) < kMinSetupSamples) {
    const auto s0 = Clock::now();
    CLOUDSURV_ASSIGN_OR_RETURN(Engines set, SetUpEngines(regions, artifact_path,
                                                         kPoolWorkers, nullptr));
    setup_samples.push_back(SecondsBetween(s0, Clock::now()));
  }

  phase.Mark("timed replays");
  std::optional<ReplayResult> traced;
  double one_worker_poll_s = 0.0;
  if (tracer != nullptr) {
    CLOUDSURV_ASSIGN_OR_RETURN(
        traced, Replay(regions, artifact_path, kPoolWorkers, SIZE_MAX, tracer, false));
    CLOUDSURV_ASSIGN_OR_RETURN(
        ReplayResult single,
        Replay(regions, artifact_path, 1, SIZE_MAX, nullptr, false));
    one_worker_poll_s = single.poll_busy_s;
  }

  phase.Mark("traced replays");
  // Output check, accuracy and placement of the first replay's
  // decisions, one region store alive at a time.
  CLOUDSURV_ASSIGN_OR_RETURN(core::LongevityService model,
                             core::LongevityService::LoadArtifact(artifact_path));
  std::remove(artifact_path.c_str());
  Accuracy accuracy;
  PolicyTotals naive, longevity;
  for (size_t r = 0; r < regions.size(); ++r) {
    CLOUDSURV_RETURN_NOT_OK(CheckRegion(regions[r], model, first[r], tracer, ledger,
                                        &accuracy, &naive, &longevity));
  }
  phase.Mark("check");
  ledger->Fail(naive.inconsistent + longevity.inconsistent,
               "deployment reports breaking an accounting identity");
  ledger->Fail(naive.rejected + longevity.rejected, "tenants rejected");
  ledger->attempted += naive.databases + longevity.databases;

  for (const ReplayResult& rep : reps) {
    ledger->attempted += rep.events + (rep.tracked - rep.cancelled);
    ledger->Fail(rep.rejected, "ingests rejected");
    ledger->Fail(rep.skipped, "due decisions skipped");
    ledger->Fail(rep.tracked - rep.cancelled - rep.scored - rep.skipped,
                 "due decisions neither scored nor skipped");
  }

  std::string out = "{\"kind\": \"stream\"";
  out += ", \"generate\": {\"events\": " + Num(generated) +
         ", \"busy_s\": " + Num(generate_s) + "}";
  out += ", \"setup_s\": " + JoinNums(setup_samples);
  out += ", \"reps\": [";
  for (size_t i = 0; i < reps.size(); ++i) {
    const ReplayResult& rep = reps[i];
    if (i > 0) out += ", ";
    out += "{\"job_s\": " + Num(rep.job_s) + ", \"cpu_s\": " + Num(rep.cpu_s) +
           ", \"events\": " + Num(rep.events) +
           ", \"tracked\": " + Num(rep.tracked) +
           ", \"resident_bytes\": " + Num(rep.resident_bytes) +
           ", \"drain_decisions\": " + Num(rep.drain_decisions) +
           ", \"polls\": [";
    for (size_t p = 0; p < rep.polls.size(); ++p) {
      if (p > 0) out += ",";
      out += "[" + Num(rep.polls[p].first) + "," + Num(rep.polls[p].second) + "]";
    }
    out += "]}";
  }
  out += "]";
  out += ", \"accuracy\": {\"labelled\": " + Num(accuracy.labelled) +
         ", \"correct\": " + Num(accuracy.correct) + "}";
  out += ", \"policies\": {\"naive\": " + PolicyJson(naive) +
         ", \"longevity\": " + PolicyJson(longevity) + "}";
  if (traced.has_value()) {
    const ReplayResult& t = *traced;
    out += ", \"traced\": {\"job_s\": " + Num(t.job_s) +
           ", \"events\": " + Num(t.events) +
           ", \"tracked\": " + Num(t.tracked) +
           ", \"cancelled\": " + Num(t.cancelled) +
           ", \"scored\": " + Num(t.scored) +
           ", \"skipped\": " + Num(t.skipped) +
           ", \"direct_reads\": " + Num(t.direct_reads) +
           ", \"resident_bytes\": " + Num(t.resident_bytes) +
           ", \"poll_busy_s_1worker\": " + Num(one_worker_poll_s) +
           ", \"setup_delta\": " + t.setup_delta +
           ", \"window_delta\": " + t.window_delta + "}";
  }
  return out + "}";
}

// ---------------------------------------------------------------------
// plan-offline: train on one region, score a held-out region in one
// AssessMany call, then replay naive / longevity / oracle placement.

constexpr size_t kPlanSubs = 8000;
constexpr size_t kPlanCheckSamples = 4000;

struct PlanJob {
  double job_s = 0.0;
  double cpu_s = 0.0;
  std::vector<Decision> decisions;  ///< Held-out ids order; absent skipped.
  std::map<std::string, PolicyTotals> policies;
  std::optional<core::LongevityService> model;
  double resident_bytes = 0.0;
  std::string window_delta = "{}";
};

Result<PlanJob> RunPlanJob(const telemetry::TelemetryStore& history,
                           const telemetry::TelemetryStore& heldout,
                           uint64_t seed, Tracer* tracer) {
  PlanJob job;
  const RegistrySnapshot reg0 = tracer ? SnapshotRegistry() : RegistrySnapshot();
  const double c0 = CpuSeconds();
  const auto t0 = Clock::now();
  {
    ScopedSpan root(tracer, "job");
    {
      ScopedSpan span(tracer, "core.train");
      CLOUDSURV_ASSIGN_OR_RETURN(job.model,
                                 core::LongevityService::Train(history, TrainOptions(seed)));
    }
    {
      ScopedSpan span(tracer, "ml.compile");
      CLOUDSURV_RETURN_NOT_OK(job.model->CompileForInference());
    }
    std::vector<DatabaseId> ids;
    ids.reserve(heldout.num_databases());
    for (const auto& record : heldout.databases()) ids.push_back(record.id);
    std::optional<std::vector<std::optional<core::LongevityService::Assessment>>>
        assessed;
    {
      ScopedSpan span(tracer, "core.assess");
      span.set_items(ids.size());
      CLOUDSURV_ASSIGN_OR_RETURN(
          assessed, job.model->AssessMany(heldout, ids, ml::FlatForest::BatchOptions()));
    }
    std::vector<core::PredictionOutcome> outcomes;
    outcomes.reserve(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      const auto& a = (*assessed)[i];
      if (!a.has_value()) continue;
      const Decision d = MakeDecision(ids[i], *a);
      job.decisions.push_back(d);
      outcomes.push_back(
          MakeOutcome(heldout, heldout.databases()[i], d, a->positive_probability));
    }
    for (const char* policy : {"naive", "longevity", "oracle"}) {
      CLOUDSURV_RETURN_NOT_OK(
          PlaceAndReplay(heldout, outcomes, policy, tracer, &job.policies[policy]));
    }
  }
  job.job_s = SecondsBetween(t0, Clock::now());
  job.cpu_s = CpuSeconds() - c0;
  job.resident_bytes = ResidentBytes();
  if (tracer != nullptr) job.window_delta = RegistryDeltaJson(reg0, SnapshotRegistry());
  return job;
}

struct PlanStores {
  std::optional<telemetry::TelemetryStore> history;
  std::optional<telemetry::TelemetryStore> heldout;
  double setup_s = 0.0;
  std::string setup_delta = "{}";
};

/// Set-up: build both regions' stores from copies of the generated
/// partitions (the copies are not timed).
Result<PlanStores> BuildPlanStores(const RegionInput& history,
                                   const RegionInput& heldout, Tracer* tracer) {
  auto history_parts = CopyPartitions(history, SIZE_MAX);
  auto heldout_parts = CopyPartitions(heldout, SIZE_MAX);
  PlanStores stores;
  const RegistrySnapshot reg0 = tracer ? SnapshotRegistry() : RegistrySnapshot();
  const auto s0 = Clock::now();
  CLOUDSURV_ASSIGN_OR_RETURN(stores.history,
                             BuildStore(history.config, std::move(history_parts), tracer));
  CLOUDSURV_ASSIGN_OR_RETURN(stores.heldout,
                             BuildStore(heldout.config, std::move(heldout_parts), tracer));
  stores.setup_s = SecondsBetween(s0, Clock::now());
  if (tracer != nullptr) stores.setup_delta = RegistryDeltaJson(reg0, SnapshotRegistry());
  return stores;
}

Result<RegionInput> GeneratePlanRegion(int preset, size_t subs, uint64_t seed,
                                       Tracer* tracer) {
  CLOUDSURV_ASSIGN_OR_RETURN(simulator::RegionConfig config,
                             simulator::MakeRegionPreset(preset, subs, seed));
  return GenerateRegion(config, simulator::StreamOptions().partition_seconds, tracer);
}

Result<std::string> RunPlan(const Args& args, Tracer* tracer, Ledger* ledger) {
  PhaseLog phase;
  const auto g0 = Clock::now();
  CLOUDSURV_ASSIGN_OR_RETURN(RegionInput history,
                             GeneratePlanRegion(1, kPlanSubs, args.seed, tracer));
  CLOUDSURV_ASSIGN_OR_RETURN(RegionInput heldout,
                             GeneratePlanRegion(2, kPlanSubs, args.seed + 1, tracer));
  const double generate_s = SecondsBetween(g0, Clock::now());
  phase.Mark("generate");

  // Warm-up: the whole job on a small pair of regions.
  {
    CLOUDSURV_ASSIGN_OR_RETURN(RegionInput small_history,
                               GeneratePlanRegion(1, 400, args.seed + 2000, nullptr));
    CLOUDSURV_ASSIGN_OR_RETURN(RegionInput small_heldout,
                               GeneratePlanRegion(2, 400, args.seed + 2001, nullptr));
    CLOUDSURV_ASSIGN_OR_RETURN(PlanStores stores,
                               BuildPlanStores(small_history, small_heldout, nullptr));
    CLOUDSURV_RETURN_NOT_OK(
        RunPlanJob(*stores.history, *stores.heldout, args.seed, nullptr).status());
  }

  phase.Mark("warm-up");
  std::vector<double> setup_samples, job_samples, cpu_samples, bytes_samples;
  std::vector<std::vector<double>> assess_ms;
  std::optional<PlanJob> first;
  Accuracy accuracy;
  uint64_t diverged = 0;
  uint64_t databases = 0;
  double measured = 0.0;
  const double budget = args.trace ? 0.5 * args.seconds : args.seconds;
  while (!EnoughMeasured(static_cast<int>(job_samples.size()), measured, budget)) {
    CLOUDSURV_ASSIGN_OR_RETURN(PlanStores stores,
                               BuildPlanStores(history, heldout, nullptr));
    setup_samples.push_back(stores.setup_s);
    CLOUDSURV_ASSIGN_OR_RETURN(
        PlanJob job, RunPlanJob(*stores.history, *stores.heldout, args.seed, nullptr));
    const telemetry::TelemetryStore& store = *stores.heldout;
    databases = stores.history->num_databases() + store.num_databases();
    measured += job.job_s;
    job_samples.push_back(job.job_s);
    cpu_samples.push_back(job.cpu_s);
    bytes_samples.push_back(job.resident_bytes / static_cast<double>(databases));
    ledger->attempted += job.decisions.size();

    // Check: a stride sample of AssessMany rows against per-id Assess,
    // including which ids neither can score (databases dropped inside
    // the observation window are not due). Each call is timed: the
    // on-demand decision latency.
    std::map<DatabaseId, size_t> position;
    for (size_t i = 0; i < job.decisions.size(); ++i) {
      position.emplace(job.decisions[i].id, i);
    }
    const size_t n = store.num_databases();
    const size_t stride = std::max<size_t>(1, n / kPlanCheckSamples);
    uint64_t mismatched = 0;
    assess_ms.emplace_back();
    for (size_t i = 0; i < n; i += stride) {
      const auto record = store.databases()[i];
      const auto a0 = Clock::now();
      Result<core::LongevityService::Assessment> one = job.model->Assess(store, record.id);
      assess_ms.back().push_back(1e3 * SecondsBetween(a0, Clock::now()));
      auto it = position.find(record.id);
      if (one.ok() != (it != position.end()) ||
          (one.ok() && !(MakeDecision(record.id, *one) == job.decisions[it->second]))) {
        ++mismatched;
      }
    }
    ledger->attempted += assess_ms.back().size();
    ledger->Fail(mismatched, "AssessMany rows differ from per-id Assess");

    if (!first.has_value()) {
      for (size_t i = 0; i < n; ++i) {
        const auto record = store.databases()[i];
        auto it = position.find(record.id);
        if (it == position.end()) continue;
        const std::optional<int> truth = TrueLabel(store, record);
        if (!truth.has_value()) continue;
        ++accuracy.labelled;
        if (*truth == job.decisions[it->second].label) ++accuracy.correct;
      }
      first = std::move(job);
    } else if (job.decisions != first->decisions ||
               job.policies.at("longevity").total_cost !=
                   first->policies.at("longevity").total_cost) {
      ++diverged;
    }
  }
  ledger->Fail(diverged, "replays whose decisions or costs changed");
  for (const auto& [name, totals] : first->policies) {
    ledger->attempted += totals.databases;
    ledger->Fail(totals.inconsistent,
                 "deployment reports breaking an accounting identity (" + name + ")");
    ledger->Fail(totals.rejected, "tenants rejected (" + name + ")");
  }
  while (static_cast<int>(setup_samples.size()) < kMinSetupSamples) {
    CLOUDSURV_ASSIGN_OR_RETURN(PlanStores stores,
                               BuildPlanStores(history, heldout, nullptr));
    setup_samples.push_back(stores.setup_s);
  }

  phase.Mark("timed replays");
  std::optional<PlanJob> traced;
  std::string traced_setup_delta;
  if (tracer != nullptr) {
    CLOUDSURV_ASSIGN_OR_RETURN(PlanStores stores,
                               BuildPlanStores(history, heldout, tracer));
    traced_setup_delta = stores.setup_delta;
    CLOUDSURV_ASSIGN_OR_RETURN(
        traced, RunPlanJob(*stores.history, *stores.heldout, args.seed, tracer));
  }

  phase.Mark("traced replays");
  std::string out = "{\"kind\": \"plan\"";
  out += ", \"generate\": {\"events\": " + Num(history.events + heldout.events) +
         ", \"busy_s\": " + Num(generate_s) + "}";
  out += ", \"events\": " + Num(history.events + heldout.events);
  out += ", \"databases\": " + Num(databases);
  out += ", \"setup_s\": " + JoinNums(setup_samples);
  out += ", \"job_s\": " + JoinNums(job_samples);
  out += ", \"cpu_s\": " + JoinNums(cpu_samples);
  out += ", \"bytes_per_database\": " + JoinNums(bytes_samples);
  out += ", \"assess_ms\": [";
  for (size_t i = 0; i < assess_ms.size(); ++i) {
    out += (i > 0 ? ", " : "") + JoinNums(assess_ms[i]);
  }
  out += "]";
  out += ", \"accuracy\": {\"labelled\": " + Num(accuracy.labelled) +
         ", \"correct\": " + Num(accuracy.correct) + "}";
  out += ", \"policies\": {";
  bool comma = false;
  for (const auto& [name, totals] : first->policies) {
    if (comma) out += ", ";
    comma = true;
    out += "\"" + name + "\": " + PolicyJson(totals);
  }
  out += "}";
  if (traced.has_value()) {
    out += ", \"traced\": {\"job_s\": " + Num(traced->job_s) +
           ", \"resident_bytes\": " + Num(traced->resident_bytes) +
           ", \"setup_delta\": " + traced_setup_delta +
           ", \"window_delta\": " + traced->window_delta + "}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pipebench --workload stream-churn|plan-offline"
                 " --seed N --seconds S --trace 0|1 "
                 "[--work-dir DIR]\n");
    return 2;
  }
  std::optional<Tracer> tracer;
  if (args.trace) tracer.emplace();
  Tracer* t = tracer.has_value() ? &*tracer : nullptr;
  Ledger ledger;
  Result<std::string> body = Status::InvalidArgument("unknown workload " + args.workload);
  if (args.workload == "stream-churn") {
    body = RunStream(args, t, &ledger);
  } else if (args.workload == "plan-offline") {
    body = RunPlan(args, t, &ledger);
  }
  if (!body.ok()) {
    std::fprintf(stderr, "pipebench: %s\n", body.status().ToString().c_str());
    return 1;
  }
  std::string spans_path;
  if (t != nullptr) {
    spans_path = args.work_dir + "/spans-" + args.workload + "-" +
                 std::to_string(args.seed) + ".jsonl";
    if (!t->WriteJsonLines(spans_path)) {
      std::fprintf(stderr, "pipebench: cannot write %s\n", spans_path.c_str());
      return 1;
    }
  }
  std::printf("{\"workload\": \"%s\", \"seed\": %" PRIu64
              ", \"pool_workers\": %zu, \"train_threads\": %d, \"shards\": %zu"
              ", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"failures\": %s, \"spans\": \"%s\", \"raw\": %s}\n",
              args.workload.c_str(), args.seed, kPoolWorkers, kTrainThreads,
              kShards, ledger.attempted, ledger.failed, NotesJson(ledger).c_str(),
              spans_path.c_str(), body->c_str());
  return 0;
}
