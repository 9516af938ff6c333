#include "serving/scoring_engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <future>
#include <iterator>
#include <optional>
#include <string>
#include <utility>

#include "features/features.h"

namespace cloudsurv::serving {

namespace {

using telemetry::Event;
using telemetry::EventKind;
using telemetry::kSecondsPerDay;
using telemetry::Timestamp;

/// Why `options` cannot drive an engine, or OK. observe_days must be
/// checked before MaturityOf casts it to whole seconds.
Status ValidateOptions(const ScoringEngine::Options& options) {
  if (!(options.observe_days > 0.0 &&  // NaN fails too
        options.observe_days <= features::kMaxObservationDays)) {
    return Status::InvalidArgument(
        "ScoringEngine::Options::observe_days must be a finite number of "
        "days in (0, " +
        std::to_string(static_cast<int>(features::kMaxObservationDays)) +
        "]");
  }
  return Status::OK();
}

Timestamp MaturityOf(Timestamp created_at, double observe_days) {
  return created_at + static_cast<Timestamp>(
                          observe_days * static_cast<double>(kSecondsPerDay));
}

}  // namespace

/// One shard's share of a poll: the events to append to its store and
/// the matured databases to score (either may be empty, not both).
struct ScoringEngine::ShardJob {
  size_t shard = 0;
  std::vector<Event> events;
  std::vector<PendingDatabase> due;
};

/// Result of one shard job.
struct ScoringEngine::ShardJobResult {
  std::vector<ScoredDatabase> scored;
  uint64_t skipped = 0;
  uint64_t fallback = 0;
  uint64_t retries = 0;
  bool deadline_exceeded = false;
  Status status;  // Non-OK only for snapshot/model-availability failures.
  /// What the job threw, if anything; rethrown on the driver after the
  /// join.
  std::exception_ptr error;
};

const char* HealthStateToString(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "healthy";
    case HealthState::kDegraded:
      return "degraded";
    case HealthState::kShedding:
      return "shedding";
  }
  return "unknown";
}

RegionContext RegionContext::FromStore(
    const telemetry::TelemetryStore& store) {
  RegionContext ctx;
  ctx.region_name = store.region_name();
  ctx.utc_offset_minutes = store.utc_offset_minutes();
  ctx.holidays = store.holidays();
  ctx.window_start = store.window_start();
  ctx.window_end = store.window_end();
  return ctx;
}

ScoringEngine::EngineSeries ScoringEngine::MakeEngineSeries() {
  // Each engine gets its own labelled series so EngineMetrics stays
  // per-instance even though the registry is process-wide.
  static std::atomic<uint64_t> next_instance{0};
  const obs::LabelSet labels = {
      {"engine",
       std::to_string(next_instance.fetch_add(1,
                                              std::memory_order_relaxed))}};
  obs::Registry& registry = obs::Registry::Default();
  EngineSeries series;
  series.events_flushed = registry.GetCounter(
      "cloudsurv_engine_events_flushed_total",
      "Events moved from the ingest buffer into shard logs", "events",
      labels);
  series.databases_tracked = registry.GetCounter(
      "cloudsurv_engine_databases_tracked_total",
      "Creations registered with the maturity tracker", "databases",
      labels);
  series.databases_cancelled = registry.GetCounter(
      "cloudsurv_engine_databases_cancelled_total",
      "Databases dropped before their observation window elapsed",
      "databases", labels);
  series.databases_scored = registry.GetCounter(
      "cloudsurv_engine_databases_scored_total",
      "Assessments produced by scoring tasks", "databases", labels);
  series.databases_confident = registry.GetCounter(
      "cloudsurv_engine_databases_confident_total",
      "Assessments inside the confident probability bands", "databases",
      labels);
  series.databases_skipped = registry.GetCounter(
      "cloudsurv_engine_databases_skipped_total",
      "Matured databases whose Assess() call failed", "databases",
      labels);
  series.polls = registry.GetCounter("cloudsurv_engine_polls_total",
                                     "Poll()/Drain() cycles", "polls",
                                     labels);
  series.snapshots = registry.GetCounter(
      "cloudsurv_engine_snapshots_total",
      "Per-shard TelemetryStore snapshots materialized", "snapshots",
      labels);
  series.direct_reads = registry.GetCounter(
      "cloudsurv_engine_direct_reads_total",
      "Shard batches scored directly off a readable live store",
      "batches", labels);
  series.fallback_scored = registry.GetCounter(
      "cloudsurv_engine_fallback_scored_total",
      "Assessments served by the weighted-random fallback", "databases",
      labels);
  series.deadline_exceeded = registry.GetCounter(
      "cloudsurv_engine_deadline_exceeded_total",
      "Shard batches whose virtual scoring deadline expired", "batches",
      labels);
  series.retries = registry.GetCounter(
      "cloudsurv_engine_retries_total",
      "Ingest and snapshot retry attempts", "retries", labels);
  auto rejected = [&](const char* reason) {
    obs::LabelSet with_reason = labels;
    with_reason.push_back({"reason", reason});
    return registry.GetCounter(
        "cloudsurv_engine_rejected_total",
        "Ingest attempts the engine rejected, by reason", "events",
        with_reason);
  };
  series.rejected_shed = rejected("shed");
  series.rejected_error = rejected("error");
  series.rejected_invalid = rejected("invalid");
  series.health_state = registry.GetGauge(
      "cloudsurv_engine_health_state",
      "Serving health (0 healthy, 1 degraded, 2 shedding)", "state",
      labels);
  series.health_transitions = registry.GetCounter(
      "cloudsurv_engine_health_transitions_total",
      "Health-state machine transitions", "transitions", labels);
  series.scoring_latency_us = registry.GetHistogram(
      "cloudsurv_engine_scoring_latency_us",
      "Amortized per-database share of a shard batch's AssessMany() "
      "time", "us",
      labels);
  return series;
}

ScoringEngine::ScoringEngine(RegionContext region, Options options)
    : region_(std::move(region)),
      options_(options),
      options_status_(ValidateOptions(options)),
      ingest_(options.num_shards, options.fault_injector),
      registry_(options.fault_injector),
      pool_(options.num_threads, options.queue_capacity,
            options.fault_injector),
      shard_logs_(ingest_.num_shards()),
      series_(MakeEngineSeries()) {
  // Hysteresis requires low < high; a degenerate config collapses to a
  // one-event band rather than disabling shedding silently.
  if (options_.shed_high_watermark > 0 &&
      options_.shed_low_watermark >= options_.shed_high_watermark) {
    options_.shed_low_watermark = options_.shed_high_watermark - 1;
  }
  if (options_.fallback_positive_rate >= 0.0) {
    fallback_model_ = ml::WeightedRandomClassifier::FromPositiveRate(
        options_.fallback_positive_rate);
  }
  for (ShardLog& log : shard_logs_) {
    log.store.emplace(region_.region_name, region_.utc_offset_minutes,
                      region_.holidays, region_.window_start,
                      region_.window_end);
  }
  series_.health_state->Set(0.0);
}

ScoringEngine::~ScoringEngine() { pool_.Shutdown(); }

Status ScoringEngine::Ingest(telemetry::Event event) {
  CLOUDSURV_RETURN_NOT_OK(options_status_);
  // Fast path: no injector and no watermarks means no retry loop, no
  // shedding check — identical to the pre-fault-layer engine except for
  // the per-reason rejection counter.
  if (options_.fault_injector == nullptr &&
      options_.shed_high_watermark == 0) {
    Status accepted = ingest_.Ingest(std::move(event));
    if (!accepted.ok()) series_.rejected_invalid->Increment();
    return accepted;
  }

  if (options_.shed_high_watermark > 0) {
    if (health() == HealthState::kShedding) {
      series_.rejected_shed->Increment();
      return Status::FailedPrecondition(
          "load shed: ingest backlog over watermark");
    }
    if (ingest_.approx_pending() >= options_.shed_high_watermark) {
      SetHealth(HealthState::kShedding);
      series_.rejected_shed->Increment();
      return Status::FailedPrecondition(
          "load shed: ingest backlog over watermark");
    }
  }

  Status last;
  for (size_t attempt = 0;; ++attempt) {
    last = ingest_.Ingest(event);
    if (last.ok()) return last;
    if (last.code() == StatusCode::kInvalidArgument) {
      // Malformed events are never retryable.
      series_.rejected_invalid->Increment();
      return last;
    }
    if (attempt >= options_.ingest_retries) break;
    series_.retries->Increment();
    fault::SleepFor(RetryBackoffUs(attempt));
  }
  series_.rejected_error->Increment();
  // Retry exhaustion is a degradation signal; the next cycle picks the
  // flag up.
  cycle_dirty_.store(true, std::memory_order_relaxed);
  return last;
}

double ScoringEngine::RetryBackoffUs(size_t attempt) {
  const size_t capped = attempt < 20 ? attempt : 20;
  double backoff = options_.retry_backoff_us *
                   static_cast<double>(uint64_t{1} << capped);
  if (options_.retry_jitter > 0.0) {
    // Jitter is seeded (plan seed, else fallback seed) and salted per
    // draw — varied sleeps, deterministic given the call sequence, and
    // no shared Rng to lock.
    const uint64_t seed = options_.fault_injector != nullptr
                              ? options_.fault_injector->seed()
                              : options_.fallback_seed;
    Rng rng = Rng(seed).Fork(
        jitter_salt_.fetch_add(1, std::memory_order_relaxed));
    backoff *= rng.Uniform(1.0 - options_.retry_jitter,
                           1.0 + options_.retry_jitter);
  }
  return backoff;
}

ScoredDatabase ScoringEngine::FallbackScore(
    const PendingDatabase& pending) const {
  // Forked per database id: the draw depends only on (seed, id), so
  // fallback outputs are independent of scoring order and thread count
  // and bit-match the §4 weighted-random baseline run standalone.
  Rng rng = Rng(options_.fallback_seed).Fork(pending.database_id);
  ScoredDatabase scored;
  scored.database_id = pending.database_id;
  scored.subscription_id = pending.subscription_id;
  scored.matured_at = pending.matures_at;
  scored.model_version = 0;
  scored.fallback = true;
  scored.assessment.predicted_label = fallback_model_.Predict(rng);
  scored.assessment.positive_probability = fallback_model_.positive_rate();
  scored.assessment.confident = false;
  scored.assessment.recommended_pool = core::Pool::kGeneral;
  scored.assessment.model_name = "weighted-random-fallback";
  return scored;
}

void ScoringEngine::SetHealth(HealthState next) {
  const int previous = health_.exchange(static_cast<int>(next),
                                        std::memory_order_relaxed);
  if (previous == static_cast<int>(next)) return;
  series_.health_transitions->Increment();
  series_.health_state->Set(static_cast<double>(static_cast<int>(next)));
}

void ScoringEngine::UpdateHealthAfterCycle(bool dirty) {
  if (options_.shed_high_watermark > 0) {
    const size_t pending = ingest_.approx_pending();
    if (health() == HealthState::kShedding) {
      if (pending <= options_.shed_low_watermark) {
        // Shedding clears into kDegraded, never straight to healthy —
        // the backlog was a degradation event and must age out through
        // the recovery counter like any other.
        SetHealth(HealthState::kDegraded);
        clean_polls_ = 0;
      }
      return;
    }
    if (pending >= options_.shed_high_watermark) {
      SetHealth(HealthState::kShedding);
      return;
    }
  }
  if (dirty) {
    SetHealth(HealthState::kDegraded);
    clean_polls_ = 0;
    return;
  }
  if (health() == HealthState::kDegraded &&
      ++clean_polls_ >= options_.recovery_polls) {
    SetHealth(HealthState::kHealthy);
    clean_polls_ = 0;
  }
}

std::vector<std::vector<Event>> ScoringEngine::AbsorbStagedEvents() {
  // Tracker totals are authoritative (Add dedupes, Cancel checks
  // maturity); mirror them onto the registry by delta.
  const uint64_t added_before = tracker_.total_added();
  const uint64_t cancelled_before = tracker_.total_cancelled();
  std::vector<std::vector<Event>> staged = ingest_.TakeAll();
  for (size_t shard = 0; shard < staged.size(); ++shard) {
    const std::vector<Event>& batch = staged[shard];
    if (batch.empty()) continue;
    series_.events_flushed->Increment(batch.size());
    for (const Event& event : batch) {
      switch (event.kind()) {
        case EventKind::kDatabaseCreated: {
          PendingDatabase pending;
          pending.database_id = event.database_id;
          pending.subscription_id = event.subscription_id;
          pending.matures_at =
              MaturityOf(event.timestamp, options_.observe_days);
          pending.shard = shard;
          tracker_.Add(pending);
          break;
        }
        case EventKind::kDatabaseDropped:
          // A drop before maturity makes the prediction task undefined
          // for this database — stop tracking it.
          tracker_.Cancel(event.database_id, event.timestamp);
          break;
        default:
          break;
      }
    }
  }
  series_.databases_tracked->Increment(tracker_.total_added() -
                                       added_before);
  series_.databases_cancelled->Increment(tracker_.total_cancelled() -
                                         cancelled_before);
  return staged;
}

void ScoringEngine::RunShardJob(ShardJob& job, ShardJobResult* result) {
  ShardLog& log = shard_logs_[job.shard];
  if (!job.events.empty()) {
    // AppendEvents reserves the whole batch up front. Ids were
    // validated at ingest, so the only way a live append can fail is a
    // lifecycle violation — which poisons the store out of readable()
    // and routes the shard to the snapshot path, where Finalize()
    // reports the same violation batch scoring would.
    Status appended = log.store->AppendEvents(std::move(job.events));
    if (!appended.ok()) {
      cycle_dirty_.store(true, std::memory_order_relaxed);
    }
  }
  // A shard with nothing due never pins a model.
  if (job.due.empty()) return;

  const std::vector<PendingDatabase>& due = job.due;
  const int64_t shard_key = static_cast<int64_t>(job.shard);
  fault::FaultInjector* injector = options_.fault_injector;
  const bool fallback_enabled = options_.fallback_positive_rate >= 0.0;
  auto fall_back_all = [&]() {
    result->scored.reserve(due.size());
    for (const PendingDatabase& pending : due) {
      result->scored.push_back(FallbackScore(pending));
    }
    result->fallback = due.size();
  };

  // Pin the model snapshot for the whole batch; a concurrent Publish()
  // swaps later batches, never this one. A swap-race fault is evaluated
  // here, per shard, so replay does not depend on which thread runs the
  // job.
  ModelRegistry::ActiveModel active = registry_.CurrentWithVersion();
  bool model_available = active.model != nullptr;
  if (model_available && injector != nullptr &&
      injector->Evaluate(fault::Site::kRegistrySwap, shard_key).swap_race) {
    model_available = false;
  }
  if (!model_available) {
    if (!fallback_enabled) {
      result->status = Status::FailedPrecondition("no model published");
      return;
    }
    fall_back_all();
    return;
  }

  // Pick the store this batch reads. Direct-read fast path: ordered
  // streaming ingest keeps the live shard store readable(), so the
  // batch scores straight off its columnar state — no event copy, no
  // Finalize() barrier. A configured injector always takes the snapshot
  // path below, preserving the fault::Site::kSnapshotBuild injection
  // point fault plans target.
  const telemetry::TelemetryStore* read_store = nullptr;
  std::optional<telemetry::TelemetryStore> snapshot;
  if (injector == nullptr && log.store->readable()) {
    read_store = &*log.store;
    series_.direct_reads->Increment();
  } else {
    // Snapshot materialization from the shard's event log, with bounded
    // retries around injected allocation/io failures.
    std::vector<Event> base;
    base.reserve(log.store->num_events());
    for (const Event& event : log.store->events()) {
      base.push_back(event);
    }
    Status snap_status;
    for (size_t attempt = 0; attempt <= options_.snapshot_retries;
         ++attempt) {
      if (attempt > 0) {
        ++result->retries;
        fault::SleepFor(RetryBackoffUs(attempt - 1));
      }
      if (injector != nullptr) {
        const fault::Outcome outcome =
            injector->Evaluate(fault::Site::kSnapshotBuild, shard_key);
        fault::SleepFor(outcome.delay_us + outcome.stall_us);
        if (outcome.fail) {
          snap_status =
              outcome.io
                  ? Status::IOError("injected io failure building snapshot")
                  : Status::Internal(
                        "injected allocation failure building snapshot");
          continue;
        }
      }
      telemetry::TelemetryStore candidate(
          region_.region_name, region_.utc_offset_minutes, region_.holidays,
          region_.window_start, region_.window_end);
      snap_status = candidate.AppendEvents(std::vector<Event>(base));
      if (!snap_status.ok()) continue;
      snap_status = candidate.Finalize();
      if (!snap_status.ok()) continue;
      snapshot.emplace(std::move(candidate));
      break;
    }
    if (!snapshot.has_value()) {
      if (fallback_enabled) {
        fall_back_all();
        return;
      }
      // No fallback: the batch is reported skipped (counted, not
      // silently dropped) and the poll surfaces the error.
      result->skipped = due.size();
      result->status = snap_status;
      return;
    }
    series_.snapshots->Increment();
    read_store = &*snapshot;
  }

  // One pass over the batch, in batch order: every database passes the
  // engine.score fault site once and its injected delay is slept here.
  // The virtual clock advances by those delays plus a fixed cost per
  // assessment — never by wall time, and never by an assessment's
  // result — so the deadline cut is known before anything is scored and
  // is bit-reproducible across machines and thread counts.
  size_t cut = due.size();
  double virtual_us = 0.0;
  for (size_t i = 0; i < due.size(); ++i) {
    if (injector != nullptr) {
      const fault::Outcome outcome =
          injector->Evaluate(fault::Site::kScoreAssess, shard_key);
      fault::SleepFor(outcome.delay_us + outcome.stall_us);
      virtual_us += outcome.delay_us + outcome.stall_us;
    }
    if (cut != due.size()) continue;
    if (options_.batch_deadline_us > 0.0 &&
        virtual_us > options_.batch_deadline_us) {
      cut = i;
      result->deadline_exceeded = true;
    } else {
      virtual_us += options_.assess_virtual_cost_us;
    }
  }

  // The rows inside the deadline go through one AssessMany call — rows
  // grouped per model slot, features extracted in one batch and scored
  // by the compiled FlatForest in blocks. Assessments are bit-identical
  // to per-id Assess; nullopt marks exactly the ids whose per-id Assess
  // would fail (e.g. dropped inside the window with the drop racing the
  // maturity cutoff), which batch Assess() on the final store skips
  // identically.
  std::vector<telemetry::DatabaseId> ids;
  ids.reserve(cut);
  for (size_t i = 0; i < cut; ++i) ids.push_back(due[i].database_id);
  result->scored.reserve(due.size());
  if (!ids.empty()) {
    const auto batch_start = std::chrono::steady_clock::now();
    auto assessments = active.model->AssessMany(*read_store, ids);
    const double batch_us = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - batch_start)
                                .count();
    if (!assessments.ok()) {
      result->skipped = due.size();
      result->status = assessments.status();
      return;
    }
    // One amortized sample per assessed database keeps the histogram's
    // per-assessment semantics.
    const double per_db_us = batch_us / static_cast<double>(cut);
    for (size_t i = 0; i < cut; ++i) {
      series_.scoring_latency_us->Observe(per_db_us);
      if (!(*assessments)[i].has_value()) {
        ++result->skipped;
        continue;
      }
      ScoredDatabase scored;
      scored.database_id = due[i].database_id;
      scored.subscription_id = due[i].subscription_id;
      scored.matured_at = due[i].matures_at;
      scored.model_version = active.version;
      scored.assessment = *std::move((*assessments)[i]);
      result->scored.push_back(std::move(scored));
    }
  }
  // Databases past the deadline fall back or are skipped.
  for (size_t i = cut; i < due.size(); ++i) {
    if (fallback_enabled) {
      result->scored.push_back(FallbackScore(due[i]));
      ++result->fallback;
    } else {
      ++result->skipped;
    }
  }
}

Result<std::vector<ScoredDatabase>> ScoringEngine::ScoreDue(
    std::vector<std::vector<Event>> staged,
    std::vector<PendingDatabase> due) {
  // One job per shard with staged events or matured databases: the
  // shard's append and its whole batch share one job (one snapshot, one
  // model pin). Due databases keep their maturity order within a shard.
  std::vector<std::vector<PendingDatabase>> due_by_shard(shard_logs_.size());
  for (PendingDatabase& p : due) due_by_shard[p.shard].push_back(p);
  std::vector<ShardJob> jobs;
  for (size_t shard = 0; shard < shard_logs_.size(); ++shard) {
    if (staged[shard].empty() && due_by_shard[shard].empty()) continue;
    jobs.push_back(ShardJob{shard, std::move(staged[shard]),
                            std::move(due_by_shard[shard])});
  }
  if (jobs.empty()) return std::vector<ScoredDatabase>();

  // Jobs are claimed from one index by the pool tasks and by this
  // thread, which would otherwise only wait. Anything a job throws is
  // kept in its slot and rethrown below, after every task that reads
  // this frame has been joined.
  std::vector<ShardJobResult> results(jobs.size());
  std::atomic<size_t> next_job{0};
  auto claim_jobs = [this, &jobs, &results, &next_job]() {
    for (size_t i = next_job.fetch_add(1, std::memory_order_relaxed);
         i < jobs.size();
         i = next_job.fetch_add(1, std::memory_order_relaxed)) {
      try {
        RunShardJob(jobs[i], &results[i]);
      } catch (...) {
        results[i].error = std::current_exception();
      }
    }
  };
  const size_t helpers = std::min(pool_.num_threads(), jobs.size());
  std::vector<std::future<void>> tasks;
  tasks.reserve(helpers);
  for (size_t t = 0; t < helpers; ++t) {
    tasks.push_back(pool_.Submit(claim_jobs));
  }
  claim_jobs();
  // A task the pool refused (shut down) never ran; its jobs were
  // claimed here, so waiting is enough — nothing to get().
  for (std::future<void>& task : tasks) task.wait();
  for (ShardJobResult& result : results) {
    if (result.error) std::rethrow_exception(result.error);
  }

  std::vector<ScoredDatabase> all;
  Status first_error = Status::OK();
  for (ShardJobResult& result : results) {
    series_.retries->Increment(result.retries);
    if (result.deadline_exceeded) {
      series_.deadline_exceeded->Increment();
      cycle_dirty_.store(true, std::memory_order_relaxed);
    }
    if (!result.status.ok()) {
      series_.databases_skipped->Increment(result.skipped);
      cycle_dirty_.store(true, std::memory_order_relaxed);
      if (first_error.ok()) first_error = result.status;
      continue;
    }
    series_.databases_scored->Increment(result.scored.size() -
                                        result.fallback);
    series_.databases_skipped->Increment(result.skipped);
    if (result.fallback > 0) {
      series_.fallback_scored->Increment(result.fallback);
      cycle_dirty_.store(true, std::memory_order_relaxed);
    }
    uint64_t confident = 0;
    for (const ScoredDatabase& s : result.scored) {
      if (s.assessment.confident) ++confident;
    }
    series_.databases_confident->Increment(confident);
    std::move(result.scored.begin(), result.scored.end(),
              std::back_inserter(all));
  }
  if (!first_error.ok()) return first_error;

  std::sort(all.begin(), all.end(),
            [](const ScoredDatabase& a, const ScoredDatabase& b) {
              return a.database_id < b.database_id;
            });
  return all;
}

Result<std::vector<ScoredDatabase>> ScoringEngine::RunCycle(
    std::vector<std::vector<Event>> staged,
    std::vector<PendingDatabase> due) {
  Result<std::vector<ScoredDatabase>> scored =
      ScoreDue(std::move(staged), std::move(due));
  // Consume-and-reset: a dirty flag raised between cycles (e.g. ingest
  // retry exhaustion on a producer thread) degrades this cycle.
  const bool dirty =
      cycle_dirty_.exchange(false, std::memory_order_relaxed) ||
      !scored.ok();
  UpdateHealthAfterCycle(dirty);
  return scored;
}

Result<std::vector<ScoredDatabase>> ScoringEngine::Poll(Timestamp now) {
  CLOUDSURV_RETURN_NOT_OK(options_status_);
  series_.polls->Increment();
  if (options_.fault_injector != nullptr) {
    // A skewed poll clock. Negative skew (clock behind) is output-
    // neutral — databases just score on a later poll; positive skew can
    // score a window before all its events arrived, which is exactly
    // the bug class the plan is trying to reproduce.
    now += static_cast<Timestamp>(
        options_.fault_injector->Evaluate(fault::Site::kEngineClock)
            .skew_s);
  }
  std::vector<std::vector<Event>> staged = AbsorbStagedEvents();
  return RunCycle(std::move(staged), tracker_.TakeDue(now));
}

Result<std::vector<ScoredDatabase>> ScoringEngine::Drain() {
  CLOUDSURV_RETURN_NOT_OK(options_status_);
  series_.polls->Increment();
  std::vector<std::vector<Event>> staged = AbsorbStagedEvents();
  return RunCycle(std::move(staged), tracker_.TakeAll());
}

EngineMetrics ScoringEngine::Metrics() const {
  EngineMetrics m;
  m.events_ingested = ingest_.events_ingested();
  m.events_flushed = series_.events_flushed->Value();
  m.databases_tracked = tracker_.total_added();
  m.databases_cancelled = tracker_.total_cancelled();
  m.databases_scored = series_.databases_scored->Value();
  m.databases_confident = series_.databases_confident->Value();
  m.databases_skipped = series_.databases_skipped->Value();
  m.polls = series_.polls->Value();
  m.snapshots_built = series_.snapshots->Value();
  m.direct_read_batches = series_.direct_reads->Value();
  m.databases_fallback = series_.fallback_scored->Value();
  m.deadline_exceeded = series_.deadline_exceeded->Value();
  m.retries = series_.retries->Value();
  m.rejected_shed = series_.rejected_shed->Value();
  m.rejected_error = series_.rejected_error->Value();
  m.rejected_invalid = series_.rejected_invalid->Value();
  m.health = health();
  m.health_transitions = series_.health_transitions->Value();
  // Histogram quantiles: bucket-interpolated estimates, and exactly 0
  // when no assessment has run yet (an empty histogram has well-defined
  // quantiles — no empty-reservoir garbage).
  m.scoring_p50_us = series_.scoring_latency_us->Quantile(0.50);
  m.scoring_p99_us = series_.scoring_latency_us->Quantile(0.99);
  return m;
}

}  // namespace cloudsurv::serving
