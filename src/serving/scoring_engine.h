#ifndef CLOUDSURV_SERVING_SCORING_ENGINE_H_
#define CLOUDSURV_SERVING_SCORING_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "core/service.h"
#include "fault/fault.h"
#include "ml/baseline.h"
#include "obs/metrics.h"
#include "serving/event_ingest.h"
#include "serving/maturity_tracker.h"
#include "serving/model_registry.h"
#include "common/thread_pool.h"
#include "telemetry/store.h"

namespace cloudsurv::serving {

/// Region metadata a snapshot TelemetryStore needs (calendar features
/// read it). Copy it from the region's config or any store of the
/// region.
struct RegionContext {
  std::string region_name;
  int utc_offset_minutes = 0;
  telemetry::HolidayCalendar holidays;
  telemetry::Timestamp window_start = 0;
  telemetry::Timestamp window_end = 0;

  static RegionContext FromStore(const telemetry::TelemetryStore& store);
};

/// One online assessment produced by the engine.
struct ScoredDatabase {
  telemetry::DatabaseId database_id = telemetry::kInvalidId;
  telemetry::SubscriptionId subscription_id = telemetry::kInvalidId;
  /// Prediction time Tp = created_at + observe window.
  telemetry::Timestamp matured_at = 0;
  /// Registry version of the model that produced the assessment
  /// (0 for fallback assessments).
  uint64_t model_version = 0;
  /// True iff the forest model was unavailable (or the batch deadline
  /// expired) and the §4 weighted-random baseline scored this database
  /// instead. Fallback assessments are never confident.
  bool fallback = false;
  core::LongevityService::Assessment assessment;
};

/// Serving health, coarsest first. See docs/operations.md for the full
/// state machine and the triage playbook attached to each state.
enum class HealthState {
  kHealthy = 0,   ///< Forest-model scoring, no recent degradation.
  kDegraded = 1,  ///< Recent fallback scoring, deadline miss or retry
                  ///< exhaustion; recovers after `recovery_polls` clean
                  ///< polls.
  kShedding = 2,  ///< Ingest backlog crossed the high watermark; new
                  ///< events are rejected until it drains below the low
                  ///< watermark.
};

/// Stable name of a health state ("healthy", "degraded", "shedding").
const char* HealthStateToString(HealthState state);

/// Point-in-time engine counters. Latency quantiles cover the per-
/// database Assess() call (feature extraction + forest inference)
/// inside worker threads, in microseconds.
///
/// This struct is a *view*: the authoritative state lives in the
/// process-wide obs::Registry as `cloudsurv_engine_*` series labelled
/// with this engine's instance id (so multiple engines in one process
/// stay distinguishable, and `Metrics()` keeps per-engine semantics).
/// Quantiles are estimated from the registry histogram's log-scale
/// buckets and are 0 when no assessment has been recorded.
struct EngineMetrics {
  uint64_t events_ingested = 0;
  uint64_t events_flushed = 0;
  uint64_t databases_tracked = 0;   ///< Creations registered for scoring.
  uint64_t databases_cancelled = 0; ///< Dropped before maturing.
  uint64_t databases_scored = 0;
  uint64_t databases_confident = 0;
  uint64_t databases_skipped = 0;   ///< Matured but Assess() failed.
  uint64_t polls = 0;
  uint64_t snapshots_built = 0;   ///< Copy+Finalize snapshot fallbacks.
  uint64_t direct_read_batches = 0; ///< Batches scored off live stores.
  uint64_t databases_fallback = 0;  ///< Scored by the baseline fallback.
  uint64_t deadline_exceeded = 0;   ///< Shard batches past the deadline.
  uint64_t retries = 0;             ///< Ingest/snapshot retry attempts.
  uint64_t rejected_shed = 0;       ///< Ingests rejected while shedding.
  uint64_t rejected_error = 0;      ///< Ingests rejected, retries spent.
  uint64_t rejected_invalid = 0;    ///< Ingests rejected (bad ids).
  HealthState health = HealthState::kHealthy;
  uint64_t health_transitions = 0;
  double scoring_p50_us = 0.0;
  double scoring_p99_us = 0.0;

  double confident_fraction() const {
    return databases_scored == 0
               ? 0.0
               : static_cast<double>(databases_confident) /
                     static_cast<double>(databases_scored);
  }
};

/// Online scoring engine: the serving-path counterpart of the one-shot
/// LongevityService::Assess() batch flow.
///
/// Data flow per poll cycle:
///   producers --Ingest()--> EventIngestBuffer (mutex-striped shards,
///                           keyed by subscription)
///   Poll(now) takes the staged batches on the driver thread, registers
///   creations with the MaturityTracker (min-heap on created_at +
///   observe_days) and cancels databases dropped before maturing. Then
///   every shard with staged events or newly matured databases becomes
///   one job. A job appends the shard's batch to its live
///   TelemetryStore, then (if anything in the shard is due) scores the
///   due databases against the registry's current model snapshot in one
///   AssessMany() call (those inside the batch's virtual-time deadline,
///   if one is set; the rest fall back or are skipped). The jobs are
///   claimed from one atomic index by up to `num_threads` ThreadPool
///   tasks and by the calling thread itself, which joins every task
///   before it returns. When no fault injector is configured and the
///   shard's live store is still readable() (ordered streaming ingest),
///   the job reads the live columnar store directly — no event copy, no
///   Finalize() barrier. Otherwise it falls back to materializing a
///   finalized snapshot store from the shard's event log (the path
///   fault plans target via fault::Site::kSnapshotBuild).
///
/// Correctness: features only read telemetry at or before Tp and only
/// from the scored database's own subscription, and a shard owns every
/// event of its subscriptions — so a shard snapshot taken at any
/// now >= Tp yields bit-identical assessments to batch Assess() on the
/// full final store, regardless of thread count or poll cadence.
///
/// Threading contract: Ingest() is safe from any number of threads;
/// Poll()/Drain() must be called from one driver thread at a time.
/// Poll()/Drain() run shard jobs on the calling thread as well as on
/// the pool's workers. ModelRegistry::Publish()/Activate() may race
/// with everything (hot-swap): each shard job that scores pins the
/// model snapshot it starts with, so swaps never tear a batch.
class ScoringEngine {
 public:
  struct Options {
    size_t num_shards = 16;
    /// Pool workers that append and score shard jobs. Poll()/Drain()
    /// also run shard jobs on the calling thread, so a poll uses up to
    /// num_threads + 1 threads.
    size_t num_threads = 4;
    /// Bound on queued pool tasks; Poll() blocks (backpressure) when
    /// the pool falls behind.
    size_t queue_capacity = 64;
    /// Observation span x in days; must match the published models'
    /// observe_days for assessments to be meaningful.
    double observe_days = 2.0;

    // --- Fault injection & graceful degradation -------------------
    // Every knob below defaults to "off": with the defaults the engine
    // behaves exactly like the pre-fault-layer engine. The knob table
    // in docs/operations.md documents each one and is kept in sync by
    // tools/check_docs.sh.

    /// Hook evaluated at ingest/snapshot/score/model-pin sites; nullptr
    /// disables injection entirely. Not owned; must outlive the engine.
    fault::FaultInjector* fault_injector = nullptr;
    /// Retries after a retryable (Internal/IOError) ingest failure.
    size_t ingest_retries = 3;
    /// Retries after a snapshot materialization failure per shard batch.
    size_t snapshot_retries = 2;
    /// First-retry backoff; doubles per attempt (exponential).
    double retry_backoff_us = 100.0;
    /// Backoff is scaled by a deterministic jitter factor drawn from
    /// [1 - retry_jitter, 1 + retry_jitter) (seeded, never wall clock).
    double retry_jitter = 0.2;
    /// Per-shard-batch scoring deadline in *virtual* microseconds
    /// (injected delays + assess_virtual_cost_us per assessment);
    /// databases past it fall back or are skipped. 0 disables.
    double batch_deadline_us = 0.0;
    /// Virtual cost charged against the deadline per assessment. Using
    /// virtual rather than wall time keeps deadline behaviour
    /// bit-reproducible across machines and thread counts.
    double assess_virtual_cost_us = 0.0;
    /// Ingest backlog (staged events) that trips load shedding; new
    /// events are rejected until the backlog drains. 0 disables.
    size_t shed_high_watermark = 0;
    /// Backlog at which shedding clears (hysteresis; clamped below the
    /// high watermark).
    size_t shed_low_watermark = 0;
    /// Clean polls (no fallback/deadline/retry-exhaustion) required to
    /// return from kDegraded to kHealthy.
    size_t recovery_polls = 3;
    /// P[long-lived] for the weighted-random fallback scorer; negative
    /// disables fallback (model-unavailable polls fail instead).
    double fallback_positive_rate = -1.0;
    /// Seed for fallback draws and retry jitter. Draws are forked per
    /// database id, so fallback outputs are independent of scoring
    /// order and thread count.
    uint64_t fallback_seed = 2018;
  };

  ScoringEngine(RegionContext region, Options options);
  ~ScoringEngine();

  ScoringEngine(const ScoringEngine&) = delete;
  ScoringEngine& operator=(const ScoringEngine&) = delete;

  /// Accepts one telemetry event (thread-safe, lock-striped).
  Status Ingest(telemetry::Event event);

  /// Flushes staged events and scores every database whose observation
  /// window elapsed by `now`. Returns the new assessments sorted by
  /// database id. Requires a published model if anything matured.
  Result<std::vector<ScoredDatabase>> Poll(telemetry::Timestamp now);

  /// Final flush: scores everything still pending regardless of `now`
  /// (the replay has ended; every event the stream will ever carry has
  /// been ingested).
  Result<std::vector<ScoredDatabase>> Drain();

  ModelRegistry& registry() { return registry_; }
  const ModelRegistry& registry() const { return registry_; }

  const Options& options() const { return options_; }
  const RegionContext& region() const { return region_; }

  /// Current serving health (thread-safe snapshot; authoritative
  /// transitions happen on the Poll()/Drain() driver thread, except
  /// shedding engagement which Ingest() performs inline).
  HealthState health() const {
    return static_cast<HealthState>(
        health_.load(std::memory_order_relaxed));
  }

  EngineMetrics Metrics() const;

 private:
  struct ShardLog {
    /// Live columnar store holding every event routed to this shard so
    /// far (arrival order). While ordered streaming keeps it
    /// readable(), shard jobs read it directly; out-of-order
    /// arrivals or a configured fault injector divert scoring to a
    /// copy+Finalize snapshot materialized from its event log.
    std::optional<telemetry::TelemetryStore> store;
  };

  /// Takes the staged batches and updates the tracker with their
  /// creations and drops. Returns the batches (element i is shard i's),
  /// still to be appended to the shard stores. Driver thread only.
  std::vector<std::vector<telemetry::Event>> AbsorbStagedEvents();

  /// Appends `staged` and scores `due`: one job per shard that has
  /// either, run by the pool workers and the calling thread. Returns
  /// the assessments sorted by database id.
  Result<std::vector<ScoredDatabase>> ScoreDue(
      std::vector<std::vector<telemetry::Event>> staged,
      std::vector<PendingDatabase> due);

  struct ShardJob;
  struct ShardJobResult;

  /// Appends a job's events to its shard store, then scores its due
  /// databases (if any). Safe to run concurrently for different shards.
  void RunShardJob(ShardJob& job, ShardJobResult* result);

  /// Runs one poll cycle (shared by Poll and Drain) and applies the
  /// health-state transitions it observed.
  Result<std::vector<ScoredDatabase>> RunCycle(
      std::vector<std::vector<telemetry::Event>> staged,
      std::vector<PendingDatabase> due);

  /// Scores one pending database with the weighted-random fallback.
  ScoredDatabase FallbackScore(const PendingDatabase& pending) const;

  /// Exponential backoff with deterministic jitter for retry `attempt`
  /// (0-based). Thread-safe.
  double RetryBackoffUs(size_t attempt);

  /// Moves `health_` to `next`, counting the transition. Thread-safe.
  void SetHealth(HealthState next);

  /// Post-cycle health bookkeeping: shedding watermarks and the
  /// degraded/healthy recovery counter. Driver thread only.
  void UpdateHealthAfterCycle(bool dirty);

  /// Registry-owned series backing EngineMetrics, labelled
  /// engine="<instance id>". Raw pointers resolved at construction;
  /// the registry outlives every engine.
  struct EngineSeries {
    obs::Counter* events_flushed = nullptr;
    obs::Counter* databases_tracked = nullptr;
    obs::Counter* databases_cancelled = nullptr;
    obs::Counter* databases_scored = nullptr;
    obs::Counter* databases_confident = nullptr;
    obs::Counter* databases_skipped = nullptr;
    obs::Counter* polls = nullptr;
    obs::Counter* snapshots = nullptr;
    obs::Counter* direct_reads = nullptr;
    obs::Counter* fallback_scored = nullptr;
    obs::Counter* deadline_exceeded = nullptr;
    obs::Counter* retries = nullptr;
    obs::Counter* rejected_shed = nullptr;
    obs::Counter* rejected_error = nullptr;
    obs::Counter* rejected_invalid = nullptr;
    obs::Gauge* health_state = nullptr;
    obs::Counter* health_transitions = nullptr;
    obs::Histogram* scoring_latency_us = nullptr;
  };

  static EngineSeries MakeEngineSeries();

  RegionContext region_;
  Options options_;
  EventIngestBuffer ingest_;
  MaturityTracker tracker_;
  ModelRegistry registry_;
  ThreadPool pool_;

  /// A shard log is touched only by the one job that owns its shard
  /// within a poll, and the driver joins every job before the next
  /// poll, so shard logs need no lock of their own.
  std::vector<ShardLog> shard_logs_;

  EngineSeries series_;

  /// Fitted iff options_.fallback_positive_rate >= 0.
  ml::WeightedRandomClassifier fallback_model_;

  /// Health state machine (values of HealthState). Atomic because
  /// Ingest() engages shedding from producer threads while the driver
  /// thread owns every other transition.
  std::atomic<int> health_{0};
  /// Salt for retry-jitter draws; advancing it per retry keeps sleeps
  /// varied without sharing an Rng across producer threads.
  std::atomic<uint64_t> jitter_salt_{0};
  /// Consecutive clean polls while degraded. Driver thread only.
  size_t clean_polls_ = 0;
  /// True while the current cycle observed degradation. Set by shard
  /// jobs (before the join), read by the driver.
  std::atomic<bool> cycle_dirty_{false};
};

}  // namespace cloudsurv::serving

#endif  // CLOUDSURV_SERVING_SCORING_ENGINE_H_
