#ifndef CLOUDSURV_FAULT_FAULT_H_
#define CLOUDSURV_FAULT_FAULT_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "obs/metrics.h"

namespace cloudsurv::fault {

/// Deterministic fault injection.
///
/// This layer sits between `obs` and `common`: `common`'s ThreadPool
/// (and everything above it) compiles FaultPoint hooks against it, so
/// it may depend only on the standard library and `obs`. That is why
/// plan parsing reports errors through a bool + message out-parameter
/// instead of `common`'s Status — Status lives one layer up.
///
/// Model: a FaultPlan is a list of rules, each bound to a compiled-in
/// hook site. Every time a hook evaluates, the (site, shard) pair's hit
/// counter advances; a rule fires iff the hit index satisfies its
/// `from`/`until`/`every`/`count` schedule. Firing is therefore a pure
/// function of the hit index — no clocks, no random draws — so a fixed
/// configuration replays the exact same fault sequence on every run,
/// and the sorted FaultLog is comparable across runs byte for byte.
///
/// Determinism fine print: per-(site, shard) hit counters are exact
/// under concurrency (atomic advance under the injector mutex), and
/// every schedule knob — `count` included — is accounted per counter,
/// so the *set* of fired (site, shard, hit) triples is always
/// reproducible. Which caller observes a given hit can vary with
/// thread scheduling; rules on shard-keyed sites (`ingest.shard`,
/// `engine.snapshot`, `engine.score`, `registry.swap`) are
/// scheduling-independent because
/// each shard's hits occur in a fixed order, while `pool.task` hits
/// interleave across workers — restrict output-affecting rules to
/// shard-keyed sites when exact replay matters (delays are always
/// output-neutral).

/// Compiled-in hook points.
enum class Site {
  kPoolTask = 0,    ///< ThreadPool worker, before running a task.
  kIngestShard,     ///< EventIngestBuffer::Ingest, keyed by shard.
  kSnapshotBuild,   ///< ScoringEngine snapshot materialization, by shard.
  kScoreAssess,     ///< ScoringEngine, once per database of a shard batch.
  kRegistrySwap,    ///< ScoringEngine model pin, keyed by shard.
  kRegistryPublish, ///< ModelRegistry::Publish critical section.
  kEngineClock,     ///< ScoringEngine::Poll clock read.
};
inline constexpr size_t kNumSites = 7;

/// Stable spec name of a site ("pool.task", "ingest.shard", ...).
const char* SiteToString(Site site);
bool SiteFromString(std::string_view name, Site* site);

enum class FaultKind {
  kDelay = 0,   ///< Sleep `delay_us` before the hooked operation.
  kStall,       ///< Sleep `delay_us` while the owner holds its lock.
  kAllocFail,   ///< Simulated allocation failure (retryable).
  kIoFail,      ///< Simulated IO failure (retryable).
  kSwapRace,    ///< Model pin observes the registry mid-swap (no model).
  kClockSkew,   ///< Poll clock reads skewed by `skew_s` seconds.
};
inline constexpr size_t kNumFaultKinds = 6;

/// Stable spec name of a kind ("delay", "alloc_fail", ...).
const char* FaultKindToString(FaultKind kind);
bool FaultKindFromString(std::string_view name, FaultKind* kind);

/// One scheduled fault. A rule fires at hit index i (0-based, per
/// (site, shard) counter) iff
///   i >= from && i < until && (i - from) % every == 0
/// and i is among the first `count` matching hits of that counter
/// ((i - from) / every < count). Accounting `count` per counter — not
/// globally across shards — keeps firing a pure function of the hit
/// index, so racing shards cannot steal each other's budget.
struct FaultRule {
  Site site = Site::kPoolTask;
  FaultKind kind = FaultKind::kDelay;
  uint64_t every = 1;
  uint64_t from = 0;
  uint64_t until = UINT64_MAX;
  uint64_t count = UINT64_MAX;
  /// Restricts the rule to one shard key; -1 matches every key.
  int64_t shard = -1;
  double delay_us = 0.0;   ///< kDelay / kStall.
  int64_t skew_s = 0;      ///< kClockSkew (may be negative = clock behind).
};

/// A parsed fault plan: a seed (salts retry-backoff jitter in the
/// serving layer; never affects which faults fire) plus rules.
///
/// Text format, line oriented ('#' starts a comment):
///
///   seed 42
///   fault <site> <kind> [every=N] [from=N] [until=N] [count=N]
///                       [shard=K] [delay_us=X] [skew_s=X]
///
/// e.g.
///
///   seed 7
///   fault pool.task delay every=100 delay_us=2000
///   fault ingest.shard stall shard=3 from=10 until=20 delay_us=500
///   fault engine.snapshot io_fail every=7 count=2
///   fault registry.swap swap_race every=3
///   fault engine.clock clock_skew skew_s=-3600 from=5
struct FaultPlan {
  uint64_t seed = 0;
  std::vector<FaultRule> rules;

  /// Parses the text spec. On failure returns false and sets *error to
  /// a one-line diagnostic naming the offending line.
  static bool Parse(const std::string& text, FaultPlan* plan,
                    std::string* error);

  /// Canonical round-trippable rendering of the plan.
  std::string ToString() const;

  /// True iff no rule can change engine outputs: only delays, stalls
  /// and non-forward clock skew (scoring later never changes an
  /// assessment; scoring *earlier* than Tp-complete ingestion can).
  bool output_neutral() const;
};

/// One fired fault, as recorded in the log.
struct FaultEvent {
  Site site = Site::kPoolTask;
  FaultKind kind = FaultKind::kDelay;
  int64_t shard = -1;   ///< Hit-counter key the fault fired under.
  uint64_t hit = 0;     ///< Hit index at that (site, shard) counter.
  double delay_us = 0.0;
  int64_t skew_s = 0;
};

/// What one hook evaluation asks its caller to do. Multiple rules can
/// fire on the same hit; delays accumulate, flags OR together.
struct Outcome {
  double delay_us = 0.0;   ///< Sleep this long without holding locks.
  double stall_us = 0.0;   ///< Sleep this long while holding the lock.
  bool fail = false;       ///< Simulate a failure (see io flag).
  bool io = false;         ///< Failed as IO error (else allocation).
  bool swap_race = false;  ///< Pretend the model registry is mid-swap.
  int64_t skew_s = 0;      ///< Add to the clock being read.

  bool fired() const {
    return delay_us > 0.0 || stall_us > 0.0 || fail || swap_race ||
           skew_s != 0;
  }
};

/// Sleeps for `us` microseconds (no-op for us <= 0). Hook sites apply
/// Outcome delays through this so the sleep policy lives in one place.
void SleepFor(double us);

/// Evaluates a FaultPlan at hook sites and records every fired fault.
///
/// Thread-safe. Sites with no rules short-circuit on a const lookup
/// table without taking the mutex, so a present-but-irrelevant injector
/// costs one branch per hook.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Advances the (site, shard) hit counter and matches every rule of
  /// the site against the new hit index. Does not sleep — the caller
  /// applies the returned delays (it knows its own lock context).
  Outcome Evaluate(Site site, int64_t shard = -1);

  const FaultPlan& plan() const { return plan_; }
  uint64_t seed() const { return plan_.seed; }

  /// Every fault fired so far, sorted by (site, shard, hit) so two runs
  /// of the same configuration produce byte-identical logs regardless
  /// of thread scheduling.
  std::vector<FaultEvent> Events() const;

  /// One line per fired fault: "ingest.shard[3]#12 stall 500us".
  std::string LogToString() const;

  uint64_t total_fired() const;

 private:
  struct RuleState {
    FaultRule rule;
    obs::Counter* injected = nullptr;  ///< cloudsurv_fault_injected_total.
  };

  FaultPlan plan_;
  std::array<bool, kNumSites> site_has_rules_{};
  mutable std::mutex mu_;
  std::vector<RuleState> rules_;
  /// Hit counters keyed by (site, shard).
  std::array<std::unordered_map<int64_t, uint64_t>, kNumSites> hits_;
  std::vector<FaultEvent> log_;
};

}  // namespace cloudsurv::fault

#endif  // CLOUDSURV_FAULT_FAULT_H_
