#include "features/feature_plan.h"

#include <algorithm>
#include <future>
#include <limits>
#include <numeric>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "stats/descriptive.h"
#include "telemetry/civil_time.h"
#include "telemetry/types.h"

namespace cloudsurv::features {

namespace {

using telemetry::DatabaseId;
using telemetry::DatabaseRecord;
using telemetry::Edition;
using telemetry::kSecondsPerDay;
using telemetry::SubscriptionId;
using telemetry::TelemetryStore;
using telemetry::Timestamp;

/// Sentinel for a never-dropped sibling: compares greater than any real
/// timestamp, so `dropped < tp` and `dropped > tc` need no optional.
constexpr Timestamp kNeverDropped = std::numeric_limits<Timestamp>::max();

/// Below this many rows the fan-out bookkeeping costs more than it
/// saves; the sweep runs inline on the caller's thread.
constexpr size_t kMinRowsForFanout = 256;

struct Metrics {
  obs::Counter* rows_total = nullptr;
  obs::Histogram* extract_latency_us = nullptr;
  obs::Counter* subscription_groups_total = nullptr;
};

const Metrics& FeatureMetrics() {
  static const Metrics* kMetrics = [] {
    auto* m = new Metrics();
    obs::Registry& registry = obs::Registry::Default();
    m->rows_total = registry.GetCounter(
        "cloudsurv_features_rows_total",
        "Feature rows produced by batch extraction", "rows");
    m->extract_latency_us = registry.GetHistogram(
        "cloudsurv_features_extract_latency_us",
        "Wall time of one FeaturePlan batch extraction call", "us");
    m->subscription_groups_total = registry.GetCounter(
        "cloudsurv_features_subscription_groups_total",
        "Subscription sibling groups assembled by batch extraction",
        "groups");
    return m;
  }();
  return *kMetrics;
}

/// The prediction time Tp = created_at + observation_days of a found
/// record, after the per-id checks every extraction runs, in order.
Result<Timestamp> PredictionTime(const TelemetryStore& store,
                                 const DatabaseRecord& record,
                                 const FeatureConfig& config) {
  if (!store.readable()) {
    return Status::FailedPrecondition("telemetry store is not readable");
  }
  const Timestamp tp =
      record.created_at +
      static_cast<Timestamp>(config.observation_days *
                             static_cast<double>(kSecondsPerDay));
  if (record.dropped_at.has_value() && *record.dropped_at < tp) {
    return Status::FailedPrecondition(
        "database did not survive the observation window; the prediction "
        "task is undefined for it");
  }
  return tp;
}

void WriteSummary(const stats::RunningStats& acc, double* out) {
  out[0] = acc.max();
  out[1] = acc.min();
  out[2] = acc.mean();
  out[3] = acc.stddev();
}

}  // namespace

/// One subscription's siblings flattened for shared reuse across every
/// database of that subscription: creation/drop columns in creation
/// order (so group boundaries are binary searches) and per-sibling size
/// samples with running prefix maxima (so a sibling's peak size at any
/// Tp is one binary search instead of a rescan). Built once per
/// subscription; cleared, not deallocated, between groups.
struct FeaturePlan::SiblingTable {
  std::vector<Timestamp> created;
  std::vector<Timestamp> dropped;     ///< kNeverDropped when censored.
  std::vector<uint32_t> sample_off;   ///< created.size() + 1 offsets.
  std::vector<Timestamp> sample_ts;
  std::vector<double> sample_peak;    ///< Prefix max per sibling.

  void Build(const TelemetryStore& store, SubscriptionId sub) {
    created.clear();
    dropped.clear();
    sample_off.clear();
    sample_ts.clear();
    sample_peak.clear();
    sample_off.push_back(0);
    for (DatabaseId sid : store.DatabasesOfSubscription(sub)) {
      auto sibling = store.FindDatabase(sid);
      if (!sibling.ok()) continue;  // mirrors the re-scan's skip
      created.push_back(sibling->created_at);
      dropped.push_back(sibling->dropped_at.has_value()
                            ? *sibling->dropped_at
                            : kNeverDropped);
      double run_peak = 0.0;
      bool first = true;
      for (const telemetry::SizeObservation& o : sibling->size_samples) {
        run_peak = first ? o.size_mb : std::max(run_peak, o.size_mb);
        first = false;
        sample_ts.push_back(o.timestamp);
        sample_peak.push_back(run_peak);
      }
      sample_off.push_back(static_cast<uint32_t>(sample_ts.size()));
    }
  }

  /// Peak observed size of sibling `k` over samples at or before `tp`.
  /// max(0.0, prefix-max) equals the re-scan's left fold from 0.0 for the
  /// finite sizes telemetry carries.
  double PeakBefore(size_t k, Timestamp tp) const {
    const uint32_t begin = sample_off[k];
    const uint32_t end = sample_off[k + 1];
    const Timestamp* first = sample_ts.data() + begin;
    const Timestamp* last = sample_ts.data() + end;
    const Timestamp* it = std::upper_bound(first, last, tp);
    if (it == first) return 0.0;
    return std::max(0.0, sample_peak[begin + (it - first) - 1]);
  }

  /// Subscription-history features of one target created at `tc`.
  /// Group membership comes from binary searches on the creation
  /// column; the single pass over the created-before-Tc prefix feeds
  /// the per-group Welford accumulators in creation order — the exact
  /// value sequences SubscriptionHistoryFeaturesInto feeds them, so
  /// every output double is bit-identical. The target itself sits in
  /// the table but its created_at == Tc, so the strict comparisons
  /// exclude it just as the re-scan's id check does.
  void History(Timestamp tc, Timestamp tp, double* out) const {
    const Timestamp* cb = created.data();
    const Timestamp* ce = cb + created.size();
    const size_t before_tc = std::lower_bound(cb, ce, tc) - cb;
    const size_t through_tc = std::upper_bound(cb, ce, tc) - cb;
    const size_t through_tp = std::upper_bound(cb, ce, tp) - cb;
    const size_t g3_count =
        through_tp > through_tc ? through_tp - through_tc : 0;

    size_t g1_count = 0;
    stats::RunningStats g1_size, g1_life, g2_size, g2_life;
    for (size_t k = 0; k < before_tc; ++k) {
      const double peak = PeakBefore(k, tp);
      const Timestamp end = dropped[k] < tp ? dropped[k] : tp;
      const double lifespan = static_cast<double>(end - created[k]) /
                              static_cast<double>(kSecondsPerDay);
      g2_size.Add(peak);
      g2_life.Add(lifespan);
      if (dropped[k] > tc) {  // alive at Tc
        ++g1_count;
        g1_size.Add(peak);
        g1_life.Add(lifespan);
      }
    }
    out[0] = static_cast<double>(g1_count);
    out[1] = static_cast<double>(before_tc);
    out[2] = static_cast<double>(g3_count);
    WriteSummary(g1_size, out + 3);
    WriteSummary(g1_life, out + 7);
    WriteSummary(g2_size, out + 11);
    WriteSummary(g2_life, out + 15);
  }
};

Result<FeaturePlan> FeaturePlan::Compile(const FeatureConfig& config) {
  if (!(config.observation_days > 0.0 &&  // NaN fails too
        config.observation_days <= kMaxObservationDays)) {
    return Status::InvalidArgument(
        "observation_days must be a finite number of days in (0, " +
        std::to_string(static_cast<int>(kMaxObservationDays)) + "]");
  }
  if (config.name_ngram_buckets > kMaxNameNgramBuckets) {
    return Status::InvalidArgument("name_ngram_buckets must be at most " +
                                   std::to_string(kMaxNameNgramBuckets));
  }
  FeaturePlan plan;
  plan.config_ = config;
  size_t offset = 0;
  const auto set = [&plan, &offset](FeatureFamily f, bool enabled,
                                    size_t width) {
    FamilySlot& slot = plan.slots_[static_cast<size_t>(f)];
    slot.enabled = enabled;
    slot.offset = offset;
    slot.width = enabled ? width : 0;
    offset += slot.width;
  };
  set(FeatureFamily::kCreationTime, config.include_creation_time,
      kCreationTimeWidth);
  set(FeatureFamily::kNames, config.include_names, 2 * kNameShapeWidth);
  set(FeatureFamily::kSize, config.include_size, kSizeWidth);
  set(FeatureFamily::kSlo, config.include_slo, kSloWidth);
  set(FeatureFamily::kSubscriptionType, config.include_subscription_type,
      kSubscriptionTypeWidth);
  set(FeatureFamily::kSubscriptionHistory,
      config.include_subscription_history, kSubscriptionHistoryWidth);
  set(FeatureFamily::kNameNgrams, config.include_name_ngrams,
      static_cast<size_t>(std::max(1, config.name_ngram_buckets)));
  plan.width_ = offset;
  plan.compiled_ = true;
  return plan;
}

void FeaturePlan::FillRow(const TelemetryStore& store,
                          const DatabaseRecord& record, Timestamp tp,
                          const SiblingTable* siblings, double* row) const {
  using F = FeatureFamily;
  const auto slice = [this, row](F f) {
    const FamilySlot& slot = family(f);
    return std::span<double>(row + slot.offset, slot.width);
  };
  if (config_.include_creation_time) {
    CreationTimeFeaturesInto(store, record, slice(F::kCreationTime));
  }
  if (config_.include_names) {
    const std::span<double> names = slice(F::kNames);
    NameShapeFeaturesInto(record.server_name, names.first(kNameShapeWidth));
    NameShapeFeaturesInto(record.database_name, names.last(kNameShapeWidth));
  }
  if (config_.include_size) SizeFeaturesInto(record, tp, slice(F::kSize));
  if (config_.include_slo) SloFeaturesInto(record, tp, slice(F::kSlo));
  if (config_.include_subscription_type) {
    SubscriptionTypeFeaturesInto(record, slice(F::kSubscriptionType));
  }
  if (config_.include_subscription_history) {
    const std::span<double> history = slice(F::kSubscriptionHistory);
    if (siblings != nullptr) {
      siblings->History(record.created_at, tp, history.data());
    } else {
      SubscriptionHistoryFeaturesInto(store, record, tp, history);
    }
  }
  if (config_.include_name_ngrams) {
    NameNgramFeaturesInto(record.database_name, slice(F::kNameNgrams));
  }
}

Status FeaturePlan::ExtractRow(const TelemetryStore& store,
                               const DatabaseRecord& record,
                               std::span<double> out) const {
  if (!compiled_) {
    return Status::FailedPrecondition("feature plan is not compiled");
  }
  if (out.size() != width_) {
    return Status::InvalidArgument("row buffer holds " +
                                   std::to_string(out.size()) +
                                   " values, the plan extracts " +
                                   std::to_string(width_));
  }
  CLOUDSURV_ASSIGN_OR_RETURN(const Timestamp tp,
                             PredictionTime(store, record, config_));
  FillRow(store, record, tp, /*siblings=*/nullptr, out.data());
  return Status::OK();
}

Status FeaturePlan::ExtractBatch(const TelemetryStore& store,
                                 std::span<const DatabaseId> ids, double* out,
                                 ThreadPool* pool) const {
  return ExtractImpl(store, ids, out, /*row_ok=*/nullptr,
                     /*editions=*/nullptr, pool);
}

Status FeaturePlan::ExtractBatchPartial(const TelemetryStore& store,
                                        std::span<const DatabaseId> ids,
                                        double* out,
                                        std::vector<uint8_t>* row_ok,
                                        ThreadPool* pool,
                                        std::vector<Edition>* editions) const {
  if (row_ok == nullptr) {
    return Status::InvalidArgument("row_ok must not be null");
  }
  return ExtractImpl(store, ids, out, row_ok, editions, pool);
}

Status FeaturePlan::ExtractImpl(const TelemetryStore& store,
                                std::span<const DatabaseId> ids, double* out,
                                std::vector<uint8_t>* row_ok,
                                std::vector<Edition>* editions,
                                ThreadPool* pool) const {
  if (!compiled_) {
    return Status::FailedPrecondition("feature plan is not compiled");
  }
  const Metrics& metrics = FeatureMetrics();
  obs::ScopedTimer timer(metrics.extract_latency_us);
  const size_t n = ids.size();
  const bool strict = row_ok == nullptr;
  if (row_ok != nullptr) row_ok->assign(n, 1);
  if (editions != nullptr) editions->assign(n, Edition::kBasic);

  // Phase A — resolve and validate every row in ids order, with the
  // exact check sequence (and messages) of a FindDatabase + ExtractRow
  // loop, so strict mode fails identically and partial mode marks
  // exactly the rows that loop would reject.
  std::vector<uint32_t> valid;    // index into ids (== output row)
  std::vector<DatabaseRecord> recs;
  std::vector<Timestamp> tps;
  valid.reserve(n);
  recs.reserve(n);
  tps.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    auto record = store.FindDatabase(ids[i]);
    const Result<Timestamp> tp =
        record.ok() ? PredictionTime(store, *record, config_)
                    : Result<Timestamp>(record.status());
    if (!tp.ok()) {
      if (strict) return tp.status();
      (*row_ok)[i] = 0;
      continue;
    }
    valid.push_back(static_cast<uint32_t>(i));
    if (editions != nullptr) (*editions)[i] = record->initial_edition();
    recs.push_back(std::move(*record));
    tps.push_back(*tp);
  }

  const size_t n_valid = valid.size();
  const FamilySlot& history = family(FeatureFamily::kSubscriptionHistory);

  // Phase B — order valid rows so each subscription's databases are
  // consecutive; its sibling table is then built once and shared.
  std::vector<uint32_t> ordered(n_valid);
  std::iota(ordered.begin(), ordered.end(), 0u);
  size_t num_groups = 0;
  if (history.enabled && n_valid > 0) {
    std::sort(ordered.begin(), ordered.end(),
              [&recs](uint32_t a, uint32_t b) {
                const SubscriptionId sa = recs[a].subscription_id;
                const SubscriptionId sb = recs[b].subscription_id;
                return sa != sb ? sa < sb : a < b;
              });
    num_groups = 1;
    for (size_t k = 1; k < n_valid; ++k) {
      if (recs[ordered[k]].subscription_id !=
          recs[ordered[k - 1]].subscription_id) {
        ++num_groups;
      }
    }
  }

  // Extraction worker over one ordered range. Ranges are cut at
  // subscription boundaries and output rows are disjoint, so results
  // are identical at any thread count.
  const auto process = [&](size_t range_begin, size_t range_end) {
    SiblingTable table;
    SubscriptionId table_sub = 0;
    bool have_table = false;
    for (size_t k = range_begin; k < range_end; ++k) {
      const uint32_t v = ordered[k];
      const DatabaseRecord& rec = recs[v];
      // A subscription with a single target in this batch gains
      // nothing from a shared table; the row kernel's re-scan skips the
      // table-build allocations (this is the common case for the
      // serving engine's small shard batches). Both are bit-identical,
      // so the choice is invisible in the output.
      const bool shared =
          history.enabled &&
          ((k > range_begin && recs[ordered[k - 1]].subscription_id ==
                                   rec.subscription_id) ||
           (k + 1 < range_end && recs[ordered[k + 1]].subscription_id ==
                                     rec.subscription_id));
      const SiblingTable* siblings = nullptr;
      if (shared) {
        if (!have_table || rec.subscription_id != table_sub) {
          table.Build(store, rec.subscription_id);
          table_sub = rec.subscription_id;
          have_table = true;
        }
        siblings = &table;
      }
      FillRow(store, rec, tps[v], siblings,
              out + static_cast<size_t>(valid[v]) * width_);
    }
  };

  size_t n_chunks = 1;
  if (pool != nullptr && pool->num_threads() > 1 &&
      n_valid >= kMinRowsForFanout) {
    n_chunks = std::min(pool->num_threads() * 4,
                        n_valid / (kMinRowsForFanout / 2));
  }
  if (n_chunks <= 1) {
    process(0, n_valid);
  } else {
    // Cut points land only on subscription boundaries (any row boundary
    // when the history family is off).
    std::vector<size_t> cuts{0};
    const size_t target = (n_valid + n_chunks - 1) / n_chunks;
    size_t since_cut = 0;
    for (size_t k = 1; k < n_valid; ++k) {
      ++since_cut;
      const bool boundary =
          !history.enabled || recs[ordered[k]].subscription_id !=
                                  recs[ordered[k - 1]].subscription_id;
      if (since_cut >= target && boundary) {
        cuts.push_back(k);
        since_cut = 0;
      }
    }
    cuts.push_back(n_valid);
    std::vector<std::future<void>> futures;
    futures.reserve(cuts.size() - 1);
    for (size_t c = 0; c + 1 < cuts.size(); ++c) {
      const size_t a = cuts[c];
      const size_t b = cuts[c + 1];
      futures.push_back(pool->Submit([&process, a, b] { process(a, b); }));
    }
    for (auto& f : futures) f.get();
  }

  metrics.rows_total->Increment(n_valid);
  if (num_groups > 0) {
    metrics.subscription_groups_total->Increment(num_groups);
  }
  return Status::OK();
}

Result<ml::Dataset> BuildDataset(const TelemetryStore& store,
                                 const std::vector<DatabaseId>& ids,
                                 const std::vector<int>& labels,
                                 const FeaturePlan& plan, int num_classes,
                                 ThreadPool* pool) {
  if (ids.size() != labels.size()) {
    return Status::InvalidArgument("ids and labels must be parallel");
  }
  const size_t width = plan.num_features();
  std::vector<double> matrix(ids.size() * width);
  CLOUDSURV_RETURN_NOT_OK(plan.ExtractBatch(store, ids, matrix.data(), pool));
  std::vector<std::vector<double>> rows;
  rows.reserve(ids.size());
  for (size_t i = 0; i < ids.size(); ++i) {
    rows.emplace_back(matrix.begin() + static_cast<ptrdiff_t>(i * width),
                      matrix.begin() + static_cast<ptrdiff_t>((i + 1) * width));
  }
  return ml::Dataset::Make(FeatureNames(plan.config()), std::move(rows),
                           labels, num_classes);
}

}  // namespace cloudsurv::features
