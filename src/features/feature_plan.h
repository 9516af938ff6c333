#ifndef CLOUDSURV_FEATURES_FEATURE_PLAN_H_
#define CLOUDSURV_FEATURES_FEATURE_PLAN_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "features/features.h"
#include "ml/dataset.h"
#include "telemetry/store.h"

namespace cloudsurv::features {

/// Feature families in row column order (the names family covers both
/// the server and database name blocks).
enum class FeatureFamily : uint8_t {
  kCreationTime = 0,
  kNames,
  kSize,
  kSlo,
  kSubscriptionType,
  kSubscriptionHistory,
  kNameNgrams,
};
inline constexpr size_t kNumFeatureFamilies = 7;

/// A FeatureConfig compiled once into a resolved column layout, and the
/// one feature extractor: ExtractRow fills one row, ExtractBatch a
/// matrix, both through one row kernel.
///
/// The batch path is bit-identical to per-row ExtractRow but scans a
/// subscription's siblings once for all its targets in the batch (a
/// sorted sibling table with per-sample peak prefix maxima, O(S log S)
/// per subscription instead of an O(S) re-scan per target), and writes
/// into one caller-provided row-major matrix.
class FeaturePlan {
 public:
  /// One family's slice of the output row.
  struct FamilySlot {
    bool enabled = false;
    size_t offset = 0;  ///< First column of the family.
    size_t width = 0;   ///< Columns; 0 when disabled.
  };

  FeaturePlan() = default;

  /// Compiles `config` into a plan. Cheap (no allocation beyond the
  /// fixed slot table). Fails with InvalidArgument naming the field on
  /// an observation_days or name_ngram_buckets out of its bounds.
  static Result<FeaturePlan> Compile(const FeatureConfig& config);

  bool compiled() const { return compiled_; }
  const FeatureConfig& config() const { return config_; }

  /// Total row width; equals FeatureNames(config()).size().
  size_t num_features() const { return width_; }

  const FamilySlot& family(FeatureFamily f) const {
    return slots_[static_cast<size_t>(f)];
  }

  /// Extracts one database of `store` into `out` (num_features()
  /// values). Fails as strict ExtractBatch does when the store is not
  /// readable or the database was dropped inside the observation
  /// window. Records no metrics.
  Status ExtractRow(const telemetry::TelemetryStore& store,
                    const telemetry::DatabaseRecord& record,
                    std::span<double> out) const;

  /// Extracts features for every id into `out`, a caller-provided
  /// row-major matrix of ids.size() x num_features() doubles; row i
  /// holds ids[i]. Strict: returns the first per-id failure (unknown
  /// id, store not readable, database dropped inside the observation
  /// window) exactly as a FindDatabase + ExtractRow loop would, in ids
  /// order.
  ///
  /// `pool` optionally fans the sweep out over whole subscription
  /// groups; rows land in disjoint slices, so results are identical at
  /// any thread count. Do not pass a pool whose workers are executing
  /// this call (nested submission into a bounded queue can deadlock).
  Status ExtractBatch(const telemetry::TelemetryStore& store,
                      std::span<const telemetry::DatabaseId> ids,
                      double* out, ThreadPool* pool = nullptr) const;

  /// Like ExtractBatch but per-row: row_ok[i] is 1 when row i was
  /// extracted and 0 when FindDatabase + ExtractRow would fail for ids[i]
  /// (that row's output slice is left untouched). When `editions` is
  /// given, (*editions)[i] is the creation edition of every extracted
  /// row i, read from the record the extraction resolved (unspecified
  /// where row_ok[i] is 0). Only misuse (an uncompiled plan) returns a
  /// non-OK status.
  Status ExtractBatchPartial(
      const telemetry::TelemetryStore& store,
      std::span<const telemetry::DatabaseId> ids, double* out,
      std::vector<uint8_t>* row_ok, ThreadPool* pool = nullptr,
      std::vector<telemetry::Edition>* editions = nullptr) const;

 private:
  struct SiblingTable;  ///< One subscription's siblings, for a batch.

  FeatureConfig config_;
  std::array<FamilySlot, kNumFeatureFamilies> slots_;
  size_t width_ = 0;
  bool compiled_ = false;

  Status ExtractImpl(const telemetry::TelemetryStore& store,
                     std::span<const telemetry::DatabaseId> ids, double* out,
                     std::vector<uint8_t>* row_ok,
                     std::vector<telemetry::Edition>* editions,
                     ThreadPool* pool) const;

  /// The row kernel. The history family reads `siblings` when given
  /// and re-scans the subscription otherwise; both are bit-identical.
  void FillRow(const telemetry::TelemetryStore& store,
               const telemetry::DatabaseRecord& record,
               telemetry::Timestamp tp, const SiblingTable* siblings,
               double* row) const;
};

/// BuildDataset through a compiled plan: one batch extraction into a
/// contiguous matrix (optionally fanned over `pool`), then the usual
/// ml::Dataset assembly. Bit-identical to the config-taking overload.
Result<ml::Dataset> BuildDataset(const telemetry::TelemetryStore& store,
                                 const std::vector<telemetry::DatabaseId>& ids,
                                 const std::vector<int>& labels,
                                 const FeaturePlan& plan, int num_classes = 2,
                                 ThreadPool* pool = nullptr);

}  // namespace cloudsurv::features

#endif  // CLOUDSURV_FEATURES_FEATURE_PLAN_H_
