#ifndef CLOUDSURV_SERVING_MODEL_REGISTRY_H_
#define CLOUDSURV_SERVING_MODEL_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/service.h"
#include "fault/fault.h"

namespace cloudsurv::serving {

/// Versioned store of immutable LongevityService snapshots with atomic
/// hot-swap.
///
/// A background retrain publishes a new snapshot with Publish(); scoring
/// threads grab the active snapshot with Current() and keep using that
/// exact model for the whole batch, so a swap mid-batch can never serve
/// a torn model — the old snapshot stays alive (shared_ptr) until its
/// last in-flight batch finishes. Activate() re-points the active
/// version for rollbacks.
///
/// Models are immutable once published: const access only, and callers
/// must not mutate the service behind the pointer.
class ModelRegistry {
 public:
  using ModelPtr = std::shared_ptr<const core::LongevityService>;

  /// One published snapshot.
  struct Entry {
    uint64_t version = 0;  ///< 1-based, monotonically increasing.
    std::string name;      ///< Free-form label ("2017-03-01-retrain").
    ModelPtr model;
  };

  /// The active model together with its version, read atomically.
  struct ActiveModel {
    uint64_t version = 0;  ///< 0 when the registry is empty.
    ModelPtr model;        ///< nullptr when the registry is empty.
  };

  /// An optional fault injector stretches the Publish() critical
  /// section (delay/stall faults at `fault::Site::kRegistryPublish`),
  /// widening the swap window that scoring threads race against.
  /// nullptr disables the hook.
  explicit ModelRegistry(fault::FaultInjector* fault_injector = nullptr)
      : fault_injector_(fault_injector) {}

  /// Publishes a snapshot and makes it active. Returns the new version.
  /// Rejects null models. Every service holds only compiled forests,
  /// so publishing never compiles anything.
  Result<uint64_t> Publish(std::string name, ModelPtr model);

  /// Loads a CSRV artifact from `path` and publishes it as `name`.
  /// The artifact is fully checksum-verified before the snapshot
  /// becomes visible, and its compiled forests bind straight to the
  /// (typically mmap'ed) file bytes, so publish-from-file is the fast
  /// rollback path. Corrupt, truncated, or version-mismatched files are
  /// rejected and the active model is left untouched.
  Result<uint64_t> PublishFromFile(
      std::string name, const std::string& path,
      const artifact::ArtifactReader::Options& reader_options);
  Result<uint64_t> PublishFromFile(std::string name,
                                   const std::string& path) {
    return PublishFromFile(std::move(name), path,
                           artifact::ArtifactReader::Options());
  }

  /// Persists the active snapshot as a CSRV artifact at `path`
  /// (atomic tmp-file + rename). FailedPrecondition when the registry
  /// is empty. Pair with PublishFromFile for on-disk rollback.
  Status PersistActive(const std::string& path) const;

  /// The active snapshot (nullptr if nothing was published yet).
  ModelPtr Current() const;

  /// The active snapshot and its version in one consistent read.
  ActiveModel CurrentWithVersion() const;

  uint64_t current_version() const;

  /// Looks up a published version (1-based).
  Result<Entry> Get(uint64_t version) const;

  /// Re-points the active model at an older version (rollback) or a
  /// newer one (canary promotion). NotFound for unknown versions.
  Status Activate(uint64_t version);

  size_t num_versions() const;

  /// All published versions, oldest first.
  std::vector<Entry> ListVersions() const;

 private:
  fault::FaultInjector* const fault_injector_ = nullptr;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
  size_t active_index_ = 0;  ///< Into entries_; valid iff !entries_.empty().
};

}  // namespace cloudsurv::serving

#endif  // CLOUDSURV_SERVING_MODEL_REGISTRY_H_
