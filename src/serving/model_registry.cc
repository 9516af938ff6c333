#include "serving/model_registry.h"

#include <utility>

namespace cloudsurv::serving {

Result<uint64_t> ModelRegistry::Publish(std::string name, ModelPtr model) {
  if (model == nullptr) {
    return Status::InvalidArgument("cannot publish a null model");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (fault_injector_ != nullptr) {
    // Sleep inside the lock: the point is to widen the swap window so
    // readers race against a slow publish. swap_race outcomes are
    // evaluated by the scoring engine per shard, not here.
    const fault::Outcome outcome =
        fault_injector_->Evaluate(fault::Site::kRegistryPublish);
    fault::SleepFor(outcome.delay_us + outcome.stall_us);
  }
  Entry entry;
  entry.version = static_cast<uint64_t>(entries_.size()) + 1;
  entry.name = std::move(name);
  entry.model = std::move(model);
  entries_.push_back(std::move(entry));
  active_index_ = entries_.size() - 1;
  return entries_.back().version;
}

Result<uint64_t> ModelRegistry::PublishFromFile(
    std::string name, const std::string& path,
    const artifact::ArtifactReader::Options& reader_options) {
  // Load and validate entirely outside the lock; a bad file never
  // perturbs the registry.
  CLOUDSURV_ASSIGN_OR_RETURN(
      core::LongevityService service,
      core::LongevityService::LoadArtifact(path, reader_options));
  return Publish(std::move(name),
                 ModelPtr(std::make_shared<const core::LongevityService>(
                     std::move(service))));
}

Status ModelRegistry::PersistActive(const std::string& path) const {
  const ModelPtr model = Current();
  if (model == nullptr) {
    return Status::FailedPrecondition(
        "registry has no active model to persist");
  }
  return model->SaveArtifact(path);
}

ModelRegistry::ModelPtr ModelRegistry::Current() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.empty()) return nullptr;
  return entries_[active_index_].model;
}

ModelRegistry::ActiveModel ModelRegistry::CurrentWithVersion() const {
  std::lock_guard<std::mutex> lock(mu_);
  ActiveModel active;
  if (!entries_.empty()) {
    active.version = entries_[active_index_].version;
    active.model = entries_[active_index_].model;
  }
  return active;
}

uint64_t ModelRegistry::current_version() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.empty() ? 0 : entries_[active_index_].version;
}

Result<ModelRegistry::Entry> ModelRegistry::Get(uint64_t version) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (version == 0 || version > entries_.size()) {
    return Status::NotFound("no model version " + std::to_string(version));
  }
  return entries_[version - 1];
}

Status ModelRegistry::Activate(uint64_t version) {
  std::lock_guard<std::mutex> lock(mu_);
  if (version == 0 || version > entries_.size()) {
    return Status::NotFound("no model version " + std::to_string(version));
  }
  active_index_ = static_cast<size_t>(version - 1);
  return Status::OK();
}

size_t ModelRegistry::num_versions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

std::vector<ModelRegistry::Entry> ModelRegistry::ListVersions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_;
}

}  // namespace cloudsurv::serving
