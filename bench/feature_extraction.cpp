// Feature extraction benchmark: a per-id FindDatabase +
// FeaturePlan::ExtractRow loop (the "scalar" mode, the path per-id
// LongevityService::Assess takes) against the batch ExtractBatch, on a
// synthetic store large enough (>= 100k databases by default) that the
// batch path's sibling-table sharing dominates: subscription sizes are
// skewed so a handful of subscriptions hold hundreds of databases each,
// which is exactly the regime where the per-id loop's re-scan of every
// sibling per target goes quadratic.
//
// Bit-identity is a hard gate, not a report: every batch matrix is
// memcmp'd against the per-id one and any mismatch exits non-zero.
//
// Emits one JSON document on stdout, gated in CI by
// tools/bench_check.py --baseline bench/baselines/feature_extraction.json:
//   - bit_identical must be true;
//   - num_databases must stay >= 100000;
//   - best_batch_speedup must stay >= 5.0 (absolute, machine-portable:
//     it is an algorithmic win, not a core-count win);
//   - per-thread-count speedups are checked against the baseline with
//     the usual relative tolerance.
//
// Scale: CLOUDSURV_BENCH_DBS databases (default 100000),
// CLOUDSURV_BENCH_ITERS timing repetitions (default 3).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "features/feature_plan.h"
#include "features/features.h"
#include "telemetry/civil_time.h"
#include "telemetry/events.h"
#include "telemetry/store.h"

using namespace cloudsurv;

namespace {

double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

size_t EnvSize(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env != nullptr) {
    const long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return fallback;
}

// Deterministic 32-bit stream (same LCG family the tests use).
struct Rng {
  uint64_t state = 0x20170101u;
  uint32_t Next() {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<uint32_t>(state >> 33);
  }
};

struct SyntheticStore {
  telemetry::TelemetryStore store;
  std::vector<telemetry::DatabaseId> cohort;  ///< Survived the window.
};

// Builds a store with `num_dbs` databases whose subscription sizes are
// skewed: ~20% of databases land in 32 "mega" subscriptions (hundreds
// of siblings each at the default scale), ~50% in mid-sized ones, the
// rest in a long tail. Roughly a third are dropped, some inside the
// 2-day observation window (those are excluded from the cohort, like
// BuildPredictionCohort would).
SyntheticStore BuildSyntheticStore(size_t num_dbs) {
  const telemetry::Timestamp window_start =
      telemetry::MakeTimestamp(2017, 1, 1);
  const telemetry::Timestamp window_end =
      telemetry::MakeTimestamp(2017, 5, 31);
  telemetry::HolidayCalendar holidays;
  holidays.AddHoliday(2017, 1, 2);
  telemetry::TelemetryStore store("BenchRegion", -480, holidays,
                                  window_start, window_end);
  auto day_ts = [window_start](double days) {
    return window_start + static_cast<telemetry::Timestamp>(
                              days * telemetry::kSecondsPerDay);
  };
  auto check = [](const Status& status) {
    if (!status.ok()) {
      std::fprintf(stderr, "store build failed: %s\n",
                   status.ToString().c_str());
      std::exit(1);
    }
  };

  Rng rng;
  const size_t mid_subs = num_dbs / 50 + 1;
  std::vector<telemetry::DatabaseId> cohort;
  cohort.reserve(num_dbs);
  for (size_t i = 0; i < num_dbs; ++i) {
    const telemetry::DatabaseId id = static_cast<telemetry::DatabaseId>(i);
    const uint32_t bucket = rng.Next() % 100;
    telemetry::SubscriptionId sub;
    if (bucket < 20) {
      sub = rng.Next() % 32;  // mega subscriptions
    } else if (bucket < 70) {
      sub = 32 + rng.Next() % mid_subs;  // ~25 siblings each
    } else {
      sub = 32 + mid_subs + rng.Next() % (num_dbs / 2 + 1);  // long tail
    }
    const double create_day =
        static_cast<double>(rng.Next() % 120) +
        static_cast<double>(rng.Next() % 24) / 24.0;
    const bool censored = rng.Next() % 3 != 0;
    const double drop_day =
        censored ? -1.0
                 : create_day + 0.1 * static_cast<double>(rng.Next() % 300);

    telemetry::DatabaseCreatedPayload payload;
    payload.server_id = sub;
    payload.server_name = "srv" + std::to_string(i % 197);
    payload.database_name =
        (rng.Next() % 2 == 0 ? "app-db-" : "ci-") + std::to_string(rng.Next());
    payload.slo_index = static_cast<int>(rng.Next() % 4);
    payload.subscription_type =
        static_cast<telemetry::SubscriptionType>(rng.Next() % 6);
    check(store.Append(telemetry::MakeCreatedEvent(day_ts(create_day), id,
                                                   sub, std::move(payload))));
    if (drop_day >= 0.0) {
      check(store.Append(
          telemetry::MakeDroppedEvent(day_ts(drop_day), id, sub)));
    }
    // Telemetry inside the observation window for roughly half the
    // fleet (and strictly before the drop), so the size/SLO kernels do
    // real work.
    const double lifetime_end = drop_day >= 0.0 ? drop_day : 1e9;
    if (rng.Next() % 2 == 0) {
      const size_t samples = 1 + rng.Next() % 3;
      for (size_t s = 0; s < samples; ++s) {
        const double at = create_day + 0.3 + 0.5 * static_cast<double>(s);
        if (at >= lifetime_end) break;
        check(store.Append(telemetry::MakeSizeSampleEvent(
            day_ts(at), id, sub,
            static_cast<double>(1 + rng.Next() % 500))));
      }
    }
    if (rng.Next() % 8 == 0 && create_day + 1.0 < lifetime_end) {
      const int old_slo = static_cast<int>(rng.Next() % 4);
      check(store.Append(telemetry::MakeSloChangedEvent(
          day_ts(create_day + 1.0), id, sub, old_slo,
          static_cast<int>(rng.Next() % 4))));
    }
    // Survived the 2-day window -> extraction target (margin avoids
    // second-truncation ambiguity at the exact boundary).
    if (censored || drop_day - create_day >= 2.01) cohort.push_back(id);
  }
  check(store.Finalize());
  return SyntheticStore{std::move(store), std::move(cohort)};
}

}  // namespace

int main() {
  const size_t num_dbs = EnvSize("CLOUDSURV_BENCH_DBS", 100000);
  const size_t iterations = EnvSize("CLOUDSURV_BENCH_ITERS", 3);

  std::fprintf(stderr, "building synthetic store (%zu databases)...\n",
               num_dbs);
  SyntheticStore synth = BuildSyntheticStore(num_dbs);
  const auto& store = synth.store;
  const auto& cohort = synth.cohort;

  features::FeatureConfig config;
  auto plan = features::FeaturePlan::Compile(config);
  if (!plan.ok()) {
    std::fprintf(stderr, "%s\n", plan.status().ToString().c_str());
    return 1;
  }
  const size_t width = plan->num_features();
  const size_t rows = cohort.size();

  // Per-id reference: one ExtractRow per cohort id.
  std::vector<double> scalar_matrix(rows * width);
  double scalar_ms = 0.0;
  for (size_t iter = 0; iter < iterations; ++iter) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < rows; ++i) {
      auto record = store.FindDatabase(cohort[i]);
      if (!record.ok()) {
        std::fprintf(stderr, "%s\n", record.status().ToString().c_str());
        return 1;
      }
      const Status status = plan->ExtractRow(
          store, *record, {scalar_matrix.data() + i * width, width});
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
    }
    const double ms = MsSince(t0);
    if (iter == 0 || ms < scalar_ms) scalar_ms = ms;
  }

  struct Run {
    const char* mode;
    int threads;
    double ms = 0.0;
  };
  std::vector<Run> runs = {{"scalar", 1, scalar_ms},
                           {"batch", 1},
                           {"batch", 4}};
  std::vector<double> batch_matrix(rows * width);
  bool bit_identical = true;
  for (size_t r = 1; r < runs.size(); ++r) {
    std::optional<ThreadPool> pool;
    if (runs[r].threads > 1) {
      pool.emplace(static_cast<size_t>(runs[r].threads), 64);
    }
    for (size_t iter = 0; iter < iterations; ++iter) {
      std::fill(batch_matrix.begin(), batch_matrix.end(), 0.0);
      const auto t0 = std::chrono::steady_clock::now();
      Status status = plan->ExtractBatch(store, cohort, batch_matrix.data(),
                                         pool ? &*pool : nullptr);
      const double ms = MsSince(t0);
      if (!status.ok()) {
        std::fprintf(stderr, "%s\n", status.ToString().c_str());
        return 1;
      }
      if (iter == 0 || ms < runs[r].ms) runs[r].ms = ms;
      if (std::memcmp(batch_matrix.data(), scalar_matrix.data(),
                      rows * width * sizeof(double)) != 0) {
        bit_identical = false;
      }
    }
  }
  if (!bit_identical) {
    std::fprintf(stderr,
                 "FATAL: batch extraction diverged from the per-id "
                 "reference\n");
    return 1;
  }

  double best_batch_speedup = 0.0;
  std::printf("{\n");
  std::printf("  \"bench\": \"feature_extraction\",\n");
  std::printf("  \"num_databases\": %zu, \"cohort_rows\": %zu, "
              "\"width\": %zu, \"iterations\": %zu,\n",
              num_dbs, rows, width, iterations);
  std::printf("  \"bit_identical\": %s,\n", bit_identical ? "true" : "false");
  std::printf("  \"runs\": [\n");
  for (size_t r = 0; r < runs.size(); ++r) {
    const double rows_per_sec =
        static_cast<double>(rows) / (runs[r].ms / 1e3);
    const double speedup = scalar_ms / runs[r].ms;
    if (r > 0 && speedup > best_batch_speedup) best_batch_speedup = speedup;
    std::printf("    {\"mode\": \"%s\", \"threads\": %d, \"ms\": %.3f, "
                "\"rows_per_sec\": %.0f, \"speedup_vs_scalar\": %.3f}%s\n",
                runs[r].mode, runs[r].threads, runs[r].ms, rows_per_sec,
                speedup, r + 1 < runs.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"best_batch_speedup\": %.3f\n", best_batch_speedup);
  std::printf("}\n");
  bench::EmitRegistrySnapshot();
  return 0;
}
