#include "telemetry/store.h"

#include <algorithm>
#include <iterator>
#include <numeric>
#include <sstream>
#include <tuple>

#include "common/string_util.h"
#include "obs/metrics.h"

namespace cloudsurv::telemetry {

namespace internal {

namespace {

constexpr int64_t kNoDrop = std::numeric_limits<int64_t>::min();

int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  return q - (a % b != 0 && (a < 0) != (b < 0));
}

/// push_back that counts capacity growths (the "mid-segment
/// reallocation" Reserve() exists to avoid).
template <typename T>
void PushCounted(std::vector<T>& v, T value, uint64_t* reallocs) {
  if (v.size() == v.capacity()) ++*reallocs;
  v.push_back(value);
}

template <typename T>
size_t CapBytes(const std::vector<T>& v) {
  return v.capacity() * sizeof(T);
}

template <typename T>
std::unique_ptr<T[]> PackArray(const std::vector<T>& v) {
  auto out = std::make_unique<T[]>(v.size());
  std::copy(v.begin(), v.end(), out.get());
  return out;
}

}  // namespace

/// All columnar state of one store, held behind a unique_ptr so views
/// (EventSequence, spans) stay valid across moves of the owning store.
struct StoreRep {
  StoreRep(int64_t partition_seconds_in, Timestamp window_start_in)
      : partition_seconds(partition_seconds_in < 1 ? 1 : partition_seconds_in),
        window_start(window_start_in) {}
  ~StoreRep() {
    columnar::GlobalMetrics().resident_bytes->Add(
        -static_cast<double>(reported_bytes));
  }
  StoreRep(const StoreRep&) = delete;
  StoreRep& operator=(const StoreRep&) = delete;

  int64_t partition_seconds;
  Timestamp window_start;

  bool finalized = false;
  bool ordered = true;
  bool poisoned = false;
  Status deferred_error = Status::OK();
  uint64_t total_events = 0;

  bool have_last = false;
  int64_t last_ts = 0;
  uint64_t last_db = 0;
  uint8_t last_kind = 0;
  int64_t active_partition = 0;

  columnar::StringPool pool;
  columnar::IdMap db_rows;   ///< database id -> record row (live ingest)
  columnar::IdMap sub_rows;  ///< subscription id -> index into `subs`

  std::vector<columnar::Segment> segments;
  std::vector<uint64_t> seg_cum;  ///< cumulative event count per segment

  /// The active (unsealed) segment: wide columns so any append order
  /// and any validation outcome can be represented before sealing.
  struct Active {
    std::vector<int64_t> ts;
    std::vector<uint64_t> db;
    std::vector<uint64_t> sub;
    std::vector<uint32_t> row;  ///< record row; UINT32_MAX if unresolved
    std::vector<uint8_t> kind;
    std::vector<uint32_t> pix;
    std::vector<uint16_t> slo_old, slo_new;
    std::vector<double> size_mb;
    std::vector<uint64_t> c_server;
    std::vector<uint32_t> c_sname, c_dname;
    std::vector<uint16_t> c_slo;
    std::vector<uint8_t> c_stype;

    void Clear() {
      ts.clear();
      db.clear();
      sub.clear();
      row.clear();
      kind.clear();
      pix.clear();
      slo_old.clear();
      slo_new.clear();
      size_mb.clear();
      c_server.clear();
      c_sname.clear();
      c_dname.clear();
      c_slo.clear();
      c_stype.clear();
    }
    size_t Bytes() const {
      return CapBytes(ts) + CapBytes(db) + CapBytes(sub) + CapBytes(row) +
             CapBytes(kind) + CapBytes(pix) + CapBytes(slo_old) +
             CapBytes(slo_new) + CapBytes(size_mb) + CapBytes(c_server) +
             CapBytes(c_sname) + CapBytes(c_dname) + CapBytes(c_slo) +
             CapBytes(c_stype);
    }
  } active;

  struct Records {
    std::vector<uint64_t> id, sub, server;
    std::vector<uint32_t> sname, dname;
    std::vector<uint8_t> stype;
    std::vector<uint16_t> slo0;
    std::vector<int64_t> created, dropped;
    /// Live page-chain heads/tails/counts (freed at Finalize).
    std::vector<uint32_t> slo_head, slo_tail, slo_cnt;
    std::vector<uint32_t> size_head, size_tail, size_cnt;
    /// Finalized CSR columns (empty while live).
    std::vector<uint32_t> slo_begin, size_begin;  ///< size n+1
    std::vector<uint32_t> csr_slo_dt;
    std::vector<uint16_t> csr_slo_old, csr_slo_new;
    std::vector<uint32_t> csr_size_dt;
    std::vector<double> csr_size_mb;

    size_t Bytes() const {
      return CapBytes(id) + CapBytes(sub) + CapBytes(server) +
             CapBytes(sname) + CapBytes(dname) + CapBytes(stype) +
             CapBytes(slo0) + CapBytes(created) + CapBytes(dropped) +
             CapBytes(slo_head) + CapBytes(slo_tail) + CapBytes(slo_cnt) +
             CapBytes(size_head) + CapBytes(size_tail) + CapBytes(size_cnt) +
             CapBytes(slo_begin) + CapBytes(size_begin) +
             CapBytes(csr_slo_dt) + CapBytes(csr_slo_old) +
             CapBytes(csr_slo_new) + CapBytes(csr_size_dt) +
             CapBytes(csr_size_mb);
    }
  } rec;

  std::vector<columnar::SloPage> slo_pool;
  std::vector<columnar::SizePage> size_pool;
  std::vector<columnar::DbIdPage> db_pool;

  struct SubList {
    uint64_t sub = 0;
    uint32_t head = columnar::kNilPage;
    uint32_t tail = columnar::kNilPage;
    uint32_t count = 0;
  };
  std::vector<SubList> subs;  ///< first-seen order while live

  /// Finalized subscription CSR: keys sorted, `sub_dbs` in creation
  /// order per key.
  std::vector<uint64_t> sub_keys, sub_begin, sub_dbs;
  /// Record rows sorted by database id (finalized iteration order).
  std::vector<uint32_t> order;

  uint64_t column_reallocs = 0;
  size_t reported_bytes = 0;

  bool incremental() const { return ordered && !poisoned; }
  bool readable() const { return finalized || incremental(); }

  void Poison(Status s) {
    if (!poisoned) {
      poisoned = true;
      deferred_error = std::move(s);
    }
  }

  void AppendSloChain(uint32_t row, uint32_t dt, uint16_t old_slo,
                      uint16_t new_slo) {
    uint32_t tail = rec.slo_tail[row];
    if (tail == columnar::kNilPage ||
        slo_pool[tail].count == columnar::SloPage::kN) {
      const uint32_t np = static_cast<uint32_t>(slo_pool.size());
      slo_pool.emplace_back();
      if (tail == columnar::kNilPage) {
        rec.slo_head[row] = np;
      } else {
        slo_pool[tail].next = np;
      }
      rec.slo_tail[row] = tail = np;
    }
    columnar::SloPage& p = slo_pool[tail];
    p.dt[p.count] = dt;
    p.old_slo[p.count] = old_slo;
    p.new_slo[p.count] = new_slo;
    ++p.count;
    ++rec.slo_cnt[row];
  }

  void AppendSizeChain(uint32_t row, uint32_t dt, double mb) {
    uint32_t tail = rec.size_tail[row];
    if (tail == columnar::kNilPage ||
        size_pool[tail].count == columnar::SizePage::kN) {
      const uint32_t np = static_cast<uint32_t>(size_pool.size());
      size_pool.emplace_back();
      if (tail == columnar::kNilPage) {
        rec.size_head[row] = np;
      } else {
        size_pool[tail].next = np;
      }
      rec.size_tail[row] = tail = np;
    }
    columnar::SizePage& p = size_pool[tail];
    p.dt[p.count] = dt;
    p.mb[p.count] = mb;
    ++p.count;
    ++rec.size_cnt[row];
  }

  void AppendDbChain(SubList* list, uint64_t db) {
    uint32_t tail = list->tail;
    if (tail == columnar::kNilPage ||
        db_pool[tail].count == columnar::DbIdPage::kN) {
      const uint32_t np = static_cast<uint32_t>(db_pool.size());
      db_pool.emplace_back();
      if (tail == columnar::kNilPage) {
        list->head = np;
      } else {
        db_pool[tail].next = np;
      }
      list->tail = tail = np;
    }
    columnar::DbIdPage& p = db_pool[tail];
    p.ids[p.count] = db;
    ++p.count;
    ++list->count;
  }

  void Seal() {
    const size_t n = active.ts.size();
    if (n == 0) return;
    columnar::Segment s;
    s.n = static_cast<uint32_t>(n);
    s.min_ts = active.ts.front();
    s.max_ts = active.ts.back();
    s.base_ts = s.min_ts;
    if (s.max_ts - s.min_ts <=
        static_cast<int64_t>(std::numeric_limits<uint32_t>::max())) {
      s.dt = std::make_unique<uint32_t[]>(n);
      for (size_t i = 0; i < n; ++i) {
        s.dt[i] = static_cast<uint32_t>(active.ts[i] - s.base_ts);
      }
    } else {
      s.wide_ts = PackArray(active.ts);
    }
    s.row = PackArray(active.row);
    s.kind = PackArray(active.kind);
    s.pix = PackArray(active.pix);
    s.n_slo = static_cast<uint32_t>(active.slo_old.size());
    s.slo_old = PackArray(active.slo_old);
    s.slo_new = PackArray(active.slo_new);
    s.n_size = static_cast<uint32_t>(active.size_mb.size());
    s.size_mb = PackArray(active.size_mb);
    seg_cum.push_back((seg_cum.empty() ? 0 : seg_cum.back()) + n);
    segments.push_back(std::move(s));
    active.Clear();
    columnar::GlobalMetrics().segments_total->Increment();
    SyncGauge();
  }

  Event DecodeSealed(size_t si, size_t j) const {
    const columnar::Segment& s = segments[si];
    const Timestamp ts = s.TsAt(static_cast<uint32_t>(j));
    const uint32_t row = s.row[j];
    const DatabaseId db = rec.id[row];
    const SubscriptionId sub = rec.sub[row];
    switch (static_cast<EventKind>(s.kind[j])) {
      case EventKind::kDatabaseCreated: {
        DatabaseCreatedPayload p;
        p.server_id = rec.server[row];
        p.server_name = std::string(pool.View(rec.sname[row]));
        p.database_name = std::string(pool.View(rec.dname[row]));
        p.slo_index = rec.slo0[row];
        p.subscription_type = static_cast<SubscriptionType>(rec.stype[row]);
        return MakeCreatedEvent(ts, db, sub, std::move(p));
      }
      case EventKind::kSloChanged:
        return MakeSloChangedEvent(ts, db, sub, s.slo_old[s.pix[j]],
                                   s.slo_new[s.pix[j]]);
      case EventKind::kSizeSample:
        return MakeSizeSampleEvent(ts, db, sub, s.size_mb[s.pix[j]]);
      case EventKind::kDatabaseDropped:
        return MakeDroppedEvent(ts, db, sub);
    }
    return Event();
  }

  Event DecodeActive(size_t j) const {
    const Timestamp ts = active.ts[j];
    const DatabaseId db = active.db[j];
    const SubscriptionId sub = active.sub[j];
    switch (static_cast<EventKind>(active.kind[j])) {
      case EventKind::kDatabaseCreated: {
        const uint32_t pix = active.pix[j];
        DatabaseCreatedPayload p;
        p.server_id = active.c_server[pix];
        p.server_name = std::string(pool.View(active.c_sname[pix]));
        p.database_name = std::string(pool.View(active.c_dname[pix]));
        p.slo_index = active.c_slo[pix];
        p.subscription_type =
            static_cast<SubscriptionType>(active.c_stype[pix]);
        return MakeCreatedEvent(ts, db, sub, std::move(p));
      }
      case EventKind::kSloChanged:
        return MakeSloChangedEvent(ts, db, sub, active.slo_old[active.pix[j]],
                                   active.slo_new[active.pix[j]]);
      case EventKind::kSizeSample:
        return MakeSizeSampleEvent(ts, db, sub, active.size_mb[active.pix[j]]);
      case EventKind::kDatabaseDropped:
        return MakeDroppedEvent(ts, db, sub);
    }
    return Event();
  }

  Event EventAt(size_t i) const {
    const size_t sealed = seg_cum.empty() ? 0 : seg_cum.back();
    if (i >= sealed) return DecodeActive(i - sealed);
    const size_t si =
        std::upper_bound(seg_cum.begin(), seg_cum.end(), i) - seg_cum.begin();
    const size_t base = si == 0 ? 0 : seg_cum[si - 1];
    return DecodeSealed(si, i - base);
  }

  DatabaseRecord RecordAt(uint32_t row) const {
    DatabaseRecord out;
    out.id = rec.id[row];
    out.subscription_id = rec.sub[row];
    out.server_id = rec.server[row];
    out.server_name = pool.View(rec.sname[row]);
    out.database_name = pool.View(rec.dname[row]);
    out.subscription_type = static_cast<SubscriptionType>(rec.stype[row]);
    out.created_at = rec.created[row];
    if (rec.dropped[row] != kNoDrop) out.dropped_at = rec.dropped[row];
    out.initial_slo_index = rec.slo0[row];
    const Timestamp base = rec.created[row];
    if (finalized) {
      const uint32_t sb = rec.slo_begin[row];
      out.slo_changes = columnar::SloChangeSpan(
          base, rec.csr_slo_dt.data() + sb, rec.csr_slo_old.data() + sb,
          rec.csr_slo_new.data() + sb, rec.slo_begin[row + 1] - sb);
      const uint32_t zb = rec.size_begin[row];
      out.size_samples = columnar::SizeSampleSpan(
          base, rec.csr_size_dt.data() + zb, rec.csr_size_mb.data() + zb,
          rec.size_begin[row + 1] - zb);
    } else {
      out.slo_changes = columnar::SloChangeSpan(base, &slo_pool,
                                                rec.slo_head[row],
                                                rec.slo_cnt[row]);
      out.size_samples = columnar::SizeSampleSpan(base, &size_pool,
                                                  rec.size_head[row],
                                                  rec.size_cnt[row]);
    }
    return out;
  }

  void ResetEventState() {
    segments.clear();
    seg_cum.clear();
    active = Active();
    rec = Records();
    slo_pool.clear();
    slo_pool.shrink_to_fit();
    size_pool.clear();
    size_pool.shrink_to_fit();
    db_pool.clear();
    db_pool.shrink_to_fit();
    subs.clear();
    db_rows.Clear();
    sub_rows.Clear();
    order.clear();
    ordered = true;
    poisoned = false;
    deferred_error = Status::OK();
    total_events = 0;
    have_last = false;
  }

  TelemetryStore::MemoryStats Memory() const {
    TelemetryStore::MemoryStats m;
    for (const columnar::Segment& s : segments) {
      m.event_bytes += s.ApproxBytes();
    }
    m.event_bytes += CapBytes(seg_cum) + active.Bytes();
    m.record_bytes = rec.Bytes() +
                     slo_pool.capacity() * sizeof(columnar::SloPage) +
                     size_pool.capacity() * sizeof(columnar::SizePage) +
                     db_pool.capacity() * sizeof(columnar::DbIdPage);
    m.string_pool_bytes = pool.ApproxBytes();
    m.index_bytes = db_rows.ApproxBytes() + sub_rows.ApproxBytes() +
                    CapBytes(order) + CapBytes(subs) + CapBytes(sub_keys) +
                    CapBytes(sub_begin) + CapBytes(sub_dbs);
    m.total_bytes = m.event_bytes + m.record_bytes + m.string_pool_bytes +
                    m.index_bytes;
    m.num_segments = segments.size();
    m.column_reallocs = column_reallocs;
    return m;
  }

  void SyncGauge() {
    const size_t total = Memory().total_bytes;
    columnar::GlobalMetrics().resident_bytes->Add(
        static_cast<double>(total) - static_cast<double>(reported_bytes));
    reported_bytes = total;
  }
};

}  // namespace internal

using internal::StoreRep;

Edition DatabaseRecord::initial_edition() const {
  return SloLadder()[initial_slo_index].edition;
}

int DatabaseRecord::SloIndexAt(Timestamp ts) const {
  int slo = initial_slo_index;
  for (const SloChange& c : slo_changes) {
    if (c.timestamp > ts) break;
    slo = c.new_slo_index;
  }
  return slo;
}

Edition DatabaseRecord::EditionAt(Timestamp ts) const {
  return SloLadder()[SloIndexAt(ts)].edition;
}

bool DatabaseRecord::ChangedEditionDuringLifetime() const {
  for (const SloChange& c : slo_changes) {
    if (SloLadder()[c.old_slo_index].edition !=
        SloLadder()[c.new_slo_index].edition) {
      return true;
    }
  }
  return false;
}

double DatabaseRecord::ObservedLifespanDays(Timestamp censor_time) const {
  Timestamp end = censor_time;
  if (dropped_at.has_value() && *dropped_at < end) end = *dropped_at;
  if (end < created_at) return 0.0;
  return static_cast<double>(end - created_at) /
         static_cast<double>(kSecondsPerDay);
}

bool DatabaseRecord::IsDroppedBy(Timestamp ts) const {
  return dropped_at.has_value() && *dropped_at <= ts;
}

size_t EventSequence::size() const { return rep_->total_events; }

Event EventSequence::At(size_t i) const { return rep_->EventAt(i); }

EventSequence::Iterator::Iterator(const internal::StoreRep* rep, size_t i)
    : rep_(rep), i_(i) {
  const size_t sealed = rep->seg_cum.empty() ? 0 : rep->seg_cum.back();
  if (i >= sealed) {
    seg_ = rep->segments.size();
    in_seg_ = i - sealed;
  } else {
    seg_ = std::upper_bound(rep->seg_cum.begin(), rep->seg_cum.end(), i) -
           rep->seg_cum.begin();
    in_seg_ = i - (seg_ == 0 ? 0 : rep->seg_cum[seg_ - 1]);
  }
}

Event EventSequence::Iterator::operator*() const {
  if (seg_ == rep_->segments.size()) return rep_->DecodeActive(in_seg_);
  return rep_->DecodeSealed(seg_, in_seg_);
}

EventSequence::Iterator& EventSequence::Iterator::operator++() {
  ++i_;
  ++in_seg_;
  while (seg_ < rep_->segments.size() &&
         in_seg_ >= rep_->segments[seg_].n) {
    ++seg_;
    in_seg_ = 0;
  }
  return *this;
}

size_t DatabaseRecordRange::size() const { return rep_->rec.id.size(); }

DatabaseRecord DatabaseRecordRange::At(size_t i) const {
  const uint32_t row =
      rep_->finalized ? rep_->order[i] : static_cast<uint32_t>(i);
  return rep_->RecordAt(row);
}

TelemetryStore::TelemetryStore(std::string region_name,
                               int utc_offset_minutes,
                               HolidayCalendar holidays,
                               Timestamp window_start, Timestamp window_end)
    : TelemetryStore(std::move(region_name), utc_offset_minutes,
                     std::move(holidays), window_start, window_end,
                     Options()) {}

TelemetryStore::TelemetryStore(std::string region_name,
                               int utc_offset_minutes,
                               HolidayCalendar holidays,
                               Timestamp window_start, Timestamp window_end,
                               Options options)
    : region_name_(std::move(region_name)),
      utc_offset_minutes_(utc_offset_minutes),
      holidays_(std::move(holidays)),
      window_start_(window_start),
      window_end_(window_end),
      rep_(std::make_unique<StoreRep>(options.partition_seconds,
                                      window_start)) {}

TelemetryStore::~TelemetryStore() = default;
TelemetryStore::TelemetryStore(TelemetryStore&&) noexcept = default;
TelemetryStore& TelemetryStore::operator=(TelemetryStore&&) noexcept = default;

Status TelemetryStore::Append(Event event) {
  if (rep_->finalized) {
    return Status::FailedPrecondition("store is finalized; cannot append");
  }
  return AppendInternal(event);
}

Status TelemetryStore::AppendInternal(const Event& event) {
  StoreRep& r = *rep_;
  if (event.database_id == kInvalidId) {
    return Status::InvalidArgument("event has invalid database id");
  }
  if (event.subscription_id == kInvalidId) {
    return Status::InvalidArgument("event has invalid subscription id");
  }
  const uint8_t kind = static_cast<uint8_t>(event.kind());

  if (r.have_last && r.ordered) {
    if (std::tie(event.timestamp, event.database_id, kind) <
        std::tie(r.last_ts, r.last_db, r.last_kind)) {
      r.ordered = false;  // Finalize() will sort and replay.
    }
  }
  r.have_last = true;
  r.last_ts = event.timestamp;
  r.last_db = event.database_id;
  r.last_kind = kind;

  uint32_t row = columnar::kNilPage;  // UINT32_MAX = unresolved
  // Creation names interned by the record path, reused by the active
  // segment below.
  bool names_interned = false;
  uint32_t sname_id = 0;
  uint32_t dname_id = 0;
  if (r.incremental()) {
    const int64_t part = internal::FloorDiv(event.timestamp - r.window_start,
                                            r.partition_seconds);
    if (!r.active.ts.empty() && part != r.active_partition) r.Seal();
    r.active_partition = part;

    switch (event.kind()) {
      case EventKind::kDatabaseCreated: {
        const auto& p = std::get<DatabaseCreatedPayload>(event.payload);
        if (r.db_rows.Find(event.database_id) != columnar::IdMap::kNotFound) {
          r.Poison(Status::InvalidArgument(
              "duplicate creation for database " +
              std::to_string(event.database_id)));
          break;
        }
        if (p.slo_index < 0 || p.slo_index >= NumSlos()) {
          r.Poison(Status::InvalidArgument("creation has invalid SLO index"));
          break;
        }
        row = static_cast<uint32_t>(r.rec.id.size());
        r.rec.id.push_back(event.database_id);
        r.rec.sub.push_back(event.subscription_id);
        r.rec.server.push_back(p.server_id);
        sname_id = r.pool.Intern(p.server_name);
        dname_id = r.pool.Intern(p.database_name);
        names_interned = true;
        r.rec.sname.push_back(sname_id);
        r.rec.dname.push_back(dname_id);
        r.rec.stype.push_back(static_cast<uint8_t>(p.subscription_type));
        r.rec.slo0.push_back(static_cast<uint16_t>(p.slo_index));
        r.rec.created.push_back(event.timestamp);
        r.rec.dropped.push_back(internal::kNoDrop);
        r.rec.slo_head.push_back(columnar::kNilPage);
        r.rec.slo_tail.push_back(columnar::kNilPage);
        r.rec.slo_cnt.push_back(0);
        r.rec.size_head.push_back(columnar::kNilPage);
        r.rec.size_tail.push_back(columnar::kNilPage);
        r.rec.size_cnt.push_back(0);
        r.db_rows.Insert(event.database_id, row);
        uint32_t si = r.sub_rows.Find(event.subscription_id);
        if (si == columnar::IdMap::kNotFound) {
          si = static_cast<uint32_t>(r.subs.size());
          StoreRep::SubList list;
          list.sub = event.subscription_id;
          r.subs.push_back(list);
          r.sub_rows.Insert(event.subscription_id, si);
        }
        r.AppendDbChain(&r.subs[si], event.database_id);
        break;
      }
      case EventKind::kSloChanged: {
        row = r.db_rows.Find(event.database_id);
        if (row == columnar::IdMap::kNotFound) {
          r.Poison(Status::InvalidArgument(
              "SLO change before creation for database " +
              std::to_string(event.database_id)));
          break;
        }
        if (r.rec.dropped[row] != internal::kNoDrop) {
          r.Poison(Status::InvalidArgument(
              "SLO change after drop for database " +
              std::to_string(event.database_id)));
          break;
        }
        if (event.subscription_id != r.rec.sub[row]) {
          r.Poison(Status::InvalidArgument(
              "subscription mismatch for database " +
              std::to_string(event.database_id)));
          break;
        }
        const auto& p = std::get<SloChangedPayload>(event.payload);
        if (p.new_slo_index < 0 || p.new_slo_index >= NumSlos() ||
            p.old_slo_index < 0 || p.old_slo_index >= NumSlos()) {
          r.Poison(Status::InvalidArgument("SLO change has invalid index"));
          break;
        }
        const int64_t dt = event.timestamp - r.rec.created[row];
        if (dt < 0 ||
            dt > static_cast<int64_t>(std::numeric_limits<uint32_t>::max())) {
          r.Poison(Status::InvalidArgument(
              "event delta from creation out of range for database " +
              std::to_string(event.database_id)));
          break;
        }
        r.AppendSloChain(row, static_cast<uint32_t>(dt),
                         static_cast<uint16_t>(p.old_slo_index),
                         static_cast<uint16_t>(p.new_slo_index));
        break;
      }
      case EventKind::kSizeSample: {
        row = r.db_rows.Find(event.database_id);
        if (row == columnar::IdMap::kNotFound) {
          r.Poison(Status::InvalidArgument(
              "size sample before creation for database " +
              std::to_string(event.database_id)));
          break;
        }
        if (r.rec.dropped[row] != internal::kNoDrop) {
          r.Poison(Status::InvalidArgument(
              "size sample after drop for database " +
              std::to_string(event.database_id)));
          break;
        }
        if (event.subscription_id != r.rec.sub[row]) {
          r.Poison(Status::InvalidArgument(
              "subscription mismatch for database " +
              std::to_string(event.database_id)));
          break;
        }
        const auto& p = std::get<SizeSamplePayload>(event.payload);
        const int64_t dt = event.timestamp - r.rec.created[row];
        if (dt < 0 ||
            dt > static_cast<int64_t>(std::numeric_limits<uint32_t>::max())) {
          r.Poison(Status::InvalidArgument(
              "event delta from creation out of range for database " +
              std::to_string(event.database_id)));
          break;
        }
        r.AppendSizeChain(row, static_cast<uint32_t>(dt), p.size_mb);
        break;
      }
      case EventKind::kDatabaseDropped: {
        row = r.db_rows.Find(event.database_id);
        if (row == columnar::IdMap::kNotFound) {
          r.Poison(Status::InvalidArgument(
              "drop before creation for database " +
              std::to_string(event.database_id)));
          break;
        }
        if (r.rec.dropped[row] != internal::kNoDrop) {
          r.Poison(Status::InvalidArgument(
              "duplicate drop for database " +
              std::to_string(event.database_id)));
          break;
        }
        if (event.subscription_id != r.rec.sub[row]) {
          r.Poison(Status::InvalidArgument(
              "subscription mismatch for database " +
              std::to_string(event.database_id)));
          break;
        }
        if (event.timestamp < r.rec.created[row]) {
          r.Poison(Status::InvalidArgument(
              "drop precedes creation for database " +
              std::to_string(event.database_id)));
          break;
        }
        r.rec.dropped[row] = event.timestamp;
        break;
      }
    }
    if (r.poisoned) row = columnar::kNilPage;
  }

  // Append to the active segment (always, so events() reflects every
  // accepted append in order).
  StoreRep::Active& a = r.active;
  uint64_t* rc = &r.column_reallocs;
  internal::PushCounted(a.ts, event.timestamp, rc);
  internal::PushCounted(a.db, static_cast<uint64_t>(event.database_id), rc);
  internal::PushCounted(a.sub, static_cast<uint64_t>(event.subscription_id),
                        rc);
  internal::PushCounted(a.row, row, rc);
  internal::PushCounted(a.kind, kind, rc);
  switch (event.kind()) {
    case EventKind::kDatabaseCreated: {
      const auto& p = std::get<DatabaseCreatedPayload>(event.payload);
      internal::PushCounted(a.pix, static_cast<uint32_t>(a.c_server.size()),
                            rc);
      internal::PushCounted(a.c_server, static_cast<uint64_t>(p.server_id),
                            rc);
      if (!names_interned) {
        // Unordered or poisoned store: the record path did not run.
        sname_id = r.pool.Intern(p.server_name);
        dname_id = r.pool.Intern(p.database_name);
      }
      internal::PushCounted(a.c_sname, sname_id, rc);
      internal::PushCounted(a.c_dname, dname_id, rc);
      internal::PushCounted(a.c_slo, static_cast<uint16_t>(p.slo_index), rc);
      internal::PushCounted(a.c_stype,
                            static_cast<uint8_t>(p.subscription_type), rc);
      break;
    }
    case EventKind::kSloChanged: {
      const auto& p = std::get<SloChangedPayload>(event.payload);
      internal::PushCounted(a.pix, static_cast<uint32_t>(a.slo_old.size()),
                            rc);
      internal::PushCounted(a.slo_old, static_cast<uint16_t>(p.old_slo_index),
                            rc);
      internal::PushCounted(a.slo_new, static_cast<uint16_t>(p.new_slo_index),
                            rc);
      break;
    }
    case EventKind::kSizeSample: {
      const auto& p = std::get<SizeSamplePayload>(event.payload);
      internal::PushCounted(a.pix, static_cast<uint32_t>(a.size_mb.size()),
                            rc);
      internal::PushCounted(a.size_mb, p.size_mb, rc);
      break;
    }
    case EventKind::kDatabaseDropped:
      internal::PushCounted(a.pix, 0u, rc);
      break;
  }
  ++r.total_events;
  if ((r.total_events & 0xFFFFu) == 0) r.SyncGauge();
  return Status::OK();
}

void TelemetryStore::Reserve(size_t n) {
  StoreRep::Active& a = rep_->active;
  a.ts.reserve(a.ts.size() + n);
  a.db.reserve(a.db.size() + n);
  a.sub.reserve(a.sub.size() + n);
  a.row.reserve(a.row.size() + n);
  a.kind.reserve(a.kind.size() + n);
  a.pix.reserve(a.pix.size() + n);
  // Per-kind payload columns share the same ceiling: any subset of the
  // n reserved events may carry any payload. Sealing packs segments to
  // exact size, so the over-reserve is transient.
  a.slo_old.reserve(a.slo_old.size() + n);
  a.slo_new.reserve(a.slo_new.size() + n);
  a.size_mb.reserve(a.size_mb.size() + n);
  a.c_server.reserve(a.c_server.size() + n);
  a.c_sname.reserve(a.c_sname.size() + n);
  a.c_dname.reserve(a.c_dname.size() + n);
  a.c_slo.reserve(a.c_slo.size() + n);
  a.c_stype.reserve(a.c_stype.size() + n);
}

Status TelemetryStore::AppendEvents(std::vector<Event>&& batch) {
  if (rep_->finalized) {
    return Status::FailedPrecondition("store is finalized; cannot append");
  }
  for (const Event& event : batch) {
    if (event.database_id == kInvalidId) {
      return Status::InvalidArgument("event has invalid database id");
    }
    if (event.subscription_id == kInvalidId) {
      return Status::InvalidArgument("event has invalid subscription id");
    }
  }
  Reserve(batch.size());
  for (const Event& event : batch) {
    CLOUDSURV_RETURN_NOT_OK(AppendInternal(event));
  }
  batch.clear();
  return Status::OK();
}

Status TelemetryStore::Finalize() {
  StoreRep& r = *rep_;
  if (r.finalized) {
    return Status::FailedPrecondition("store already finalized");
  }
  if (!r.ordered) {
    // Classic contract: gather, stable-sort by (timestamp, database,
    // lifecycle rank) — so a creation precedes same-second samples and
    // a drop follows them — and replay through the ordered path. The
    // stable sort preserves append order on ties, byte-identical to
    // the struct store's Finalize.
    std::vector<Event> all;
    all.reserve(r.total_events);
    for (auto it = events().begin(); it != events().end(); ++it) {
      all.push_back(*it);
    }
    std::stable_sort(all.begin(), all.end(),
                     [](const Event& a, const Event& b) {
                       if (a.timestamp != b.timestamp)
                         return a.timestamp < b.timestamp;
                       if (a.database_id != b.database_id)
                         return a.database_id < b.database_id;
                       return static_cast<int>(a.kind()) <
                              static_cast<int>(b.kind());
                     });
    r.ResetEventState();
    for (const Event& event : all) {
      CLOUDSURV_RETURN_NOT_OK(AppendInternal(event));
    }
  }
  if (r.poisoned) return r.deferred_error;
  r.Seal();

  // Freeze records: id-sorted iteration order and CSR list columns.
  const size_t n = r.rec.id.size();
  r.order.resize(n);
  std::iota(r.order.begin(), r.order.end(), 0u);
  std::sort(r.order.begin(), r.order.end(),
            [&r](uint32_t a, uint32_t b) { return r.rec.id[a] < r.rec.id[b]; });

  r.rec.slo_begin.resize(n + 1);
  r.rec.size_begin.resize(n + 1);
  uint64_t slo_total = 0, size_total = 0;
  for (size_t row = 0; row < n; ++row) {
    r.rec.slo_begin[row] = static_cast<uint32_t>(slo_total);
    r.rec.size_begin[row] = static_cast<uint32_t>(size_total);
    slo_total += r.rec.slo_cnt[row];
    size_total += r.rec.size_cnt[row];
  }
  r.rec.slo_begin[n] = static_cast<uint32_t>(slo_total);
  r.rec.size_begin[n] = static_cast<uint32_t>(size_total);
  if (slo_total > std::numeric_limits<uint32_t>::max() ||
      size_total > std::numeric_limits<uint32_t>::max()) {
    return Status::Internal("per-record list columns exceed 2^32 entries");
  }
  r.rec.csr_slo_dt.resize(slo_total);
  r.rec.csr_slo_old.resize(slo_total);
  r.rec.csr_slo_new.resize(slo_total);
  r.rec.csr_size_dt.resize(size_total);
  r.rec.csr_size_mb.resize(size_total);
  for (size_t row = 0; row < n; ++row) {
    uint32_t out = r.rec.slo_begin[row];
    for (uint32_t page = r.rec.slo_head[row]; page != columnar::kNilPage;
         page = r.slo_pool[page].next) {
      const columnar::SloPage& p = r.slo_pool[page];
      for (uint16_t k = 0; k < p.count; ++k, ++out) {
        r.rec.csr_slo_dt[out] = p.dt[k];
        r.rec.csr_slo_old[out] = p.old_slo[k];
        r.rec.csr_slo_new[out] = p.new_slo[k];
      }
    }
    out = r.rec.size_begin[row];
    for (uint32_t page = r.rec.size_head[row]; page != columnar::kNilPage;
         page = r.size_pool[page].next) {
      const columnar::SizePage& p = r.size_pool[page];
      for (uint16_t k = 0; k < p.count; ++k, ++out) {
        r.rec.csr_size_dt[out] = p.dt[k];
        r.rec.csr_size_mb[out] = p.mb[k];
      }
    }
  }

  // Subscription CSR: keys sorted, database ids in creation order.
  std::vector<uint32_t> sub_order(r.subs.size());
  std::iota(sub_order.begin(), sub_order.end(), 0u);
  std::sort(sub_order.begin(), sub_order.end(), [&r](uint32_t a, uint32_t b) {
    return r.subs[a].sub < r.subs[b].sub;
  });
  r.sub_keys.resize(r.subs.size());
  r.sub_begin.resize(r.subs.size() + 1);
  uint64_t db_total = 0;
  for (size_t i = 0; i < sub_order.size(); ++i) {
    const StoreRep::SubList& list = r.subs[sub_order[i]];
    r.sub_keys[i] = list.sub;
    r.sub_begin[i] = db_total;
    db_total += list.count;
  }
  r.sub_begin[r.subs.size()] = db_total;
  r.sub_dbs.resize(db_total);
  for (size_t i = 0; i < sub_order.size(); ++i) {
    const StoreRep::SubList& list = r.subs[sub_order[i]];
    uint64_t out = r.sub_begin[i];
    for (uint32_t page = list.head; page != columnar::kNilPage;
         page = r.db_pool[page].next) {
      const columnar::DbIdPage& p = r.db_pool[page];
      for (uint16_t k = 0; k < p.count; ++k, ++out) {
        r.sub_dbs[out] = p.ids[k];
      }
    }
  }

  // Drop live-ingest state: chain pools, heads/tails, hash indexes.
  std::vector<columnar::SloPage>().swap(r.slo_pool);
  std::vector<columnar::SizePage>().swap(r.size_pool);
  std::vector<columnar::DbIdPage>().swap(r.db_pool);
  std::vector<uint32_t>().swap(r.rec.slo_head);
  std::vector<uint32_t>().swap(r.rec.slo_tail);
  std::vector<uint32_t>().swap(r.rec.slo_cnt);
  std::vector<uint32_t>().swap(r.rec.size_head);
  std::vector<uint32_t>().swap(r.rec.size_tail);
  std::vector<uint32_t>().swap(r.rec.size_cnt);
  std::vector<StoreRep::SubList>().swap(r.subs);
  r.db_rows.Clear();
  r.sub_rows.Clear();

  r.finalized = true;
  r.SyncGauge();
  return Status::OK();
}

bool TelemetryStore::finalized() const { return rep_->finalized; }

bool TelemetryStore::readable() const { return rep_->readable(); }

EventSequence TelemetryStore::events() const {
  return EventSequence(rep_.get());
}

DatabaseRecordRange TelemetryStore::databases() const {
  return DatabaseRecordRange(rep_.get());
}

Result<DatabaseRecord> TelemetryStore::FindDatabase(DatabaseId id) const {
  const StoreRep& r = *rep_;
  if (r.finalized) {
    auto it = std::lower_bound(
        r.order.begin(), r.order.end(), id,
        [&r](uint32_t row, DatabaseId key) { return r.rec.id[row] < key; });
    if (it != r.order.end() && r.rec.id[*it] == id) return r.RecordAt(*it);
  } else {
    const uint32_t row = r.db_rows.Find(id);
    if (row != columnar::IdMap::kNotFound) return r.RecordAt(row);
  }
  return Status::NotFound("no database with id " + std::to_string(id));
}

columnar::SubscriptionDatabases TelemetryStore::DatabasesOfSubscription(
    SubscriptionId sub) const {
  const StoreRep& r = *rep_;
  if (r.finalized) {
    auto it = std::lower_bound(r.sub_keys.begin(), r.sub_keys.end(), sub);
    if (it == r.sub_keys.end() || *it != sub) {
      return columnar::SubscriptionDatabases();
    }
    const size_t i = it - r.sub_keys.begin();
    return columnar::SubscriptionDatabases(
        r.sub_dbs.data() + r.sub_begin[i],
        r.sub_begin[i + 1] - r.sub_begin[i]);
  }
  const uint32_t si = r.sub_rows.Find(sub);
  if (si == columnar::IdMap::kNotFound) {
    return columnar::SubscriptionDatabases();
  }
  return columnar::SubscriptionDatabases(&r.db_pool, r.subs[si].head,
                                         r.subs[si].count);
}

std::vector<SubscriptionId> TelemetryStore::AllSubscriptions() const {
  const StoreRep& r = *rep_;
  if (r.finalized) return r.sub_keys;
  std::vector<SubscriptionId> out;
  out.reserve(r.subs.size());
  for (const StoreRep::SubList& list : r.subs) out.push_back(list.sub);
  std::sort(out.begin(), out.end());
  return out;
}

size_t TelemetryStore::num_events() const { return rep_->total_events; }

size_t TelemetryStore::num_databases() const { return rep_->rec.id.size(); }

TelemetryStore::MemoryStats TelemetryStore::memory() const {
  return rep_->Memory();
}

namespace {

// CSV field escaping is avoided by restricting names: the simulator only
// emits [a-z0-9-] names, and ImportCsv rejects embedded commas.
std::string EventToCsvLine(const Event& e) {
  std::ostringstream os;
  os << FormatIso8601(e.timestamp) << "," << EventKindToString(e.kind())
     << "," << e.database_id << "," << e.subscription_id << ",";
  switch (e.kind()) {
    case EventKind::kDatabaseCreated: {
      const auto& p = std::get<DatabaseCreatedPayload>(e.payload);
      os << p.server_id << "," << p.server_name << "," << p.database_name
         << "," << SloLadder()[p.slo_index].name << ","
         << SubscriptionTypeToString(p.subscription_type);
      break;
    }
    case EventKind::kSloChanged: {
      const auto& p = std::get<SloChangedPayload>(e.payload);
      os << SloLadder()[p.old_slo_index].name << ","
         << SloLadder()[p.new_slo_index].name;
      break;
    }
    case EventKind::kSizeSample: {
      const auto& p = std::get<SizeSamplePayload>(e.payload);
      os << FormatDouble(p.size_mb, 3);
      break;
    }
    case EventKind::kDatabaseDropped:
      break;
  }
  return os.str();
}

int SubscriptionTypeByName(const std::string& name) {
  for (int i = 0; i < kNumSubscriptionTypes; ++i) {
    if (name == SubscriptionTypeToString(static_cast<SubscriptionType>(i))) {
      return i;
    }
  }
  return -1;
}

}  // namespace

std::string TelemetryStore::ExportCsv() const {
  std::string out =
      "timestamp,kind,database_id,subscription_id,f1,f2,f3,f4,f5\n";
  const EventSequence seq = events();
  for (auto it = seq.begin(); it != seq.end(); ++it) {
    out += EventToCsvLine(*it);
    out += "\n";
  }
  return out;
}

Result<TelemetryStore> TelemetryStore::ImportCsv(
    const std::string& csv, std::string region_name, int utc_offset_minutes,
    HolidayCalendar holidays, Timestamp window_start, Timestamp window_end) {
  TelemetryStore store(std::move(region_name), utc_offset_minutes,
                       std::move(holidays), window_start, window_end);
  std::istringstream is(csv);
  std::string line;
  bool first = true;
  size_t line_no = 0;
  while (std::getline(is, line)) {
    ++line_no;
    if (first) {  // header
      first = false;
      continue;
    }
    if (TrimWhitespace(line).empty()) continue;
    const std::vector<std::string> f = SplitString(line, ',');
    if (f.size() < 4) {
      return Status::InvalidArgument("CSV line " + std::to_string(line_no) +
                                     ": too few fields");
    }
    auto ts = ParseIso8601(f[0]);
    if (!ts.ok()) return ts.status();
    const DatabaseId db = std::stoull(f[2]);
    const SubscriptionId sub = std::stoull(f[3]);
    Event e;
    if (f[1] == "DatabaseCreated") {
      if (f.size() < 9) {
        return Status::InvalidArgument("CSV line " + std::to_string(line_no) +
                                       ": malformed creation");
      }
      DatabaseCreatedPayload p;
      p.server_id = std::stoull(f[4]);
      p.server_name = f[5];
      p.database_name = f[6];
      p.slo_index = SloIndexByName(f[7]);
      if (p.slo_index < 0) {
        return Status::InvalidArgument("CSV line " + std::to_string(line_no) +
                                       ": unknown SLO " + f[7]);
      }
      const int st = SubscriptionTypeByName(f[8]);
      if (st < 0) {
        return Status::InvalidArgument("CSV line " + std::to_string(line_no) +
                                       ": unknown subscription type " + f[8]);
      }
      p.subscription_type = static_cast<SubscriptionType>(st);
      e = MakeCreatedEvent(*ts, db, sub, std::move(p));
    } else if (f[1] == "SloChanged") {
      if (f.size() < 6) {
        return Status::InvalidArgument("CSV line " + std::to_string(line_no) +
                                       ": malformed SLO change");
      }
      const int old_slo = SloIndexByName(f[4]);
      const int new_slo = SloIndexByName(f[5]);
      if (old_slo < 0 || new_slo < 0) {
        return Status::InvalidArgument("CSV line " + std::to_string(line_no) +
                                       ": unknown SLO name");
      }
      e = MakeSloChangedEvent(*ts, db, sub, old_slo, new_slo);
    } else if (f[1] == "SizeSample") {
      if (f.size() < 5) {
        return Status::InvalidArgument("CSV line " + std::to_string(line_no) +
                                       ": malformed size sample");
      }
      e = MakeSizeSampleEvent(*ts, db, sub, std::stod(f[4]));
    } else if (f[1] == "DatabaseDropped") {
      e = MakeDroppedEvent(*ts, db, sub);
    } else {
      return Status::InvalidArgument("CSV line " + std::to_string(line_no) +
                                     ": unknown event kind " + f[1]);
    }
    CLOUDSURV_RETURN_NOT_OK(store.Append(std::move(e)));
  }
  CLOUDSURV_RETURN_NOT_OK(store.Finalize());
  return store;
}

}  // namespace cloudsurv::telemetry
