#include "drive.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <functional>
#include <type_traits>
#include <utility>

#include "multisub/subscription_set.hpp"
#include "sink/config.hpp"
#include "sink/reader.hpp"
#include "traffic/workloads.hpp"

namespace perfbench {

using namespace retina;
using Clock = std::chrono::steady_clock;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::uint64_t ns_between(Clock::time_point a, Clock::time_point b) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}

/// A callback that folds each record into member `member`'s digest
/// (and, on a traced pass, times itself).
template <typename Rec, typename HashFn>
std::function<void(const Rec&)> recorder(Collector* c, std::size_t member,
                                         HashFn hash) {
  return [c, member, hash](const Rec& rec) {
    const bool timed = c->timed;
    const auto t0 = timed ? Clock::now() : Clock::time_point{};
    c->members[member].add(hash(rec));
    ++c->callbacks;
    if constexpr (std::is_same_v<Rec, core::ConnRecord>) {
      if (c->keep_conns != nullptr) c->keep_conns->push_back(rec);
    }
    if (timed) c->callback_ns += ns_between(t0, Clock::now());
  };
}

constexpr const char* kScanFilter =
    "ipv4.addr in 192.168.0.0/16 and tcp.port = 22";
constexpr const char* kArchiveFilter = "tcp or udp";

/// video_sessions members: (name, filter, level).
struct Member {
  const char* name;
  const char* filter;
  core::Level level;
};
const Member kVideoMembers[] = {
    {"netflix_conns", traffic::kNetflixFilter, core::Level::kConnection},
    {"youtube_sessions", traffic::kYoutubeFilter, core::Level::kSession},
    {"dns_sessions", "dns", core::Level::kSession},
    {"ssh_packets", "tcp.port = 22", core::Level::kPacket},
};

Result<core::Subscription> subscribe(const char* filter, core::Level level,
                                     Collector* c, std::size_t member) {
  auto builder = core::Subscription::builder().filter(filter);
  switch (level) {
    case core::Level::kPacket:
      builder.on_packet(recorder<packet::Mbuf>(c, member, hash_packet));
      break;
    case core::Level::kConnection:
      builder.on_connection(
          recorder<core::ConnRecord>(c, member, hash_conn));
      break;
    default:
      builder.on_session(
          recorder<core::SessionRecord>(c, member, hash_session));
      break;
  }
  return builder.build();
}

}  // namespace

std::uint64_t PassResult::failed_packets() const {
  const auto& t = stats.total;
  return stats.nic_ring_dropped + stats.nic_pool_exhausted + t.shed_total() +
         stats.sink_dropped + t.frag_dropped_budget + t.frag_dropped_timeout +
         t.frag_dropped_malformed + nic_malformed;
}

double PassResult::gbps() const {
  return static_cast<double>(stats.nic_rx_bytes) * 8.0 / 1e9 / worker_s();
}

double PassResult::mpps() const {
  return static_cast<double>(stats.nic_rx_packets) / 1e6 / worker_s();
}

double PassResult::replay_gbps() const {
  return static_cast<double>(stats.nic_rx_bytes) * 8.0 / 1e9 /
         (dispatch_s + drain_s + finish_s);
}

Driver::Driver(const Workload& workload, std::string workdir)
    : workload_(workload),
      sink_path_(std::move(workdir) + "/conn_archive.rta"),
      origin_(Clock::now()) {}

std::size_t Driver::members() const {
  return workload_.id == WorkloadId::kVideoSessions ? std::size(kVideoMembers)
                                                    : 1;
}

const char* Driver::member_name(std::size_t member) const {
  switch (workload_.id) {
    case WorkloadId::kPacketScan:
      return "scan_packets";
    case WorkloadId::kConnArchive:
      return "archived_conns";
    case WorkloadId::kVideoSessions:
      return kVideoMembers[member].name;
  }
  return "?";
}

void Driver::clear_archive() const {
  std::error_code ignored;
  std::filesystem::remove(sink_path_, ignored);
}

void Driver::size_archive(std::uint64_t records) {
  const std::size_t per_arena = sink::SinkConfig{}.arena_records;
  archive_arenas_ = records == 0 ? 0 : records / per_arena + 2;
}

std::vector<core::Level> Driver::levels() const {
  switch (workload_.id) {
    case WorkloadId::kPacketScan:
      return {core::Level::kPacket};
    case WorkloadId::kConnArchive:
      return {core::Level::kConnection};
    case WorkloadId::kVideoSessions:
      break;
  }
  std::vector<core::Level> levels;
  for (const auto& m : kVideoMembers) levels.push_back(m.level);
  return levels;
}

core::RuntimeConfig Driver::config(const PassMode& mode) const {
  core::RuntimeConfig config;
  config.cores = 1;
  config.rx_burst_size = mode.per_packet ? 1 : 32;
  config.hardware_filter = workload_.id == WorkloadId::kVideoSessions;
  if (workload_.id == WorkloadId::kConnArchive) {
    config.sink.enabled = true;
    config.sink.path = sink_path_;
    config.sink.codec = "lzb";
    if (archive_arenas_ != 0) config.sink.arenas_per_core = archive_arenas_;
  }
  return config;
}

Result<std::unique_ptr<core::Runtime>> Driver::create(const PassMode& mode,
                                                      Collector* c) {
  c->members.assign(members(), Digest{});
  const auto cfg = config(mode);
  switch (workload_.id) {
    case WorkloadId::kPacketScan: {
      auto sub = subscribe(kScanFilter, core::Level::kPacket, c, 0);
      if (!sub) return Err(sub.error());
      return core::Runtime::create(cfg, std::move(sub).value());
    }
    case WorkloadId::kConnArchive: {
      auto sub = subscribe(kArchiveFilter, core::Level::kConnection, c, 0);
      if (!sub) return Err(sub.error());
      return core::Runtime::create(cfg, std::move(sub).value());
    }
    case WorkloadId::kVideoSessions:
      break;
  }
  if (mode.member_alone >= 0) {
    const auto& m = kVideoMembers[mode.member_alone];
    auto sub = subscribe(m.filter, m.level, c,
                         static_cast<std::size_t>(mode.member_alone));
    if (!sub) return Err(sub.error());
    return core::Runtime::create(cfg, std::move(sub).value());
  }
  auto builder = multisub::SubscriptionSet::builder();
  for (std::size_t i = 0; i < std::size(kVideoMembers); ++i) {
    const auto& m = kVideoMembers[i];
    builder.add(subscribe(m.filter, m.level, c, i), m.name);
  }
  auto set = builder.build();
  if (!set) return Err(set.error());
  return core::Runtime::create(cfg, std::move(set).value());
}

PassResult Driver::run_pass(const PassMode& mode, Collector collector,
                            std::vector<Span>* spans, std::uint32_t pass_id) {
  PassResult r;
  r.collector = std::move(collector);
  Collector& c = r.collector;

  clear_archive();
  auto created = create(mode, &c);
  if (!created) {
    r.error = created.error();
    return r;
  }
  r.ok = true;
  auto runtime = std::move(created).value();

  const auto packets = workload_.trace.packets();
  std::uint64_t dispatch_ns = 0;
  std::uint64_t drain_ns = 0;
  r.drain_chunk_us.reserve(packets.size() / kChunkPackets + 1);
  std::uint32_t chunk = 0;
  for (std::size_t i = 0; i < packets.size(); i += kChunkPackets, ++chunk) {
    const std::size_t end = std::min(packets.size(), i + kChunkPackets);
    const auto t0 = Clock::now();
    for (std::size_t j = i; j < end; ++j) runtime->dispatch(packets[j]);
    const auto t1 = Clock::now();
    runtime->drain();
    const auto t2 = Clock::now();
    const auto d_ns = ns_between(t0, t1);
    const auto w_ns = ns_between(t1, t2);
    dispatch_ns += d_ns;
    drain_ns += w_ns;
    r.drain_chunk_us.push_back(static_cast<double>(w_ns) / 1e3);
    if (spans != nullptr) {
      const auto n = static_cast<std::uint32_t>(end - i);
      spans->push_back(
          {Span::kDispatch, pass_id, chunk, n, ns_between(origin_, t0), d_ns});
      spans->push_back(
          {Span::kDrain, pass_id, chunk, n, ns_between(origin_, t1), w_ns});
    }
  }
  const auto t_fin = Clock::now();
  r.stats = runtime->finish();
  const auto t_done = Clock::now();
  if (spans != nullptr) {
    spans->push_back({Span::kFinish, pass_id, chunk, 0,
                      ns_between(origin_, t_fin), ns_between(t_fin, t_done)});
  }
  r.dispatch_s = static_cast<double>(dispatch_ns) / 1e9;
  r.drain_s = static_cast<double>(drain_ns) / 1e9;
  r.finish_s = seconds_between(t_fin, t_done);
  r.nic_malformed = runtime->nic().stats().malformed;
  r.filter_backend = runtime->filter_backend_name();
  return r;
}

bool archive_digest(const std::string& path, Digest& out, std::string& error) {
  auto reader = sink::ArchiveReader::open(path);
  if (!reader) {
    error = reader.error();
    return false;
  }
  std::vector<sink::FlowRecord> records;
  while (true) {
    auto more = reader.value()->next_chunk(records);
    if (!more) {
      error = more.error();
      return false;
    }
    if (!more.value()) break;
    for (const auto& rec : records) out.add(hash_flow(rec));
  }
  if (reader.value()->total_records() != out.count) {
    error = "archive trailer counts " +
            std::to_string(reader.value()->total_records()) +
            " records, read " + std::to_string(out.count);
    return false;
  }
  return true;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank > 0 ? rank - 1 : 0)];
}

}  // namespace perfbench
