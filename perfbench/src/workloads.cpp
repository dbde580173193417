#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/golden.hpp"
#include "packet/packet_view.hpp"
#include "traffic/encap.hpp"
#include "traffic/flowgen.hpp"
#include "traffic/workloads.hpp"

namespace perfbench {

using namespace retina;

namespace {

std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Generator seed for one workload: the benchmark seed mixed with the
/// workload id, so the three workloads of one seed are independent.
std::uint64_t workload_seed(WorkloadId id, std::uint64_t seed) {
  return mix64(seed * 3 + static_cast<std::uint64_t>(id));
}

std::size_t scaled(std::size_t n, double scale) {
  return std::max<std::size_t>(
      1, static_cast<std::size_t>(std::llround(static_cast<double>(n) *
                                               scale)));
}

/// packet_scan: the long-flow campus mix of bench/pipeline_burst.
traffic::Trace packet_scan_trace(std::uint64_t seed, double scale) {
  traffic::CampusMixConfig mix;
  mix.total_flows = scaled(40'000, scale);
  mix.flows_per_second = 20'000;
  mix.max_active = 16384;
  mix.resp_min_bytes = 20'000;
  mix.seed = seed;
  return traffic::make_campus_trace(mix);
}

/// Outer shape of a flow: most flows stay plain, 5% each take one of
/// the five encapsulated / fragmented shapes. Keyed by the canonical
/// tuple so both directions of a connection share the shape.
std::size_t flow_shape(const packet::FiveTuple& tuple) {
  const std::uint64_t h = mix64(tuple.canonical().key.hash()) % 100;
  if (h < 75) return 0;
  return 1 + static_cast<std::size_t>((h - 75) / 5);
}

/// conn_archive: the churn-heavy default campus mix, each flow re-emitted
/// in its outer shape.
traffic::Trace conn_archive_trace(std::uint64_t seed, double scale) {
  traffic::CampusMixConfig mix;
  mix.total_flows = scaled(100'000, scale);
  mix.seed = seed;
  const auto plain = traffic::make_campus_trace(mix);
  const traffic::TunnelEndpoints tunnel;
  std::vector<packet::Mbuf> out;
  out.reserve(plain.size() + plain.size() / 8);
  for (const auto& m : plain.packets()) {
    const auto view = packet::PacketView::parse(m);
    const std::size_t shape =
        view && view->five_tuple() ? flow_shape(*view->five_tuple()) : 0;
    switch (shape) {
      case 1:
        out.push_back(traffic::wrap_vlan(m, 42));
        break;
      case 2:
        out.push_back(traffic::wrap_qinq(m, 100, 42));
        break;
      case 3:
        out.push_back(traffic::wrap_gre(m, tunnel, 0x2A));
        break;
      case 4:
        out.push_back(traffic::wrap_vxlan(m, tunnel, 0x2A));
        break;
      case 5:
        // 8 bytes of L4 header in the first fragment (ports only), then
        // 512-byte pieces: a full-size segment becomes four fragments.
        for (auto& f : traffic::fragment_ipv4(m, 8, 512)) {
          out.push_back(std::move(f));
        }
        break;
      default:
        out.push_back(m);
        break;
    }
  }
  return traffic::Trace(std::move(out));
}

/// video_sessions: the Fig. 7/9 video workload at ~300k packets.
traffic::Trace video_trace(std::uint64_t seed, double scale) {
  traffic::VideoWorkloadConfig video;
  video.seed = seed;
  video.sessions = scaled(600, scale);
  video.sessions_per_second = 20.0;
  video.max_active = 256;
  video.byte_scale = 1.0 / 1024;
  video.background_flows = scaled(20'000, scale);
  return traffic::make_video_workload(video).materialize();
}

}  // namespace

std::optional<WorkloadId> parse_workload(std::string_view name) {
  for (const auto id : {WorkloadId::kPacketScan, WorkloadId::kConnArchive,
                        WorkloadId::kVideoSessions}) {
    if (name == workload_name(id)) return id;
  }
  return std::nullopt;
}

const char* workload_name(WorkloadId id) {
  switch (id) {
    case WorkloadId::kPacketScan:
      return "packet_scan";
    case WorkloadId::kConnArchive:
      return "conn_archive";
    case WorkloadId::kVideoSessions:
      return "video_sessions";
  }
  return "?";
}

Workload make_workload(WorkloadId id, std::uint64_t seed, double scale) {
  Workload w;
  w.id = id;
  w.seed = seed;
  const std::uint64_t gen_seed = workload_seed(id, seed);
  switch (id) {
    case WorkloadId::kPacketScan:
      w.trace = packet_scan_trace(gen_seed, scale);
      break;
    case WorkloadId::kConnArchive:
      w.trace = conn_archive_trace(gen_seed, scale);
      break;
    case WorkloadId::kVideoSessions:
      w.trace = video_trace(gen_seed, scale);
      break;
  }
  return w;
}

TrafficProfile profile_trace(const traffic::Trace& trace) {
  TrafficProfile p;
  std::unordered_set<std::uint64_t> tuples;
  std::uint64_t tuple_packets = 0;
  for (const auto& m : trace.packets()) {
    ++p.packets;
    p.bytes += m.length();
    const auto view = packet::PacketView::parse(m);
    if (!view) {
      ++p.shape_packets[0];
      continue;
    }
    std::size_t shape = 0;
    if (view->is_fragment()) {
      shape = 5;
    } else if (view->tunnel() == packet::PacketView::Tunnel::kGre) {
      shape = 3;
    } else if (view->tunnel() == packet::PacketView::Tunnel::kVxlan) {
      shape = 4;
    } else if (view->vlan_count() >= 2) {
      shape = 2;
    } else if (view->vlan_count() == 1) {
      shape = 1;
    }
    ++p.shape_packets[shape];
    if (const auto& tuple = view->five_tuple()) {
      ++tuple_packets;
      tuples.insert(tuple->canonical().key.hash());
    }
  }
  p.flows = tuples.size();
  p.mean_frame = p.packets ? static_cast<double>(p.bytes) /
                                 static_cast<double>(p.packets)
                           : 0.0;
  p.new_conn_share = tuple_packets ? static_cast<double>(p.flows) /
                                         static_cast<double>(tuple_packets)
                                   : 0.0;
  p.duration_s = static_cast<double>(trace.duration_ns()) / 1e9;
  return p;
}

std::uint64_t trace_digest(const traffic::Trace& trace) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& m : trace.packets()) {
    h = mix64(h ^ m.timestamp_ns());
    h = mix64(h ^ core::golden::fnv1a64(m.bytes()));
  }
  return h;
}

}  // namespace perfbench
