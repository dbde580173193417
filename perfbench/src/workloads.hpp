// The three benchmark workloads, generated in-process from a seed.
//
//  * packet_scan    — long-flow campus mix, selective packet filter,
//                     hardware filter off (NIC dispatch + SoA parse +
//                     batch predicate sweep).
//  * conn_archive   — churn-heavy campus mix with a per-flow outer
//                     shape (plain / VLAN / QinQ / GRE / VXLAN /
//                     IPv4-fragmented), connection records archived by
//                     the columnar sink (the stateful write path).
//  * video_sessions — Netflix + YouTube sessions over campus
//                     background, a 4-member SubscriptionSet with the
//                     hardware filter on (the session path).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "traffic/trace.hpp"

namespace perfbench {

enum class WorkloadId { kPacketScan, kConnArchive, kVideoSessions };

std::optional<WorkloadId> parse_workload(std::string_view name);
const char* workload_name(WorkloadId id);

/// Outer frame shapes of conn_archive, indexed like
/// TrafficProfile::shape_packets.
inline constexpr const char* kShapeNames[] = {"plain", "vlan", "qinq",
                                              "gre",   "vxlan", "frag"};
inline constexpr std::size_t kShapeCount = 6;

struct Workload {
  WorkloadId id = WorkloadId::kPacketScan;
  std::uint64_t seed = 0;
  retina::traffic::Trace trace;
};

/// Build one workload. `scale` multiplies the flow/session counts
/// (1.0 = the benchmark size; the self-test uses a smoke size).
Workload make_workload(WorkloadId id, std::uint64_t seed, double scale = 1.0);

/// What the generated traffic actually is, measured from the trace.
struct TrafficProfile {
  std::uint64_t packets = 0;
  std::uint64_t bytes = 0;
  double mean_frame = 0;
  /// Distinct canonical five-tuples (fragments excluded: they carry no
  /// tuple until reassembled).
  std::uint64_t flows = 0;
  /// Distinct tuples per tuple-bearing packet: the share of packets
  /// that would open a connection.
  double new_conn_share = 0;
  /// Ingress packets per outer shape (kShapeNames order).
  std::uint64_t shape_packets[kShapeCount] = {};
  double duration_s = 0;
};

TrafficProfile profile_trace(const retina::traffic::Trace& trace);

/// FNV-1a over every packet's timestamp and bytes: equal iff the traces
/// are byte-identical.
std::uint64_t trace_digest(const retina::traffic::Trace& trace);

}  // namespace perfbench
