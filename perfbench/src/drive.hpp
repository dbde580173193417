// Drives a workload through the public Runtime API the way a capacity
// run does: Runtime::create, then fixed chunks of dispatch() followed by
// one drain() each (so the pipeline sees real multi-packet bursts),
// then finish(). Never Runtime::run(): it drains after every dispatch
// and so never forms a burst.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/runtime.hpp"
#include "digest.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Packets dispatched before each drain() (8 rx bursts of 32).
inline constexpr std::size_t kChunkPackets = 256;

/// One timed span recorded by the benchmark's own code.
struct Span {
  enum Kind : std::uint8_t { kDispatch, kDrain, kFinish };
  Kind kind;
  std::uint32_t pass;   // index among the run's traced passes
  std::uint32_t chunk;  // shared by a chunk's dispatch and drain spans
  std::uint32_t packets;
  std::uint64_t start_ns;  // since the run's time origin
  std::uint64_t dur_ns;
};

/// What the subscriptions' callbacks saw during one pass.
struct Collector {
  std::vector<Digest> members;  // one digest per subscription member
  bool timed = false;           // traced pass: time every callback
  std::uint64_t callbacks = 0;
  std::uint64_t callback_ns = 0;
  /// When set, every delivered connection record is copied here (the
  /// sink layer replays them).
  std::vector<retina::core::ConnRecord>* keep_conns = nullptr;
};

/// How one pass is configured.
struct PassMode {
  bool per_packet = false;  // rx_burst_size = 1 (the reference path)
  /// video_sessions reference: run only this member, as a single
  /// subscription (-1 = the whole workload).
  int member_alone = -1;
};

struct PassResult {
  bool ok = false;  // Runtime::create succeeded
  std::string error;
  double dispatch_s = 0;
  double drain_s = 0;
  double finish_s = 0;
  std::vector<double> drain_chunk_us;
  retina::core::RunStats stats;
  std::uint64_t nic_malformed = 0;
  std::string filter_backend;
  Collector collector;

  std::uint64_t failed_packets() const;
  double worker_s() const { return drain_s + finish_s; }
  double gbps() const;
  double mpps() const;
  double replay_gbps() const;
};

class Driver {
 public:
  /// `workdir` holds the conn_archive sink file.
  Driver(const Workload& workload, std::string workdir);

  /// Members in the workload's subscription (1, or 4 for
  /// video_sessions).
  std::size_t members() const;
  const char* member_name(std::size_t member) const;
  /// Data-abstraction level of each member.
  std::vector<retina::core::Level> levels() const;

  PassResult run_pass(const PassMode& mode, Collector collector,
                      std::vector<Span>* spans = nullptr,
                      std::uint32_t pass_id = 0);

  /// Build the workload's runtime without running it (layer replay).
  retina::Result<std::unique_ptr<retina::core::Runtime>> create(
      const PassMode& mode, Collector* collector);

  /// Remove the previous pass's archive, so every timed create opens a
  /// fresh file (truncating a large one would be charged to set-up).
  void clear_archive() const;

  /// Give the conn_archive sink room for `records` records per pass
  /// (0 = the library's default arena count), so a descheduled writer
  /// thread can never make append() refuse one.
  void size_archive(std::uint64_t records);

  const std::string& sink_path() const { return sink_path_; }
  const Workload& workload() const { return workload_; }

 private:
  retina::core::RuntimeConfig config(const PassMode& mode) const;

  const Workload& workload_;
  std::string sink_path_;
  std::size_t archive_arenas_ = 0;  // 0 = SinkConfig default
  std::chrono::steady_clock::time_point origin_;  // span time zero
};

/// Read the archive back: the digest of its records (hashed like
/// hash_conn) plus the trailer's record count. False + error on a
/// corrupt or unreadable archive.
bool archive_digest(const std::string& path, Digest& out, std::string& error);

double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
double percentile(std::vector<double> v, double q);

}  // namespace perfbench
