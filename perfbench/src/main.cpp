// retina_perfbench: the repository benchmark.
//
//   retina_perfbench --workload <packet_scan|conn_archive|video_sessions>
//                    --seed N --seconds S --trace 0|1 --workdir DIR
//
// Smoke-test options (perfbench/run.py --selftest): --scale F shrinks
// the workload, --perturb-digest corrupts the reference digest (the run
// must then fail its check), --trace-digest prints the generated
// trace's digest and exits.
//
// Generates the workload from the seed, checks an untimed reference,
// then repeats timed passes (create, dispatch/drain chunks, finish) for
// S seconds and reports medians. --trace 1 pairs untraced and traced
// passes and replays the trace layer by layer (see README.md). The last
// stdout line is the JSON result object.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "drive.hpp"
#include "layers.hpp"
#include "report.hpp"
#include "workloads.hpp"

using namespace perfbench;
using Clock = std::chrono::steady_clock;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  double scale = 1.0;
  bool perturb_digest = false;
  bool trace_digest = false;
  std::string workdir;
};

bool parse_args(int argc, char** argv, Args& a, std::string& error) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--perturb-digest" || arg == "--trace-digest") {
      (arg == "--perturb-digest" ? a.perturb_digest : a.trace_digest) = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + std::string(arg);
      return false;
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = value;
    } else if (arg == "--workdir") {
      a.workdir = value;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(value, &end, 10);
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(value, &end);
    } else if (arg == "--trace") {
      a.trace = std::string_view(value) == "1";
    } else if (arg == "--scale") {
      a.scale = std::strtod(value, &end);
    } else {
      error = "unknown argument " + std::string(arg);
      return false;
    }
    if (end != nullptr && *end != '\0') {
      error = "bad value for " + std::string(arg) + ": " + value;
      return false;
    }
  }
  if (a.workdir.empty()) {
    error = "--workdir is required";
    return false;
  }
  if (!parse_workload(a.workload)) {
    error = "--workload must be packet_scan, conn_archive or video_sessions";
    return false;
  }
  if (a.seconds <= 0 || a.scale <= 0) {
    error = "--seconds and --scale must be positive";
    return false;
  }
  return true;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

/// Back-to-back Runtime::create calls per run, at least kSetupReps and
/// for at least kSetupSeconds, so that one short burst of host load
/// cannot move their median (setup_s). Only these creates count. A
/// create right after a timed pass runs on the memory that pass left
/// behind and is several times slower, and mixing the two kinds put
/// the median wherever their counts happened to balance.
constexpr std::size_t kSetupReps = 101;
constexpr double kSetupSeconds = 0.25;

/// Pipeline counters a burst pass must reproduce exactly from the
/// per-packet reference (single-subscription workloads).
std::vector<std::uint64_t> pipeline_counters(const retina::core::RunStats& s) {
  const auto& t = s.total;
  return {s.nic_rx_packets,   s.nic_rx_bytes,       t.packets,
          t.bytes,            t.delivered_packets,  t.delivered_conns,
          t.delivered_sessions, t.conns_created,    t.conns_expired,
          t.conns_terminated, t.sessions_parsed,    t.frag_fragments,
          t.frag_reassembled, t.unknown_ethertype};
}

/// Reference digests: per-packet path for single subscriptions, each
/// member alone for the subscription set.
struct Reference {
  std::vector<Digest> members;
  std::vector<std::uint64_t> counters;  // single subscription only
  bool ok = true;
  std::string error;
};

Reference reference(Driver& driver) {
  Reference ref;
  ref.members.resize(driver.members());
  if (driver.members() == 1) {
    PassMode mode;
    mode.per_packet = true;
    auto r = driver.run_pass(mode, Collector{});
    if (!r.ok) return {{}, {}, false, r.error};
    ref.members[0] = r.collector.members[0];
    ref.counters = pipeline_counters(r.stats);
    return ref;
  }
  for (std::size_t m = 0; m < driver.members(); ++m) {
    PassMode mode;
    mode.member_alone = static_cast<int>(m);
    auto r = driver.run_pass(mode, Collector{});
    if (!r.ok) return {{}, {}, false, r.error};
    ref.members[m] = r.collector.members[m];
  }
  return ref;
}

/// Compare one pass with the reference; describe the first mismatch.
bool check_pass(const Driver& driver, const PassResult& pass,
                const Reference& ref, std::string& why) {
  const auto& got = pass.collector.members;
  if (got.size() != ref.members.size()) {
    why = "member count differs";
    return false;
  }
  for (std::size_t m = 0; m < got.size(); ++m) {
    if (got[m] == ref.members[m]) continue;
    why = std::string(driver.member_name(m)) + ": delivered " +
          std::to_string(got[m].count) + " records (digest " +
          std::to_string(got[m].sum) + "), reference " +
          std::to_string(ref.members[m].count) + " (digest " +
          std::to_string(ref.members[m].sum) + ")";
    return false;
  }
  if (!ref.counters.empty() && pipeline_counters(pass.stats) != ref.counters) {
    why = "pipeline counters differ from the per-packet reference";
    return false;
  }
  return true;
}

void print_fingerprint(const Fingerprint& f, const std::string& backend) {
  std::printf("machine: cpu=\"%s\" isa=%s vcpus=%u\n", f.cpu_model.c_str(),
              f.isa.c_str(), f.vcpus);
  std::printf("build:   compiler=\"%s\" type=%s flags=\"%s\" "
              "filter_backend=%s\n",
              f.compiler.c_str(), f.build_type.c_str(), f.opt_flags.c_str(),
              backend.c_str());
}

void print_profile(const Workload& w, const TrafficProfile& p,
                   double hw_pass_share, std::uint64_t digest) {
  std::printf("traffic: workload=%s seed=%llu trace_digest=%016llx "
              "packets=%llu bytes=%llu mean_frame=%.1fB flows=%llu "
              "new_conn_share=%.4f duration=%.2fs hw_pass_share=%.4f\n",
              workload_name(w.id), static_cast<unsigned long long>(w.seed),
              static_cast<unsigned long long>(digest),
              static_cast<unsigned long long>(p.packets),
              static_cast<unsigned long long>(p.bytes), p.mean_frame,
              static_cast<unsigned long long>(p.flows), p.new_conn_share,
              p.duration_s, hw_pass_share);
  std::printf("shapes: ");
  for (std::size_t s = 0; s < kShapeCount; ++s) {
    std::printf(" %s=%.4f", kShapeNames[s],
                share(static_cast<double>(p.shape_packets[s]),
                      static_cast<double>(p.packets)));
  }
  std::printf("\n");
}

struct RunSummary {
  bool correct = true;
  std::string failure;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) {
    std::fprintf(stderr, "retina_perfbench: %s\n", error.c_str());
    return 2;
  }
  const auto fp = fingerprint();
  if (!fp.optimized) {
    std::fprintf(stderr,
                 "retina_perfbench: refusing to report from an unoptimised "
                 "build (%s)\n",
                 fp.build_type.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.workdir);

  const auto id = *parse_workload(args.workload);
  const auto t_gen = Clock::now();
  const Workload workload = make_workload(id, args.seed, args.scale);
  const double gen_s = seconds_since(t_gen);
  const std::uint64_t digest = trace_digest(workload.trace);
  if (args.trace_digest) {
    std::printf("%016llx\n", static_cast<unsigned long long>(digest));
    return 0;
  }
  const auto profile = profile_trace(workload.trace);
  Driver driver(workload, args.workdir);

  RunSummary run;
  auto ref = reference(driver);
  if (!ref.ok) {
    std::fprintf(stderr, "retina_perfbench: reference pass failed: %s\n",
                 ref.error.c_str());
    return 1;
  }
  if (args.perturb_digest) ref.members[0].sum ^= 1;
  // Every later create holds a whole pass in the sink's arenas: how far
  // the writer thread falls behind depends on the host's scheduler, and
  // a refusal would make the failure count differ from run to run.
  if (id == WorkloadId::kConnArchive) {
    driver.size_archive(ref.members[0].count);
  }

  std::vector<double> setup_samples;
  const auto t_setup = Clock::now();
  while (setup_samples.size() < kSetupReps ||
         seconds_since(t_setup) < kSetupSeconds) {
    Collector c;
    driver.clear_archive();
    const auto t0 = Clock::now();
    auto rt = driver.create(PassMode{}, &c);
    setup_samples.push_back(seconds_since(t0));
    if (!rt) {
      std::fprintf(stderr, "retina_perfbench: Runtime::create failed: %s\n",
                   rt.error().c_str());
      return 1;
    }
  }

  // One warm-up pass (first-touch page faults, allocator growth),
  // checked but not timed.
  {
    auto warm = driver.run_pass(PassMode{}, Collector{});
    std::string why;
    if (!warm.ok || !check_pass(driver, warm, ref, why)) {
      run.correct = false;
      run.failure = "warm-up pass: " + (warm.ok ? why : warm.error);
    }
    run.attempted += warm.stats.nic_rx_packets;
    run.failed += warm.failed_packets();
  }

  // Timed passes. In a traced run, untraced and traced passes alternate
  // so the tracing overhead is a paired comparison.
  std::vector<PassResult> passes;
  std::vector<PassResult> traced;
  std::vector<Span> spans;
  std::vector<retina::core::ConnRecord> kept_conns;
  const auto t_run = Clock::now();
  while (passes.size() < 3 || seconds_since(t_run) < args.seconds) {
    for (int t = 0; t <= (args.trace ? 1 : 0); ++t) {
      Collector c;
      const bool is_traced = t == 1;
      c.timed = is_traced;
      if (is_traced && traced.empty() && id == WorkloadId::kConnArchive) {
        c.keep_conns = &kept_conns;
      }
      auto r = driver.run_pass(
          PassMode{}, std::move(c), is_traced ? &spans : nullptr,
          static_cast<std::uint32_t>(traced.size()));
      if (!r.ok) {
        std::fprintf(stderr, "retina_perfbench: Runtime::create failed: %s\n",
                     r.error.c_str());
        return 1;
      }
      run.attempted += r.stats.nic_rx_packets;
      run.failed += r.failed_packets();
      std::string why;
      if (run.correct && !check_pass(driver, r, ref, why)) {
        run.correct = false;
        run.failure = (is_traced ? "traced pass " : "pass ") +
                      std::to_string((is_traced ? traced : passes).size()) +
                      ": " + why;
      }
      (is_traced ? traced : passes).push_back(std::move(r));
    }
  }
  const double measured_s = seconds_since(t_run);

  // The archive of the last pass must hold exactly what the callbacks
  // saw.
  if (id == WorkloadId::kConnArchive && run.correct) {
    Digest archived;
    std::string why;
    const auto& last = (args.trace ? traced : passes).back();
    if (!archive_digest(driver.sink_path(), archived, why)) {
      run.correct = false;
      run.failure = "archive: " + why;
    } else if (!(archived == last.collector.members[0]) ||
               archived.count != last.stats.sink_records) {
      run.correct = false;
      run.failure = "archive holds " + std::to_string(archived.count) +
                    " records (digest " + std::to_string(archived.sum) +
                    "), callbacks saw " +
                    std::to_string(last.collector.members[0].count);
    }
  }

  const auto& first = passes.front();
  const double hw_pass_share =
      1.0 - share(static_cast<double>(first.stats.nic_hw_dropped),
                  static_cast<double>(first.stats.nic_rx_packets));
  print_fingerprint(fp, first.filter_backend);
  print_profile(workload, profile, hw_pass_share, digest);
  std::printf("run:     generate=%.2fs passes=%zu%s measured=%.2fs "
              "chunk=%zu packets, drain samples=%zu per pass\n",
              gen_s, passes.size(), args.trace ? " (+ traced)" : "",
              measured_s, kChunkPackets, first.drain_chunk_us.size());
  for (std::size_t m = 0; m < driver.members(); ++m) {
    std::printf("reference: %-18s records=%llu digest=%016llx\n",
                driver.member_name(m),
                static_cast<unsigned long long>(ref.members[m].count),
                static_cast<unsigned long long>(ref.members[m].sum));
  }
  std::printf("check:   %s\n", run.correct
                                   ? "ok, every pass matched the reference"
                                   : ("FAILED " + run.failure).c_str());

  auto per_pass = [&](auto fn) {
    std::vector<double> v;
    for (const auto& p : passes) v.push_back(fn(p));
    return median(v);
  };
  // Every pass drains the same chunks in the same order. A chunk's
  // median over the passes is its cost without the host's one-off
  // stalls; the percentiles are taken over those per-chunk medians.
  std::vector<double> drain_us(first.drain_chunk_us.size());
  for (std::size_t k = 0; k < drain_us.size(); ++k) {
    std::vector<double> chunk;
    for (const auto& p : passes) chunk.push_back(p.drain_chunk_us[k]);
    drain_us[k] = median(std::move(chunk));
  }
  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"gbps", "Gbit/s", per_pass([](const PassResult& p) { return p.gbps(); }),
         "ingress bits / (drain + finish)"},
        {"mpps", "Mpps", per_pass([](const PassResult& p) { return p.mpps(); }),
         "ingress packets / (drain + finish)"},
        {"replay_gbps", "Gbit/s",
         per_pass([](const PassResult& p) { return p.replay_gbps(); }),
         "ingress bits / (dispatch + drain + finish)"},
        {"drain_p50_us", "us", percentile(drain_us, 0.50),
         "one drain() per 256-packet chunk: " +
             std::to_string(drain_us.size()) + " chunks, each the median of " +
             std::to_string(passes.size()) + " passes"},
        {"drain_p99_us", "us", percentile(drain_us, 0.99), ""},
        {"setup_s", "s", median(setup_samples),
         "Runtime::create, median of " +
             std::to_string(setup_samples.size())},
    };
    std::printf("end-to-end (median of %zu passes):\n", passes.size());
  } else {
    metrics = layer_metrics(driver, passes, traced, spans, kept_conns,
                            args.workdir, args.seed);
    if (metrics.empty()) {
      std::fprintf(stderr, "retina_perfbench: layer replay set-up failed\n");
      return 1;
    }
    std::printf("per-layer (traced passes %zu, replay of %llu packets):\n",
                traced.size(),
                static_cast<unsigned long long>(profile.packets));
  }
  print_metrics(stdout, metrics);
  std::printf("fail_frac = %.6g (failed %llu of %llu ingress packets)\n",
              share(static_cast<double>(run.failed),
                    static_cast<double>(run.attempted)),
              static_cast<unsigned long long>(run.failed),
              static_cast<unsigned long long>(run.attempted));

  const std::string json =
      result_json(run.correct, run.attempted, run.failed, metrics);
  {
    const auto dir = std::filesystem::path(args.workdir) / "results";
    std::filesystem::create_directories(dir);
    std::ofstream out(dir / (args.workload + "-seed" +
                             std::to_string(args.seed) +
                             (args.trace ? "-trace" : "") + ".json"));
    out << "{\"workload\": \"" << args.workload << "\", \"seed\": "
        << args.seed << ", \"cpu\": \"" << json_escape(fp.cpu_model)
        << "\", \"vcpus\": " << fp.vcpus << ", \"compiler\": \""
        << json_escape(fp.compiler) << "\", \"build_type\": \""
        << fp.build_type << "\", \"flags\": \"" << json_escape(fp.opt_flags)
        << "\", \"filter_backend\": \"" << first.filter_backend
        << "\", \"packets\": " << profile.packets
        << ", \"bytes\": " << profile.bytes
        << ", \"mean_frame\": " << profile.mean_frame
        << ", \"flows\": " << profile.flows
        << ", \"new_conn_share\": " << profile.new_conn_share
        << ", \"hw_pass_share\": " << hw_pass_share << ", \"shapes\": {";
    for (std::size_t s = 0; s < kShapeCount; ++s) {
      out << (s ? ", " : "") << "\"" << kShapeNames[s]
          << "\": " << profile.shape_packets[s];
    }
    out << "}, \"result\": " << json << "}\n";
  }
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return run.correct ? 0 : 1;
}
