#include "layers.hpp"

#include <algorithm>
#include <array>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <utility>

#include "conntrack/conn_table.hpp"
#include "filter/field_registry.hpp"
#include "multisub/forest.hpp"
#include "packet/packet_view.hpp"
#include "packet/soa.hpp"
#include "protocols/registry.hpp"
#include "sink/sink.hpp"
#include "stream/frag.hpp"
#include "stream/reassembly.hpp"
#include "util/cycles.hpp"

namespace perfbench {

using namespace retina;

namespace {

/// Replay repetitions; each replayed metric is their median.
constexpr int kReplayReps = 3;
constexpr std::size_t kBurst = packet::SoaBurstView::kMaxBurst;

enum Layer : std::uint8_t {
  kSoaParse,
  kScalarParse,
  kHash,
  kFilter,
  kMultiPacket,
  kMultiSession,
  kLookup,
  kInsert,
  kExpire,
  kFrag,
  kReasm,
  kProbe,
  kParse,
  kSinkAppend,
  kLayerCount
};

constexpr const char* kLayerNames[kLayerCount] = {
    "packet.soa_parse", "packet.scalar_parse", "packet.hash",
    "filter.packet",    "multisub.packet",     "multisub.session",
    "conntrack.lookup", "conntrack.insert",    "conntrack.expire",
    "stream.frag",      "stream.reasm",        "protocols.probe",
    "protocols.parse",  "sink.append"};

/// Layers that run inside drain()/finish() on the burst path: their sum
/// is the replayed share of worker time. (The scalar parse is the
/// per-packet path's walk, replayed for comparison only.)
constexpr Layer kBudgetLayers[] = {
    kSoaParse, kHash,   kFilter, kMultiPacket, kMultiSession,
    kLookup,   kInsert, kExpire, kFrag,        kReasm,
    kProbe,    kParse,  kSinkAppend};

struct LayerSpan {
  Layer layer;
  std::uint32_t burst;
  std::uint64_t start;   // TSC at burst start
  std::uint64_t cycles;  // this layer's cycles within the burst
};

/// Per-layer cycle accounting: every timed call adds to its layer's
/// burst total; end_burst() emits one span per layer that ran.
class LayerClock {
 public:
  explicit LayerClock(std::vector<LayerSpan>* spans) : spans_(spans) {}

  void begin_burst(std::uint32_t burst) {
    burst_ = burst;
    start_ = util::rdtsc();
  }
  template <typename F>
  void time(Layer layer, F&& f) {
    const auto t0 = util::rdtsc();
    f();
    burst_cycles_[layer] += util::rdtsc() - t0;
    ran_[layer] = true;
  }
  /// A layer with nothing to do in this burst is charged an empty timed
  /// step, so its figure is the replay's bookkeeping floor, not zero.
  void end_burst() {
    for (int l = 0; l < kLayerCount; ++l) {
      if (!ran_[l]) time(static_cast<Layer>(l), [] {});
      if (spans_ != nullptr) {
        spans_->push_back(
            {static_cast<Layer>(l), burst_, start_, burst_cycles_[l]});
      }
      total_[l] += burst_cycles_[l];
      burst_cycles_[l] = 0;
      ran_[l] = false;
    }
  }
  std::uint64_t total(Layer layer) const { return total_[layer]; }

 private:
  std::vector<LayerSpan>* spans_;
  std::uint32_t burst_ = 0;
  std::uint64_t start_ = 0;
  std::array<std::uint64_t, kLayerCount> burst_cycles_{};
  std::array<std::uint64_t, kLayerCount> total_{};
  std::array<bool, kLayerCount> ran_{};
};

/// Connection state the replay keeps per canonical tuple.
struct ReplayConn {
  bool orig_first = true;  // canonical direction flag of the first packet
  bool seen_up = false;
  bool seen_down = false;
  bool fin_up = false;
  bool fin_down = false;
  bool rst = false;
  bool wants_parse = false;
  std::uint8_t probes = 0;
  std::size_t app_id = 0;
  std::unique_ptr<protocols::ConnParser> parser;
  std::unique_ptr<stream::StreamReassembler> reasm[2];
  std::vector<filter::FilterResult> pkt;  // packet-filter result per member
};

/// One stateful packet: a burst lane or a reassembled datagram.
struct Item {
  const packet::PacketView* view;
  packet::FiveTuple key;
  std::uint64_t hash;
  bool orig_first;
  const filter::FilterResult* pf;
};

/// What one replay counted (besides time).
struct ReplayCounts {
  std::uint64_t packets = 0;  // replayed (HW-permitted) packets
  std::uint64_t slow_path = 0;
  std::uint64_t filter_pass = 0;
  std::uint64_t stateful = 0;
  std::uint64_t inserts = 0;
  std::uint64_t peak_conns = 0;
  std::uint64_t frag_completed = 0;
  std::uint64_t frag_started = 0;
  std::uint64_t pdus_pushed = 0;
  std::uint64_t pdus_ooo = 0;
  std::uint64_t sessions = 0;
  std::uint64_t session_evals = 0;
  std::uint64_t session_matches = 0;
  double sink_close_ms = 0;
};

struct Candidate {
  std::size_t app_id;
  std::string name;
  bool over_tcp;
  std::unique_ptr<protocols::ConnParser> prototype;
};

/// The layer replay: the workload's own filter engine (taken from a
/// live Runtime built exactly as the timed passes build it) driven
/// layer by layer over the packets the NIC passes to software.
class Replay {
 public:
  Replay(core::Runtime& runtime, std::vector<core::Level> levels,
         const core::RuntimeConfig& config)
      : eval_(runtime.multi() ? nullptr : &runtime.filter()),
        forest_(runtime.forest()),
        levels_(std::move(levels)),
        config_(config),
        frag_(stream::FragTable::Config{config.frag.max_bytes,
                                        config.frag.max_datagrams,
                                        config.frag.timeout_ns}),
        table_(config.timeouts) {
    const auto& fields = filter::FieldRegistry::builtin();
    const auto& parsers = protocols::ParserRegistry::builtin();
    std::set<std::size_t> wanted;
    bool session_probe_all = false;
    for (std::size_t m = 0; m < levels_.size(); ++m) {
      const auto& protos = forest_ ? forest_->app_protos(m) : eval_->app_protos();
      wanted.insert(protos.begin(), protos.end());
      session_probe_all |=
          levels_[m] == core::Level::kSession && protos.empty();
    }
    if (session_probe_all) {
      for (const auto& name : parsers.names()) {
        if (const auto* proto = fields.find(name)) {
          wanted.insert(proto->app_proto_id);
        }
      }
    }
    for (const auto app_id : wanted) {
      const auto& name = fields.app_proto_name(app_id);
      if (name.empty() || !parsers.has(name)) continue;
      candidates_.push_back({app_id, name,
                             fields.find(name)->transport == "tcp",
                             parsers.create(name)});
    }
    if (forest_ != nullptr) {
      slot_masks_.assign(forest_->bank_size(), 0);
      pkt_scratch_ = forest_->make_scratch();
      session_scratch_ = forest_->make_scratch();
    }
    results_.resize(kBurst * levels_.size());
    rebuilt_results_.resize(kBurst * levels_.size());
  }

  void run(std::span<const packet::Mbuf> packets, LayerClock& clock,
           ReplayCounts& counts) {
    counts_ = &counts;
    clock_ = &clock;
    std::uint32_t burst_id = 0;
    for (std::size_t i = 0; i < packets.size(); i += kBurst, ++burst_id) {
      const std::size_t n = std::min(kBurst, packets.size() - i);
      // In situ, dispatch() has just read every header of the chunk a
      // drain() processes; touch them the same way, untimed.
      if (i % kChunkPackets == 0) {
        const std::size_t end = std::min(packets.size(), i + kChunkPackets);
        for (std::size_t j = i; j < end; ++j) {
          const auto bytes = packets[j].bytes();
          touched_ += bytes.empty() ? 0 : bytes[0] + bytes[bytes.size() / 2];
        }
      }
      clock.begin_burst(burst_id);
      burst(packets.subspan(i, n));
      clock.end_burst();
    }
    counts.packets += packets.size();
  }

 private:
  bool stateful(const filter::FilterResult* pf) const {
    for (std::size_t m = 0; m < levels_.size(); ++m) {
      if (pf[m].matched() &&
          !(pf[m].terminal() && levels_[m] == core::Level::kPacket)) {
        return true;
      }
    }
    return false;
  }

  void burst(std::span<const packet::Mbuf> burst) {
    auto& c = *counts_;
    auto& clock = *clock_;
    const std::size_t n = burst.size();
    const std::size_t subs = levels_.size();
    clock.time(kSoaParse, [&] { soa_.parse(burst); });
    clock.time(kScalarParse, [&] {
      for (const auto& m : burst) {
        const auto view = packet::PacketView::parse(m);
        scalar_sink_ += view ? view->has_l4() : 0;
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      const auto& view = soa_.view(i);
      if (view && (view->encapsulated() || view->is_fragment())) {
        ++c.slow_path;
      }
    }

    // Packet filter over the whole burst.
    std::array<multisub::SubMask, kBurst> masks{};
    clock.time(kFilter, [&] {
      if (eval_ != nullptr) eval_->packet_filter_batch(soa_, results_.data());
    });
    clock.time(kMultiPacket, [&] {
      if (forest_ == nullptr) return;
      forest_->eval_batch(soa_, slot_masks_.data());
      const auto eth = soa_.eth_mask();
      for (std::size_t i = 0; i < n; ++i) {
        masks[i] = (eth >> i) & 1u ? forest_->packet_filter_batched(
                                         soa_, i, slot_masks_.data(),
                                         pkt_scratch_, &results_[i * subs])
                                   : multisub::SubMask{0};
      }
    });

    // Fragments divert to the reassembly table; completed datagrams
    // re-enter as stateful items after the burst's own lanes.
    std::size_t rebuilt = 0;
    const auto frag_mask = soa_.frag_mask();
    clock.time(kFrag, [&] {
      for (std::size_t i = 0; i < n; ++i) {
        if (!((frag_mask >> i) & 1u)) continue;
        const auto before = frag_.datagrams();
        auto whole = frag_.offer(*soa_.view(i));
        if (frag_.datagrams() > before) ++c.frag_started;
        if (!whole) continue;
        ++c.frag_completed;
        rebuilt_mbufs_[rebuilt++] = std::move(*whole);
      }
      frag_.advance(burst[n - 1].timestamp_ns());
    });

    // Canonicalize + hash only the lanes conntrack will look up, as the
    // burst pipeline does.
    packet::SoaBurstView::Mask want = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!soa_.has_tuple(i) || ((frag_mask >> i) & 1u)) continue;
      const auto* pf = &results_[i * subs];
      if (forest_ == nullptr ? !pf[0].matched() : masks[i] == 0) continue;
      ++c.filter_pass;
      if (stateful(pf)) want |= packet::SoaBurstView::Mask{1} << i;
    }
    clock.time(kHash, [&] { soa_.hash_tuples(want); });
    items_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!((want >> i) & 1u)) continue;
      items_.push_back({&*soa_.view(i), soa_.canon(i).key, soa_.hash(i),
                        soa_.canon(i).originator_is_first,
                        &results_[i * subs]});
    }
    clock.time(kFrag, [&] {
      for (std::size_t r = 0; r < rebuilt; ++r) {
        rebuilt_views_[r] = packet::PacketView::parse(rebuilt_mbufs_[r]);
        const auto& view = rebuilt_views_[r];
        if (!view || !view->five_tuple()) continue;
        auto* pf = &rebuilt_results_[r * subs];
        bool pass;
        if (forest_ != nullptr) {
          pass = forest_->packet_filter(*view, pkt_scratch_, pf) != 0;
        } else {
          pf[0] = eval_->packet_filter(*view);
          pass = pf[0].matched();
        }
        if (!pass || !stateful(pf)) continue;
        const auto canon = view->five_tuple()->canonical();
        items_.push_back({&*view, canon.key, canon.key.hash(),
                          canon.originator_is_first, pf});
      }
    });
    conntrack();
    streams();
    expire(burst[n - 1].timestamp_ns());
  }

  void conntrack() {
    auto& c = *counts_;
    ids_.resize(items_.size());
    clock_->time(kLookup, [&] {
      for (std::size_t k = 0; k < items_.size(); ++k) {
        ids_[k] = table_.find_hashed(items_[k].key, items_[k].hash);
      }
    });
    clock_->time(kInsert, [&] {
      for (std::size_t k = 0; k < items_.size(); ++k) {
        if (ids_[k] != Table::kInvalid) continue;
        const auto& it = items_[k];
        ids_[k] = table_.find_hashed(it.key, it.hash);  // same-burst repeat
        if (ids_[k] != Table::kInvalid) continue;
        ReplayConn conn;
        conn.orig_first = it.orig_first;
        conn.wants_parse = !candidates_.empty();
        conn.pkt.assign(it.pf, it.pf + levels_.size());
        ids_[k] = table_.insert(it.key, std::move(conn),
                                it.view->mbuf().timestamp_ns());
        ++c.inserts;
      }
    });
    clock_->time(kLookup, [&] {
      for (std::size_t k = 0; k < items_.size(); ++k) {
        const auto id = ids_[k];
        auto& conn = table_.get(id);
        const auto ts = items_[k].view->mbuf().timestamp_ns();
        const bool up = items_[k].orig_first == conn.orig_first;
        (up ? conn.seen_up : conn.seen_down) = true;
        table_.touch(id, ts);
        if (conn.seen_up && conn.seen_down) table_.mark_established(id, ts);
        if (const auto& tcp = items_[k].view->tcp()) {
          if (tcp->fin()) (up ? conn.fin_up : conn.fin_down) = true;
          if (tcp->rst()) conn.rst = true;
        }
      }
    });
    c.stateful += items_.size();
    c.peak_conns = std::max<std::uint64_t>(c.peak_conns, table_.size());
  }

  void streams() {
    for (std::size_t k = 0; k < items_.size(); ++k) {
      auto& conn = table_.get(ids_[k]);
      if (!conn.wants_parse) continue;
      const auto& view = *items_[k].view;
      stream::L4Pdu pdu;
      pdu.mbuf = view.frame();
      pdu.payload = view.l4_payload();
      pdu.from_originator = items_[k].orig_first == conn.orig_first;
      pdu.ts_ns = view.mbuf().timestamp_ns();
      if (!view.tcp()) {
        if (!pdu.payload.empty()) application(conn, pdu, /*tcp=*/false);
        continue;
      }
      pdu.seq = view.tcp()->seq();
      pdu.tcp_flags = view.tcp()->flags();
      ready_.clear();
      clock_->time(kReasm, [&] {
        auto& reasm = conn.reasm[pdu.from_originator ? 0 : 1];
        if (!reasm) {
          reasm = std::make_unique<stream::StreamReassembler>(
              config_.ooo_capacity);
        }
        const auto pending = reasm->pending();
        reasm->push(std::move(pdu), ready_);
        ++counts_->pdus_pushed;
        if (reasm->pending() > pending) ++counts_->pdus_ooo;
      });
      for (const auto& ready : ready_) {
        if (!conn.wants_parse) break;
        if (!ready.payload.empty()) application(conn, ready, /*tcp=*/true);
      }
    }
  }

  void application(ReplayConn& conn, const stream::L4Pdu& pdu, bool tcp) {
    if (!conn.parser) {
      if (conn.probes >= config_.max_probe_pdus) {
        conn.wants_parse = false;
        return;
      }
      ++conn.probes;
      clock_->time(kProbe, [&] {
        for (const auto& cand : candidates_) {
          if (cand.over_tcp != tcp) continue;
          if (cand.prototype->probe(pdu) == protocols::ProbeResult::kYes) {
            conn.parser =
                protocols::ParserRegistry::builtin().create(cand.name);
            conn.app_id = cand.app_id;
            break;
          }
        }
      });
      if (!conn.parser) return;
    }
    protocols::ParseResult result;
    clock_->time(kParse, [&] {
      result = conn.parser->parse(pdu);
      sessions_ = conn.parser->take_sessions();
    });
    counts_->sessions += sessions_.size();
    if (!sessions_.empty() && forest_ != nullptr) session_filter(conn);
    if (result != protocols::ParseResult::kContinue) {
      conn.wants_parse = false;
      conn.parser.reset();
    }
  }

  void session_filter(const ReplayConn& conn) {
    clock_->time(kMultiSession, [&] {
      for (const auto& session : sessions_) {
        session_scratch_.begin();
        for (std::size_t m = 0; m < levels_.size(); ++m) {
          if (levels_[m] != core::Level::kSession || !conn.pkt[m].matched()) {
            continue;
          }
          const auto cf =
              forest_->conn_filter(m, conn.pkt[m].node_id, conn.app_id);
          if (!cf.matched()) continue;
          ++counts_->session_evals;
          if (cf.terminal() || forest_->session_filter(m, cf.node_id, session,
                                                       session_scratch_)) {
            ++counts_->session_matches;
          }
        }
      }
    });
  }

  void expire(std::uint64_t now_ns) {
    clock_->time(kExpire, [&] {
      for (std::size_t k = 0; k < items_.size(); ++k) {
        const auto id = ids_[k];
        const auto& conn = table_.get(id);
        if (conn.rst || (conn.fin_up && conn.fin_down)) table_.remove(id);
      }
      table_.advance(now_ns, [](Table::ConnId, ReplayConn&) {});
    });
    items_.clear();
  }

  using Table = conntrack::ConnTable<ReplayConn>;

  const filter::Evaluator* eval_;
  const multisub::FilterForest* forest_;
  std::vector<core::Level> levels_;
  core::RuntimeConfig config_;
  std::vector<Candidate> candidates_;
  stream::FragTable frag_;
  Table table_;

  packet::SoaBurstView soa_;
  std::vector<filter::FilterResult> results_;
  std::vector<filter::FilterResult> rebuilt_results_;
  std::vector<filter::BatchProgram::Mask> slot_masks_;
  multisub::EvalScratch pkt_scratch_;
  multisub::EvalScratch session_scratch_;
  std::array<packet::Mbuf, kBurst> rebuilt_mbufs_;
  std::array<std::optional<packet::PacketView>, kBurst> rebuilt_views_;
  std::vector<Item> items_;
  std::vector<Table::ConnId> ids_;
  std::vector<stream::L4Pdu> ready_;
  std::vector<protocols::Session> sessions_;
  std::uint64_t scalar_sink_ = 0;
  std::uint64_t touched_ = 0;

  ReplayCounts* counts_ = nullptr;
  LayerClock* clock_ = nullptr;
};

/// Append the delivered connection records to a sink of our own, in
/// 32-record groups, then close it.
void replay_sink(const std::vector<core::ConnRecord>& conns,
                 const std::string& path, LayerClock& clock,
                 ReplayCounts& counts) {
  sink::SinkConfig config;
  config.enabled = true;
  config.path = path;
  config.codec = "lzb";
  // Room for every record: the replay appends far faster than records
  // arrive in situ, and a refusal here would be an artifact of that.
  config.arenas_per_core = conns.size() / config.arena_records + 2;
  auto created = sink::FlowSink::create(config, 1);
  if (!created) return;
  auto& flow_sink = *created.value();
  std::uint32_t group = 0;
  for (std::size_t i = 0; i < conns.size(); i += kBurst, ++group) {
    const std::size_t end = std::min(conns.size(), i + kBurst);
    clock.begin_burst(group);
    clock.time(kSinkAppend, [&] {
      for (std::size_t j = i; j < end; ++j) {
        flow_sink.append(0, sink::FlowRecord::from(conns[j]));
      }
    });
    clock.end_burst();
  }
  if (conns.empty()) {
    clock.begin_burst(0);
    clock.time(kSinkAppend, [] {});
    clock.end_burst();
  }
  const auto t0 = util::rdtsc();
  flow_sink.close();
  counts.sink_close_ms = util::cycles_to_seconds(util::rdtsc() - t0) * 1e3;
}

double share(double part, double whole) {
  return whole > 0 ? part / whole : 0.0;
}

const char* span_kind(Span::Kind kind) {
  switch (kind) {
    case Span::kDispatch:
      return "dispatch";
    case Span::kDrain:
      return "drain";
    case Span::kFinish:
      return "finish";
  }
  return "?";
}

void write_spans(const std::string& path, const std::vector<Span>& spans,
                 const std::vector<LayerSpan>& layer_spans) {
  std::ofstream out(path);
  for (const auto& s : spans) {
    out << "{\"span\":\"" << span_kind(s.kind) << "\",\"pass\":" << s.pass
        << ",\"chunk\":" << s.chunk << ",\"packets\":" << s.packets
        << ",\"start_ns\":" << s.start_ns << ",\"dur_ns\":" << s.dur_ns
        << "}\n";
  }
  const double ns_per_cycle = 1e9 / util::tsc_hz();
  const std::uint64_t base = layer_spans.empty() ? 0 : layer_spans[0].start;
  for (const auto& s : layer_spans) {
    out << "{\"span\":\"" << kLayerNames[s.layer] << "\",\"burst\":"
        << s.burst << ",\"start_ns\":"
        << static_cast<std::uint64_t>(
               static_cast<double>(s.start - base) * ns_per_cycle)
        << ",\"dur_ns\":"
        << static_cast<std::uint64_t>(static_cast<double>(s.cycles) *
                                      ns_per_cycle)
        << "}\n";
  }
}

}  // namespace

std::vector<Metric> layer_metrics(
    Driver& driver, const std::vector<PassResult>& untraced,
    const std::vector<PassResult>& traced, const std::vector<Span>& spans,
    const std::vector<core::ConnRecord>& conns, const std::string& workdir,
    std::uint64_t seed) {
  const auto& workload = driver.workload();
  const auto ingress = static_cast<double>(workload.trace.size());
  const bool multi = workload.id == WorkloadId::kVideoSessions;
  const bool frags = workload.id == WorkloadId::kConnArchive;
  const bool conns_tracked = workload.id != WorkloadId::kPacketScan;
  // Only conn_archive archives; elsewhere the sink step replays nothing.
  const std::vector<core::ConnRecord> none;
  const auto& archived = frags ? conns : none;

  // The packets the NIC passes to software (all of them with the
  // hardware filter off).
  Collector scratch_collector;
  auto runtime = driver.create(PassMode{}, &scratch_collector);
  if (!runtime) return {};
  std::vector<packet::Mbuf> permitted;
  permitted.reserve(workload.trace.size());
  const auto& rules = runtime.value()->nic().rules();
  for (const auto& m : workload.trace.packets()) {
    const auto view = packet::PacketView::parse(m);
    if (!view || view->is_fragment() || rules.permits(*view)) {
      permitted.push_back(m);
    }
  }

  const double ns_per_cycle = 1e9 / util::tsc_hz();
  std::vector<LayerSpan> layer_spans;
  std::array<std::vector<double>, kLayerCount> layer_ns;
  ReplayCounts counts;
  for (int rep = 0; rep < kReplayReps; ++rep) {
    LayerClock clock(rep == 0 ? &layer_spans : nullptr);
    ReplayCounts rep_counts;
    Replay replay(*runtime.value(), driver.levels(),
                  runtime.value()->config());
    replay.run(permitted, clock, rep_counts);
    replay_sink(archived, workdir + "/layer_sink.rta", clock, rep_counts);
    for (int l = 0; l < kLayerCount; ++l) {
      layer_ns[l].push_back(static_cast<double>(clock.total(
                                static_cast<Layer>(l))) *
                            ns_per_cycle / ingress);
    }
    if (rep == 0) counts = rep_counts;
  }
  std::array<double, kLayerCount> ns{};
  for (int l = 0; l < kLayerCount; ++l) ns[l] = median(layer_ns[l]);

  // Driver spans of the traced passes, per pass.
  const std::size_t passes = traced.size();
  std::vector<double> dispatch_ns(passes, 0), drain_ns(passes, 0);
  for (const auto& s : spans) {
    if (s.kind == Span::kDispatch) dispatch_ns[s.pass] += s.dur_ns;
    if (s.kind == Span::kDrain) drain_ns[s.pass] += s.dur_ns;
  }
  std::vector<double> worker_ns, finish_ms, callback_ns, overhead;
  for (std::size_t p = 0; p < passes; ++p) {
    dispatch_ns[p] /= ingress;
    drain_ns[p] /= ingress;
    worker_ns.push_back(traced[p].worker_s() * 1e9 / ingress);
    finish_ms.push_back(traced[p].finish_s * 1e3);
    callback_ns.push_back(
        static_cast<double>(traced[p].collector.callback_ns) / ingress);
    overhead.push_back(1.0 - traced[p].gbps() / untraced[p].gbps());
  }
  double replayed = 0;
  for (const auto l : kBudgetLayers) replayed += ns[l];
  replayed += median(callback_ns);
  const double worker = median(worker_ns);

  const auto& stats = traced.front().stats;
  const auto& total = stats.total;
  const std::string na_scan = "n/a: packet-terminal filter, no conntrack";
  const std::string na_single = "n/a: single subscription";
  const std::string na_set = "n/a: set engine (see multisub.*)";
  const std::string na_nofrag = "n/a: no fragments in this workload";
  const std::string na_noparse = "n/a: no parser needed";
  const std::string na_nosink = "n/a: no archive on this workload";
  const bool parses = multi;
  auto note = [](bool applies, const std::string& why) {
    return applies ? std::string() : why;
  };

  std::vector<Metric> m = {
      {"nic.dispatch_ns", "ns/pkt", median(dispatch_ns), "Runtime::dispatch"},
      {"nic.hw_drop_share", "ratio",
       share(static_cast<double>(stats.nic_hw_dropped),
             static_cast<double>(stats.nic_rx_packets)),
       note(multi, "n/a: hardware filter off")},
      {"core.drain_ns", "ns/pkt", median(drain_ns), "Runtime::drain"},
      {"core.finish_ms", "ms", median(finish_ms), "Runtime::finish"},
      {"core.residual_share", "ratio", share(worker - replayed, worker),
       "(drain + finish - replayed layers) / (drain + finish)"},
      {"core.conns_created", "count", static_cast<double>(total.conns_created),
       ""},
      {"core.sessions_parsed", "count",
       static_cast<double>(total.sessions_parsed), ""},
      {"core.delivered", "count",
       static_cast<double>(total.delivered_packets + total.delivered_conns +
                           total.delivered_sessions),
       ""},
      {"core.peak_state_mb", "MB",
       static_cast<double>(total.peak_state_bytes) / 1e6,
       "RunStats.total.peak_state_bytes"},
      {"core.fail_frac", "ratio",
       share(static_cast<double>(traced.front().failed_packets()),
             static_cast<double>(stats.nic_rx_packets)),
       "failure dispositions / ingress"},
      {"packet.soa_parse_ns", "ns/pkt", ns[kSoaParse], "SoaBurstView::parse"},
      {"packet.scalar_parse_ns", "ns/pkt", ns[kScalarParse],
       "PacketView::parse (per-packet path)"},
      {"packet.hash_ns", "ns/pkt", ns[kHash], "SoaBurstView::hash_tuples"},
      {"packet.slow_path_share", "ratio",
       share(static_cast<double>(counts.slow_path),
             static_cast<double>(counts.packets)),
       "encapsulated or fragment"},
      {"filter.packet_ns", "ns/pkt", ns[kFilter], note(!multi, na_set)},
      {"filter.pass_share", "ratio",
       multi ? 0.0
             : share(static_cast<double>(counts.filter_pass),
                     static_cast<double>(counts.packets)),
       note(!multi, na_set)},
      {"multisub.packet_ns", "ns/pkt", ns[kMultiPacket], note(multi, na_single)},
      {"multisub.session_ns", "ns/pkt", ns[kMultiSession],
       note(multi, na_single)},
      {"multisub.session_match_share", "ratio",
       share(static_cast<double>(counts.session_matches),
             static_cast<double>(counts.session_evals)),
       note(multi, na_single)},
      {"conntrack.lookup_ns", "ns/pkt", ns[kLookup],
       note(conns_tracked, na_scan)},
      {"conntrack.insert_ns", "ns/pkt", ns[kInsert],
       note(conns_tracked, na_scan)},
      {"conntrack.expire_ns", "ns/pkt", ns[kExpire],
       note(conns_tracked, na_scan)},
      {"conntrack.new_share", "ratio",
       share(static_cast<double>(counts.inserts),
             static_cast<double>(counts.stateful)),
       note(conns_tracked, na_scan)},
      {"conntrack.peak_conns", "count", static_cast<double>(counts.peak_conns),
       note(conns_tracked, na_scan)},
      {"stream.frag_ns", "ns/pkt", ns[kFrag], note(frags, na_nofrag)},
      {"stream.frag_complete_share", "ratio",
       share(static_cast<double>(counts.frag_completed),
             static_cast<double>(counts.frag_started)),
       note(frags, na_nofrag)},
      {"stream.reasm_ns", "ns/pkt", ns[kReasm], note(parses, na_noparse)},
      {"stream.ooo_share", "ratio",
       share(static_cast<double>(counts.pdus_ooo),
             static_cast<double>(counts.pdus_pushed)),
       note(parses, na_noparse)},
      {"protocols.probe_ns", "ns/pkt", ns[kProbe], note(parses, na_noparse)},
      {"protocols.parse_ns", "ns/pkt", ns[kParse], note(parses, na_noparse)},
      {"protocols.sessions", "count", static_cast<double>(counts.sessions),
       note(parses, na_noparse)},
      {"sink.append_ns", "ns/pkt", ns[kSinkAppend],
       note(frags, na_nosink)},
      {"sink.refused_share", "ratio",
       share(static_cast<double>(stats.sink_dropped),
             static_cast<double>(stats.sink_records + stats.sink_dropped)),
       note(frags, na_nosink)},
      {"sink.close_ms", "ms", counts.sink_close_ms,
       note(frags, na_nosink)},
      {"sink.bytes_per_record", "B",
       share(static_cast<double>(stats.sink_bytes),
             static_cast<double>(stats.sink_records)),
       note(frags, na_nosink)},
      {"callback.count", "count",
       static_cast<double>(traced.front().collector.callbacks), ""},
      {"callback.ns", "ns/pkt", median(callback_ns), "timed inside callbacks"},
      {"trace.overhead_share", "ratio", median(overhead),
       "1 - traced gbps / untraced gbps (paired passes)"},
  };

  const auto dir = std::filesystem::path(workdir) / "spans";
  std::filesystem::create_directories(dir);
  write_spans((dir / (std::string(workload_name(workload.id)) + "-seed" +
                      std::to_string(seed) + ".jsonl"))
                  .string(),
              spans, layer_spans);
  return m;
}

}  // namespace perfbench
