// Per-layer metrics of a traced run (--trace 1).
//
// Two sources, both timed from the benchmark's own code (nothing is
// added inside the library):
//  * driver spans of the traced passes — each chunk's dispatch() and
//    drain() plus finish() — give the NIC and core layers;
//  * a replay of the same packets that calls each layer's public
//    function per 32-packet burst (SoaBurstView::parse / hash_tuples,
//    PacketView::parse, Evaluator::packet_filter_batch,
//    FilterForest::packet_filter_batched / session_filter, ConnTable::
//    find / insert / advance, FragTable::offer, StreamReassembler::push,
//    ConnParser::probe / parse, FlowSink::append / close) gives the rest.
// Replayed times are isolated-call estimates: the cache state differs
// from the in-situ run. Every time is amortized over all ingress
// packets (ns/pkt), so the layers form one per-packet budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "drive.hpp"
#include "report.hpp"

namespace perfbench {

/// Spans and metrics of the traced run. `untraced` and `traced` are the
/// paired passes (same count, alternating); `conns` the connection
/// records the first traced pass delivered (replayed into a sink).
/// Writes every span to <workdir>/spans/<workload>-seed<seed>.jsonl.
std::vector<Metric> layer_metrics(
    Driver& driver, const std::vector<PassResult>& untraced,
    const std::vector<PassResult>& traced, const std::vector<Span>& spans,
    const std::vector<retina::core::ConnRecord>& conns,
    const std::string& workdir, std::uint64_t seed);

}  // namespace perfbench
