// Order-insensitive digests of what a run delivered. Every record is
// hashed on its own and the hashes are summed, so two runs that deliver
// the same multiset of records in any order agree, and a lost,
// duplicated or altered record changes the sum.
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "core/golden.hpp"
#include "core/subscription.hpp"
#include "packet/mbuf.hpp"
#include "sink/record.hpp"

namespace perfbench {

struct Digest {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;

  void add(std::uint64_t record_hash) {
    ++count;
    sum += record_hash;
  }
  bool operator==(const Digest&) const = default;
};

/// Incremental 64-bit record hasher: one multiply-rotate step per
/// 64-bit word, finalized by a strong avalanche so sums of record
/// hashes do not cancel.
class Hasher {
 public:
  Hasher& u64(std::uint64_t v) {
    h_ = (h_ ^ v) * 0x9e3779b97f4a7c15ULL;
    h_ = (h_ << 29) | (h_ >> 35);
    return *this;
  }
  Hasher& bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w;
      std::memcpy(&w, p + i, 8);
      u64(w);
    }
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, n - i);
    return u64(tail).u64(n);
  }
  Hasher& str(std::string_view s) { return bytes(s.data(), s.size()); }
  std::uint64_t done() const {
    std::uint64_t x = h_;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

inline std::uint64_t hash_packet(const retina::packet::Mbuf& m) {
  return Hasher()
      .u64(m.timestamp_ns())
      .u64(retina::core::golden::fnv1a64(m.bytes()))
      .done();
}

/// Hash of an archived flow record. Connection records are hashed
/// through FlowRecord::from, so a callback record and its archived
/// copy hash equal.
inline std::uint64_t hash_flow(const retina::sink::FlowRecord& r) {
  Hasher h;
  h.bytes(r.src_addr, sizeof(r.src_addr)).bytes(r.dst_addr, sizeof(r.dst_addr));
  h.u64(r.first_ts_ns).u64(r.last_ts_ns).u64(r.pkts_up).u64(r.pkts_down);
  h.u64(r.bytes_up).u64(r.bytes_down).u64(r.payload_up).u64(r.payload_down);
  h.u64(r.ooo_up).u64(r.ooo_down).u64(r.dup_up).u64(r.dup_down);
  h.u64(r.src_port).u64(r.dst_port).u64(r.proto).u64(r.ip_version);
  h.u64(r.flags).bytes(r.app_proto, r.app_proto_len);
  return h.done();
}

inline std::uint64_t hash_conn(const retina::core::ConnRecord& rec) {
  return hash_flow(retina::sink::FlowRecord::from(rec));
}

inline std::uint64_t hash_session(const retina::core::SessionRecord& rec) {
  namespace proto = retina::protocols;
  Hasher h;
  h.str(retina::core::golden::conn_key(rec.tuple));
  h.u64(rec.ts_ns).u64(rec.session.session_id).str(rec.session.proto_name());
  if (const auto* tls = rec.session.get<proto::TlsHandshake>()) {
    h.str(tls->sni).u64(tls->client_version);
    h.bytes(tls->client_random.data(), tls->client_random.size());
    h.u64(tls->cipher_selected).u64(tls->certificate_count);
  } else if (const auto* dns = rec.session.get<proto::DnsMessage>()) {
    h.u64(dns->id).u64(dns->is_response).u64(dns->rcode);
    h.u64(dns->answer_count);
    for (const auto& q : dns->questions) h.str(q.qname).u64(q.qtype);
  } else if (const auto* http = rec.session.get<proto::HttpTransaction>()) {
    h.str(http->method).str(http->uri).str(http->host);
    h.u64(http->status_code);
  }
  return h.done();
}

}  // namespace perfbench
