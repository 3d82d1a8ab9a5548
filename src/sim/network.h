// Message-passing layer over the simulator: point-to-point sends with
// topology-derived latency and a seed-deterministic fault model ("failures
// are the norm" — §3.4). Components register handlers per server and exchange
// opaque payloads.
//
// Fault model (all deterministic given the Network seed):
//  * Crash-style server failures (FailureInjector): messages to/from a down
//    server are dropped, like a TCP connection that will time out.
//  * Network partitions, including asymmetric ones: a partition rule blocks
//    sends from one server group to another (optionally both directions).
//    Blocked sends are dropped at send time; messages already in flight when
//    a partition starts still arrive.
//  * Per-link faults (LinkFault): probabilistic message drop, duplication,
//    reordering, and extra delivery delay, configured per directed link or
//    globally. FIFO channels (SendFifo) model TCP connections and therefore
//    never reorder — but they can still drop, duplicate, and delay.
//
// Every outcome is counted in aggregate (stats(), always exact) and per
// directed link. Per-link counters are lazy: a LinkStats record materializes
// the first time a link carries or drops a message, so a 100k-server fleet
// pays memory only for links that actually saw traffic. The scale invariant —
// aggregate == sum over materialized links, untouched links allocate nothing
// — is property-tested under a seeded fault barrage (tests/sim_test.cc).
//
// Per-server and per-link state is keyed by dense integer handles
// (Topology::FlatIndex; a directed link packs two 32-bit flat indices into a
// uint64_t), so the hot path is flat-array/open-hash work instead of
// tree-map walks over 12-byte ServerId tuples.

#ifndef SRC_SIM_NETWORK_H_
#define SRC_SIM_NETWORK_H_

#include <cassert>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/sim/simulator.h"
#include "src/sim/topology.h"
#include "src/util/rng.h"

namespace configerator {

// Injects crashes/recoveries and answers liveness queries: one byte per
// server of the topology, so a query is a single dense lookup.
// Precondition (asserted in Network::Flat): every id is inside the topology.
class FailureInjector {
 public:
  explicit FailureInjector(const Topology& topology)
      : topology_(&topology),
        down_(static_cast<size_t>(topology.total_servers()), 0) {}

  void Crash(const ServerId& id);
  void Recover(const ServerId& id);
  bool IsDown(const ServerId& id) const { return down_[Index(id)] != 0; }
  size_t down_count() const { return down_count_; }

 private:
  size_t Index(const ServerId& id) const {
    return static_cast<size_t>(topology_->FlatIndex(id));
  }

  const Topology* topology_;
  std::vector<uint8_t> down_;  // By flat index.
  size_t down_count_ = 0;
};

// Probabilistic fault configuration for a directed link (or the whole
// network, via SetDefaultFault). Zero-initialized = no faults.
struct LinkFault {
  double drop_prob = 0;     // P(message silently lost).
  double dup_prob = 0;      // P(message delivered twice).
  double reorder_prob = 0;  // P(delivery delay reshuffled) — Send() only.
  SimTime extra_delay = 0;          // Fixed extra delivery delay.
  SimTime extra_delay_jitter = 0;   // Plus uniform [0, jitter).

  bool active() const {
    return drop_prob > 0 || dup_prob > 0 || reorder_prob > 0 ||
           extra_delay > 0 || extra_delay_jitter > 0;
  }
};

// Per-directed-link outcome counters.
struct LinkStats {
  uint64_t sent = 0;        // Accepted for delivery (past drop faults).
  uint64_t delivered = 0;   // Handler actually ran (duplicates count twice).
  uint64_t dropped = 0;     // Down endpoint, partition, or drop fault.
  uint64_t delayed = 0;     // A delay fault added latency.
  uint64_t duplicated = 0;  // A duplicate delivery was scheduled.
  uint64_t reordered = 0;   // A reorder fault reshuffled the delay.
};

// Network-wide aggregate of the same counters.
struct NetStats {
  uint64_t messages_sent = 0;
  uint64_t delivered = 0;
  uint64_t dropped = 0;
  uint64_t delayed = 0;
  uint64_t duplicated = 0;
  uint64_t reordered = 0;
  uint64_t bytes_sent = 0;
};

class Network {
 public:
  Network(Simulator* sim, Topology topology, uint64_t seed = 1);

  // The failure injector points into topology_; pin the object.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return *sim_; }
  const Topology& topology() const { return topology_; }
  FailureInjector& failures() { return failures_; }
  const FailureInjector& failures() const { return failures_; }
  Rng& rng() { return rng_; }

  // Delivers `deliver` at the destination after latency + serialization time
  // for `bytes`, subject to the fault model. `deliver` runs only if the
  // destination is still up on arrival.
  void Send(const ServerId& from, const ServerId& to, int64_t bytes,
            std::function<void()> deliver);

  // Like Send, but messages on the same (from, to) channel are delivered in
  // send order — the TCP-connection semantics ZooKeeper's ordering guarantees
  // rest on. Reorder faults do not apply; drop/dup/delay do.
  void SendFifo(const ServerId& from, const ServerId& to, int64_t bytes,
                std::function<void()> deliver);

  // --- Partitions -----------------------------------------------------------

  // Blocks traffic between the two groups (both directions). Returns a rule
  // id usable with HealPartition.
  uint64_t Partition(const std::vector<ServerId>& group_a,
                     const std::vector<ServerId>& group_b);

  // Asymmetric partition: blocks only `from_group` → `to_group` traffic
  // (replies still flow — the classic half-open failure).
  uint64_t PartitionOneWay(const std::vector<ServerId>& from_group,
                           const std::vector<ServerId>& to_group);

  bool HealPartition(uint64_t rule_id);
  void HealAllPartitions() { partitions_.clear(); }
  size_t partition_count() const { return partitions_.size(); }

  // True if a send from → to would be blocked by a partition rule right now.
  bool Blocked(const ServerId& from, const ServerId& to) const;

  // --- Link faults ----------------------------------------------------------

  // Per-directed-link fault override; replaces any previous fault for that
  // link. The default fault applies to links without an override.
  void SetLinkFault(const ServerId& from, const ServerId& to, LinkFault fault);
  void SetDefaultFault(LinkFault fault) { default_fault_ = fault; }
  void ClearLinkFaults() {
    link_faults_.clear();
    default_fault_ = LinkFault{};
  }

  // --- Liveness query -------------------------------------------------------

  // True if a message sent now from → to could be delivered: both endpoints
  // up and no partition rule in the way. (Probabilistic faults may still
  // drop it.) Higher layers (PackageVessel peer selection) use this the way
  // production code uses a connect() failure.
  bool CanDeliver(const ServerId& from, const ServerId& to) const {
    return !failures_.IsDown(from) && !failures_.IsDown(to) && !Blocked(from, to);
  }

  // --- Stats ----------------------------------------------------------------

  const NetStats& stats() const { return stats_; }
  // Counters for one directed link (zeroes if the link never carried a
  // message).
  LinkStats link_stats(const ServerId& from, const ServerId& to) const;
  // Number of directed links with materialized counters — i.e. links that
  // carried or dropped at least one message. Property tests assert untouched
  // links never allocate.
  size_t materialized_links() const { return link_pool_.size(); }
  // Sum of every materialized link's counters; must equal stats() exactly
  // (bytes are tracked in aggregate only).
  NetStats SumLinkStats() const;

  // Zeroes the aggregate and per-link counters. Harness runs sharing a
  // process (the shrinker builds dozens) reset between runs so one run's
  // delivery counts can never leak into the next run's assertions.
  void ResetStats() {
    stats_ = NetStats{};
    link_index_.clear();
    link_pool_.clear();
  }

  // Legacy aggregate accessors — benches report these as overhead measures.
  uint64_t messages_sent() const { return stats_.messages_sent; }
  uint64_t messages_dropped() const { return stats_.dropped; }
  uint64_t bytes_sent() const { return stats_.bytes_sent; }

 private:
  // A partition rule holds each group as a dense bitset over flat server
  // indices: Blocked() is a couple of bit tests per rule, independent of
  // group size.
  struct PartitionRule {
    uint64_t id = 0;
    std::vector<uint64_t> from_bits;
    std::vector<uint64_t> to_bits;
    bool bidirectional = false;
  };

  // Dense handle of a server. Precondition: `id` is inside the topology —
  // every per-server table (liveness bytes, partition bitsets, packed link
  // keys) is sized by it, so an outside id would index past them.
  uint32_t Flat(const ServerId& id) const {
    assert(topology_.Contains(id) && "server id outside the topology");
    return static_cast<uint32_t>(topology_.FlatIndex(id));
  }
  // Directed link key: two 32-bit dense server handles packed into one word.
  uint64_t PackLink(const ServerId& from, const ServerId& to) const {
    return (static_cast<uint64_t>(Flat(from)) << 32) |
           static_cast<uint64_t>(Flat(to));
  }
  static bool TestBit(const std::vector<uint64_t>& bits, uint32_t index) {
    return (bits[index >> 6] >> (index & 63)) & 1;
  }
  uint64_t AddPartitionRule(const std::vector<ServerId>& from_group,
                            const std::vector<ServerId>& to_group,
                            bool bidirectional);

  const LinkFault& EffectiveFault(uint64_t link) const;
  // Index of the link's pooled counters, materializing them on first use.
  uint32_t LinkIndexFor(uint64_t link);
  // Shared by Send/SendFifo after the channel-independent fault handling.
  void ScheduleDelivery(const ServerId& to, uint32_t link_index,
                        SimTime arrival, std::function<void()> deliver);
  void SendInternal(const ServerId& from, const ServerId& to, int64_t bytes,
                    std::function<void()> deliver, bool fifo);

  Simulator* sim_;
  Topology topology_;
  FailureInjector failures_;
  Rng rng_;
  NetStats stats_;
  // Lazy per-link counters: packed link key → index into link_pool_. Indices
  // are stable (the pool only grows between resets), so in-flight deliveries
  // carry an index, not an iterator.
  std::unordered_map<uint64_t, uint32_t> link_index_;
  std::vector<LinkStats> link_pool_;
  std::unordered_map<uint64_t, LinkFault> link_faults_;
  LinkFault default_fault_;
  std::vector<PartitionRule> partitions_;
  uint64_t next_partition_id_ = 1;
  // Last scheduled arrival per FIFO channel, keyed by exact packed link (the
  // pre-scale implementation mixed the endpoint hashes, so distinct channels
  // could collide and falsely serialize).
  std::unordered_map<uint64_t, SimTime> channel_clock_;
};

}  // namespace configerator

#endif  // SRC_SIM_NETWORK_H_
