#include "src/sim/network.h"

#include <algorithm>

namespace configerator {

void FailureInjector::Crash(const ServerId& id) {
  uint8_t& bit = down_[Index(id)];
  if (bit == 0) {
    bit = 1;
    ++down_count_;
  }
}

void FailureInjector::Recover(const ServerId& id) {
  uint8_t& bit = down_[Index(id)];
  if (bit != 0) {
    bit = 0;
    --down_count_;
  }
}

Network::Network(Simulator* sim, Topology topology, uint64_t seed)
    : sim_(sim),
      topology_(std::move(topology)),
      failures_(topology_),
      rng_(seed) {
  // Typical traffic touches a few links per server (proxy <-> observer, both
  // directions); reserving that up front spares the link and FIFO-channel
  // tables ~20 growth rehashes over a 100k-server run. Capped so a huge
  // topology with sparse traffic doesn't pay memory for nothing.
  size_t expected_links =
      std::min<size_t>(static_cast<size_t>(topology_.total_servers()) * 4,
                       size_t{1} << 22);
  link_index_.reserve(expected_links);
  channel_clock_.reserve(expected_links);
}

uint64_t Network::AddPartitionRule(const std::vector<ServerId>& from_group,
                                   const std::vector<ServerId>& to_group,
                                   bool bidirectional) {
  PartitionRule rule;
  rule.id = next_partition_id_++;
  size_t words = (static_cast<size_t>(topology_.total_servers()) + 63) / 64;
  rule.from_bits.assign(words, 0);
  rule.to_bits.assign(words, 0);
  for (const ServerId& id : from_group) {
    uint32_t f = Flat(id);
    rule.from_bits[f >> 6] |= uint64_t{1} << (f & 63);
  }
  for (const ServerId& id : to_group) {
    uint32_t f = Flat(id);
    rule.to_bits[f >> 6] |= uint64_t{1} << (f & 63);
  }
  rule.bidirectional = bidirectional;
  partitions_.push_back(std::move(rule));
  return partitions_.back().id;
}

uint64_t Network::Partition(const std::vector<ServerId>& group_a,
                            const std::vector<ServerId>& group_b) {
  return AddPartitionRule(group_a, group_b, /*bidirectional=*/true);
}

uint64_t Network::PartitionOneWay(const std::vector<ServerId>& from_group,
                                  const std::vector<ServerId>& to_group) {
  return AddPartitionRule(from_group, to_group, /*bidirectional=*/false);
}

bool Network::HealPartition(uint64_t rule_id) {
  for (size_t i = 0; i < partitions_.size(); ++i) {
    if (partitions_[i].id == rule_id) {
      partitions_.erase(partitions_.begin() + static_cast<long>(i));
      return true;
    }
  }
  return false;
}

bool Network::Blocked(const ServerId& from, const ServerId& to) const {
  if (partitions_.empty()) {
    return false;
  }
  uint32_t f = Flat(from);
  uint32_t t = Flat(to);
  for (const PartitionRule& rule : partitions_) {
    if (TestBit(rule.from_bits, f) && TestBit(rule.to_bits, t)) {
      return true;
    }
    if (rule.bidirectional && TestBit(rule.from_bits, t) &&
        TestBit(rule.to_bits, f)) {
      return true;
    }
  }
  return false;
}

void Network::SetLinkFault(const ServerId& from, const ServerId& to,
                           LinkFault fault) {
  link_faults_[PackLink(from, to)] = fault;
}

const LinkFault& Network::EffectiveFault(uint64_t link) const {
  auto it = link_faults_.find(link);
  return it == link_faults_.end() ? default_fault_ : it->second;
}

LinkStats Network::link_stats(const ServerId& from, const ServerId& to) const {
  auto it = link_index_.find(PackLink(from, to));
  return it == link_index_.end() ? LinkStats{} : link_pool_[it->second];
}

NetStats Network::SumLinkStats() const {
  NetStats sum;
  for (const LinkStats& ls : link_pool_) {
    sum.messages_sent += ls.sent;
    sum.delivered += ls.delivered;
    sum.dropped += ls.dropped;
    sum.delayed += ls.delayed;
    sum.duplicated += ls.duplicated;
    sum.reordered += ls.reordered;
  }
  sum.bytes_sent = stats_.bytes_sent;  // Tracked in aggregate only.
  return sum;
}

uint32_t Network::LinkIndexFor(uint64_t link) {
  auto [it, inserted] = link_index_.try_emplace(
      link, static_cast<uint32_t>(link_pool_.size()));
  if (inserted) {
    link_pool_.emplace_back();
  }
  return it->second;
}

void Network::ScheduleDelivery(const ServerId& to, uint32_t link_index,
                               SimTime arrival,
                               std::function<void()> deliver) {
  sim_->ScheduleAt(arrival,
                   [this, to, link_index, deliver = std::move(deliver)] {
    // Re-index the pool at delivery time: the vector may have grown (never
    // shrunk) since the send materialized the entry.
    if (failures_.IsDown(to)) {
      ++stats_.dropped;
      ++link_pool_[link_index].dropped;
      return;
    }
    ++stats_.delivered;
    ++link_pool_[link_index].delivered;
    deliver();
  });
}

void Network::SendInternal(const ServerId& from, const ServerId& to,
                           int64_t bytes, std::function<void()> deliver,
                           bool fifo) {
  uint64_t link = PackLink(from, to);
  if (failures_.IsDown(from) || failures_.IsDown(to) || Blocked(from, to)) {
    ++stats_.dropped;
    ++link_pool_[LinkIndexFor(link)].dropped;
    return;
  }
  const LinkFault& fault = EffectiveFault(link);
  if (fault.drop_prob > 0 && rng_.NextBool(fault.drop_prob)) {
    ++stats_.dropped;
    ++link_pool_[LinkIndexFor(link)].dropped;
    return;
  }

  uint32_t li = LinkIndexFor(link);
  ++stats_.messages_sent;
  ++link_pool_[li].sent;
  stats_.bytes_sent += static_cast<uint64_t>(bytes);

  SimTime delay = topology_.Latency(from, to, rng_) + topology_.TransmitTime(bytes);
  if (fault.extra_delay > 0 || fault.extra_delay_jitter > 0) {
    SimTime extra = fault.extra_delay;
    if (fault.extra_delay_jitter > 0) {
      extra += static_cast<SimTime>(
          rng_.NextBounded(static_cast<uint64_t>(fault.extra_delay_jitter)));
    }
    if (extra > 0) {
      delay += extra;
      ++stats_.delayed;
      ++link_pool_[li].delayed;
    }
  }
  bool duplicate = fault.dup_prob > 0 && rng_.NextBool(fault.dup_prob);
  if (duplicate) {
    ++stats_.duplicated;
    ++link_pool_[li].duplicated;
  }

  if (fifo) {
    SimTime arrival = sim_->now() + delay;
    SimTime& clock = channel_clock_[link];
    if (arrival <= clock) {
      arrival = clock + 1;  // Preserve order: never overtake the channel.
    }
    clock = arrival;
    if (duplicate) {
      ScheduleDelivery(to, li, arrival, deliver);
      clock = arrival + 1;  // Duplicate rides the channel right behind.
      ScheduleDelivery(to, li, clock, std::move(deliver));
    } else {
      ScheduleDelivery(to, li, arrival, std::move(deliver));
    }
    return;
  }

  if (fault.reorder_prob > 0 && delay > 0 && rng_.NextBool(fault.reorder_prob)) {
    // Reshuffle the delivery into [0, 2·delay]: the message can overtake
    // earlier traffic or be overtaken by later traffic on the same link.
    delay = static_cast<SimTime>(
        rng_.NextBounded(static_cast<uint64_t>(2 * delay) + 1));
    ++stats_.reordered;
    ++link_pool_[li].reordered;
  }
  if (duplicate) {
    // Independent delay for the duplicate, so the copies can arrive in
    // either order.
    SimTime dup_delay = delay + 1 +
        static_cast<SimTime>(rng_.NextBounded(static_cast<uint64_t>(delay) + 1));
    ScheduleDelivery(to, li, sim_->now() + delay, deliver);
    ScheduleDelivery(to, li, sim_->now() + dup_delay, std::move(deliver));
  } else {
    ScheduleDelivery(to, li, sim_->now() + delay, std::move(deliver));
  }
}

void Network::Send(const ServerId& from, const ServerId& to, int64_t bytes,
                   std::function<void()> deliver) {
  SendInternal(from, to, bytes, std::move(deliver), /*fifo=*/false);
}

void Network::SendFifo(const ServerId& from, const ServerId& to, int64_t bytes,
                       std::function<void()> deliver) {
  SendInternal(from, to, bytes, std::move(deliver), /*fifo=*/true);
}

}  // namespace configerator
