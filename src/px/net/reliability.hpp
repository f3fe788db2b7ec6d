// px/net/reliability.hpp
// Policy half of the parcel reliability protocol: the transport-agnostic
// state machines (receiver-side dedup window, sender-side backoff schedule)
// and the failure type surfaced when a parcel exhausts its retry budget.
// The wiring half — sequence assignment, ack frames, retransmission timers
// — lives in px::dist::distributed_domain, which owns the links.
//
// Protocol sketch (per ordered (src,dst) link):
//   sender    : seq = next_seq++; keep a copy stamped with its RTO due
//               time; transmit; arm the link's timer if it would fire
//               later than that due time (or is idle)
//   timer     : fires at the earliest due time; every expired copy is
//               retransmitted with exponential backoff, up to max_retries
//               times, then abandoned (delivery_error); re-arms at the
//               next due time, or goes idle when nothing is in flight
//   receiver  : ack every data frame (including duplicates); deliver only
//               the first copy of each seq (dedup window)
//   ack path  : erase the sender copy (the timer is left alone)
// Acks are fire-and-forget: a lost ack is repaired by the data RTO, whose
// retransmission is re-acked (and suppressed as a duplicate).
#pragma once

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>

namespace px::net {

// Thrown through the future associated with a parcel whose retry budget is
// exhausted (drop-heavy fabric, see fault_plane.hpp). Fire-and-forget
// parcels fail silently into /px/net/delivery_failures instead.
class delivery_error : public std::runtime_error {
 public:
  delivery_error(std::uint32_t source, std::uint32_t dest, std::uint64_t seq,
                 int attempts)
      : std::runtime_error(
            "px::net::delivery_error: parcel seq " + std::to_string(seq) +
            " on link " + std::to_string(source) + "->" +
            std::to_string(dest) + " abandoned after " +
            std::to_string(attempts) + " attempt(s)"),
        source_(source),
        dest_(dest),
        seq_(seq),
        attempts_(attempts) {}

  [[nodiscard]] std::uint32_t source() const noexcept { return source_; }
  [[nodiscard]] std::uint32_t dest() const noexcept { return dest_; }
  [[nodiscard]] std::uint64_t seq() const noexcept { return seq_; }
  [[nodiscard]] int attempts() const noexcept { return attempts_; }

 private:
  std::uint32_t source_;
  std::uint32_t dest_;
  std::uint64_t seq_;
  int attempts_;
};

struct reliability_config {
  // When the layer sequences/acks/retransmits parcels. `automatic` (the
  // default) switches it on exactly when the domain's fault plane is
  // enabled: a loss-free in-process fabric needs no acks, and keeping them
  // off preserves the historical 1-frame-per-parcel wire accounting.
  enum class mode : std::uint8_t { automatic, on, off };
  mode activation = mode::automatic;

  // Retransmissions after the first attempt. 0 = fail on the first lost
  // frame (total attempts = retries + 1).
  int max_retries = 8;

  // Real-time backoff before retransmission k (0-based):
  //   min(initial_backoff_us * multiplier^k, max_backoff_us)
  // added to twice the fabric's injected one-way delay (an RTT estimate).
  double initial_backoff_us = 200.0;
  double backoff_multiplier = 2.0;
  double max_backoff_us = 20000.0;

  // Per-link seqs remembered above the contiguous floor on the receiver.
  std::size_t dedup_capacity = 4096;

  // First sequence number a fresh link assigns. Production always uses 1;
  // tests set this near UINT64_MAX to force the wraparound path (seqs
  // compare by serial arithmetic, and 0 stays reserved for "unsequenced",
  // so the counter wraps max -> 1). Receivers are told via
  // dedup_window::start_from.
  std::uint64_t initial_seq = 1;
};

// Backoff component (microseconds) of the RTO before retransmission
// `retry` (0-based). Pure function of the config, unit-testable.
[[nodiscard]] double backoff_us(reliability_config const& cfg, int retry) noexcept;

// Full RTO in nanoseconds for transmission attempt `attempt` (1-based), on
// a link whose injected one-way delay is `one_way_ns`.
[[nodiscard]] std::uint64_t rto_ns(reliability_config const& cfg, int attempt,
                                   std::uint64_t one_way_ns) noexcept;

// Serial-number order (RFC 1982 shape): `a` precedes `b` when the signed
// distance from `b` back to `a` is positive. Total order only within a
// half-range (2^63) window — far more than any link's in-flight span — and,
// unlike operator<, it survives the seq counter wrapping past UINT64_MAX.
[[nodiscard]] constexpr bool seq_precedes(std::uint64_t a,
                                          std::uint64_t b) noexcept {
  return static_cast<std::int64_t>(a - b) < 0;
}

// Successor of a seq in link order: increments, skipping 0 (reserved for
// "unsequenced" frames), so the counter wraps UINT64_MAX -> 1.
[[nodiscard]] constexpr std::uint64_t seq_successor(std::uint64_t s) noexcept {
  return s + 1 == 0 ? 1 : s + 1;
}

// Receiver-side exactly-once filter for one ordered link. Seqs start at
// initial_seq (1 in production) and may arrive in any order; accept()
// returns true exactly once per seq. Seq comparisons use serial arithmetic
// throughout, so the window keeps working when the sender's counter wraps
// past UINT64_MAX (the historical `seq <= floor_` guard silently rejected
// every post-wrap seq as a duplicate — an exactly-once violation in the
// "never delivered" direction). Not thread-safe — callers hold the owning
// link's lock.
//
// Memory is bounded by `capacity`: when more than `capacity` seqs sit above
// the contiguous floor, the floor is advanced to the oldest remembered seq
// and any never-seen seq below it would be misclassified as a duplicate.
// The sender's in-flight window (bounded by the retry budget and RTO) is
// orders of magnitude smaller than the default capacity, so the clamp is a
// safety valve, not an expected path.
class dedup_window {
 public:
  explicit dedup_window(std::size_t capacity = 4096) noexcept
      : capacity_(capacity == 0 ? 1 : capacity) {}

  // True -> first sighting of `seq`, deliver it. False -> duplicate.
  bool accept(std::uint64_t seq) {
    if (seq == 0) return false;  // unsequenced frames never reach here
    if (!seq_precedes(floor_, seq)) return false;
    if (!above_.insert(seq).second) return false;
    for (auto it = above_.find(seq_successor(floor_)); it != above_.end();
         it = above_.find(seq_successor(floor_))) {
      above_.erase(it);
      floor_ = seq_successor(floor_);
    }
    if (above_.size() > capacity_) {
      floor_ = *above_.begin();
      above_.erase(above_.begin());
    }
    return true;
  }

  // Every seq at or serially before floor() has been seen.
  [[nodiscard]] std::uint64_t floor() const noexcept { return floor_; }
  [[nodiscard]] std::size_t pending_gaps() const noexcept {
    return above_.size();
  }

  // Forgets everything. Used when the sender's incarnation epoch advances
  // (locality restart): the new epoch's seqs restart from 1 and must be
  // judged against a fresh window, never against the dead incarnation's.
  void reset() noexcept {
    floor_ = 0;
    above_.clear();
  }

  // Re-anchors an empty window so the first expected seq is
  // `first_expected` (the sender's initial_seq): everything serially
  // before it is treated as seen. reset() + start_from(1) is the
  // production state.
  void start_from(std::uint64_t first_expected) noexcept {
    floor_ = first_expected - 1;
    above_.clear();
  }

 private:
  struct serial_less {
    constexpr bool operator()(std::uint64_t a,
                              std::uint64_t b) const noexcept {
      return seq_precedes(a, b);
    }
  };

  std::uint64_t floor_ = 0;
  std::set<std::uint64_t, serial_less> above_;
  std::size_t capacity_;
};

}  // namespace px::net
