#pragma once
// RunRecorder: the per-replica distribution substrate behind the stats
// document's `distributions` block and the per-node load axis (the paper's
// load-balance concern). One instance per Simulator, installed only when a
// telemetry sink is attached (enable_recorder) — a null recorder costs one
// branch per logical send and nothing else.
//
// Everything recorded here is a pure function of the replica's RNG streams:
// the recorder itself never draws, so a run with a recorder is
// byte-identical to one without. All state is merge-order-invariant
// (FixedHistogram, u64 loads), so replica merges commute and the exported
// distributions are invariant under --threads / --sim-threads.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/message_meter.hpp"
#include "p2pse/support/fixed_histogram.hpp"

namespace p2pse::sim {

/// Canonical bucket edges for the versioned `distributions` schema. Fixed
/// constants (never derived from the data) so histograms from any run, any
/// replica, any thread count merge bucket-for-bucket.
[[nodiscard]] std::vector<double> delay_bounds();         ///< sim-time units
[[nodiscard]] std::vector<double> walk_hop_bounds();      ///< hops per walk
[[nodiscard]] std::vector<double> node_message_bounds();  ///< msgs per node
[[nodiscard]] std::vector<double> node_byte_bounds();     ///< bytes per node
[[nodiscard]] std::vector<double> degree_bounds();        ///< overlay degree

class RunRecorder {
 public:
  /// Per-node traffic tally: every transmission leaving the node
  /// (retransmissions included — they all cross its access link) plus
  /// every logical message that actually arrived at it.
  struct NodeLoad {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };

  /// Sends and deliveries append to a pending buffer of this many entries
  /// (16 B each, so it stays L2-resident); a full buffer, or any read of
  /// the tallies, folds it into the per-node table in one tight loop.
  static constexpr std::size_t kPendingCapacity = 4096;
  /// The per-node table is allocated in pages of this many nodes (64 KiB),
  /// added as ids grow: trace churn keeps handing out fresh ids, and a
  /// page table grows without copying what it already holds.
  static constexpr std::size_t kPageNodes = 4096;

  RunRecorder();

  /// One logical send: `transmissions` datagrams of `wire_size` bytes left
  /// `from`. kInvalidNode (a send without node attribution) skips the
  /// per-node tally but still counts globally via the meter.
  void on_send(net::NodeId from, std::uint32_t transmissions,
               std::uint64_t wire_size) {
    if (from == net::kInvalidNode) return;
    defer(from, transmissions,
          static_cast<std::uint64_t>(transmissions) * wire_size);
  }

  /// One delivered logical message: `to` received the final (successful)
  /// transmission after `delay` sim-time units end to end.
  void on_delivered(MessageClass cls, net::NodeId to, double delay,
                    std::uint64_t wire_size) {
    delay_[static_cast<std::size_t>(cls)].observe(delay);
    if (to == net::kInvalidNode) return;
    defer(to, 1, wire_size);
  }

  /// One completed random walk of `hops` delivered hops (Sample&Collide,
  /// RandomTour, InvertedBirthday call this; walks killed by loss do not
  /// report a length).
  void on_walk(std::uint64_t hops) {
    walk_hops_.observe(static_cast<double>(hops));
    walk_hop_total_ += hops;
  }

  [[nodiscard]] const support::FixedHistogram& delay(MessageClass cls) const {
    return delay_[static_cast<std::size_t>(cls)];
  }
  [[nodiscard]] const support::FixedHistogram& walk_hops() const noexcept {
    return walk_hops_;
  }
  /// Sum of the hops of every reported walk (the histogram keeps counts
  /// only).
  [[nodiscard]] std::uint64_t walk_hop_total() const noexcept {
    return walk_hop_total_;
  }

  /// A copy of the per-node tallies recorded so far (indexed by NodeId;
  /// nodes beyond the vector never handled a message).
  [[nodiscard]] std::vector<NodeLoad> node_loads() const;
  [[nodiscard]] std::uint64_t max_node_messages() const;
  [[nodiscard]] std::uint64_t max_node_bytes() const;

  /// Observes every alive node's total load into the two histograms
  /// (zero-load alive nodes included: they ARE the load-balance story).
  void fill_load_histograms(const net::Graph& graph,
                            support::FixedHistogram& messages,
                            support::FixedHistogram& bytes) const;

  /// Clears the per-node tallies, pending entries included (table1 reuses
  /// one simulator across algorithm blocks and reports a per-block max
  /// load). Histograms keep accumulating.
  void reset_node_loads() noexcept {
    pending_.clear();
    pages_.clear();
    nodes_ = 0;
  }

 private:
  struct Pending {
    net::NodeId node;
    std::uint32_t messages;
    std::uint64_t bytes;
  };

  void defer(net::NodeId id, std::uint32_t messages, std::uint64_t bytes) {
    pending_.push_back({id, messages, bytes});
    if (pending_.size() == kPendingCapacity) flush();
  }

  /// Folds the pending entries into the page table. Integer sums commute,
  /// so the tallies equal an eager per-send update. Const because every
  /// reader drains first; pending entries and pages are one logical state.
  void flush() const;

  /// The tally of node `id`; `id` must be below nodes_.
  [[nodiscard]] NodeLoad& load(net::NodeId id) const noexcept {
    return pages_[id / kPageNodes][id % kPageNodes];
  }

  std::vector<support::FixedHistogram> delay_;  // one per MessageClass
  support::FixedHistogram walk_hops_;
  std::uint64_t walk_hop_total_ = 0;
  mutable std::vector<std::unique_ptr<NodeLoad[]>> pages_;
  mutable std::size_t nodes_ = 0;  // one past the highest tallied id
  mutable std::vector<Pending> pending_;  // capacity kPendingCapacity
};

}  // namespace p2pse::sim
