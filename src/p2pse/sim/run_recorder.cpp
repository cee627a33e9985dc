#include "p2pse/sim/run_recorder.hpp"

#include <algorithm>

namespace p2pse::sim {

// Edges are powers-of-two / decades over each quantity's plausible span:
// wide enough that real runs populate the interior, coarse enough that the
// exported block stays small. Changing any of these is a schema change —
// bump obs::kStatsVersion.

std::vector<double> delay_bounds() {
  return {0, 1, 5, 10, 25, 50, 100, 250, 500, 1000, 2500};
}

std::vector<double> walk_hop_bounds() {
  return {1, 2, 5, 10, 20, 50, 100, 200, 500, 1000};
}

std::vector<double> node_message_bounds() {
  return {0, 1, 10, 100, 1000, 10000, 100000, 1000000};
}

std::vector<double> node_byte_bounds() {
  return {0,       1024,     10240,     102400,
          1048576, 10485760, 104857600, 1073741824};
}

std::vector<double> degree_bounds() {
  return {0, 1, 2, 4, 8, 16, 32, 64, 128, 256};
}

RunRecorder::RunRecorder() : walk_hops_(walk_hop_bounds()) {
  delay_.reserve(static_cast<std::size_t>(MessageClass::kCount_));
  for (std::size_t i = 0; i < static_cast<std::size_t>(MessageClass::kCount_);
       ++i) {
    delay_.emplace_back(delay_bounds());
  }
  pending_.reserve(kPendingCapacity);
}

void RunRecorder::flush() const {
  if (pending_.empty()) return;
  net::NodeId top = 0;
  for (const Pending& p : pending_) top = std::max(top, p.node);
  nodes_ = std::max(nodes_, std::size_t{top} + 1);
  while (pages_.size() * kPageNodes < nodes_) {
    pages_.push_back(std::make_unique<NodeLoad[]>(kPageNodes));
  }
  // Each entry is a likely miss in a table spanning every id the run
  // handed out; hinting a few entries ahead overlaps those misses.
  constexpr std::size_t kAhead = 16;
  const std::size_t count = pending_.size();
  for (std::size_t i = 0; i < count; ++i) {
    if (i + kAhead < count) {
      __builtin_prefetch(&load(pending_[i + kAhead].node), 1);
    }
    NodeLoad& tally = load(pending_[i].node);
    tally.messages += pending_[i].messages;
    tally.bytes += pending_[i].bytes;
  }
  pending_.clear();
}

std::vector<RunRecorder::NodeLoad> RunRecorder::node_loads() const {
  flush();
  std::vector<NodeLoad> out(nodes_);
  for (std::size_t id = 0; id < nodes_; ++id) {
    out[id] = load(static_cast<net::NodeId>(id));
  }
  return out;
}

std::uint64_t RunRecorder::max_node_messages() const {
  flush();
  std::uint64_t out = 0;
  for (const auto& page : pages_) {
    for (std::size_t i = 0; i < kPageNodes; ++i) {
      out = std::max(out, page[i].messages);
    }
  }
  return out;
}

std::uint64_t RunRecorder::max_node_bytes() const {
  flush();
  std::uint64_t out = 0;
  for (const auto& page : pages_) {
    for (std::size_t i = 0; i < kPageNodes; ++i) {
      out = std::max(out, page[i].bytes);
    }
  }
  return out;
}

void RunRecorder::fill_load_histograms(const net::Graph& graph,
                                       support::FixedHistogram& messages,
                                       support::FixedHistogram& bytes) const {
  flush();
  for (const net::NodeId id : graph.alive_nodes()) {
    const NodeLoad tally = id < nodes_ ? load(id) : NodeLoad{};
    messages.observe(static_cast<double>(tally.messages));
    bytes.observe(static_cast<double>(tally.bytes));
  }
}

}  // namespace p2pse::sim
