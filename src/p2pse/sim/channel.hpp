#pragma once
// Unreliable message delivery — the physical-network layer the paper names
// as future work (its §IV-A simulator counts messages only; its §V delay
// discussion is an analytic conjecture). Every protocol message is pushed
// through a Channel that draws per-message one-way latency from a
// LatencyModel, adds optional uniform jitter, and drops the message with a
// configurable probability.
//
// Determinism contract: the channel owns a dedicated RNG substream
// (Simulator derives it via rng().split("channel")), so installing a
// channel never perturbs estimator or churn randomness. A loss-free,
// zero-latency channel takes a fast path that draws nothing at all and
// therefore reproduces the reliable simulator bit-for-bit at any thread
// count.
//
// Three delivery disciplines cover the protocols' reliability needs:
//  * send          — one fire-and-forget transmission (gossip spreads,
//                    poll replies, Aggregation exchanges: redundancy or a
//                    round mask is the protocol's own repair mechanism);
//  * send_arq      — bounded per-hop ARQ: up to 1+retries transmissions,
//                    each loss detected after `timeout` (Sample&Collide
//                    walk hops and sample replies);
//  * send_reliable — retransmit until delivered (Random Tour hops: the
//                    message carries the tour's irreplaceable accumulator,
//                    the standard lossy-link adaptation is per-hop acks).

#include <cstdint>
#include <string>
#include <string_view>

#include "p2pse/net/graph.hpp"
#include "p2pse/sim/latency.hpp"
#include "p2pse/sim/message_meter.hpp"
#include "p2pse/support/rng.hpp"
#include "p2pse/topo/topology.hpp"

namespace p2pse::sim {

class RunRecorder;

/// Parsed `net:` spec — the delivery layer's five knobs.
struct NetworkConfig {
  /// Per-transmission drop probability in [0, 1].
  double loss = 0.0;
  /// One-way per-message latency distribution.
  LatencyModel latency = LatencyModel::constant(0.0);
  /// Extra uniform jitter in [0, jitter) added to every sampled latency.
  double jitter = 0.0;
  /// Loss-detection wait: how long a sender (per-hop ARQ) or an initiator
  /// (end-to-end retry) waits before declaring a message lost. Must be > 0.
  double timeout = 50.0;
  /// Retransmissions a bounded-ARQ send may use after the first attempt.
  std::uint32_t retries = 2;

  /// True when the channel cannot alter delivery at all: no loss, no
  /// latency, no jitter. Ideal configs take the draw-nothing fast path.
  [[nodiscard]] bool ideal() const noexcept {
    return loss <= 0.0 && jitter <= 0.0 && latency.mean() <= 0.0;
  }

  /// Parses "net", "net:loss=0.05,latency=exp:50,timeout=100,...".
  /// Latency grammar: constant:H | uniform:LO:HI | exp:MEAN |
  /// lognormal:MU:SIGMA | pareto:XM:ALPHA.
  /// Unknown keys, malformed values, loss outside [0,1], negative jitter,
  /// a non-positive timeout and unknown latency models are hard errors
  /// listing the valid candidates (registry style — a typo'd network spec
  /// must never silently run the reliable simulator).
  [[nodiscard]] static NetworkConfig parse(std::string_view text);

  /// Valid spec keys, e.g. for error messages: "jitter, latency, loss,
  /// retries, timeout".
  [[nodiscard]] static std::string_view keys_help() noexcept;

  /// Round-trip spec form: "net:loss=...,latency=...,jitter=...,
  /// timeout=...,retries=...". parse(canonical()) reproduces the config up
  /// to the 6-significant-digit rendering of its values — exact for every
  /// spec a human types, lossy only for values needing more digits.
  [[nodiscard]] std::string canonical() const;
};

class Channel {
 public:
  /// Outcome of one logical send (possibly several transmissions).
  struct Delivery {
    bool delivered = true;
    /// Wall-clock from first transmission to delivery: sampled latencies
    /// plus one `timeout` per lost transmission. For an undelivered ARQ
    /// send this is the full (1+retries) * timeout wait.
    double latency = 0.0;
    /// Transmissions used; every one is counted on the meter.
    std::uint32_t transmissions = 1;
  };

  /// Embedded telemetry counters (obs layer): plain u64 bumps on the send
  /// paths, per-instance (no shared state across replica channels). Note
  /// Simulator::set_network replaces the channel — and these counters —
  /// so snapshot only after all traffic (obs::collect does).
  struct Counters {
    std::uint64_t sends_iid = 0;    ///< transmissions priced i.i.d.
    std::uint64_t sends_link = 0;   ///< transmissions priced per-link
    std::uint64_t drops = 0;        ///< transmissions lost to a loss draw
    std::uint64_t retransmits = 0;  ///< transmissions beyond each first
    std::uint64_t arq_timeouts = 0; ///< bounded-ARQ sends that gave up
  };

  /// The ideal channel: delivers everything at zero latency, draws nothing.
  Channel() noexcept = default;

  Channel(const NetworkConfig& config, support::RngStream rng)
      : config_(config), rng_(rng), ideal_(config.ideal()) {}

  [[nodiscard]] const NetworkConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] bool ideal() const noexcept { return ideal_; }

  /// Installs per-link mode: every endpoint-taking send composes the i.i.d.
  /// `net:` parameters with the topology's per-link latency/loss/jitter.
  /// The caller (Simulator) only installs NON-flat topologies — a flat
  /// topology stays on the i.i.d. draw path, which is what keeps every
  /// pre-topology binary byte-identical — and must keep `topology` alive
  /// for the channel's lifetime. nullptr returns to pure i.i.d. mode.
  void set_topology(topo::Topology* topology) noexcept { topo_ = topology; }
  [[nodiscard]] bool per_link() const noexcept { return topo_ != nullptr; }
  [[nodiscard]] const topo::Topology* topology() const noexcept {
    return topo_;
  }

  /// Lifetime telemetry counters (see obs::collect).
  [[nodiscard]] const Counters& counters() const noexcept { return counters_; }

  /// Installs the distribution recorder (sim::RunRecorder): per-class delay
  /// histograms and per-node message/byte tallies, recorded once per
  /// logical send. Non-owning — the Simulator owns the recorder and
  /// re-installs it across set_network. Null (the default) disables
  /// recording at the cost of one branch per send.
  void set_recorder(RunRecorder* recorder) noexcept { recorder_ = recorder; }
  [[nodiscard]] RunRecorder* recorder() const noexcept { return recorder_; }

  /// True when some transmission can be dropped — by the i.i.d. loss knob
  /// or by any per-link class/region loss. The poll protocols use this to
  /// decide whether the initiator must hold its reply window open for the
  /// full timeout.
  [[nodiscard]] bool lossy() const noexcept;

  /// Every send names its (from, to) endpoints. With a topology installed
  /// the delivery parameters are composed for that concrete link; without
  /// one the send is priced i.i.d. and the endpoints only feed the
  /// recorder.
  ///
  /// send — one fire-and-forget transmission.
  /// send_arq — bounded ARQ: up to 1 + config().retries transmissions;
  ///   gives up after that (Delivery.delivered == false).
  /// send_reliable — retransmits until the message gets through
  ///   (safety-capped; the cap can only bite at loss rates ~1).
  ///
  /// All three disciplines inline their commonest case — an ideal channel
  /// with no topology and no recorder, where a send only counts — so a
  /// walk replaying its hops or a gossip round sweeping every node pays no
  /// call per message.
  Delivery send(MessageMeter& meter, MessageClass cls, net::NodeId from,
                net::NodeId to) {
    if (counts_only()) return count_only(meter, cls);
    return send_priced(meter, cls, from, to);
  }
  Delivery send_arq(MessageMeter& meter, MessageClass cls, net::NodeId from,
                    net::NodeId to) {
    if (counts_only()) return count_only(meter, cls);
    return send_arq_priced(meter, cls, from, to);
  }
  Delivery send_reliable(MessageMeter& meter, MessageClass cls,
                         net::NodeId from, net::NodeId to) {
    if (counts_only()) return count_only(meter, cls);
    return send_reliable_priced(meter, cls, from, to);
  }

 private:
  /// Whether a send can only count: nothing to draw, price or record.
  [[nodiscard]] bool counts_only() const noexcept {
    return ideal_ && topo_ == nullptr && recorder_ == nullptr;
  }
  Delivery count_only(MessageMeter& meter, MessageClass cls) noexcept {
    meter.count(cls);
    ++counters_.sends_iid;
    return Delivery{};
  }
  Delivery send_priced(MessageMeter& meter, MessageClass cls,
                       net::NodeId from, net::NodeId to);
  Delivery send_arq_priced(MessageMeter& meter, MessageClass cls,
                           net::NodeId from, net::NodeId to);
  Delivery send_reliable_priced(MessageMeter& meter, MessageClass cls,
                                net::NodeId from, net::NodeId to);

  [[nodiscard]] double draw_latency();
  /// One delivered per-link transmission's latency: the i.i.d. draw plus
  /// the link's deterministic terms plus one access-jitter draw. All three
  /// per-link disciplines share it, keeping their draw sequences aligned.
  [[nodiscard]] double draw_link_latency(const topo::Topology::LinkParams& link);

  /// The i.i.d. delivery bodies: the sends' fallback when no topology is
  /// installed. They draw and count but never record — the public sends
  /// record with their endpoints.
  Delivery send_iid(MessageMeter& meter, MessageClass cls);
  Delivery send_arq_iid(MessageMeter& meter, MessageClass cls);
  Delivery send_reliable_iid(MessageMeter& meter, MessageClass cls);
  /// One logical send into the recorder: all transmissions leave `from`,
  /// the delivered final one reaches `to`. Called with recorder_ non-null.
  void record(const MessageMeter& meter, MessageClass cls, net::NodeId from,
              net::NodeId to, const Delivery& delivery);

  NetworkConfig config_{};
  support::RngStream rng_{0};
  bool ideal_ = true;
  topo::Topology* topo_ = nullptr;
  Counters counters_{};
  RunRecorder* recorder_ = nullptr;
};

}  // namespace p2pse::sim
