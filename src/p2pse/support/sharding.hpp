#pragma once
// Deterministic sharding substrate for intra-replica parallelism.
//
// The contract mirrors ParallelReplicaRunner one level down: work is split
// into a FIXED number of shards (a spec'd constant, never the worker
// count), every RNG draw inside a shard comes from a substream fixed by the
// work item (a shard index or an item id, never a worker), and results are
// merged in shard-index order. Output is therefore a pure function of the
// seed — byte-identical whether the shards run on 1 worker or 16, and
// whatever --sim-threads says. The only sharded stage is the topology
// embedding (topo::Topology::attach), whose per-node draws come from
// split("node", id) substreams.
//
// ShardExecutor is the execution vehicle: it owns (lazily) a ThreadPool
// and runs `fn(shard)` for every shard index. With workers <= 1 or a
// single shard it degenerates to an inline index-ordered loop with zero
// thread or allocation cost, so sequential paths pay nothing for the
// abstraction.

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "p2pse/support/thread_pool.hpp"

namespace p2pse::support {

/// Half-open index range [begin, end).
struct ShardRange {
  std::size_t begin = 0;
  std::size_t end = 0;

  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool empty() const noexcept { return begin == end; }

  friend bool operator==(const ShardRange&, const ShardRange&) = default;
};

/// Splits [0, n) into exactly `shards` contiguous ranges (some possibly
/// empty when n < shards). Deterministic: range s gets
/// n/shards + (s < n%shards ? 1 : 0) items, earlier shards taking the
/// remainder — the same largest-first layout ThreadPool uses for chunks.
[[nodiscard]] std::vector<ShardRange> shard_ranges(std::size_t n,
                                                   std::size_t shards);

/// Runs shard bodies across a budgeted worker pool. Copy/move are
/// intentionally absent: executors are created per call site and passed by
/// pointer/reference down the stack.
class ShardExecutor {
 public:
  /// `workers` is the parallelism budget for this executor: 1 (default)
  /// means run every shard inline on the calling thread; 0 means
  /// hardware_concurrency; N means lazily spin up a pool of N workers on
  /// the first multi-shard run(). See sim_worker_budget() for how figure
  /// code derives the budget from --threads x --sim-threads.
  explicit ShardExecutor(std::size_t workers = 1);
  ~ShardExecutor();

  ShardExecutor(const ShardExecutor&) = delete;
  ShardExecutor& operator=(const ShardExecutor&) = delete;

  /// The parallelism budget (resolved; >= 1).
  [[nodiscard]] std::size_t workers() const noexcept { return workers_; }

  /// Optional per-shard scope: called on the shard's executing thread
  /// before the body, destroyed after it. The harness uses this to open an
  /// obs::Span per shard without support/ depending on obs/ (the hook is
  /// type-erased). The hook must be thread-safe; it may return nullptr.
  using ShardScopeHook = std::function<std::shared_ptr<void>(std::size_t)>;
  void set_scope_hook(ShardScopeHook hook) { scope_hook_ = std::move(hook); }

  /// Runs `fn(s)` for s in [0, shards). Inline (shard order) when the
  /// budget is 1 or there is a single shard; otherwise dispatched through
  /// the pool via parallel_for_ranges. `fn` must be safe to call
  /// concurrently for distinct shards; exceptions propagate (first in
  /// shard-index order).
  void run(std::size_t shards,
           const std::function<void(std::size_t shard)>& fn) const;

 private:
  std::size_t workers_;
  /// Created on first parallel run(); an executor that only ever runs
  /// inline never spawns a thread.
  mutable std::unique_ptr<ThreadPool> pool_;
  ShardScopeHook scope_hook_;
};

/// Resolves the intra-replica worker budget from the two CLI knobs.
/// `replica_workers` is the replica-level pool width (--threads, already
/// resolved to >= 1), `sim_threads` is the raw --sim-threads value:
///   0          -> auto: hardware_concurrency / replica_workers (>= 1)
///   N, and replica_workers <= 1
///              -> N exactly (trust the caller, like --threads does)
///   N, nested  -> min(N, hardware_concurrency / replica_workers), >= 1,
///                 so replicas x shards never oversubscribes the machine.
[[nodiscard]] std::size_t sim_worker_budget(std::size_t replica_workers,
                                            std::size_t sim_threads);

}  // namespace p2pse::support
