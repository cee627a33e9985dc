#include "p2pse/support/rng.hpp"

#include <algorithm>
#include <stdexcept>

// The hot draw paths (uniform_u64, uniform_real, exponential, normal, the
// batched fills) live in the header so they inline into callers; the
// sampling routine stays out of line.

namespace p2pse::support {

void RngStream::sample_without_replacement(std::size_t n,
                                           std::span<std::size_t> out) {
  const std::size_t k = out.size();
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  // Two regimes: Floyd's algorithm for sparse draws, partial Fisher-Yates for
  // dense draws (k a large fraction of n). Both keep their state in `out`
  // itself and scan it linearly, so a call is O(k^2) and allocates nothing.
  if (k * 4 <= n) {
    std::size_t i = 0;
    for (std::size_t j = n - k; j < n; ++j, ++i) {
      const std::size_t t = static_cast<std::size_t>(uniform_u64(j + 1));
      const auto chosen = out.first(i);
      out[i] = std::find(chosen.begin(), chosen.end(), t) == chosen.end() ? t
                                                                          : j;
    }
    return;
  }
  // Fisher-Yates over a virtual pool [0, n): step i swaps pool[i] with
  // pool[j_i], j_i = i + uniform_u64(n - i), and emits the new pool[i]. The
  // draws do not depend on the pool, so record every j_i in `out` first,
  // then resolve the emitted values from last to first. Step i emits the
  // value at position j_i before step i. The value at position p before
  // step i is p itself, unless an earlier step s had j_s == p (the latest
  // such s wins): then it is the value at position s before step s, found
  // the same way by scanning on down from s. Resolving step i reads only
  // j_0..j_{i-1}, which are still in place.
  for (std::size_t i = 0; i < k; ++i) {
    out[i] = i + static_cast<std::size_t>(uniform_u64(n - i));
  }
  for (std::size_t i = k; i-- > 0;) {
    std::size_t position = out[i];
    for (std::size_t s = i; s-- > 0;) {
      if (out[s] == position) position = s;
    }
    out[i] = position;
  }
}

std::vector<std::size_t> RngStream::sample_without_replacement(std::size_t n,
                                                               std::size_t k) {
  if (k > n) throw std::invalid_argument("sample_without_replacement: k > n");
  std::vector<std::size_t> out(k);
  sample_without_replacement(n, out);
  return out;
}

}  // namespace p2pse::support
