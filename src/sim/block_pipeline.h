// The render/commit loop every parallel emission phase runs: items are
// rendered on the thread pool in fixed-size blocks, each into its own slot,
// and each block is committed to the writer on the calling thread while
// the pool renders the next one. Two block buffers alternate, so peak
// memory is two blocks of rendered rows. Rendering is keyed by the global
// item index and blocks commit in order, so neither the block size nor the
// thread count can change what is written.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "src/util/thread_pool.h"

namespace fa::sim {

// Renders items [0, total) with render(slot, i) (which must overwrite every
// field of `slot` it later reads), and commits them block by block, in
// order, with commit(std::span<Slot>). commit always runs on the calling
// thread; render runs on any pool thread, concurrently with the commit of
// the previous block, so the two must not share mutable state.
template <typename Slot, typename Render, typename Commit>
void render_and_commit(std::size_t total, std::size_t block_size,
                       Render&& render, Commit&& commit) {
  const std::size_t blocks = (total + block_size - 1) / block_size;
  std::array<std::vector<Slot>, 2> buffers;
  for (std::vector<Slot>& buffer : buffers) {
    buffer.resize(std::min(block_size, total));
  }
  const auto block_rows = [&](std::size_t b) {
    return std::min(block_size, total - b * block_size);
  };
  // Step b renders block b while committing block b - 1; the extra last
  // step commits the final block alone.
  for (std::size_t b = 0; b <= blocks; ++b) {
    std::function<void()> commit_previous;
    if (b > 0) {
      commit_previous = [&, prev = b - 1] {
        commit(std::span<Slot>(buffers[prev % 2].data(), block_rows(prev)));
      };
    }
    const std::size_t n = b < blocks ? block_rows(b) : 0;
    std::vector<Slot>& target = buffers[b % 2];
    const std::size_t first = b * block_size;
    parallel_for(
        n, [&](std::size_t j) { render(target[j], first + j); },
        commit_previous);
  }
}

}  // namespace fa::sim
