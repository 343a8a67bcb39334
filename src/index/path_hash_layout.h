// Path hashing's geometry and probe walk (Zuo & Hua, TPDS'17), shared by
// the NVM-resident key index (PathHashIndex) and Fig. 9's path-hashing K/V
// store (PathKvStore). Each keeps its own cell format; this header decides
// where cells are and in which order a key visits them.
#ifndef PNW_INDEX_PATH_HASH_LAYOUT_H_
#define PNW_INDEX_PATH_HASH_LAYOUT_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/util/hash.h"

namespace pnw::index {

/// An inverted complete binary tree of `cell_bytes`-sized cells starting at
/// byte `base`. Level 0 has `num_root_cells` cells (rounded up to a power
/// of two); level l has half the cells of level l-1, for at most
/// `num_levels` levels. A key hashes to two root positions (h1, h2); the
/// *paths* below them (position >> l at level l) provide its standby
/// cells, so collisions resolve with zero element movement.
class PathHashLayout {
 public:
  PathHashLayout(uint64_t base, size_t num_root_cells, size_t num_levels,
                 size_t cell_bytes)
      : base_(base),
        root_cells_(std::bit_ceil(num_root_cells)),
        cell_bytes_(cell_bytes) {
    size_t cells = root_cells_;
    for (size_t l = 0; l < num_levels && cells > 0; ++l) {
      level_offsets_.push_back(bytes_);
      bytes_ += cells * cell_bytes_;
      cells /= 2;
    }
  }

  /// Bytes the cells of every level occupy.
  size_t bytes() const { return bytes_; }

  /// Walks `key`'s candidate cells in probe order -- level by level, the
  /// h1 path's cell before the h2 path's -- and returns the address of the
  /// first cell `take(cell_addr)` accepts, or nullopt when none does.
  template <typename Take>
  std::optional<uint64_t> Probe(uint64_t key, Take take) const {
    const uint64_t h1 = util::SplitMix64(key);
    const uint64_t h2 = util::Fmix64(key ^ kHash2Stream);
    for (size_t l = 0; l < level_offsets_.size(); ++l) {
      for (const uint64_t position : {h1 >> l, h2 >> l}) {
        const uint64_t cell = CellAddr(l, position);
        if (take(cell)) {
          return cell;
        }
      }
    }
    return std::nullopt;
  }

  /// Calls fn(cell_addr) for every cell, level by level.
  template <typename Fn>
  void ForEachCell(Fn fn) const {
    for (size_t l = 0; l < level_offsets_.size(); ++l) {
      for (uint64_t p = 0; p < (root_cells_ >> l); ++p) {
        fn(CellAddr(l, p));
      }
    }
  }

 private:
  /// h2 is fmix64 of the key under a different stream constant than h1.
  static constexpr uint64_t kHash2Stream = 0xc2b2ae3d27d4eb4full;

  uint64_t CellAddr(size_t level, uint64_t position) const {
    const size_t cells_at_level = root_cells_ >> level;
    return base_ + level_offsets_[level] +
           (position & (cells_at_level - 1)) * cell_bytes_;
  }

  uint64_t base_;
  size_t root_cells_;  // power of two
  size_t cell_bytes_;
  std::vector<uint64_t> level_offsets_;  // byte offset of each level
  size_t bytes_ = 0;
};

}  // namespace pnw::index

#endif  // PNW_INDEX_PATH_HASH_LAYOUT_H_
