#include "mp/symmetry.hpp"

#include <map>

#include "common/error.hpp"
#include "common/hash.hpp"

namespace fibersim::mp {

namespace {

/// Local extent of the uneven split `total` over `n` parts at `coord`
/// (base + 1 for the first total%n coordinates — HaloGrid's rule).
std::int64_t split_extent(std::int64_t total, int n, int coord) {
  const std::int64_t base = total / n;
  const std::int64_t extra = total % n;
  return base + (coord < extra ? 1 : 0);
}

/// Structural signature of one rank under the spec: two ranks with equal
/// signatures execute identical work and record identical traces up to a
/// relabelling of grid neighbours.
std::vector<std::int64_t> signature_of(const CollapseSpec& spec,
                                       const CartGrid* grid, int size,
                                       int rank) {
  std::vector<std::int64_t> sig;
  switch (spec.kind) {
    case CollapseSpec::Kind::kCart: {
      const std::vector<int> coords = grid->coords_of(rank);
      sig.reserve(static_cast<std::size_t>(spec.ndims) * 3);
      for (int d = 0; d < spec.ndims; ++d) {
        const int n = grid->dims()[static_cast<std::size_t>(d)];
        const int c = coords[static_cast<std::size_t>(d)];
        sig.push_back(
            split_extent(spec.global[static_cast<std::size_t>(d)], n, c));
        // Boundary pattern only matters on non-periodic grids: a periodic
        // dimension gives every coordinate both neighbours.
        if (!spec.periodic) {
          sig.push_back(c == 0 ? 1 : 0);
          sig.push_back(c == n - 1 ? 1 : 0);
        }
      }
      break;
    }
    case CollapseSpec::Kind::kCounts: {
      if (spec.cyclic_total > 0) {
        // #{g in [0, total): g % size == rank}
        const std::int64_t total = spec.cyclic_total;
        sig.push_back(total / size + (rank < total % size ? 1 : 0));
      }
      if (spec.block_total > 0) {
        sig.push_back(split_extent(spec.block_total, size, rank));
      }
      if (spec.slice_total > 0) {
        const std::int64_t lo = spec.slice_total * rank / size;
        const std::int64_t hi = spec.slice_total * (rank + 1) / size;
        sig.push_back(hi - lo);
      }
      break;
    }
    case CollapseSpec::Kind::kNone:
      break;
  }
  return sig;
}

}  // namespace

RankSymmetry RankSymmetry::build(const CollapseSpec& spec, int size) {
  FS_REQUIRE(size >= 1, "symmetry needs at least one rank");
  FS_REQUIRE(spec.collapsible(), "spec declares no decomposition");
  if (spec.kind == CollapseSpec::Kind::kCart) {
    FS_REQUIRE(spec.ndims >= 1 && spec.ndims <= 4,
               "cartesian spec dimensionality out of range");
    for (int d = 0; d < spec.ndims; ++d) {
      FS_REQUIRE(spec.global[static_cast<std::size_t>(d)] >= 1,
                 "cartesian spec needs positive global extents");
    }
  }

  RankSymmetry sym;
  sym.spec_ = spec;
  sym.size_ = size;
  if (spec.kind == CollapseSpec::Kind::kCart) {
    sym.grid_.emplace(dims_create(size, spec.ndims), spec.periodic);
  }
  const CartGrid* grid = sym.grid_ ? &*sym.grid_ : nullptr;

  sym.class_of_.resize(static_cast<std::size_t>(size));
  std::map<std::vector<std::int64_t>, int> index;
  for (int rank = 0; rank < size; ++rank) {
    const std::vector<std::int64_t> sig =
        signature_of(spec, grid, size, rank);
    auto [it, inserted] =
        index.emplace(sig, static_cast<int>(sym.reps_.size()));
    if (inserted) {
      sym.reps_.push_back(rank);
      sym.members_.emplace_back();
    }
    sym.class_of_[static_cast<std::size_t>(rank)] = it->second;
    sym.members_[static_cast<std::size_t>(it->second)].push_back(rank);
  }
  return sym;
}

std::optional<std::pair<int, int>> RankSymmetry::factor_dst(int cls,
                                                            int dst) const {
  if (!grid_) return std::nullopt;
  const int rep = representative(cls);
  for (int d = 0; d < grid_->ndims(); ++d) {
    for (const int dir : {+1, -1}) {
      if (grid_->neighbor(rep, d, dir) == dst) return std::make_pair(d, dir);
    }
  }
  return std::nullopt;
}

int RankSymmetry::neighbor_of(int rank, int dim, int dir) const {
  FS_REQUIRE(grid_.has_value(), "neighbor_of needs a cartesian spec");
  return grid_->neighbor(rank, dim, dir);
}

std::uint64_t RankSymmetry::fingerprint() const {
  Fnv1a h;
  h.i32(static_cast<int>(spec_.kind))
      .i32(spec_.ndims)
      .i32(spec_.periodic ? 1 : 0)
      .u64(static_cast<std::uint64_t>(spec_.cyclic_total))
      .u64(static_cast<std::uint64_t>(spec_.block_total))
      .u64(static_cast<std::uint64_t>(spec_.slice_total))
      .i32(size_);
  for (const std::int64_t g : spec_.global) {
    h.u64(static_cast<std::uint64_t>(g));
  }
  for (const int c : class_of_) h.i32(c);
  return h.value();
}

}  // namespace fibersim::mp
